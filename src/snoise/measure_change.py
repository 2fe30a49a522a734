"""Girsanov machinery for marked point processes and the shot-noise stock model.

An equivalent measure change is encoded by a nonnegative kernel Y(t, x): the
compensator becomes Y(t, x) nu(t, dx) dt and the density process is

    L_t = exp(-int_0^t int (Y(s,x) - 1) nu(s,dx) ds) * prod_{T_n <= t} Y(T_n, U_n),

computed here in log-space.  Only deterministic Y is offered publicly: that is
exactly what preserves independent increments of the cumulative-mark process,
which is the point of the stationary reweighting (lambda'/lambda) eta(x).

The stock model is

    X_t = X_0 exp(mu t + sigma W_t - sigma^2 t / 2
                  + int_0^t sum_{T_i <= s} g(s - T_i, U_i) ds
                  + sum_{T_i <= t} G(0, U_i)),

and absence of arbitrage is operationalized through the drift condition: the
residual assembled here vanishes iff the chosen market price of diffusive
risk makes discounted prices local martingales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateJumpsError,
    IntegrabilityFailureError,
    MgfDivergesError,
    ParameterError,
    QuadratureFailureError,
    check_finite,
)
from .kernels import NoiseKernel
from .marks import MarkDistribution
from .point_process import (
    CompensatorSpec,
    MppPath,
    check_times,
    constant_rate,
    one_path,
    past_sum,
    slice_integrand,
    standard,
)
from .quadrature import DEFAULT_QUAD_TOL, cumulative_integral
from .rng import TAG_BATCH, TAG_BROWNIAN, TAG_STOCK_JUMPS, make_stream
from .stats import (CfEstimate, batch_log_weights, log_kernel_at_events,
                    mean_estimate, simulate_batch)


@dataclass(frozen=True)
class GirsanovKernel:
    """Reweighting kernel Y(t, x) >= 0; vectorized like mark test functions."""

    Y: Callable


def identity_kernel() -> GirsanovKernel:
    return GirsanovKernel(lambda t, x: np.ones(np.shape(x)[:-1]))


@dataclass(frozen=True)
class MartingaleMeasureSpec:
    """Stationary target measure: rate lambda', marks F'(dx) = eta(x) F(dx).

    ``eta`` is the Radon-Nikodym density of F' w.r.t. F (vectorized over mark
    rows); ``marks_prime`` is the sampleable F' used for direct simulation
    under the target measure.  The market price of diffusive risk is not
    part of the spec: :func:`market_price_of_risk` derives it from the drift
    condition.
    """

    lambda_prime: float
    eta: Callable
    marks_prime: MarkDistribution | None = None

    def __post_init__(self):
        check_finite(lambda_prime=self.lambda_prime)
        if self.lambda_prime <= 0:
            raise ParameterError("lambda_prime", "must be > 0")


def unit_eta():
    return lambda x: np.ones(np.asarray(x, dtype=float).shape[:-1])


def eta_normalization(mm: MartingaleMeasureSpec, spec: CompensatorSpec,
                      quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """int eta dF; must equal 1 for F' to be a probability measure."""
    return float(spec.marks.integrate(mm.eta, 0.0, quad_tol))


def stationary_reweight(mm: MartingaleMeasureSpec,
                        spec: CompensatorSpec) -> GirsanovKernel:
    """Y(t, x) = (lambda'/lambda) eta(x) for a constant base rate lambda > 0."""
    lam = constant_rate(spec)
    if lam <= 0:
        raise ParameterError("stationary_rate", "must be > 0 to reweight")
    factor = mm.lambda_prime / lam
    return GirsanovKernel(
        Y=lambda t, x: factor * np.asarray(mm.eta(x), dtype=float))


def prime_spec(mm: MartingaleMeasureSpec, spec: CompensatorSpec) -> CompensatorSpec:
    """The compensator under the target measure: rate lambda', marks F'."""
    if mm.marks_prime is None:
        raise ParameterError("marks_prime", "is None: direct simulation under "
                             "P' needs sampleable marks_prime")
    return standard(mm.lambda_prime, mm.marks_prime)


@dataclass(frozen=True)
class DensityPath:
    """Girsanov density L along one path, at merged grid and event times.

    ``zero_flag`` marks an absolutely continuous but non-equivalent change:
    some event had Y(T_n, U_n) = 0 and L is exactly zero from there on.
    """

    times: np.ndarray
    L: np.ndarray
    zero_flag: bool


def _compensator_curve(kernel: GirsanovKernel, spec: CompensatorSpec,
                       times: np.ndarray, quad_tol: float) -> np.ndarray:
    """C(t) = int_0^t int (Y - 1) nu(s, dx) ds at the sorted ``times``.

    One route for every kernel, reading no declaration.  nu is finite on
    [0, t], so int Y d nu = C(t) + int_0^t rate is finite exactly when C(t) is.
    """
    check_times(times, np.finfo(float).max)  # finite and >= 0, first
    curve = np.asarray(cumulative_integral(slice_integrand(
        spec, lambda s, x: np.asarray(kernel.Y(s, x), dtype=float) - 1.0,
        quad_tol, times[-1] - times[0]), times, quad_tol), dtype=float)
    if not np.isfinite(curve).all():
        raise IntegrabilityFailureError(
            f"int Y d nu over [0, {times[-1]}] is not finite")
    return curve


def girsanov_compensator(kernel: GirsanovKernel, spec: CompensatorSpec,
                         T: float, *,
                         quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """int_0^T int (Y(s, x) - 1) nu(s, dx) ds, the deterministic log-L part."""
    return float(_compensator_curve(kernel, spec, np.array([0.0, T]),
                                    quad_tol)[-1])


def density_process(kernel: GirsanovKernel, spec: CompensatorSpec,
                    path: MppPath, grid, *,
                    quad_tol: float = DEFAULT_QUAD_TOL) -> DensityPath:
    """The density L along one path at all grid and event times (log-space)."""
    one_path(path, "density_process")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    check_times(grid, path.horizon)
    t_max = float(grid.max())
    ev = path.times[path.times <= t_max]
    times = np.unique(np.concatenate([[0.0], grid, ev]))
    comp = _compensator_curve(kernel, spec, times, quad_tol)

    log_y = log_kernel_at_events(kernel.Y, ev, path.marks[:ev.size])
    zero_flag = bool(np.isneginf(log_y).any())
    cum_log = np.concatenate([[0.0], np.cumsum(log_y)])
    counts = np.searchsorted(ev, times, side="right")
    log_l = -comp + cum_log[counts]
    L = np.where(np.isneginf(log_l), 0.0, np.exp(log_l))
    return DensityPath(times, L, zero_flag)


def reweighted_expectation(kernel: GirsanovKernel, spec: CompensatorSpec,
                           functional, horizon: float, n_paths: int, seed: int,
                           *, quad_tol: float = DEFAULT_QUAD_TOL) -> CfEstimate:
    """Importance-sampling estimate of E_{P'}[functional] = E_P[L_T functional].

    The paths under P are one :func:`~snoise.stats.simulate_batch` on
    ``TAG_BATCH``; ``functional`` maps that batch to one value per path
    (``lambda b: b.counts`` for the jump count).
    """
    if n_paths < 2:
        raise ParameterError("n_paths", "must be >= 2: need at least 2 paths "
                             "for a standard error")
    batch = simulate_batch(spec, horizon, n_paths, seed, tag=TAG_BATCH)
    comp_T = girsanov_compensator(kernel, spec, horizon, quad_tol=quad_tol)
    return mean_estimate(np.exp(batch_log_weights(kernel.Y, batch, comp_T))
                         * np.asarray(functional(batch), dtype=float))


def esscher_density(h: float, times, x_values, mgf) -> np.ndarray:
    """Exponential-tilt density L_t = exp(h X_t) / E[exp(h X_t)] along a path.

    ``mgf`` is E[exp(h X_t)] as a callable of t or as an array aligned with
    ``times``.  A non-finite ``h``, time or value raises ``NonFiniteError``.
    """
    times = np.asarray(times, dtype=float)
    x_values = np.asarray(x_values, dtype=float)
    check_finite(h=h, times=times, x_values=x_values)
    m = np.array([float(mgf(t)) for t in times] if callable(mgf) else mgf,
                 dtype=float)
    if m.shape != times.shape or x_values.shape != times.shape:
        raise ValueError("times, x_values and mgf values must align")
    if np.any(~np.isfinite(m)) or np.any(m <= 0):
        raise MgfDivergesError("E[exp(h X_t)] must be finite and positive")
    return np.exp(h * x_values) / m


@dataclass(frozen=True)
class MarketParams:
    """Shot-noise stock model inputs.

    ``short_rate`` is a deterministic, vectorized rate curve r(t) with
    locally integrable values.
    """

    x0: float
    mu_drift: float
    sigma: float
    short_rate: Callable
    kernel: NoiseKernel
    spec: CompensatorSpec

    def __post_init__(self):
        check_finite(x0=self.x0, mu_drift=self.mu_drift, sigma=self.sigma)
        if self.x0 <= 0:
            raise ParameterError("x0", "must be > 0")
        sigma = float(self.sigma)  # a Python float: its square cannot warn
        if not (sigma > 0 and math.isfinite(sigma * sigma)):
            raise ParameterError("sigma", "must be > 0 with a finite square")
        if self.kernel.mark_dim != self.spec.mark_dim:
            raise ParameterError("kernel", "and compensator mark dimensions differ")

    def integrated_rate(self, times, quad_tol: float = DEFAULT_QUAD_TOL):
        """int_0^t r(s) ds at each time."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        pts = np.unique(np.concatenate([[0.0], times]))
        cum = np.asarray(cumulative_integral(
            lambda s: np.asarray(self.short_rate(s), dtype=float),
            pts, quad_tol), dtype=float)
        return cum[np.searchsorted(pts, times)]


def _jump_transform_integral(market: MarketParams, fn, t: float,
                             quad_tol: float) -> float:
    """int fn(e^{G(0,x)}) nu(t, dx) for the slice measure."""
    G0 = lambda x: np.asarray(market.kernel.G(0.0, x), dtype=float)
    return float(market.spec.slice_integral(
        t, lambda x: fn(np.exp(G0(x))), quad_tol))


def sum_past_g(market: MarketParams, t, path, *, strict: bool = False):
    """sum_{T_i <= t} g(t - T_i, U_i) per path (T_i < t if ``strict``), at
    one time ``t`` for every path or one time per path, in [0, horizon]."""
    check_times(t, path.horizon)
    if _one_time(t):
        return past_sum(market.kernel.g, path, t, strict=strict)
    return past_sum(market.kernel.g, path, np.reshape(t, (-1, 1)),
                    strict=strict)[:, 0]


def _one_time(t) -> bool:
    # np.isscalar first: np.ndim raises and catches inside for a Python
    # float, which costs microseconds in per-state loops
    return np.isscalar(t) or np.ndim(t) == 0


def _at_times(t, values):
    """``values`` (a scalar or one per time) as a float for a scalar ``t``."""
    return float(values) if _one_time(t) else np.asarray(values, dtype=float)


def mmm_ell(market: MarketParams, t: float, x_tm: float, path: MppPath, *,
            quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """The minimal-martingale-measure loading at t-:

        ell = (mu + sum_{T_i < t} g(t - T_i, U_i) + int (e^{G(0,x)} - 1) nu(t,dx))
              / (X_{t-} * int (e^{G(0,x)} - 1)^2 nu(t,dx)).

    Exposed as a diagnostic only; simulating under the minimal martingale
    measure is out of scope because it destroys independent increments.
    """
    one_path(path, "mmm_ell")
    check_finite(x_tm=x_tm)
    # first, so a bad t fails the read rule before the integrals at t run
    past = sum_past_g(market, t, path, strict=True)
    num_jump = _jump_transform_integral(market, lambda e: e - 1.0, t, quad_tol)
    den = _jump_transform_integral(market, lambda e: (e - 1.0) ** 2, t, quad_tol)
    if den <= 0.0:
        raise DegenerateJumpsError(
            "int (e^{G(0,x)} - 1)^2 nu(t, dx) vanishes; no jump risk at t"
        )
    num = market.mu_drift + past + num_jump
    return num / den / x_tm


def jump_moment_m1(market: MarketParams,
                   mm: MartingaleMeasureSpec | None, *,
                   quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """m1 = int (e^{G(0,x)} - 1) lambda' F'(dx), with F' = eta F.

    ``mm = None`` means the identity target (lambda' = lambda, eta = 1).
    """
    if market.spec.rate_bound == 0.0:
        return 0.0
    G0 = lambda x: np.asarray(market.kernel.G(0.0, x), dtype=float)
    lam_p, eta = ((constant_rate(market.spec), unit_eta()) if mm is None
                  else (mm.lambda_prime, mm.eta))
    try:
        val = lam_p * float(market.spec.marks.integrate(
            lambda x: (np.exp(G0(x)) - 1.0) * np.asarray(eta(x), dtype=float),
            0.0, quad_tol))
    except QuadratureFailureError as exc:
        raise MgfDivergesError(
            f"int e^{{G(0,x)}} dF' could not be established finite: {exc}"
        ) from exc
    if not math.isfinite(val):
        raise MgfDivergesError("int e^{G(0,x)} dF' is not finite")
    return val


def market_price_of_risk(market: MarketParams,
                         mm: MartingaleMeasureSpec | None,
                         t, path, *,
                         quad_tol: float = DEFAULT_QUAD_TOL):
    """xi_t = sigma^{-1} (mu - r(t) + m1 + sum_{T_i <= t} g(t - T_i, U_i))
    per path of ``path``, at one time ``t`` for every path or one time per
    path, with m1 computed once.
    """
    m1 = jump_moment_m1(market, mm, quad_tol=quad_tol)
    r_t = _at_times(t, market.short_rate(t))
    return (market.mu_drift - r_t + m1 + sum_past_g(market, t, path)) / market.sigma


def drift_residual(market: MarketParams, mm: MartingaleMeasureSpec | None,
                   t, path, *, xi=None,
                   quad_tol: float = DEFAULT_QUAD_TOL):
    """Residual of the drift condition at (t, path state); zero iff it holds.

    Assembled independently of :func:`market_price_of_risk`: the jump term is
    integrated against Y(t, x) nu(t, dx) with Y = (lambda'/lambda) eta rather
    than against lambda' F' directly.  ``mm = None`` targets P itself (Y = 1).
    ``xi`` is the market price of diffusive risk at t; when omitted it is
    :func:`market_price_of_risk` at (t, path).  ``t`` is one time for
    every path of ``path`` or one time per path, and the result one residual
    per path; an array of times makes the jump term one slice integral.
    """
    check_finite(xi=xi)
    if xi is None:
        xi = market_price_of_risk(market, mm, t, path, quad_tol=quad_tol)
    if market.spec.rate_bound == 0.0:
        jump_term = 0.0
    else:
        y_fn = (identity_kernel() if mm is None
                else stationary_reweight(mm, market.spec)).Y
        G0 = lambda x: np.asarray(market.kernel.G(0.0, x), dtype=float)
        # Y is time-homogeneous, so one row of mark values serves every t
        jump_term = _at_times(t, market.spec.slice_integral(
            t,
            lambda x: (np.exp(G0(x)) - 1.0) * np.asarray(y_fn(t, x), dtype=float),
            quad_tol))
    r_t = _at_times(t, market.short_rate(t))
    return r_t - (market.mu_drift - market.sigma * xi
                  + sum_past_g(market, t, path) + jump_term)


@dataclass(frozen=True)
class StockPaths:
    times: np.ndarray
    X: np.ndarray  # (n_paths, len(times))
    paths: MppPath  # the jump paths; path i drives row i of X


def simulate_stock(market: MarketParams, mm: MartingaleMeasureSpec | None,
                   horizon: float, grid, n_paths: int, seed: int, *,
                   quad_tol: float = DEFAULT_QUAD_TOL) -> StockPaths:
    """Simulate the stock on the output ``grid`` (must start at 0), exactly.

    All jump paths are one :func:`~snoise.stats.simulate_batch` on
    ``TAG_STOCK_JUMPS`` (under ``mm`` with compensator lambda' F'), and the
    Brownian increments on the grid are one ``(n_paths, len(grid) - 1)``
    draw from ``(seed, 0, TAG_BROWNIAN)``, independent of the jumps.  The
    kernel contract G(t, x) = G(0, x) + int_0^t g makes both path integrals
    closed form for every kernel: with S_t = sum_{T_i <= t} G(t - T_i, U_i)
    and J_t = sum_{T_i <= t} G(0, U_i),

        log X_t = log X_0 + mu t + sigma W_t - sigma^2 t / 2 + S_t,

    and under ``mm`` the Brownian motion acquires drift -xi, with
    sigma int_0^t xi = mu t - int_0^t r + m1 t + (S_t - J_t).  No time grid
    finer than ``grid`` is involved.
    """
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or grid.size < 2 or grid[0] != 0.0
            or np.any(np.diff(grid) <= 0) or grid[-1] > horizon):
        raise ParameterError("grid", "must be 1-d, rising from 0 to <= horizon")

    sim_spec = prime_spec(mm, market.spec) if mm is not None else market.spec
    paths = simulate_batch(sim_spec, horizon, n_paths, seed, tag=TAG_STOCK_JUMPS)
    mu, sigma, G = market.mu_drift, market.sigma, market.kernel.G

    dw = (make_stream(seed, 0, TAG_BROWNIAN).normal(size=(n_paths, grid.size - 1))
          * np.sqrt(np.diff(grid)))
    w = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(dw, axis=1)], axis=1)
    s_t = past_sum(G, paths, grid)
    log_x = (math.log(market.x0) + mu * grid + sigma * w
             - 0.5 * sigma**2 * grid + s_t)
    if mm is not None:
        m1 = jump_moment_m1(market, mm, quad_tol=quad_tol)
        j_t = past_sum(lambda lag, x: G(np.zeros_like(lag), x), paths, grid)
        sigma_int_xi = (mu * grid - market.integrated_rate(grid, quad_tol)
                        + m1 * grid + (s_t - j_t))
        log_x = log_x - sigma_int_xi
    return StockPaths(grid, np.exp(log_x), paths)
