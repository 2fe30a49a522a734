"""Noise kernels: the response shape G(t, x) of a shot with mark x, aged t.

A kernel is the pair ``(G, g)`` with ``G(t, x) = G(0, x) + int_0^t g(s, x) ds``;
absolute continuity in ``t`` is what makes the resulting shot-noise process a
semimartingale, and it is verified numerically rather than assumed.

Both ``G`` and ``g`` are vectorized: ``t`` may be a scalar or an ``(n,)``
array and ``x`` a ``(d,)`` or ``(n, d)`` array, broadcasting elementwise.
Kernels are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotSeparableError,
    ParameterError,
    ZeroAtOriginError,
    check_finite,
)
from .quadrature import DEFAULT_QUAD_TOL, cumulative_integral

KIND_JUMP_TO_LEVEL = "jump_to_level"
KIND_EXPONENTIAL = "exponential"
KIND_POWER_LAW = "power_law"
KIND_RANDOM_DECAY = "random_decay"
KIND_CUSTOM = "custom"


def _x1(x):
    return np.asarray(x, dtype=float)[..., 0]


@dataclass(frozen=True)
class NoiseKernel:
    kind: str
    G: Callable
    g: Callable
    mark_dim: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mark_dim < 1:
            raise ParameterError("mark_dim", "must be >= 1")


def jump_to_level() -> NoiseKernel:
    """G(t, x) = x1: each shot moves the level permanently; g = 0."""
    return NoiseKernel(
        kind=KIND_JUMP_TO_LEVEL,
        G=lambda t, x: np.broadcast_arrays(np.asarray(t, dtype=float), _x1(x))[1] + 0.0,
        g=lambda t, x: np.zeros(np.broadcast(np.asarray(t, dtype=float), _x1(x)).shape),
        mark_dim=1,
    )


def exponential(a: float, b: float) -> NoiseKernel:
    """G(t, x) = a * x1 * exp(-b t): the Ornstein-Uhlenbeck (Markov) kernel."""
    a, b = float(a), float(b)
    check_finite(a=a, b=b)
    return NoiseKernel(
        kind=KIND_EXPONENTIAL,
        G=lambda t, x: a * _x1(x) * np.exp(-b * np.asarray(t, dtype=float)),
        g=lambda t, x: -b * a * _x1(x) * np.exp(-b * np.asarray(t, dtype=float)),
        mark_dim=1,
        params={"a": a, "b": b},
    )


def power_law(c: float) -> NoiseKernel:
    """G(t, x) = x1 / (1 + c t): slow decay with long-memory effects."""
    c = float(c)
    check_finite(c=c)
    if c <= 0:
        raise ParameterError("c", "must be > 0 for power-law decay")
    return NoiseKernel(
        kind=KIND_POWER_LAW,
        G=lambda t, x: _x1(x) / (1.0 + c * np.asarray(t, dtype=float)),
        g=lambda t, x: -c * _x1(x) / (1.0 + c * np.asarray(t, dtype=float)) ** 2,
        mark_dim=1,
        params={"c": c},
    )


def random_decay() -> NoiseKernel:
    """G(t, (u, v)) = u * exp(-v t): per-shot random decay speed (d = 2)."""
    def G(t, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] * np.exp(-x[..., 1] * np.asarray(t, dtype=float))

    def g(t, x):
        x = np.asarray(x, dtype=float)
        return -x[..., 1] * x[..., 0] * np.exp(-x[..., 1] * np.asarray(t, dtype=float))

    return NoiseKernel(kind=KIND_RANDOM_DECAY, G=G, g=g, mark_dim=2)


def custom(G: Callable, g: Callable, mark_dim: int, *,
           quad_tol: float = DEFAULT_QUAD_TOL) -> NoiseKernel:
    """Wrap user-supplied ``(G, g)``, verifying consistency numerically.

    The derivative is never inferred: callers must supply ``g`` and the
    constructor checks ``G(t, x) - G(0, x) = int_0^t g`` on a small probe
    grid, failing loudly on mismatch (robustness over convenience).
    """
    kern = NoiseKernel(kind=KIND_CUSTOM, G=G, g=g, mark_dim=int(mark_dim))
    ts = np.linspace(0.25, 1.0, 4)
    xs = np.ones((3, kern.mark_dim)) * np.array([0.5, 1.0, 2.0])[:, None]
    resid = check_absolute_continuity(kern, ts, xs, quad_tol=quad_tol)
    if not resid <= quad_tol:
        raise ValueError(
            f"custom kernel inconsistent: |G(t,x)-G(0,x)-int g| = {resid:.3e} "
            f"exceeds {quad_tol:.1e}"
        )
    return kern


def from_table(ts, xs, values) -> NoiseKernel:
    """Tabulated 1-d kernel: G bilinear in (t, x1), g its exact t-derivative.

    ``values[i, j] = G(ts[i], xs[j])``; between knots G is linear in t, so g
    is piecewise constant and the pair is absolutely continuous by
    construction.  ``params`` records the knots: G and g kink in t at
    ``t_knots`` and in x1 at ``x_knots``, which quadratures take as
    breakpoints.
    """
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(values, dtype=float)
    check_finite(ts=ts, xs=xs, values=vals)
    if ts.ndim != 1 or xs.ndim != 1 or vals.shape != (ts.size, xs.size):
        raise ValueError("need values shaped (len(ts), len(xs))")
    for name, knots in (("ts", ts), ("xs", xs)):
        if knots.size < 2 or np.any(np.diff(knots) <= 0):
            raise ParameterError(name,
                                 "needs at least 2 strictly increasing knots")

    slopes = np.diff(vals, axis=0) / np.diff(ts)[:, None]

    def _locate(t, x):
        t = np.asarray(t, dtype=float)
        x1 = _x1(x)
        t, x1 = np.broadcast_arrays(t, x1)
        it = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.size - 2)
        jx = np.clip(np.searchsorted(xs, x1, side="right") - 1, 0, xs.size - 2)
        wt = (t - ts[it]) / (ts[it + 1] - ts[it])
        wx = (x1 - xs[jx]) / (xs[jx + 1] - xs[jx])
        return it, jx, wt, wx

    def G(t, x):
        it, jx, wt, wx = _locate(t, x)
        v00 = vals[it, jx]
        v01 = vals[it, jx + 1]
        v10 = vals[it + 1, jx]
        v11 = vals[it + 1, jx + 1]
        lo = v00 * (1.0 - wx) + v01 * wx
        hi = v10 * (1.0 - wx) + v11 * wx
        return lo * (1.0 - wt) + hi * wt

    def g(t, x):
        it, jx, _wt, wx = _locate(t, x)
        s0 = slopes[it, jx]
        s1 = slopes[it, jx + 1]
        return s0 * (1.0 - wx) + s1 * wx

    return NoiseKernel(
        kind=KIND_CUSTOM, G=G, g=g, mark_dim=1,
        params={"t_knots": tuple(float(t) for t in ts),
                "x_knots": tuple(float(x) for x in xs)},
    )


def eval_G(kernel: NoiseKernel, t: float, x) -> float:
    """Evaluate G(t, x) with full validation; the checked scalar entry point."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    check_finite(t=t, x=xv)
    if t < 0:
        raise ValueError("t must be >= 0")
    if xv.shape != (kernel.mark_dim,):
        raise DimensionMismatchError(
            f"mark has shape {xv.shape}, kernel expects ({kernel.mark_dim},)"
        )
    val = float(kernel.G(float(t), xv))
    if not math.isfinite(val):
        raise NonFiniteError(f"G({t}, {xv}) = {val}")
    return val


def check_absolute_continuity(kernel: NoiseKernel, ts=None, xs=None, *,
                              quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """Max residual |G(t,x) - G(0,x) - int_0^t g(s,x) ds| over the probe grid.

    Defaults probe a 50x50 (t, x1) grid with trailing mark coordinates at 1.
    """
    if ts is None:
        ts = np.linspace(0.0, 2.0, 50)
    ts = np.asarray(ts, dtype=float)
    if xs is None:
        x1 = np.linspace(0.1, 3.0, 50)
        xs = np.ones((x1.size, kernel.mark_dim))
        xs[:, 0] = x1
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs.reshape(-1, 1)
    check_finite(ts=ts, xs=xs)

    ts_all = np.unique(np.concatenate([[0.0], ts]))
    if ts_all[0] < 0:
        raise ParameterError("ts", "has a negative entry: probe times must be >= 0")
    # every probe mark is one component (a row) of one cumulative integral,
    # cut where g may jump at table knots
    rows = xs[:, None, :]
    integral = cumulative_integral(lambda s: kernel.g(s, rows), ts_all,
                                   quad_tol / 10.0,
                                   breakpoints=kernel.params.get("t_knots", ()))
    resid = np.abs(kernel.G(ts_all, rows) - kernel.G(0.0, rows) - integral)
    return float(resid.max())


class MarkovTest(NamedTuple):
    is_markov: bool
    a: float | None
    b: float | None
    max_residual: float


_SEPARABILITY_TOL = 1e-9


def is_markov_kernel(kernel: NoiseKernel, grid=None, tol: float = 1e-10) -> MarkovTest:
    """Classify a separable kernel G(t, x) = x1 * H(t) as Markov or not.

    Markovianity of the shot-noise process is equivalent to exponential decay
    of H; on a finite grid this becomes the multiplicative Cauchy relation
    ``H(s - t) H(t) = H(s) H(0)`` holding within ``tol`` for every grid pair
    t <= s.  When it holds the exponential parameters are recovered as
    ``a = H(0)`` and ``b = -log(H(1)/H(0))``.

    The functional-equation argument behind this test needs H to take all
    values in some interval (0, eps]; no finite probe can certify that range
    condition, so this test only requires H(0) != 0 and is therefore a
    grid-level surrogate, exact for the built-in families.  A non-finite
    grid or ``tol`` raises ``NonFiniteError`` and ``tol <= 0``
    ``ParameterError``; NaN residuals mean not Markov.
    """
    grid = np.unique(np.linspace(0.0, 5.0, 11) if grid is None
                     else np.asarray(grid, dtype=float))
    check_finite(grid=grid, tol=tol)
    if tol <= 0:
        raise ParameterError("tol", f"must be > 0, got {tol}")
    if grid.size < 3:
        raise ValueError("grid needs at least 3 points")
    if np.any(grid < 0):
        raise ParameterError("grid", "times must be >= 0")

    _require_separable(kernel, grid)

    probe = np.ones(kernel.mark_dim)
    H = lambda t: np.asarray(kernel.G(t, probe), dtype=float)
    h0 = float(H(0.0))
    if abs(h0) < tol:
        raise ZeroAtOriginError(f"|H(0)| = {abs(h0):.3e} < tol")

    t_small, s_big = grid[:, None], grid[None, :]
    mask = s_big >= t_small
    lag = np.where(mask, s_big - t_small, 0.0)  # keep H off negative lags
    resid = H(lag) * H(t_small) - H(s_big) * h0
    max_resid = float(np.abs(np.where(mask, resid, 0.0)).max())
    ratio = float(H(1.0)) / h0
    if not (max_resid <= tol and ratio > 0.0):
        return MarkovTest(False, None, None, max_resid)
    return MarkovTest(True, h0, 0.0 - math.log(ratio), max_resid)  # not -0.0


def _require_separable(kernel, grid):
    """Probe G(t, x)/x1 for dependence on the mark beyond the x1 factor."""
    times = np.linspace(grid[0], grid[-1], 10)
    x1s = np.array([0.5, 1.0, 2.0])
    trailing = [0.7, 1.3] if kernel.mark_dim > 1 else [1.0]
    ratios = []
    for tr in trailing:
        x = np.full((x1s.size, kernel.mark_dim), tr)
        x[:, 0] = x1s
        vals = kernel.G(times[:, None], x[None, :, :]) / x1s[None, :]
        ratios.append(np.asarray(vals, dtype=float))
    stacked = np.stack(ratios)  # (trailing, time, x1)
    spread = stacked.max(axis=(0, 2)) - stacked.min(axis=(0, 2))
    if np.any(spread > _SEPARABILITY_TOL):
        raise NotSeparableError(
            f"G(t,x)/x1 varies by {spread.max():.3e} over the probe set"
        )
