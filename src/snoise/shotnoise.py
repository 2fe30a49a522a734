"""Shot-noise processes: evaluation, conditional characteristic function,
conditional mean, semimartingale decomposition and the Markov one-step update.

The process is S_t = sum_{T_i <= t} G(t - T_i, U_i) built from a noise kernel
and a marked point process with deterministic compensator nu(ds, dx).  The
conditional characteristic function splits into an exponential-affine pair:

    E[exp(i theta S_T) | F_t]
        = exp(i theta sum_{T_i <= t} G(T - T_i, U_i))            (state factor)
        * exp(int_t^T int (exp(i theta G(T-s, x)) - 1) nu(ds,dx)) (future factor)

Both log-factors are exposed so the affine structure itself can be asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    IntegrabilityFailureError,
    LevelTooWideError,
    ParameterError,
    QuadratureFailureError,
    UnsupportedMarksError,
    check_finite,
)
from .kernels import NoiseKernel
from .marks import MODE_SAMPLE
from .point_process import (
    CompensatorSpec,
    MppPath,
    check_times,
    compensator_mass,
    one_path,
    past_sum,
)
from .quadrature import DEFAULT_QUAD_TOL, cumulative_integral

# theta values per frontier: each adds about 0.18 MB, and grids have no cap
_THETA_BLOCK = 64


@dataclass(frozen=True)
class ShotNoiseProcess:
    kernel: NoiseKernel
    spec: CompensatorSpec

    def __post_init__(self):
        if self.kernel.mark_dim != self.spec.mark_dim:
            raise ValueError(
                f"kernel mark_dim {self.kernel.mark_dim} != "
                f"compensator mark_dim {self.spec.mark_dim}"
            )
        object.__setattr__(self, "_gsq_cache", {})

    def integrability_value(self, T: float,
                            quad_tol: float = DEFAULT_QUAD_TOL) -> float:
        """int_0^T int g(s, x)^2 nu(ds, dx); finiteness makes S a semimartingale.

        Path-independent, so cached per (T, quad_tol); recomputing under a
        concurrent race is harmless.
        """
        key = (float(T), float(quad_tol))
        cached = self._gsq_cache.get(key)
        if cached is not None:
            return cached
        val = float(compensator_mass(
            self.spec, 0.0, T,
            lambda s, x: np.asarray(self.kernel.g(s, x), dtype=float) ** 2,
            quad_tol=quad_tol,
            breakpoints=self.kernel.params.get("t_knots", ()),
            mark_breakpoints=self.kernel.params.get("x_knots", ()),
        ))
        self._gsq_cache[key] = val
        return val


@dataclass(frozen=True)
class FiltrationState:
    """What has been observed up to time t: one path restricted to [0, t],
    at a finite t in [0, horizon] (the rule of :func:`check_times`)."""

    t: float
    observed: MppPath

    def __post_init__(self):
        one_path(self.observed, "FiltrationState")
        check_times(self.t, self.observed.horizon)
        if self.observed.n_events and self.observed.times[-1] > self.t:
            raise ValueError("observed events beyond the state time")

    @staticmethod
    def at(path: MppPath, t: float) -> "FiltrationState":
        return FiltrationState(t, path.restrict(t))


def eval_shotnoise(proc: ShotNoiseProcess, path: MppPath, t):
    """S_t = sum_{T_i <= t} G(t - T_i, U_i) per path, right-continuous, at a
    time or a grid in [0, horizon], shaped as :func:`past_sum`."""
    check_times(t, path.horizon)
    return past_sum(proc.kernel.G, path, t)


class CfParts(NamedTuple):
    """log split of the conditional CF, every part shaped as theta (a numpy
    complex for a scalar): value = exp(log_state + log_future)."""

    log_state: complex | np.ndarray
    log_future: complex | np.ndarray

    @property
    def value(self) -> complex | np.ndarray:
        return np.exp(self.log_state + self.log_future)[()]


def conditional_cf_parts(proc: ShotNoiseProcess, state: FiltrationState,
                         T: float, theta, *,
                         quad_tol: float = DEFAULT_QUAD_TOL) -> CfParts:
    """Exponential-affine split of E[exp(i theta S_T) | F_t], shaped as theta.

    ``theta`` is a scalar or an array, complex allowed (imaginary arguments
    give exponential moments); up to ``_THETA_BLOCK`` values share one
    frontier, and a block whose mark levels would hold more values than
    the quadrature's guard allows (``LevelTooWideError``) is solved one
    theta at a time as :func:`_log_future` says.  For a real theta the
    future log-factor's real part is capped at zero, which is a property of
    the exact integral (its integrand has nonpositive real part) and keeps
    |CF| <= 1 exactly.
    """
    check_finite(T=T, theta=theta)
    theta = np.asarray(theta, dtype=complex)
    if state.t > T:
        raise ParameterError("T", f"= {T} precedes the state time {state.t}: "
                             "need state time <= T")
    if proc.spec.marks.mode == MODE_SAMPLE and theta.any():
        raise UnsupportedMarksError(
            "analytic CF needs integrable marks; use the Monte Carlo oracle "
            "for sample-only mark distributions"
        )

    if theta.size > _THETA_BLOCK:
        flat = theta.ravel()
        parts = zip(*(conditional_cf_parts(proc, state, T,
                                           flat[lo:lo + _THETA_BLOCK],
                                           quad_tol=quad_tol)
                      for lo in range(0, flat.size, _THETA_BLOCK)))
        return CfParts(*(np.concatenate(b).reshape(theta.shape) for b in parts))
    log_future = _log_future(proc, state.t, T, theta, quad_tol)
    log_future.real[(theta.imag == 0.0) & (log_future.real > 0.0)] = 0.0
    log_state = 1j * theta * float(past_sum(proc.kernel.G, state.observed, T))
    return CfParts(log_state[()], log_future[()])


def _log_future(proc: ShotNoiseProcess, t: float, T: float, theta,
                quad_tol: float) -> np.ndarray:
    """The future log-factor of one theta block, in one frontier.

    Every theta is a component of each mark level, so a block refused by
    ``LevelTooWideError`` is solved one theta at a time, each by the call a
    scalar theta gets (so equal to it bit for bit); a lone theta that is
    refused raises the guard's error, which then names ``quad_tol``.
    """
    i_theta = 1j * theta[..., None, None]  # ahead of the (time, mark) axes
    try:
        return np.array(_future_mass(
            proc, t, T, lambda g: np.exp(i_theta * g) - 1.0, quad_tol),
            dtype=complex)
    except LevelTooWideError as exc:
        if theta.size == 1:
            raise LevelTooWideError(
                f"{exc}; a lone theta has no smaller part: quad_tol = "
                f"{quad_tol:g} asks for more refinement than the guard "
                "allows, so raise quad_tol") from exc
    # outside the handler, whose traceback holds the refused levels
    return np.array([_log_future(proc, t, T, th, quad_tol)
                     for th in theta.ravel()]).reshape(theta.shape)


def conditional_cf(proc: ShotNoiseProcess, state: FiltrationState, T: float, theta,
                   *, quad_tol: float = DEFAULT_QUAD_TOL) -> complex | np.ndarray:
    """E[exp(i theta S_T) | F_t] for a deterministic, finite compensator."""
    return conditional_cf_parts(proc, state, T, theta, quad_tol=quad_tol).value


def conditional_mean(proc: ShotNoiseProcess, state: FiltrationState, T: float,
                     *, quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """E[S_T | F_t] for every kernel, split as :func:`conditional_cf_parts`:
    sum_{T_i <= t} G(T - T_i, U_i) plus int_t^T int G(T - s, x) nu(ds, dx)."""
    check_finite(T=T)
    if state.t > T:
        raise ParameterError("T", f"= {T} precedes the state time {state.t}: "
                             "need state time <= T")
    past = float(past_sum(proc.kernel.G, state.observed, T))
    return past + float(_future_mass(proc, state.t, T, lambda g: g, quad_tol))


def _future_mass(proc: ShotNoiseProcess, t: float, T: float, fn,
                 quad_tol: float):
    """int_t^T int fn(G(T - s, x)) nu(ds, dx), cut where G(T - s, x) kinks
    (a table kernel's knots): at s = T - t_knot and at the x-knots."""
    params, G = proc.kernel.params, proc.kernel.G
    return compensator_mass(
        proc.spec, t, T, lambda s, x: fn(np.asarray(G(T - s, x), dtype=float)),
        quad_tol=quad_tol, breakpoints=[T - k for k in params.get("t_knots", ())],
        mark_breakpoints=params.get("x_knots", ()))


class Decomposition(NamedTuple):
    grid: np.ndarray
    drift: np.ndarray
    jump_part: np.ndarray


def semimartingale_decompose(proc: ShotNoiseProcess, path: MppPath, grid, *,
                             quad_tol: float = DEFAULT_QUAD_TOL) -> Decomposition:
    """Pathwise split S = drift + jump_part of one path on the grid.

    drift(t) = int_0^t sum_{T_i <= u} g(u - T_i, U_i) du  (quadrature broken
    at event times, where the integrand kinks); jump_part(t) is the
    accumulated instantaneous response sum_{T_i <= t} G(0, U_i).
    """
    one_path(path, "semimartingale_decompose")
    grid = np.asarray(grid, dtype=float)
    check_times(grid, path.horizon)
    if grid.ndim != 1 or grid.size == 0:
        raise ParameterError("grid", "must be a non-empty 1-d array")
    if np.any(np.diff(grid) < 0):
        raise ParameterError("grid", "must be sorted")

    try:
        gsq = proc.integrability_value(float(grid[-1]), quad_tol=quad_tol)
    except QuadratureFailureError as exc:
        raise IntegrabilityFailureError(
            f"int g^2 d nu could not be established finite: {exc}"
        ) from exc
    if not math.isfinite(gsq):
        raise IntegrabilityFailureError(
            f"int g^2 d nu = {gsq}; semimartingale condition fails"
        )

    # the integrand is zero up to the first event and can kink at event
    # times and, for tabulated kernels, at event time + knot lag
    times, G = path.times, proc.kernel.G
    knots = proc.kernel.params.get("t_knots", ())
    drift = cumulative_integral(
        lambda u: past_sum(proc.kernel.g, path, u)[0],
        np.concatenate([[0.0], grid]), quad_tol,
        breakpoints=np.concatenate([times, *(times + k for k in knots)]),
    )[1:]
    jumps = past_sum(lambda lag, x: G(np.zeros_like(lag), x), path, grid)[0]
    return Decomposition(grid, drift, jumps)


def ou_recursive_update(b: float, s_t: float, dt: float, new_jumps, *,
                        a: float = 1.0) -> float:
    """Markov one-step update for the exponential kernel a*x*exp(-b t).

    ``new_jumps`` lists ``(offset, x1)`` pairs with offsets in (0, dt] measured
    from the step start.  Equals re-evaluating the full path at t + dt.
    """
    check_finite(b=b, s_t=s_t, dt=dt, a=a, new_jumps=new_jumps)
    if dt < 0:
        raise ParameterError("dt", "must be >= 0")
    out = math.exp(-b * dt) * s_t
    for offset, x1 in new_jumps:
        if not 0.0 < offset <= dt:
            raise ValueError("jump offsets must lie in (0, dt]")
        out += a * float(x1) * math.exp(-b * (dt - offset))
    return out
