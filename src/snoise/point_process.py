"""Marked point processes with deterministic absolutely continuous compensators.

A :class:`CompensatorSpec` packages the jump intensity ``rate(t)`` with a
mark law ``F(t, dx)``, so the compensator is ``nu(dt, dx) = rate(t) F(t, dx) dt``.
Determinism of the compensator is what gives the cumulative-mark process
independent increments and makes the closed-form characteristic function
downstream valid.

Simulation is exact thinning against the user-declared majorant
``rate_bound``; the simulator spot-checks the bound at every candidate and
fails loudly rather than silently biasing the law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExplosionGuardError, InvalidBoundError, NonFiniteError
from .marks import MarkDistribution
from .quadrature import DEFAULT_QUAD_TOL, adaptive_simpson
from .rng import TAG_EVENTS, TAG_MARKS, make_stream

BOUND_SLACK = 1e-12
# (time, event) pairs past_sum evaluates at once: a long path summed at many
# times (a quadrature level over all pieces) keeps its temporaries in cache
_PAST_SUM_BLOCK = 2**14


@dataclass(frozen=True)
class CompensatorSpec:
    rate: object  # callable t -> intensity, vectorized over arrays
    rate_bound: float
    marks: MarkDistribution
    stationary_rate: float | None = None  # set by standard(); enables shortcuts

    def __post_init__(self):
        if self.rate_bound < 0 or not np.isfinite(self.rate_bound):
            raise ValueError("rate_bound must be finite and >= 0")

    @property
    def mark_dim(self) -> int:
        return self.marks.mark_dim

    def slice_integral(self, t, fn, tol: float = DEFAULT_QUAD_TOL, *,
                       breakpoints=()):
        """Time-slice integral against nu(t, dx) = rate(t) F(t, dx).

        ``t`` is a scalar or a 1-d array of ``m`` times.  ``fn`` maps
        ``(n, d)`` mark rows to values shaped ``(n,)`` for a scalar ``t``
        and ``(m, n)`` for an array, so every slice is one mark integral;
        the result has the shape of ``t``.  ``breakpoints`` are marks where
        ``fn`` may kink (see :meth:`MarkDistribution.integrate`).
        """
        lam = np.broadcast_to(np.asarray(self.rate(t), dtype=float),
                              np.shape(t))
        if not lam.any():
            return np.zeros(lam.shape)[()]
        val = self.marks.integrate(fn, t, tol, breakpoints=breakpoints)
        return np.where(lam == 0.0, 0.0, lam * val)[()]


def standard(lam: float, marks: MarkDistribution) -> CompensatorSpec:
    """Stationary compensator lam * F(dx) dt: i.i.d. marks at Poisson times."""
    lam = float(lam)
    if lam < 0:
        raise ValueError("rate must be >= 0")
    return CompensatorSpec(
        rate=lambda t: np.full_like(np.asarray(t, dtype=float), lam, dtype=float),
        rate_bound=lam,
        marks=marks,
        stationary_rate=lam,
    )


@dataclass(frozen=True)
class MppPath:
    """Realized marked point process on [0, horizon].

    ``times`` is strictly increasing in (0, horizon]; ``marks`` has one row
    per event.  Arrays are copied and frozen so paths can be shared freely.
    """

    times: np.ndarray
    marks: np.ndarray
    horizon: float

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        marks = np.array(self.marks, dtype=float)
        if marks.ndim == 1:
            marks = marks.reshape(-1, 1)
        if times.ndim != 1 or marks.shape[0] != times.size:
            raise ValueError("times and marks must align")
        if times.size:
            if not (np.isfinite(times).all() and np.isfinite(marks).all()):
                raise ValueError("times and marks must be finite")
            if times[0] <= 0 or (times[1:] <= times[:-1]).any():
                raise ValueError("event times must be strictly increasing and > 0")
            if times[-1] > self.horizon:
                raise ValueError("event beyond horizon")
        if not math.isfinite(self.horizon):
            raise NonFiniteError(f"horizon must be finite, got {self.horizon}")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        times.setflags(write=False)
        marks.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "marks", marks)

    @property
    def n_events(self) -> int:
        return int(self.times.size)

    @property
    def mark_dim(self) -> int:
        return int(self.marks.shape[1]) if self.marks.ndim == 2 else 1

    def count(self, t: float) -> int:
        return int(np.searchsorted(self.times, t, side="right"))

    def cumulative_marks(self, t: float) -> np.ndarray:
        """Z'(t) = sum of marks with T_i <= t (right-continuous)."""
        k = self.count(t)
        return self.marks[:k].sum(axis=0)

    def restrict(self, t: float) -> "MppPath":
        """The path observed on [0, t]."""
        if not 0 <= t <= self.horizon:
            raise ValueError("restriction time must lie in [0, horizon]")
        k = self.count(t)
        return MppPath(self.times[:k], self.marks[:k], t)


def empty_path(horizon: float, mark_dim: int = 1) -> MppPath:
    return MppPath(np.empty(0), np.empty((0, mark_dim)), horizon)


def break_ties(times: np.ndarray) -> np.ndarray:
    """Nudge any tied or out-of-order time up by one ulp of its predecessor.

    Ties are almost surely impossible under an absolutely continuous
    compensator; this guards against seed pathologies only.  Tie-free
    input skips the loop, which would leave it unchanged.
    """
    times = np.array(times, dtype=float)
    if times.size < 2 or not (times[1:] <= times[:-1]).any():
        return times
    for i in range(1, times.size):
        if times[i] <= times[i - 1]:
            times[i] = np.nextafter(times[i - 1], np.inf)
    return times


def simulate_mpp(spec: CompensatorSpec, horizon: float, seed: int, *,
                 path_index: int = 0, max_events: int = 1_000_000) -> MppPath:
    """Exact simulation of the path law with compensator rate(t) F(t, dx) dt.

    Thinning: candidates arrive at the homogeneous rate ``rate_bound`` and are
    accepted at ``t`` with probability ``rate(t)/rate_bound``; accepted events
    get a mark from F(0, .).  Deterministic given ``(seed, path_index)``.
    """
    if not math.isfinite(horizon):
        raise NonFiniteError(f"horizon must be finite, got {horizon}")
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    lam_bar = spec.rate_bound
    if lam_bar == 0.0:
        return empty_path(horizon, spec.mark_dim)

    ev = make_stream(seed, path_index, TAG_EVENTS)
    mk = make_stream(seed, path_index, TAG_MARKS)

    chunk = 64
    t = 0.0
    accepted: list[float] = []
    while True:
        gaps = ev.exponential(1.0 / lam_bar, size=chunk)
        cands = t + np.cumsum(gaps)
        unif = ev.uniform(size=chunk)
        inside = cands <= horizon
        if not inside.any():
            break
        cands_in = cands[inside]
        lam_at = np.asarray(spec.rate(cands_in), dtype=float)
        if (lam_at > lam_bar * (1.0 + BOUND_SLACK)).any():
            worst = float(lam_at.max())
            raise InvalidBoundError(
                f"rate({float(cands_in[np.argmax(lam_at)]):.6g}) = {worst:.6g} "
                f"exceeds rate_bound = {lam_bar:.6g}"
            )
        accept = unif[inside] * lam_bar <= lam_at
        accepted.extend(cands_in[accept].tolist())
        if len(accepted) > max_events:
            raise ExplosionGuardError(
                f"event count exceeded cap {max_events} before horizon"
            )
        t = float(cands[-1])
        if t > horizon:
            break

    times = break_ties(np.asarray(accepted, dtype=float))
    n = times.size
    if n == 0:
        return empty_path(horizon, spec.mark_dim)
    return MppPath(times, spec.marks.sample(mk, 0.0, n), horizon)


def past_sum(fn, times, marks, at, *, strict: bool = False):
    """sum_i fn(u - T_i, U_i) over events with T_i <= u (T_i < u if ``strict``).

    ``at`` is a scalar or an array of evaluation times u; the result has its
    shape.  ``fn`` is a vectorized kernel ``(lag, marks) -> values`` such as
    ``NoiseKernel.G`` or ``.g``.  Every event is evaluated (inactive ones at
    lag 0, so kernels never see a negative lag) and masked to zero, which
    makes each block of ``_PAST_SUM_BLOCK`` (time, event) pairs one call.
    """
    at = np.asarray(at, dtype=float)
    # per-path loops call this with scalar times, where math.isfinite costs
    # a fraction of a ufunc plus reduction
    if not (math.isfinite(at) if at.ndim == 0 else np.isfinite(at).all()):
        raise NonFiniteError("evaluation times must be finite")
    if len(times) == 0:
        return np.zeros(at.shape)
    if at.size > 1 and at.size * len(times) > _PAST_SUM_BLOCK:
        n_blocks = -(-at.size * len(times) // _PAST_SUM_BLOCK)
        blocks = np.array_split(at.ravel(), min(at.size, n_blocks))
        return np.concatenate([past_sum(fn, times, marks, u, strict=strict)
                               for u in blocks]).reshape(at.shape)
    lag = at[..., None] - times
    vals = np.asarray(fn(np.maximum(lag, 0.0), marks), dtype=float)
    return np.where(lag > 0.0 if strict else lag >= 0.0, vals, 0.0).sum(axis=-1)


def cumulative_jumps(G, path: MppPath, grid) -> np.ndarray:
    """sum_{T_i <= t} G(0, U_i) at each grid time.

    A running (sequential) total rather than :func:`past_sum`: the two round
    differently in the last bit, and these sums reach the written CSVs.
    """
    if path.n_events == 0:
        return np.zeros(len(grid))
    g0 = np.asarray(G(0.0, path.marks), dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(g0)])
    return cum[np.searchsorted(path.times, grid, side="right")]


def compensator_mass(spec: CompensatorSpec, t0: float, t1: float, test_fn, *,
                     quad_tol: float = DEFAULT_QUAD_TOL, breakpoints=(),
                     mark_breakpoints=()):
    """int_{t0}^{t1} int test_fn(s, x) rate(s) F(s, dx) ds.

    The outer time integral is adaptive Simpson (cut at ``breakpoints``);
    each of its refinement levels is one batched mark integral over all
    its nodes: ``test_fn(s, x)`` is called with times ``s`` of shape
    ``(m, 1)`` and marks ``x`` of shape ``(1, n, d)``, and its values
    (complex allowed) are broadcast to ``(m, n)``.  The mark integral
    follows the distribution's declared mode, cut at ``mark_breakpoints``
    in density mode, to ``max(quad_tol * 1e-3, 1e-14)``.
    """
    if t1 < t0:
        raise ValueError("need t0 <= t1")
    inner_tol = max(quad_tol * 1e-3, 1e-14)
    return adaptive_simpson(
        slice_integrand(spec, test_fn, inner_tol, mark_breakpoints),
        t0, t1, quad_tol, breakpoints=breakpoints)


def slice_integrand(spec: CompensatorSpec, test_fn, tol: float,
                    mark_breakpoints=()):
    """``s -> int test_fn(s, x) nu(s, dx)`` over a 1-d array of times ``s``.

    One :meth:`CompensatorSpec.slice_integral` call per array, with
    ``test_fn`` broadcast as :func:`compensator_mass` describes; the
    vectorized integrand of batched outer time quadratures.
    """
    def integrand(s):
        def fn(x):
            vals = np.asarray(test_fn(s[:, None], x[None]))
            return np.broadcast_to(vals, (s.size, x.shape[0]))

        return spec.slice_integral(s, fn, tol, breakpoints=mark_breakpoints)
    return integrand
