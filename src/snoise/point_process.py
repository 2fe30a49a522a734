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
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (ExplosionGuardError, InvalidBoundError, NonFiniteError,
                     ParameterError, QuadratureFailureError, check_finite)
from .marks import MarkDistribution
from .quadrature import DEFAULT_QUAD_TOL, gauss_kronrod
from .rng import TAG_EVENTS, TAG_MARKS, make_stream

BOUND_SLACK = 1e-12
# events one simulated path, and one batch in all, may hold: guards that make
# a runaway rate or path count fail before its arrays exhaust memory
MAX_PATH_EVENTS = 1_000_000
MAX_BATCH_EVENTS = 10_000_000
# (time, event) pairs past_sum evaluates at once, at least one time per
# block: bounds its temporaries for a long path summed at many times (a
# quadrature level over all pieces) and for a large batch at a grid
_PAST_SUM_BLOCK = 2**14
# values up to which the interpreter checks a path's times or a chunk's
# rates, by comparisons on Python floats, faster than numpy's scans and
# reductions: measured crossovers lie between 64 and 96 event times and
# near 64 rates, the candidates of one simulate_mpp chunk
_FEW = 64


@dataclass(frozen=True)
class CompensatorSpec:
    rate: object  # callable t -> intensity, vectorized over arrays
    rate_bound: float
    marks: MarkDistribution
    stationary_rate: float | None = None  # set by standard(); see constant_rate

    def __post_init__(self):
        check_finite(rate_bound=self.rate_bound,
                     stationary_rate=self.stationary_rate)
        if self.rate_bound < 0:
            raise ParameterError("rate_bound", "must be >= 0")

    @property
    def mark_dim(self) -> int:
        return self.marks.mark_dim

    def slice_integral(self, t, fn, tol: float = DEFAULT_QUAD_TOL, *,
                       breakpoints=()):
        """Time-slice integral against nu(t, dx) = rate(t) F(t, dx).

        ``t`` is a scalar or a 1-d array of ``m`` times.  ``fn`` maps
        ``(n, d)`` mark rows to values shaped ``(n,)`` for a scalar ``t``
        and ``(m, n)`` for an array, so every slice is one mark integral;
        the result has the shape of ``t``, after any leading component axes
        of ``fn``'s values.  ``breakpoints`` are marks where ``fn`` may kink
        (see :meth:`MarkDistribution.integrate`).  Every rate must lie in
        [0, ``rate_bound``], the simulators' rule (:func:`_check_rate_bound`).
        A mark integral's failure keeps its class and names the slice times.
        """
        lam = np.broadcast_to(np.asarray(self.rate(t), dtype=float),
                              np.shape(t))
        _check_rate_bound(lam, t, self.rate_bound)
        if not lam.any():
            # zeros shaped as fn's values over no marks, less the mark axis
            shape = np.shape(fn(np.empty((0, self.mark_dim))))[:-1]
            return np.zeros(np.broadcast_shapes(shape, lam.shape))[()]
        try:
            val = self.marks.integrate(fn, t, tol, breakpoints=breakpoints)
        except (NonFiniteError, QuadratureFailureError) as exc:
            raise type(exc)(f"{exc}; in the mark integral at times in "
                            f"[{np.min(t):.6g}, {np.max(t):.6g}]") from exc
        return np.where(lam == 0.0, 0.0, lam * val)[()]


def standard(lam: float, marks: MarkDistribution) -> CompensatorSpec:
    """Stationary compensator lam * F(dx) dt: i.i.d. marks at Poisson times."""
    lam = float(lam)
    check_finite(lam=lam)
    if lam < 0:
        raise ParameterError("lam", "must be >= 0 (a rate)")
    return CompensatorSpec(lambda t: np.full_like(np.asarray(t, dtype=float), lam),
                           lam, marks, stationary_rate=lam)


def constant_rate(spec: CompensatorSpec) -> float:
    """The declared ``stationary_rate``, checked where it is read: unless it
    equals ``rate_bound`` and ``rate(0)``, ``ParameterError`` names it."""
    lam = spec.stationary_rate
    if lam is None or not lam == spec.rate_bound == float(spec.rate(0.0)):
        raise ParameterError("stationary_rate", f"{lam} must equal rate_bound "
                             f"{spec.rate_bound} and rate(0)")
    return lam


@dataclass(frozen=True)
class MppPath:
    """Realized marked point process on [0, horizon]: one path or a batch.

    Path ``i`` holds the events ``offsets[i]:offsets[i+1]`` of ``times`` and
    ``marks`` (one row per event), at times strictly increasing in
    (0, horizon]; ``offsets`` defaults to one path.  Arrays are copied and
    frozen so paths can be shared freely.
    """

    times: np.ndarray
    marks: np.ndarray
    horizon: float
    offsets: np.ndarray | None = None

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        marks = np.array(self.marks, dtype=float)
        if marks.ndim == 1:
            marks = marks.reshape(-1, 1)
        if self.offsets is None:
            offsets = np.array((0, times.size))
        else:
            offsets = np.array(self.offsets, dtype=np.intp)
            if (offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0
                    or offsets[-1] != times.size
                    or (offsets[1:] < offsets[:-1]).any()):
                raise ValueError("offsets must rise from 0 to the event count")
        _check(times, marks, self.horizon, offsets)
        for arr in (times, marks, offsets):
            arr.setflags(write=False)
        self.__dict__.update(times=times, marks=marks, offsets=offsets)

    @property
    def n_paths(self) -> int:
        return self.offsets.size - 1

    @property
    def n_events(self) -> int:
        return int(self.times.size)

    @property
    def mark_dim(self) -> int:
        return int(self.marks.shape[1])

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def path_ids(self) -> np.ndarray:
        if self.offsets.size == 2:
            return np.zeros(self.times.size, dtype=np.intp)
        return np.repeat(np.arange(self.n_paths), self.counts)

    def path(self, i: int) -> "MppPath":
        """Path ``i`` alone, as a view: nothing is copied or checked again."""
        i = range(self.n_paths)[i]  # IndexError out of range
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return _view(self.times[lo:hi], self.marks[lo:hi], self.horizon,
                     np.array((0, hi - lo)))

    def head(self, k: int) -> "MppPath":
        """The first ``k`` paths, as a view."""
        if not 0 <= k <= self.n_paths:
            raise IndexError(f"{k} of {self.n_paths} paths")
        end = self.offsets[k]
        return _view(self.times[:end], self.marks[:end], self.horizon,
                     self.offsets[:k + 1])

    def count(self, t: float) -> int:
        one_path(self, "count")
        check_times(t, self.horizon)
        return int(np.searchsorted(self.times, t, side="right"))

    def cumulative_marks(self, t: float) -> np.ndarray:
        """Z'(t) = sum of marks with T_i <= t (right-continuous)."""
        return self.marks[:self.count(t)].sum(axis=0)

    def restrict(self, t: float) -> "MppPath":
        """The path observed on [0, t]."""
        one_path(self, "restrict")
        k = self.count(t)
        return _view(self.times[:k], self.marks[:k], t, np.array((0, k)))


def _check(times, marks, horizon, offsets, rise=None) -> None:
    """Raise unless the paths are valid; ``rise`` (all rise?) is scanned if None."""
    if times.ndim != 1 or marks.shape[0] != times.size:
        raise ValueError("times and marks must align")
    if times.size:
        rise = _rises(times, offsets).all() if rise is None else rise
        # a path's ends bound it; times rising in (0, horizon] are finite
        first, last = ((times[0], times[-1]) if offsets.size == 2
                       else (times.min(), times.max()))
        fine = math.isfinite(horizon) and first > 0 and last <= horizon and rise
        if not ((fine or np.isfinite(times).all()) and np.isfinite(marks).all()):
            raise ValueError("times and marks must be finite")
        if first <= 0 or not rise:
            raise ValueError("event times must be strictly increasing and > 0")
        if last > horizon:
            raise ValueError("event beyond horizon")
    if not math.isfinite(horizon):
        raise NonFiniteError(f"horizon must be finite, got {horizon}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")


def _rises(times: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per event after the first: does it start a path or follow its
    predecessor strictly later?"""
    rises = times[1:] > times[:-1]
    if offsets.size > 2:
        starts = offsets[1:-1]
        rises[starts[(starts > 0) & (starts < times.size)] - 1] = True
    return rises


def _view(times, marks, horizon, offsets) -> MppPath:
    """An :class:`MppPath` over valid arrays, frozen but not copied or checked."""
    for arr in (times, marks, offsets):
        arr.setflags(write=False)
    path = object.__new__(MppPath)
    path.__dict__.update(times=times, marks=marks, horizon=horizon, offsets=offsets)
    return path


def check_horizon(horizon: float, n_paths: int = 1) -> None:
    """The rule of every simulator: a finite horizon > 0 and, for a batch,
    at least one path."""
    if not math.isfinite(horizon):
        raise NonFiniteError(f"horizon must be finite, got {horizon}")
    if horizon <= 0:
        raise ParameterError("horizon", "must be > 0")
    if n_paths < 1:
        raise ParameterError("n_paths", "must be >= 1")


def check_times(t, horizon: float) -> None:
    """The rule of every routine that reads a path at times ``t``, a scalar or
    an array: each finite (else ``NonFiniteError``) and in [0, ``horizon``]
    (else ``ValueError``); a valid float costs two comparisons."""
    if isinstance(t, float):
        lo = hi = t
    else:  # min and max are NaN at a NaN; an empty array passes
        t = np.asarray(t, dtype=float)
        lo, hi = t.min(initial=0.0), t.max(initial=0.0)
    if 0.0 <= lo and hi <= horizon:  # False at NaN
        return
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteError("evaluation times must be finite")
    if lo < 0:
        raise ValueError("t must be >= 0")
    raise ValueError("t beyond path horizon")


def one_path(paths: MppPath, routine: str) -> None:
    """The check of every routine that reads one path: a batch raises."""
    if paths.n_paths != 1:
        raise ValueError(f"{routine} reads one path, got {paths.n_paths}: use .path(i)")


def empty_path(horizon: float, mark_dim: int = 1) -> MppPath:
    """No events on [0, ``horizon``], over fresh frozen arrays: only the
    horizon needs a check, and a bad one gets :func:`_check`'s error."""
    times, marks = np.empty(0), np.empty((0, mark_dim))
    if not (math.isfinite(horizon) and horizon >= 0):
        _check(times, marks, horizon, None)
    return _view(times, marks, horizon, np.array((0, 0)))


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


def hand_over(times, marks, horizon: float, offsets) -> MppPath:
    """A simulator's paths over arrays no one else holds: a path with a tie
    gets :func:`break_ties`' nudge in place; nothing is copied.  One path of
    at most ``_FEW`` events is checked on Python floats; a longer one, or
    one where that finds a fault or a nudge, goes to :func:`break_ties` and
    :func:`_check`, so the validity rules and messages keep one home."""
    if offsets.size == 2:
        if not (times.size <= _FEW and _few_fine(times, marks, horizon)):
            times[:] = break_ties(times)
            _check(times, marks, horizon, offsets)
        return _view(times, marks, horizon, offsets)
    rises = _rises(times, offsets)
    if not rises.all():
        tied = np.flatnonzero(~rises) + 1
        for p in np.unique(np.searchsorted(offsets, tied, side="right") - 1):
            lo, hi = offsets[p], offsets[p + 1]
            times[lo:hi] = break_ties(times[lo:hi])
    _check(times, marks, horizon, offsets, True)  # a nudged path rises
    return _view(times, marks, horizon, offsets)


def _few_fine(times, marks, horizon: float) -> bool:
    """Is one short path valid as it stands: 1-d times rising from above 0
    to at most a finite ``horizon`` (a NaN fails each comparison), one
    mark row per time, and marks of finite sum (so each finite)?"""
    if times.ndim != 1 or marks.shape[0] != times.size:
        return False
    prev = 0.0
    for t in times.tolist():
        if not prev < t:
            return False
        prev = t
    return (prev <= horizon and math.isfinite(horizon)
            and math.isfinite(sum(marks.ravel().tolist())))


def simulate_mpp(spec: CompensatorSpec, horizon: float, seed: int, *,
                 path_index: int = 0) -> MppPath:
    """Exact simulation of the path law with compensator rate(t) F(t, dx) dt.

    Thinning: candidates arrive at the homogeneous rate ``rate_bound`` and are
    accepted at ``t`` with probability ``rate(t)/rate_bound``; an event at
    ``t`` gets a mark from F(t, .).  Deterministic given ``(seed, path_index)``.
    More than ``MAX_PATH_EVENTS`` events raise ``ExplosionGuardError``.
    """
    check_horizon(horizon)
    lam_bar = spec.rate_bound
    if lam_bar == 0.0:
        return empty_path(horizon, spec.mark_dim)

    ev = make_stream(seed, path_index, TAG_EVENTS)
    scale = 1.0 / lam_bar
    chunk = 64
    t = 0.0
    kept, n_kept = [], 0
    while True:
        cands = ev.exponential(scale, size=chunk).cumsum()
        if t:  # the first chunk starts at 0.0, whose addition changes no bit
            cands += t
        unif = ev.random(size=chunk)
        # candidates rise, so those inside the horizon are a prefix
        k = int(cands.searchsorted(horizon, side="right"))
        if not k:
            break
        cands_in = cands[:k]
        lam_at = np.asarray(spec.rate(cands_in), dtype=float)
        _check_rate_bound(lam_at, cands_in, lam_bar)
        kept.append(cands_in[unif[:k] * lam_bar <= lam_at])
        n_kept += kept[-1].size
        if n_kept > MAX_PATH_EVENTS:
            raise ExplosionGuardError(
                f"event count exceeded cap {MAX_PATH_EVENTS} before horizon"
            )
        if k < chunk:
            break
        t = float(cands[-1])

    if not n_kept:
        return empty_path(horizon, spec.mark_dim)
    times = kept[0] if len(kept) == 1 else np.concatenate(kept)
    marks = spec.marks.sample(make_stream(seed, path_index, TAG_MARKS), times,
                              n_kept)
    return hand_over(times, marks, horizon, np.array((0, n_kept)))


def _check_rate_bound(lam_at, times, lam_bar: float) -> None:
    """Raise unless every rate in ``lam_at`` (at ``times``) lies in
    [0, ``lam_bar``] (up to ``BOUND_SLACK``): a NaN rate raises
    ``NonFiniteError``, one outside ``InvalidBoundError``.  Up to ``_FEW``
    rates are compared as Python floats, more by ``min`` and ``max``."""
    cap = lam_bar * (1.0 + BOUND_SLACK)
    if lam_at.size <= _FEW:
        for x in lam_at.ravel().tolist():
            if not 0.0 <= x <= cap:  # False at NaN
                break
        else:
            return
    # min and max are NaN at a NaN; the initial 0.0 lets no rates pass
    elif lam_at.min(initial=0.0) >= 0.0 and lam_at.max(initial=0.0) <= cap:
        return
    lam_at, times = (np.ravel(a) for a in np.broadcast_arrays(lam_at, times))
    k = int(np.argmax(lam_at))  # the first NaN, if any
    at, worst = float(times[k]), float(lam_at[k])
    if math.isnan(worst):
        raise NonFiniteError(f"rate({at:.6g}) is NaN")
    if worst > cap:
        raise InvalidBoundError(
            f"rate({at:.6g}) = {worst:.6g} exceeds rate_bound = {lam_bar:.6g}")
    k = int(np.argmin(lam_at))
    raise InvalidBoundError(
        f"rate({float(times[k]):.6g}) = {float(lam_at[k]):.6g} is below 0")


def past_sum(fn, paths, at, *, strict: bool = False) -> np.ndarray:
    """sum_i fn(u - T_i, U_i) per path over events with T_i <= u (T_i < u if
    ``strict``), at each time u in ``at``.

    ``at`` is a scalar or a 1-d array of times for every path, giving
    ``(paths.n_paths,) + np.shape(at)`` (a float for one path at a scalar),
    or an ``(n_paths, k)`` array of each path's own times, giving that
    shape.  ``fn`` is a vectorized kernel ``(lag, marks) -> values`` such as
    ``NoiseKernel.G``.  Every (time, event) pair is evaluated (inactive ones
    at lag 0) and masked to zero, in blocks of at least one time column and
    about ``_PAST_SUM_BLOCK`` pairs, each one ``fn`` call and one
    ``np.bincount`` over ``row * n_paths + path_id`` in event order: the
    same bits for a path alone and inside a batch.  One path at a scalar
    time evaluates ``fn`` on the live prefix of its rising times only, and
    adds the values to ``0.0`` in event order as Python floats:
    ``bincount``'s own sum, less the block loop's trailing zeros, which
    change no sum that starts from ``+0.0``.  A Python float time (the
    per-path loops' call) takes that route before any array is built from
    it, and any other scalar as its float.
    """
    if paths.offsets.size == 2:
        # one path at one time, a float by the shape rule of every routine
        # that serves a batch
        if not isinstance(at, float) and np.ndim(at) == 0:
            at = float(np.asarray(at, dtype=float))
        if isinstance(at, float):
            if not math.isfinite(at):
                raise NonFiniteError("evaluation times must be finite")
            return _live_prefix_sum(fn, paths, at, strict)
    at = np.asarray(at, dtype=float)
    if not np.isfinite(at).all():
        raise NonFiniteError("evaluation times must be finite")
    times, n = paths.times, paths.n_paths
    per_path = at.ndim == 2 and at.shape[0] == n
    if at.ndim > 1 and not per_path:
        raise ValueError("evaluation times must be a scalar, a 1-d array or "
                         f"one row per path ({n}), got shape {at.shape}")
    cols = at.shape[1:] if per_path else at.shape
    if times.size and at.size:
        ids = paths.path_ids()
        # one row per time column, against every event; a scalar time keeps
        # lag 1-d, where kernels run faster
        u = at.T if per_path else at[..., None]
        step = max(1, _PAST_SUM_BLOCK // times.size)
        sums = []
        for lo in range(0, u.shape[0], step):
            rows = u[lo:lo + step]
            k = rows.shape[0]
            # a lone row's bins are the path ids themselves
            bins = (ids if k == 1
                    else (np.arange(0, k * n, n)[:, None] + ids).ravel())
            sums.append(_row_sums(fn, (rows[:, ids] if per_path else rows) - times,
                                  paths.marks, bins, k * n, strict))
        flat = sums[0] if len(sums) == 1 else np.concatenate(sums)
        return flat.reshape(cols + (n,)).T
    return np.zeros((n,) + cols)


def _live_prefix_sum(fn, path: MppPath, at, strict: bool) -> float:
    """:func:`past_sum` of one path at one finite time ``at``: ``fn`` on the
    events up to ``at`` only, summed in event order."""
    times = path.times
    k = times.size and int(times.searchsorted(
        at, side="left" if strict else "right"))
    if not k:
        return 0.0
    vals = np.asarray(fn(at - times[:k], path.marks[:k]), dtype=float)
    return reduce(operator.add, vals.ravel().tolist(), 0.0)


def _row_sums(fn, lag, marks, bins, n_bins: int, strict: bool) -> np.ndarray:
    """One block of :func:`past_sum`: ``fn`` at every lag (an inactive one,
    ``lag < 0``, at 0 and masked to zero), summed into ``bins`` by one
    ``np.bincount`` in event order."""
    vals = np.asarray(fn(np.maximum(lag, 0.0), marks), dtype=float)
    live = lag > 0.0 if strict else lag >= 0.0
    return np.bincount(bins, minlength=n_bins,
                       weights=np.where(live, vals, 0.0).ravel())


def compensator_mass(spec: CompensatorSpec, t0: float, t1: float, test_fn, *,
                     quad_tol: float = DEFAULT_QUAD_TOL, breakpoints=(),
                     mark_breakpoints=()):
    """int_{t0}^{t1} int test_fn(s, x) rate(s) F(s, dx) ds.

    The outer time integral is adaptive Gauss-Kronrod 7-15 (cut at
    ``breakpoints``), the rule of the mark integrals too; each of its
    refinement levels is one batched mark integral over the 15 Kronrod
    nodes of every open interval: ``test_fn(s, x)`` is called with times
    ``s`` of shape ``(m, 1)`` and marks ``x`` of shape ``(1, n, d)``, and
    its values (complex allowed) are broadcast to ``(..., m, n)``, leading
    axes being components.  The mark integral follows the declared mode, cut
    at ``mark_breakpoints`` in density mode, to the tolerance
    :func:`mark_tol` budgets from the mass ``rate_bound * (t1 - t0)`` (see
    :func:`slice_integrand`).
    """
    if t1 < t0:
        raise ValueError("need t0 <= t1")
    return gauss_kronrod(
        slice_integrand(spec, test_fn, quad_tol, t1 - t0, mark_breakpoints),
        t0, t1, quad_tol, breakpoints=breakpoints)


def slice_integrand(spec: CompensatorSpec, test_fn, quad_tol: float,
                    span: float, mark_breakpoints=()):
    """``s -> int test_fn(s, x) nu(s, dx)`` over a 1-d array of times ``s``.

    One :meth:`CompensatorSpec.slice_integral` call per array, with
    ``test_fn`` broadcast as :func:`compensator_mass` describes, leading axes
    as components: the integrand that :func:`~snoise.quadrature.gauss_kronrod`
    and :func:`~snoise.quadrature.cumulative_integral` evaluate at every
    Kronrod node of a refinement level in one call, over an outer range of
    length ``span`` to ``quad_tol``.  Its mark integrals run to
    :func:`mark_tol`.
    """
    tol = mark_tol(spec, span, quad_tol)

    def integrand(s):
        def fn(x):
            vals = np.asarray(test_fn(s[:, None], x[None]))
            shape = vals.shape[:-2] + (s.size, x.shape[0])
            return vals if vals.shape == shape else np.broadcast_to(vals, shape)

        return spec.slice_integral(s, fn, tol, breakpoints=mark_breakpoints)
    return integrand


def mark_tol(spec: CompensatorSpec, span: float, quad_tol: float) -> float:
    """Tolerance of the mark integrals nested in a time integral to
    ``quad_tol`` over a range of length ``span``.

    A mark integral's error is scaled by a rate of at most ``rate_bound``,
    so over the range the inner errors add at most M * tol to the result,
    M = ``rate_bound`` * ``span`` the compensator mass it can carry.  A
    quarter of ``quad_tol`` is theirs: tol = ``quad_tol`` / (4M).  Since
    the GK 7-15 weights give sum |w_K15 - w_G7| = 2.005, they then also
    add at most a quarter of any outer piece's share to its |K15 - G7|.
    The budget is bounded above by ``quad_tol`` (a mass below 1/4, or
    none) and below by ``quad_tol * 1e-3`` (a mass above 250 keeps that
    older rule, at which heavy compensators converge) and by 1e-14, the
    floor of double-precision mark integrals.  It reads ``rate_bound``
    and ``span`` only: no rate call, so a traced rate counts the same work.
    """
    mass = 4.0 * spec.rate_bound * span
    budget = quad_tol / mass if mass > 1.0 else quad_tol
    return max(budget, quad_tol * 1e-3, 1e-14)
