"""Monte Carlo oracle utilities and statistical acceptance tests.

Conventions used throughout the toolkit:

* Monte Carlo comparisons use a 3-standard-error tolerance and always report
  the ratio |delta| / SE, never a bare boolean, so tolerances stay auditable.
* For a complex estimate the standard error is the combined
  sqrt((Var Re + Var Im) / n); under the null |delta| <= 3 SE then fails with
  probability about 1e-4 per comparison.
* Kolmogorov-Smirnov tests run at the 1% level.  Weighted samples (from
  importance reweighting) enter through the weighted empirical CDF with the
  effective sample size (sum w)^2 / sum w^2 in the critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ExplosionGuardError, ParameterError, check_finite
from .kernels import NoiseKernel
from .marks import MarkDistribution
from .point_process import (
    MAX_BATCH_EVENTS,
    CompensatorSpec,
    MppPath,
    _check_rate_bound,
    check_horizon,
    hand_over,
    past_sum,
)
from .rng import TAG_BATCH, make_stream

Z_BASE = 3.0
KS_LEVEL = 0.01


class CfEstimate(NamedTuple):
    value: complex
    se: float  # sqrt(se_re^2 + se_im^2), each sqrt(var(ddof=1) / n) of a part


def mean_estimate(sample) -> CfEstimate:
    """Mean of a 1-d sample, a Python scalar, with the SE of :class:`CfEstimate`."""
    sample = np.asarray(sample)
    return CfEstimate(sample.mean().item(), math.hypot(
        math.sqrt(sample.real.var(ddof=1) / sample.size),
        math.sqrt(sample.imag.var(ddof=1) / sample.size)))


def _exp_i(values, theta: float) -> np.ndarray:
    """exp(i theta v) for each value of a 1-d sample."""
    z = values * (1j * theta)
    return np.exp(z, out=z)


def _split_zeros(values):
    """A 1-d sample as its nonzero values and its count of exact zeros
    (-0.0 among them); a sample without zeros is returned as it is."""
    # The selection rule of the batch layers: a data-dependent mask over a
    # batch-sized array selects by ``compress`` (``axis=0`` for mark rows),
    # which returns the elements of ``x[mask]`` in the same order, 3-5x
    # faster on numpy 2.4 where the mask is neither nearly all true nor
    # nearly all false (1.6 against 6.4 ms at 10^6 values, 63 % kept).  A
    # per-path or per-level array keeps ``x[mask]``, and so does a nearly
    # all-true mask: ``compress`` loses at 10 values (0.64 against 0.41 us)
    # and at 65,536 values with 99 % kept (379 against 46 us).
    nonzero = values != 0.0
    n0 = values.size - int(np.count_nonzero(nonzero))
    return (values.compress(nonzero) if n0 else values), n0


def _atom_estimate(z, n0: int) -> CfEstimate:
    """:func:`mean_estimate` of ``z`` and ``n0`` more values 1 + 0i.

    Without them it is ``mean_estimate(z)``, bits and all.  With them the
    atom enters the mean and both sums of squares in closed form, and each
    sum of squares is one ``einsum`` over a contiguous centred part: numpy's
    own loop, whose bits, unlike BLAS's threaded ``np.dot``, do not depend
    on the thread count.
    """
    if not n0:
        return mean_estimate(z)
    n = z.size + n0
    m = (z.sum() + n0) / n
    d = z.real - m.real
    var_re = (np.einsum("i,i", d, d) + n0 * (1.0 - m.real) ** 2) / (n - 1)
    d = np.subtract(z.imag, m.imag, out=d)
    var_im = (np.einsum("i,i", d, d) + n0 * m.imag ** 2) / (n - 1)
    return CfEstimate(complex(m), math.hypot(math.sqrt(var_re / n),
                                             math.sqrt(var_im / n)))


def _cf_at(values, n0: int, theta: float) -> CfEstimate:
    """:func:`empirical_cf` at one theta of one sample, split by
    :func:`_split_zeros`."""
    return _atom_estimate(_exp_i(values, theta), n0)


# steps of the angle-addition walk between two direct exponentials: bounds
# the rounding that successive products carry into a grid value
_RESTART = 64


def _uniform_grid_cf(values, n0: int, thetas) -> dict:
    """Estimates keyed by each distinct nonzero |theta| of a uniform grid,
    by angle addition, for a sample split by :func:`_split_zeros`; empty
    for any other grid.

    A grid is uniform when its distinct nonzero |theta| are k * delta,
    k = 1..K with K >= 3, each within 4 ulps of the largest (as
    ``np.linspace`` leaves them).  The walk takes exp(i delta v) once and
    each next k by one complex multiply, restarting every ``_RESTART``
    steps from a direct :func:`_exp_i` at the first |theta| of that k, so
    a restart value equals a separate call bit for bit.  The |theta| that
    share a k share its estimate.
    """
    mags = np.unique(np.abs(thetas))
    mags = mags[mags > 0.0]
    if mags.size < 3 or not mags[-1] / mags[0] < mags.size + 0.5:
        return {}  # K >= 3 needs three values, and K values at least K
    n_steps = round(mags[-1] / mags[0])
    delta = mags[-1] / n_steps
    ks = np.rint(mags / delta)  # 1 at mags[0], n_steps at mags[-1]
    if (n_steps < 3 or np.diff(ks).max() > 1.0
            or np.abs(mags - ks * delta).max() > 4.0 * np.spacing(mags[-1])):
        return {}
    step = _exp_i(values, delta)
    ests, last = {}, 0
    for k, mag in zip(ks.astype(int).tolist(), mags.tolist()):
        if k != last:
            if (k - 1) % _RESTART:
                w *= step
            else:
                w = step.copy() if mag == delta else _exp_i(values, mag)
            est, last = _atom_estimate(w, n0), k
        ests[mag] = est
    return ests


def empirical_cf(values, theta) -> CfEstimate:
    """Mean of exp(i theta v) over the batch with its combined SE.

    ``values`` is one sample ``(n,)`` or one sample per row ``(m, n)``, and
    ``theta`` a scalar or a 1-d array; rows broadcast against ``theta`` as
    ``values[..., 0]`` would.  One sample at a scalar ``theta`` gives
    Python ``complex``/``float`` fields, anything else arrays of the
    broadcast shape.  Each (row, |theta|) is computed once, with the
    arithmetic of its first theta; the opposite sign takes the complex
    conjugate and the same SEs.  That equals a separate call bit for bit
    while libm's ``sin`` is odd and ``cos`` even.  No ``(len(theta), n)``
    array is built.

    One sample on a uniform grid of theta (:func:`_uniform_grid_cf`, which
    ``np.linspace`` grids meet) takes its nonzero |theta| by angle
    addition instead, one complex multiply each in place of one complex
    exponential.  Such a grid value is within rounding of a separate call,
    not equal to it bit for bit, by a gap that grows with the phase
    |theta v|: 5.2e-16 at most on cf-compare's sample, 7.4e-15 on the value
    and 3.4e-14 relative on the SE for 10^5 Normal(0, 3) values on
    ``linspace(-20, 20, 401)`` (``tests/test_stats.py`` asserts 1e-13 and
    1e-12).  Its restart values and every -theta conjugate keep the bits of
    a separate call.

    A sample (or a row) with exact zeros, -0.0 among them, exponentiates
    only its nonzero values and adds the atom at 0, whose exponential is
    1 + 0i at every theta, in closed form (:func:`_atom_estimate`): within
    rounding of :func:`mean_estimate` of all n exponentials, exactly 1 + 0i
    with SE 0 for an all-zero sample.  Every route above runs on those
    nonzero values, so the bit-equalities above hold for it too.  A sample
    without exact zeros keeps the bits of ``mean_estimate(exp(i theta v))``.
    """
    if np.iscomplexobj(theta) or np.iscomplexobj(values):
        # a cast to float would drop the imaginary part without an error
        raise TypeError("theta and values must be real")
    values = np.asarray(values, dtype=float)
    thetas = np.asarray(theta, dtype=float)
    check_finite(theta=thetas)
    if values.ndim not in (1, 2):
        raise ParameterError("values", f"must be (n,) or (m, n), got shape "
                             f"{values.shape}")
    if thetas.ndim > 1:
        raise ParameterError("theta", f"must be a scalar or 1-d, got shape "
                             f"{thetas.shape}")
    n = values.shape[-1]
    if n < 100:
        raise ParameterError("values", f"needs at least 100 samples, got {n}")
    shape = np.broadcast_shapes(values.shape[:-1], thetas.shape)
    if not shape:
        return _cf_at(*_split_zeros(values), float(thetas))
    rows = np.broadcast_to(values, shape + (n,))
    first: dict = {}
    if values.ndim == 1:
        sample = _split_zeros(values)
        first = {(0, mag): (mag, est)
                 for mag, est in _uniform_grid_cf(*sample, thetas).items()}
    value = np.empty(shape, dtype=complex)
    se = np.empty(shape)
    for j, th in enumerate(np.broadcast_to(thetas, shape).tolist()):
        key = (j if values.ndim == 2 else 0, abs(th))
        if key not in first:
            split = sample if values.ndim == 1 else _split_zeros(rows[j])
            first[key] = (th, _cf_at(*split, th))
        th0, est = first[key]
        flip = math.copysign(1.0, th) != math.copysign(1.0, th0)
        value[j] = est.value.conjugate() if flip else est.value
        se[j] = est.se
    return CfEstimate(value, se)


def cf_ratio(analytic, est: CfEstimate):
    """|analytic - empirical| / SE, elementwise for a grid estimate.

    Infinite when SE = 0 and they differ, and when either side or the SE
    is not finite, so a NaN sample or analytic value fails every 3-SE
    verdict; a scalar estimate gives a float.
    """
    diff = np.asarray(analytic) - est.value
    # libm's hypot, as abs() of one complex: np.abs of an array may round
    # the last bit another way
    delta = np.hypot(diff.real, diff.imag)
    se = np.asarray(est.se, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(se == 0.0, np.where(delta == 0.0, 0.0, np.inf),
                         delta / se)
    ratio = np.where(np.isfinite(delta) & np.isfinite(se), ratio, np.inf)
    return float(ratio) if ratio.ndim == 0 else ratio


@dataclass(frozen=True)
class DriftTestReport:
    windows: np.ndarray      # right endpoints of the tested windows
    z_scores: np.ndarray
    threshold: float
    passed: bool


def martingale_drift_test(times, paths, z_base: float = Z_BASE) -> DriftTestReport:
    """Per-window drift z-scores of a putative martingale sample.

    ``paths`` is (n_paths, len(times)).  Pass iff every |z| stays below the
    Bonferroni-adjusted threshold: the base two-sided level of ``z_base``
    standard errors is split across the windows; ``z_base`` must be > 0.
    """
    check_finite(z_base=z_base)
    if z_base <= 0:
        raise ParameterError("z_base", f"must be > 0, got {z_base}")
    times = np.asarray(times, dtype=float)
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2 or paths.shape[1] != times.size:
        raise ParameterError("paths", "must be (n_paths, len(times))")
    if paths.shape[0] < 1000:
        raise ParameterError("paths", "has < 1000 rows: need at least 1000 paths")
    n_windows = times.size - 1
    if n_windows < 1:
        raise ParameterError("times", "has one point: need at least one window")

    inc = np.diff(paths, axis=1)
    mean = inc.mean(axis=0)
    se = inc.std(axis=0, ddof=1) / math.sqrt(paths.shape[0])
    safe = np.where(se > 0, se, 1.0)
    z = np.where(se > 0, mean / safe,
                 np.where(mean == 0.0, 0.0, np.inf))
    # the standard normal's tail and its inverse, as scipy.stats.norm's sf
    # and isf compute them
    p_base = 2.0 * ndtr(-z_base)
    threshold = float(-ndtri(p_base / (2.0 * n_windows)))
    return DriftTestReport(times[1:], z, threshold,
                           bool(np.all(np.abs(z) <= threshold)))


class KsResult(NamedTuple):
    statistic: float
    threshold: float
    n_eff_1: float
    n_eff_2: float
    passed: bool


def _effective_size(x, w, w_sum, x_name, w_name) -> float:
    """(sum w)^2 / sum w^2, or ``x.size`` for unit weights (``w`` None);
    ``w_sum`` is ``w.sum()``, and the names are the parameters'."""
    if w is None:
        if x.size == 0:
            raise ParameterError(x_name, "must be a nonempty sample")
        return float(x.size)
    if np.any(w < 0) or w_sum == 0:
        raise ParameterError(w_name, "must hold weights >= 0 of positive sum")
    return float(w_sum ** 2 / np.sum(w**2))


# sorted points per block of the sweep: bounds its temporaries, and the
# slice of the searched sample that a block of keys spans is short
_KS_BLOCK = 1 << 16


def _sort_order(x):
    """The argsort of ``x``, stable where values tie (-0.0 beside 0.0 too);
    without ties the faster default argsort gives the same order."""
    order = np.argsort(x)
    for a in range(0, x.size, _KS_BLOCK):
        s = x[order[a:a + _KS_BLOCK + 1]]
        if (s[1:] == s[:-1]).any():
            del order
            return np.argsort(x, kind="stable")
    return order


def _ecdf_blocks(n, order, w, w_sum):
    """The ECDF at each sorted point, ``_KS_BLOCK`` points at a time: the
    cumulative sum of ``w / w_sum`` in ``order`` (of ``1/n`` for unit
    weights, ``w`` None) carried from block to block, with the bits of one
    ``np.cumsum`` over the whole sample."""
    carry = 0.0
    for a in range(0, n, _KS_BLOCK):
        if w is None:
            c = np.full(min(_KS_BLOCK, n - a), 1.0 / n)
        else:
            c = w[order[a:a + _KS_BLOCK]]
            c /= w_sum
        if a:
            c[0] += carry
        carry = np.cumsum(c, out=c)[-1]
        yield c


def _ecdf_reader(blocks):
    """The ECDF that ``blocks`` yields, at ascending sorted indices in
    [-1, n) (0.0 at -1), read forward only: no call goes back a block."""
    start, c = 0, np.empty(0)

    def at(idx):
        nonlocal start, c
        out = np.zeros(idx.size)
        i = int(idx.searchsorted(0))
        while i < idx.size:
            while idx[i] >= start + c.size:
                start, c = start + c.size, next(blocks)
            j = int(idx.searchsorted(start + c.size))
            np.take(c, idx[i:j] - start, out=out[i:j])
            i = j
        return out
    return at


def _block_gap(keys, own, last, prev, so, at):
    """The largest gap at one block's run ends, and the block's ECDF at the
    last of them (``prev``, at the one before, if it has none): ``keys``
    holds its sorted values and the next, unless it is the ``last``, and
    ``own`` their ECDF; ``so`` is the searched sample, ``at`` its reader."""
    ends = keys[1:] != keys[:-1]  # a run ends where the next value differs
    if last:
        ends = np.append(ends, True)
    keys = keys[:own.size]
    if not ends.all():
        keys, own = keys[ends], own[ends]
        if not keys.size:
            return 0.0, prev
    lo = int(so.searchsorted(keys[0]))
    part = so[lo:int(so.searchsorted(keys[-1], "right"))]
    # the count of searched values <= each key, and < it where they tie
    idx = part.searchsorted(keys, "right")  # idx 0 reads part[-1] > key
    tie = part[idx - 1] == keys if part.size else idx < 0
    if tie.any():
        below = idx.copy()
        below[tie] = part.searchsorted(keys[tie])
        # below[j] <= idx[j] <= below[j + 1]: interleaved, they ascend
        idx = np.stack((below, idx), axis=1).ravel()
    idx += lo - 1
    f = at(idx)
    f_left, f_right = (f[0::2], f[1::2]) if f.size > own.size else (f, f)
    gap = own - f_right
    stat = float(np.abs(gap, out=gap).max())
    np.subtract(own[:-1], f_left[1:], out=gap[1:])
    gap[0] = prev - f_left[0]
    return max(stat, float(np.abs(gap, out=gap).max())), own[-1]


def _ks_c_alpha(level: float) -> float:
    """c(level) = sqrt(-log(level / 2) / 2), the large-sample KS critical
    value per unit of 1/sqrt(n), for a ``level`` in (0, 1): one outside,
    infinities included, raises ``ParameterError``, a NaN ``NonFiniteError``."""
    if level <= 0.0 or level >= 1.0:  # False at NaN
        raise ParameterError("level", f"must lie in (0, 1), got {level}")
    check_finite(level=level)
    return math.sqrt(-0.5 * math.log(level / 2.0))


def ks_two_sample_weighted(x1, x2, w1=None, w2=None,
                           level: float = KS_LEVEL) -> KsResult:
    """Two-sample KS test allowing importance weights on either sample.

    The statistic is sup |F1 - F2| over both samples' points, each weighted
    ECDF summed in the order of a stable sort.  The smaller sample's ECDF
    F_K is flat between its run ends u < v while the other, F, rises, so
    the statistic is the largest |F_K(v) - F(v)| and |F_K(u) - F(v-)|, and
    the gap of the two sums past the last run end: pairs at sample points,
    with the largest among them, so it has the bits of a search over both.
    Blocks of ``_KS_BLOCK`` run ends search the larger sample once, and
    again where they tie with it.  The call holds a weighted sample's
    argsort, the larger sample's sorted values and a block of each ECDF.
    The critical value is c(level) * sqrt(1/n1_eff + 1/n2_eff), with
    effective sample sizes (sum w)^2 / sum w^2: with unit weights, the
    classical two-sample test.  ``level`` must lie in (0, 1).
    """
    c_alpha = _ks_c_alpha(level)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    w1 = None if w1 is None else np.asarray(w1, dtype=float)
    w2 = None if w2 is None else np.asarray(w2, dtype=float)
    for x, w, name in ((x1, w1, "w1"), (x2, w2, "w2")):
        if w is not None and w.shape != x.shape:
            raise ParameterError(name, f"holds weights of shape {w.shape} "
                                 f"for a sample of shape {x.shape}")
    # a NaN sorts last and a NaN weight spoils every ECDF value: either
    # gives a statistic that means nothing
    check_finite(x1=x1, x2=x2, w1=w1, w2=w2)
    w1_sum = None if w1 is None else w1.sum()
    w2_sum = None if w2 is None else w2.sum()
    n1_eff = _effective_size(x1, w1, w1_sum, "x1", "w1")
    n2_eff = _effective_size(x2, w2, w2_sum, "x2", "w2")

    # |F1 - F2| and |F2 - F1| share their bits: the smaller sample gives keys
    (xk, wk, wk_sum), (xo, wo, wo_sum) = sorted(
        ((x1, w1, w1_sum), (x2, w2, w2_sum)), key=lambda s: s[0].size)
    ok, sk = (None, np.sort(xk)) if wk is None else (_sort_order(xk), None)
    oo = None if wo is None else _sort_order(xo)
    so = np.sort(xo) if oo is None else xo[oo]
    at = _ecdf_reader(_ecdf_blocks(xo.size, oo, wo, wo_sum))
    n, stat, prev = xk.size, 0.0, 0.0
    for a, own in zip(range(0, n, _KS_BLOCK),
                      _ecdf_blocks(n, ok, wk, wk_sum)):
        b = a + own.size
        gap, prev = _block_gap(
            sk[a:b + 1] if ok is None else xk[ok[a:b + 1]], own, b == n,
            prev, so, at)
        stat = max(stat, gap)
    stat = max(stat, float(abs(prev - at(np.array([xo.size - 1]))[0])))
    threshold = c_alpha * math.sqrt(1.0 / n1_eff + 1.0 / n2_eff)
    return KsResult(stat, threshold, n1_eff, n2_eff, stat <= threshold)


def ks_against_cdf(x, cdf, level: float = KS_LEVEL) -> KsResult:
    """One-sample KS of data against a CDF callable, at the given level.

    The statistic is max(D+, D-) over the sorted sample, with ``cdf`` called
    once on it: the value ``scipy.stats.kstest`` reports.  ``level`` must
    lie in (0, 1)."""
    c_alpha = _ks_c_alpha(level)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or not x.size:
        raise ParameterError("x", "must be a nonempty 1-d sample")
    # a sort puts a NaN last and an inf counts as a point past the CDF: the
    # statistic then means nothing, yet can pass
    check_finite(x=x)
    n = x.size
    cdfvals = cdf(np.sort(x))
    d_plus = float((np.arange(1.0, n + 1) / n - cdfvals).max())
    d_minus = float((cdfvals - np.arange(0.0, n) / n).max())
    stat = d_plus if d_plus > d_minus else d_minus
    threshold = c_alpha / math.sqrt(n)
    return KsResult(stat, threshold, float(n), math.inf, stat <= threshold)


def sort_per_path(values: np.ndarray, counts: np.ndarray,
                  offsets: np.ndarray) -> None:
    """Sort each path's slice ``values[offsets[i]:offsets[i+1]]`` in place.

    Paths with the same event count c form one block; paths with fewer than
    two events are left as they are.  A block of c <= ``_NETWORK_MAX`` and
    at least ``_NETWORK_PATHS * c`` paths goes through
    :func:`_transposition_sort`, any other through one ``np.sort(axis=1)``
    of its ``(paths, c)`` rows.  ``values`` must hold no NaN (the uniform
    draws of :func:`simulate_standard_batch` hold none).  Where equal values
    share their bits (no ``-0.0`` beside ``0.0``) the result equals
    ``values[np.lexsort((values, path_ids))]`` bit for bit, without a sort
    over the whole batch.
    """
    starts = offsets[:-1]
    present = np.flatnonzero(np.bincount(counts, minlength=2))
    for c in present[present > 1]:
        block = starts.compress(counts == c)
        if c <= _NETWORK_MAX and block.size >= _NETWORK_PATHS * c:
            _transposition_sort(values, block, c)
        else:
            idx = block[:, None] + np.arange(c)
            values[idx] = np.sort(values[idx], axis=1)


# set by measurement: on a block of c <= 8 events per path the network
# beats np.sort once the block holds about 256 paths per event (at c >= 10
# it loses or ties), and a chunk of 2^13 paths keeps its c columns in cache
_NETWORK_MAX = 8
_NETWORK_PATHS = 256
_NETWORK_CHUNK = 2**13


def _transposition_sort(values, starts, c) -> None:
    """Sort ``values[s:s + c]`` in place for every ``s`` in ``starts`` by the
    odd-even transposition network (Knuth, TAOCP vol. 3, 5.3.4): c rounds of
    compare-exchanges between neighbouring columns, each exchange one
    ``np.minimum`` and one ``np.maximum`` over a chunk of paths."""
    for lo in range(0, starts.size, _NETWORK_CHUNK):
        rows = starts[lo:lo + _NETWORK_CHUNK]
        cols = [values[rows + j] for j in range(c)]
        for r in range(c):
            for j in range(r % 2, c - 1, 2):
                a, b = cols[j], cols[j + 1]
                cols[j], cols[j + 1] = np.minimum(a, b), np.maximum(a, b)
        for j in range(c):
            values[rows + j] = cols[j]


def simulate_standard_batch(lam: float, marks: MarkDistribution,
                            horizon: float, n_paths: int, seed: int, *,
                            tag: int = TAG_BATCH) -> MppPath:
    """Vectorized i.i.d. batch of standard (constant-rate) paths.

    Counts are Poisson(lam T) and, given the count, event times are uniform
    order statistics on [0, T], independent of the thinning simulator.  All
    draws come from the stream ``(seed, 0, tag)``: the counts, the raw times
    in path order (then sorted per path), the marks at their event times.  A
    batch expected to hold more than ``MAX_BATCH_EVENTS`` events fails
    before it draws any.
    """
    check_horizon(horizon, n_paths)
    check_finite(lam=lam)
    if lam < 0:
        raise ParameterError("lam", f"must be >= 0, got {lam}")
    expected = lam * horizon * n_paths
    if expected > MAX_BATCH_EVENTS:
        raise ExplosionGuardError(
            f"batch expects {expected:.3g} events, above the cap "
            f"{MAX_BATCH_EVENTS}; lower the rate or the path count")
    rng = make_stream(seed, 0, tag)
    counts = rng.poisson(lam * horizon, size=n_paths)
    total = int(counts.sum())
    offsets = np.concatenate([[0], np.cumsum(counts)])
    times = rng.uniform(0.0, horizon, size=total)
    sort_per_path(times, counts, offsets)
    return hand_over(times, marks.sample(rng, times, total), horizon, offsets)


def simulate_batch(spec: CompensatorSpec, horizon: float, n_paths: int,
                   seed: int, *, tag: int) -> MppPath:
    """Batch of paths with compensator rate(t) F(t, dx) dt, all at once.

    Candidates are a :func:`simulate_standard_batch` at ``rate_bound`` on
    ``tag``, with its guards, and the rate is checked at every one.  Unless
    it equals the bound at all of them, the candidate at ``t`` is kept with
    probability ``rate(t)/rate_bound`` (Lewis-Shedler thinning), with
    uniforms from stream ``(seed, 1, tag)``.
    """
    lam_bar = spec.rate_bound
    cand = simulate_standard_batch(lam_bar, spec.marks, horizon, n_paths,
                                   seed, tag=tag)
    lam_at = np.asarray(spec.rate(cand.times), dtype=float)
    _check_rate_bound(lam_at, cand.times, lam_bar)
    if np.all(lam_at == lam_bar):
        return cand
    unif = make_stream(seed, 1, tag).random(size=cand.times.size)
    keep = unif * lam_bar <= lam_at
    counts = np.bincount(cand.path_ids().compress(keep), minlength=n_paths)
    return hand_over(cand.times.compress(keep),
                     cand.marks.compress(keep, axis=0), horizon,
                     np.concatenate([[0], np.cumsum(counts)]))


def batch_terminal_shotnoise(kernel: NoiseKernel, batch: MppPath) -> np.ndarray:
    """S at the horizon per path: one :func:`past_sum` of ``kernel.G``."""
    return past_sum(kernel.G, batch, batch.horizon)


def log_kernel_at_events(Y, times, marks) -> np.ndarray:
    """log Y(T_i, U_i) per event, -inf where Y vanishes; a negative Y raises."""
    y = np.asarray(Y(times, marks), dtype=float) if times.size else np.empty(0)
    if np.any(y < 0):
        raise ParameterError("Y", "must be nonnegative: a Girsanov kernel")
    with np.errstate(divide="ignore"):
        return np.where(y > 0, np.log(np.where(y > 0, y, 1.0)), -np.inf)


def batch_log_weights(Y, batch: MppPath, compensator_integral: float) -> np.ndarray:
    """log L_T per path for a deterministic Girsanov kernel on the batch."""
    check_finite(compensator_integral=compensator_integral)
    logs = log_kernel_at_events(Y, batch.times, batch.marks)
    ids, dead = batch.path_ids(), np.isneginf(logs)
    out = np.bincount(ids, weights=np.where(dead, 0.0, logs),
                      minlength=batch.n_paths) - compensator_integral
    out[ids[dead]] = -np.inf
    return out
