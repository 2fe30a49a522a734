"""The batch layers' selections by ``compress``, bit for bit.

The Monte Carlo CF's zero split, the per-count sort blocks, the thinning of
``simulate_batch`` and the live set of ``simulate_hawkes_batch`` select by
``ndarray.compress`` instead of a boolean mask.  Each test below keeps the
boolean-mask route as its reference and requires the same bits, at masks
all true, all false and empty too.  The digests were recorded from the
mask routes, on a thinned batch (no shipped scenario thins) and on two
Hawkes batches, one of them starting below ``theta_bar``.
"""

import contextlib
import hashlib
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snoise import affine, stats
from snoise.affine import HawkesParams, simulate_hawkes_batch
from snoise.marks import Exponential, Normal, PointMass, ProductIid
from snoise.point_process import CompensatorSpec, MppPath
from snoise.rng import TAG_BATCH, TAG_HAWKES_BATCH, make_stream
from snoise.stats import simulate_batch, simulate_standard_batch

RAMP = CompensatorSpec(lambda t: 1.0 + 2.0 * np.asarray(t, dtype=float), 3.0,
                       ProductIid([Exponential(1.0), Normal(0.5, 0.3)]))
DIGESTS = {
    "thinned": "4a04a220762bd5d5acd08d699dccd0204475926f0ceb674dc690d365c7a28321",
    "hawkes": "18ba48f7bc69e462b7d68647e01ac979d09a435f6d9af5fbeca1de324023b7ca",
    "hawkes_below_theta_bar":
        "d7eabd9330309436f32c96bd7226ad22f5af7a2cd32636fcf7859b1d3d771c78",
}


def _digest(*arrays) -> str:
    """sha256 of each array's length and float64 bytes, in turn."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(np.int64(a.size).tobytes())
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _same(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _split_zeros_by_mask(values):
    nonzero = values != 0.0
    n0 = values.size - int(np.count_nonzero(nonzero))
    return (values[nonzero] if n0 else values), n0


def _sort_per_path_by_mask(values, counts, offsets):
    starts = offsets[:-1]
    for c in np.unique(counts[counts > 1]):
        block = starts[counts == c]
        if c <= stats._NETWORK_MAX and block.size >= stats._NETWORK_PATHS * c:
            stats._transposition_sort(values, block, c)
        else:
            idx = block[:, None] + np.arange(c)
            values[idx] = np.sort(values[idx], axis=1)


def _simulate_batch_by_mask(spec, horizon, n_paths, seed, tag):
    cand = simulate_standard_batch(spec.rate_bound, spec.marks, horizon,
                                   n_paths, seed, tag=tag)
    lam_at = np.asarray(spec.rate(cand.times), dtype=float)
    if np.all(lam_at == spec.rate_bound):
        return cand
    unif = make_stream(seed, 1, tag).random(size=cand.times.size)
    keep = unif * spec.rate_bound <= lam_at
    counts = np.bincount(cand.path_ids()[keep], minlength=n_paths)
    return MppPath(cand.times[keep], cand.marks[keep], horizon,
                   np.concatenate([[0], np.cumsum(counts)]))


def _waiting_times_by_mask(lam, kappa, theta_bar, e1, e2):
    excess = lam - theta_bar
    s = np.full(lam.shape, np.inf)
    fire = (excess > 0.0) & (kappa * e1 < excess)
    s[fire] = -np.log1p(-kappa * e1[fire] / excess[fire]) / kappa
    if theta_bar > 0.0:
        s = np.minimum(s, np.where(excess >= 0.0, e2 / theta_bar, np.inf))
        rise = excess < 0.0
        if rise.any():
            a = -excess[rise]
            c = (kappa * e1[rise] + a) / theta_bar
            w = affine.lambertw(-(a / theta_bar) * np.exp(-c)).real
            s[rise] = (c + w) / kappa
    return s


def _hawkes_batch_by_mask(params, horizon, n_paths, seed):
    """(path ids, times, intensities) per event index, by boolean masks."""
    rng = make_stream(seed, 0, TAG_HAWKES_BATCH)
    kappa, theta_bar = params.kappa, params.theta_bar
    live, t = np.arange(n_paths), np.zeros(n_paths)
    lam = np.full(n_paths, float(params.lambda0))
    steps = []
    while True:
        e = rng.standard_exponential(size=(2, live.size))
        wait = _waiting_times_by_mask(lam, kappa, theta_bar, e[0], e[1])
        go = t + wait <= horizon
        if not go.any():
            return steps
        live, t, lam, wait = live[go], t[go], lam[go], wait[go]
        t = t + wait
        lam = theta_bar + (lam - theta_bar) * np.exp(-kappa * wait) + 1.0
        steps.append((live, t, lam))


# exact zeros of both signs beside values that are not zero
_SAMPLE = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                             st.floats(allow_nan=False)), max_size=200)


@settings(max_examples=200, deadline=None)
@given(values=_SAMPLE)
@example(values=[])
@example(values=[0.0, -0.0, 0.0])  # every value an exact zero
@example(values=[1.0, -2.5, 3.0])  # none
def test_split_zeros_matches_mask(values):
    values = np.array(values, dtype=float)
    got, want = stats._split_zeros(values), _split_zeros_by_mask(values)
    assert got[1] == want[1]
    assert _same(got[0], want[0])
    if not want[1]:
        assert got[0] is values  # a sample without zeros is not copied


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(0, 12), max_size=40),
       network=st.booleans(), seed=st.integers(0, 2**16))
@example(counts=[], network=False, seed=0)
@example(counts=[3] * 6, network=True, seed=1)  # one block: mask all true
@example(counts=[0, 1, 1, 0], network=False, seed=2)  # no block
def test_sort_blocks_match_mask(counts, network, seed):
    counts = np.array(counts, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    # ties within a path, and -0.0 beside 0.0
    values = make_stream(seed).choice([-0.5, -0.0, 0.0, 0.5, 1.0],
                                      size=int(offsets[-1]))
    want = values.copy()
    # every block of at most _NETWORK_MAX events takes the network, in
    # chunks of 3 paths
    with (mock.patch.multiple(stats, _NETWORK_PATHS=0, _NETWORK_CHUNK=3)
          if network else contextlib.nullcontext()):
        stats.sort_per_path(values, counts, offsets)
        _sort_per_path_by_mask(want, counts, offsets)
    assert _same(values, want)


_RATES = {
    "ramp": lambda t: 1.0 + 2.0 * np.asarray(t, dtype=float),
    "zero": lambda t: np.zeros_like(np.asarray(t, dtype=float)),  # keeps none
    # just below the bound: keeps every candidate, yet thins
    "near_bound": lambda t: np.full_like(np.asarray(t, dtype=float),
                                         3.0 * (1.0 - 1e-15)),
    "step": lambda t: np.where(np.asarray(t, dtype=float) < 0.5, 3.0, 0.5),
}


@settings(max_examples=40, deadline=None)
@given(rate=st.sampled_from(sorted(_RATES)), two_d=st.booleans(),
       n_paths=st.integers(1, 300), seed=st.integers(0, 2**16))
@example(rate="zero", two_d=True, n_paths=50, seed=3)
@example(rate="near_bound", two_d=True, n_paths=50, seed=4)
def test_thinning_matches_mask(rate, two_d, n_paths, seed):
    marks = (ProductIid([Exponential(1.0), PointMass(2.0)]) if two_d
             else Exponential(1.0))
    spec = CompensatorSpec(_RATES[rate], 3.0, marks)
    got = simulate_batch(spec, 1.0, n_paths, seed, tag=TAG_BATCH)
    want = _simulate_batch_by_mask(spec, 1.0, n_paths, seed, TAG_BATCH)
    for a, b in ((got.times, want.times), (got.marks, want.marks),
                 (got.offsets, want.offsets)):
        assert _same(a, b)


_HAWKES = st.builds(HawkesParams, kappa=st.sampled_from([0.5, 2.0, 8.0]),
                    theta_bar=st.sampled_from([0.0, 0.5, 3.0]),
                    lambda0=st.sampled_from([0.0, 0.2, 1.0, 5.0]))


@settings(max_examples=40, deadline=None)
@given(params=_HAWKES, horizon=st.sampled_from([0.01, 0.5, 2.0]),
       n_paths=st.integers(1, 200), seed=st.integers(0, 2**16))
@example(params=HawkesParams(2.0, 0.0, 0.0), horizon=1.0, n_paths=5, seed=0)
def test_hawkes_live_set_matches_mask(params, horizon, n_paths, seed):
    got = simulate_hawkes_batch(params, horizon, n_paths, seed)
    steps = _hawkes_batch_by_mask(params, horizon, n_paths, seed)
    counts = np.zeros(n_paths, dtype=np.intp)
    for ids, _t, _lam in steps:
        counts[ids] += 1
    assert got.events.counts.tolist() == counts.tolist()
    # event k of path i is the path's k-th step
    for k, (ids, t_k, lam_k) in enumerate(steps):
        slot = got.events.offsets[ids] + k
        assert _same(got.events.times[slot], t_k)
        assert _same(got.intensities[slot], lam_k)


@settings(max_examples=100, deadline=None)
@given(lam=st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.7, 2.0, 40.0]),
                    max_size=30),
       theta_bar=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**16))
@example(lam=[], theta_bar=0.5, seed=0)
@example(lam=[40.0] * 8, theta_bar=0.5, seed=0)  # every path fires
@example(lam=[0.3] * 8, theta_bar=0.5, seed=0)  # none fires, all rise
def test_waiting_times_match_mask(lam, theta_bar, seed):
    lam = np.array(lam, dtype=float)
    e = make_stream(seed).standard_exponential(size=(2, lam.size))
    got = affine._waiting_times(lam, 2.0, theta_bar, e[0], e[1])
    assert _same(got, _waiting_times_by_mask(lam, 2.0, theta_bar, e[0], e[1]))


def test_batches_keep_their_bits():
    thinned = simulate_batch(RAMP, 1.0, 5000, 7, tag=TAG_BATCH)
    assert thinned.marks.shape == (thinned.n_events, 2)
    got = {"thinned": _digest(thinned.times, thinned.marks, thinned.offsets)}
    for name, params in (("hawkes", HawkesParams(2.0, 0.5, 1.0)),
                         ("hawkes_below_theta_bar", HawkesParams(2.0, 1.0, 0.2))):
        h = simulate_hawkes_batch(params, 2.0, 5000, 7)
        got[name] = _digest(h.events.times, h.intensities, h.events.offsets)
    assert got == DIGESTS
