import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snoise import stats
from snoise.errors import (
    ExplosionGuardError,
    InvalidBoundError,
    NonFiniteError,
    ParameterError,
)
from snoise.kernels import exponential, jump_to_level, power_law
from snoise.marks import Exponential, Normal, PointMass
from snoise.point_process import CompensatorSpec, past_sum, simulate_mpp, standard
from snoise.rng import TAG_BATCH, make_stream
from snoise.stats import (
    _KS_BLOCK,
    batch_log_weights,
    batch_terminal_shotnoise,
    cf_ratio,
    empirical_cf,
    ks_against_cdf,
    ks_two_sample_weighted,
    martingale_drift_test,
    mean_estimate,
    simulate_batch,
    simulate_standard_batch,
    sort_per_path,
)


class TestEmpiricalCf:
    def test_theta_zero_exact(self):
        est = empirical_cf(np.random.default_rng(0).normal(size=500), 0.0)
        assert est.value == 1.0 + 0.0j
        assert est.se == 0.0

    def test_constant_batch(self):
        c = 1.7
        est = empirical_cf(np.full(200, c), 2.0)
        assert est.value == pytest.approx(np.exp(1j * 2.0 * c))
        assert est.se == pytest.approx(0.0, abs=1e-12)

    def test_needs_hundred_samples(self):
        with pytest.raises(ValueError):
            empirical_cf(np.ones(99), 1.0)

    def test_complex_theta_rejected(self):
        for theta in (0.5j, np.array([1.0, 0.5j])):
            with pytest.raises(TypeError, match="real"):
                empirical_cf(np.ones(100), theta)

    def test_gaussian_cf_recovered(self):
        rng = make_stream(4)
        draws = rng.normal(size=100000)
        theta = 1.3
        est = empirical_cf(draws, theta)
        assert cf_ratio(math.exp(-theta**2 / 2.0) + 0.0j, est) <= 3.0

    def test_cf_ratio_zero_se(self):
        # theta = 0 gives exactly zero SE, exercising the degenerate branch
        est = empirical_cf(np.arange(200.0), 0.0)
        assert est.se == 0.0
        assert cf_ratio(1.0 + 0.0j, est) == 0.0
        assert cf_ratio(1.1 + 0.0j, est) == math.inf


    @pytest.mark.parametrize("law", ["exponential", "normal", "point_mass"])
    @pytest.mark.parametrize("grid", [
        pytest.param([-5.0 + 0.5 * k for k in range(21)], id="symmetric"),
        pytest.param([2.5, -0.3, 1.0, -2.5, 0.3, 1.0, 4.0, -0.0],
                     id="unsorted-repeated")])
    def test_grid_equals_scalar_calls(self, law, grid):
        # -theta reuses theta's estimate, conjugated: equal to a separate
        # call bit for bit as long as libm's sin is odd and cos even
        rng = make_stream(9)
        values = {"exponential": rng.exponential(1.0, 5000),
                  "normal": rng.normal(0.3, 2.0, 5000),
                  "point_mass": np.full(500, 0.7)}[law]
        est = empirical_cf(values, np.array(grid))
        for j, th in enumerate(grid):
            one = empirical_cf(values, th)
            assert type(one.value) is complex
            assert all(type(se) is float for se in one[1:])
            for field, fields in zip(one, est):
                assert np.array(field).tobytes() == fields[j].tobytes(), th
        rows = empirical_cf(np.stack([values, -2.0 * values]), 1.5)
        for j, row in enumerate([values, -2.0 * values]):
            one = empirical_cf(row, 1.5)
            for field, fields in zip(one, rows):
                assert np.array(field).tobytes() == fields[j].tobytes()

    def test_nan_sample_ratio_is_infinite(self):
        # NaN - analytic is NaN, which a max() over ratios would drop
        values = np.arange(200.0)
        values[7] = math.nan
        est = empirical_cf(values, 1.0)
        assert math.isnan(est.value.real) and math.isnan(est.se)
        assert cf_ratio(1.0 + 0.0j, est) == math.inf
        grid = empirical_cf(values, np.array([-1.0, 0.0, 1.0]))
        assert (cf_ratio(np.ones(3), grid) == math.inf).all()

    def test_nan_analytic_ratio_is_infinite(self):
        # the ratio was NaN: its mask read the estimate's value only
        values = np.arange(200.0)
        assert cf_ratio(math.nan, empirical_cf(values, 1.0)) == math.inf
        grid = empirical_cf(values, np.array([0.5, 1.0]))
        assert cf_ratio(np.array([math.nan, 1.0]), grid)[0] == math.inf


class TestMeanEstimate:
    def test_complex_sample_gives_empirical_cf_bits(self):
        # one SE convention: empirical_cf is mean_estimate of exp(i theta v)
        draws = make_stream(5).normal(size=1000)
        for theta in (0.0, 0.7, -2.5):
            est = mean_estimate(np.exp(1j * theta * draws))
            assert est == empirical_cf(draws, theta)
            assert type(est.value) is complex

    def test_real_sample(self):
        draws = make_stream(6).exponential(size=500)
        est = mean_estimate(draws)
        assert type(est.value) is float and est.value == draws.mean()
        assert est.se == math.sqrt(draws.var(ddof=1) / draws.size)
        assert est.se == pytest.approx(scipy.stats.sem(draws), rel=1e-14)

    def test_integer_sample(self):
        est = mean_estimate(np.array([1, 2, 3, 6]))
        assert est.value == 3.0
        assert est.se == pytest.approx(math.sqrt(14.0 / 3.0 / 4.0), rel=1e-15)


class TestMartingaleDriftTest:
    def test_driftless_gaussian_passes(self):
        rng = make_stream(8)
        times = np.linspace(0.0, 1.0, 9)
        inc = rng.normal(0.0, math.sqrt(1.0 / 8.0), size=(5000, 8))
        paths = np.concatenate(
            [np.zeros((5000, 1)), np.cumsum(inc, axis=1)], axis=1)
        report = martingale_drift_test(times, paths)
        assert report.passed

    def test_planted_drift_fails(self):
        rng = make_stream(9)
        n = 5000
        times = np.linspace(0.0, 1.0, 9)
        inc = rng.normal(0.0, math.sqrt(1.0 / 8.0), size=(n, 8))
        # plant a 5-SE drift in every window
        inc += 5.0 * math.sqrt(1.0 / 8.0) / math.sqrt(n)
        paths = np.concatenate([np.zeros((n, 1)), np.cumsum(inc, axis=1)],
                               axis=1)
        report = martingale_drift_test(times, paths)
        assert not report.passed
        assert np.abs(report.z_scores).max() > report.threshold

    def test_threshold_grows_with_windows(self):
        rng = make_stream(10)
        paths8 = np.cumsum(rng.normal(size=(2000, 9)), axis=1)
        paths2 = paths8[:, :3]
        r8 = martingale_drift_test(np.arange(9.0), paths8)
        r2 = martingale_drift_test(np.arange(3.0), paths2)
        assert r8.threshold > r2.threshold > 3.0

    def test_needs_enough_paths(self):
        with pytest.raises(ValueError):
            martingale_drift_test(np.arange(3.0), np.zeros((100, 3)))

    @pytest.mark.parametrize("z_base", [2.0, 3.0, 4.5])
    @pytest.mark.parametrize("n_windows", [1, 2, 8, 1000])
    def test_threshold_matches_scipy_stats(self, z_base, n_windows):
        p_base = 2.0 * scipy.stats.norm.sf(z_base)
        ref = float(scipy.stats.norm.isf(p_base / (2.0 * n_windows)))
        paths = np.cumsum(make_stream(11).normal(size=(1000, n_windows + 1)), axis=1)
        got = martingale_drift_test(np.arange(n_windows + 1.0), paths, z_base).threshold
        assert got.hex() == ref.hex()


def _ks_reference(x1, x2, w1=None, w2=None, level=0.01):
    """The search the two-sample KS replaces: both ECDFs, from a stable
    argsort, looked up at every point of the concatenated samples."""
    def ecdf(x, w):
        if w is None:
            return np.sort(x), np.cumsum(np.full(x.size, 1.0 / x.size))
        order = np.argsort(x, kind="stable")
        return x[order], np.cumsum(w[order] / w.sum())

    def n_eff(x, w):
        return float(x.size) if w is None else float(w.sum() ** 2 / np.sum(w**2))

    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    s1, c1 = ecdf(x1, w1)
    s2, c2 = ecdf(x2, w2)
    all_x = np.concatenate([s1, s2])
    f1 = np.concatenate([[0.0], c1])[np.searchsorted(s1, all_x, side="right")]
    f2 = np.concatenate([[0.0], c2])[np.searchsorted(s2, all_x, side="right")]
    stat = float(np.abs(f1 - f2).max())
    n1, n2 = n_eff(x1, w1), n_eff(x2, w2)
    threshold = math.sqrt(-0.5 * math.log(level / 2.0)) * math.sqrt(1.0 / n1 + 1.0 / n2)
    return stat, threshold, n1, n2, stat <= threshold


def _ks_cases():
    """(name, x1, x2) sample pairs: integer ties with -0.0 beside 0.0,
    continuous values, one-element samples, samples over a few lookup
    blocks whose runs of equal values cross the block edges, and a run
    longer than a block."""
    rng = make_stream(16)

    def tied(n, lo, hi):
        x = rng.integers(lo, hi, size=n).astype(float)
        x[(x == 0.0) & (rng.random(n) < 0.5)] = -0.0
        return x

    yield "tied", tied(3001, -3, 4), tied(1999, -2, 5)
    yield "continuous", rng.normal(size=3001), rng.normal(0.05, size=1999)
    yield "one_each", np.array([0.5]), np.array([-0.0])
    yield "one_and_tied", np.array([0.0]), tied(50, -1, 2)
    big = 3 * _KS_BLOCK + 7
    yield "blocks_tied", tied(big, -40, 40), tied(big // 2, -30, 50)
    yield "blocks_continuous", rng.exponential(size=big), rng.exponential(size=big + 1)
    # a run of equal values over whole blocks leaves them without a run end
    yield "run_over_blocks", np.r_[np.zeros(2 * _KS_BLOCK + 3), tied(500, -2, 3)], tied(700, -3, 2)


class TestKsBits:
    @pytest.mark.parametrize("weighted", ["neither", "first", "second", "both"])
    @pytest.mark.parametrize("case", list(_ks_cases()), ids=lambda c: c[0])
    def test_every_field_matches_reference(self, case, weighted):
        _name, x1, x2 = case
        rng = make_stream(17)
        w1 = rng.exponential(size=x1.size) if weighted in ("first", "both") else None
        w2 = rng.exponential(size=x2.size) if weighted in ("second", "both") else None
        got = ks_two_sample_weighted(x1, x2, w1, w2)
        for field, value, expect in zip(got._fields, got, _ks_reference(x1, x2, w1, w2)):
            assert type(value) is type(expect), field
            assert np.array(value).tobytes() == np.array(expect).tobytes(), field

    def test_peak_memory_below_reference(self):
        # what the call allocates above its inputs, against the search over
        # both samples concatenated; allocation sizes do not depend on timing
        rng = make_stream(18)
        x1, w1 = rng.exponential(size=200_000), rng.exponential(size=200_000)
        x2 = rng.exponential(0.5, size=400_000)

        def peak(fn):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fn(x1, x2, w1=w1)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(ks_two_sample_weighted) < 0.6 * peak(_ks_reference)


class TestKs:
    def test_same_distribution_passes(self):
        rng = make_stream(11)
        res = ks_two_sample_weighted(rng.normal(size=4000),
                                     rng.normal(size=4000))
        assert res.passed

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_or_weight_rejected(self, bad):
        # a NaN value sorts last and left 500 Exp(1) values against
        # themselves plus one NaN at statistic 0.002, passed
        x = make_stream(14).exponential(size=500)
        with pytest.raises(NonFiniteError):
            ks_two_sample_weighted(np.append(x, bad), x)
        with pytest.raises(NonFiniteError):
            ks_two_sample_weighted(x, x, w2=np.append(np.ones(499), bad))

    @pytest.mark.parametrize("level, error", [
        (2.0, ParameterError), (1.0, ParameterError), (0.0, ParameterError),
        (-0.01, ParameterError), (math.inf, ParameterError),
        (math.nan, NonFiniteError),
    ])
    def test_level_outside_unit_interval_is_refused(self, level, error):
        # level 2 gave threshold -0.0 and level NaN threshold NaN: verdicts
        # of no test; the sample is refused before it is sorted
        x = np.arange(10.0)
        with pytest.raises(error):
            ks_two_sample_weighted(x, x, level=level)
        with pytest.raises(error):
            ks_against_cdf(x, lambda v: np.clip(v / 10.0, 0.0, 1.0),
                           level=level)

    def test_shifted_distribution_fails(self):
        rng = make_stream(12)
        res = ks_two_sample_weighted(rng.normal(size=4000),
                                     rng.normal(size=4000) + 0.2)
        assert not res.passed

    def test_weights_recover_tilt(self):
        # Exp(1) draws weighted by 2 e^{-x} are distributed as Exp(1/2)
        rng = make_stream(13)
        base = rng.exponential(1.0, size=20000)
        weights = 2.0 * np.exp(-base)
        direct = rng.exponential(0.5, size=20000)
        res = ks_two_sample_weighted(base, direct, w1=weights)
        assert res.passed
        # and without the weights the same samples must fail
        res_raw = ks_two_sample_weighted(base, direct)
        assert not res_raw.passed

    def test_effective_sample_size(self):
        x = np.arange(10.0)
        w = np.zeros(10)
        w[0] = 1.0
        res = ks_two_sample_weighted(x, x, w1=w)
        assert res.n_eff_1 == pytest.approx(1.0)

    def test_one_sample_against_cdf(self):
        rng = make_stream(14)
        draws = rng.exponential(2.0, size=5000)
        cdf = lambda x: 1.0 - np.exp(-np.asarray(x) / 2.0)
        assert ks_against_cdf(draws, cdf).passed
        bad = lambda x: 1.0 - np.exp(-np.asarray(x))
        assert not ks_against_cdf(draws, bad).passed

    @pytest.mark.parametrize("n", [1, 2, 37, 5000])
    def test_one_sample_statistic_matches_scipy_kstest(self, n):
        # max(D+, D-) over the sorted sample: kstest's statistic, bit for
        # bit, for a fitting and an unfitting CDF, and with tied draws
        draws = make_stream(15).exponential(2.0, size=n)
        samples = (draws, np.round(draws, 1), draws.tolist())
        for cdf in (lambda x: 1.0 - np.exp(-np.asarray(x) / 2.0),
                    lambda x: 1.0 - np.exp(-np.asarray(x)),
                    lambda x: scipy.stats.norm.cdf(x, 1.0, 2.0)):
            for x in samples:
                ref = float(scipy.stats.kstest(x, cdf).statistic)
                got = ks_against_cdf(x, cdf)
                assert type(got.statistic) is float
                assert got.statistic.hex() == ref.hex()
                assert got.passed == (ref <= got.threshold)

    @pytest.mark.parametrize("x", [[], [[0.5, 0.7]], 0.5])
    def test_one_sample_needs_a_nonempty_1d_sample(self, x):
        with pytest.raises(ValueError, match="nonempty 1-d sample"):
            ks_against_cdf(x, lambda v: np.clip(v, 0.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_one_sample_non_finite_rejected(self, bad):
        # unchecked, these draws plus an inf passed at statistic 0.063, and
        # plus a NaN gave a NaN statistic
        draws = np.append(make_stream(14).exponential(size=500), bad)
        with pytest.raises(NonFiniteError):
            ks_against_cdf(draws, lambda x: 1.0 - np.exp(-np.asarray(x)))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            ks_two_sample_weighted([1.0], [1.0], w1=[-1.0])

    @pytest.mark.parametrize("tied", [True, False])
    def test_unit_weights_match_explicit_ones(self, tied):
        # the sort-only route for unweighted samples gives every field of
        # the argsort route with np.ones weights, bit for bit
        rng = make_stream(15)
        if tied:
            x1 = rng.integers(-3, 4, size=3001).astype(float)
            x2 = rng.integers(-2, 5, size=1999).astype(float)
            x1[:50] = -0.0
            x2[:50] = 0.0
        else:
            x1, x2 = rng.normal(size=3001), rng.normal(0.05, size=1999)
        w = rng.uniform(size=x2.size)
        for a, b, wa, wb in ((x1, x2, None, None), (x1, x2, None, w),
                             (x2, x1, w, None)):
            fast = ks_two_sample_weighted(a, b, wa, wb)
            slow = ks_two_sample_weighted(
                a, b, np.ones(a.size) if wa is None else wa,
                np.ones(b.size) if wb is None else wb)
            assert fast._fields == slow._fields
            for name in fast._fields:
                assert getattr(fast, name) == getattr(slow, name), name
            assert type(fast.n_eff_1) is float and type(fast.n_eff_2) is float

    @pytest.mark.parametrize("w1, w2", [([1.0, -1.0], None), (None, [0.0, 0.0]),
                                        ([0.0, 0.0], [1.0, 2.0]),
                                        # one weight too many or too few
                                        ([1.0, 1.0, 1.0], None),
                                        (None, [1.0])])
    def test_bad_weights_raise_before_sorting(self, monkeypatch, w1, w2):
        def no_sort(*_a, **_k):
            raise AssertionError("sorted before the weights were checked")
        monkeypatch.setattr(np, "sort", no_sort)
        monkeypatch.setattr(np, "argsort", no_sort)
        with pytest.raises(ValueError, match="weights"):
            ks_two_sample_weighted([2.0, 1.0], [0.5, 3.0], w1=w1, w2=w2)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample_weighted([], [1.0, 2.0])
        with pytest.raises(ValueError):
            ks_two_sample_weighted([1.0, 2.0], [], w1=[1.0, 1.0])


def _lexsort_reference(values, counts):
    """The global sort the per-path sort replaces: by path, then value."""
    ids = np.repeat(np.arange(counts.size), counts)
    return values[np.lexsort((values, ids))]


# values from a short list give exact ties within a path; adding 0.0 turns
# a -0.0 into 0.0, so equal values share their bits
_VALUES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                    st.floats(-1e3, 1e3).map(lambda v: v + 0.0))


def _check_sort_per_path(data, counts):
    counts = np.array(counts, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    n = int(offsets[-1])
    if data is None:  # explicit examples: ties in every path
        values = make_stream(20).integers(0, 3, size=n).astype(float)
    else:
        values = np.array(data.draw(st.lists(_VALUES, min_size=n,
                                             max_size=n)), dtype=float)
    expect = _lexsort_reference(values, counts)
    sort_per_path(values, counts, offsets)
    assert values.tobytes() == expect.tobytes()


class TestSortPerPath:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           counts=st.lists(st.integers(0, 40), min_size=1, max_size=60))
    @example(data=None, counts=[0, 0, 0])
    @example(data=None, counts=[7])
    @example(data=None, counts=list(range(30)))
    @example(data=None, counts=[8, 8, 9, 9, 8])
    def test_matches_global_lexsort(self, data, counts):
        _check_sort_per_path(data, counts)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(),
           counts=st.lists(st.integers(0, 12), min_size=1, max_size=40))
    @example(data=None, counts=[8] * 5)
    @example(data=None, counts=[9] * 5)
    @example(data=None, counts=[8, 9, 2, 8, 9, 3, 8])
    def test_network_matches_global_lexsort(self, data, counts):
        # every block of at most _NETWORK_MAX events takes the network,
        # in chunks of 3 paths; count 9 and above takes np.sort
        with mock.patch.multiple(stats, _NETWORK_PATHS=0, _NETWORK_CHUNK=3):
            _check_sort_per_path(data, counts)

    def test_batch_times_match_global_lexsort(self):
        # one path with many events and a spread of counts across paths;
        # at rate 4 over 10^5 paths every count up to 8 takes the network
        for lam, n in ((3000.0, 1), (30.0, 400), (0.5, 50), (4.0, 10**5)):
            batch = simulate_standard_batch(lam, PointMass(1.0), 1.0, n, 21)
            raw = make_stream(21, 0, TAG_BATCH)
            raw.poisson(lam, size=n)
            raw = raw.uniform(0.0, 1.0, size=batch.times.size)
            expect = _lexsort_reference(raw, batch.counts)
            assert batch.times.tobytes() == expect.tobytes()


class TestBatchOracle:
    def test_against_thinning_simulator(self):
        # two independent simulation routes must agree in law
        lam, T, n = 2.0, 1.5, 5000
        marks = Exponential(1.0)
        batch = simulate_standard_batch(lam, marks, T, n, 15)
        thin_counts = np.array([
            simulate_mpp(standard(lam, marks), T, 16, path_index=i).n_events
            for i in range(n)
        ])
        se = math.sqrt(lam * T) * math.sqrt(2.0 / n)
        assert abs(batch.counts.mean() - thin_counts.mean()) <= 3.0 * se
        # pooled event times: uniform order statistics in both routes
        thin_times = np.concatenate([
            simulate_mpp(standard(lam, marks), T, 16, path_index=i).times
            for i in range(500)
        ])
        res = ks_two_sample_weighted(batch.times[:thin_times.size], thin_times)
        assert res.passed

    def test_terminal_values_match_paths(self):
        kern = exponential(1.0, 0.7)
        batch = simulate_standard_batch(1.5, PointMass(1.0), 2.0, 50, 17)
        terminal = batch_terminal_shotnoise(kern, batch)
        for i in (0, 7, 23):
            path = batch.path(i)
            expect = float(np.sum(np.asarray(
                kern.G(2.0 - path.times, path.marks)))) if path.n_events else 0.0
            assert terminal[i] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("kernel, marks", [
        (exponential(1.0, 0.7), Exponential(1.0)),
        (power_law(1.5), Exponential(1.0)),
        (jump_to_level(), Normal(0.0, 1.0)),
        (jump_to_level(), PointMass(-0.0)),
    ], ids=["exponential", "power_law", "normal", "negative_zero"])
    def test_rows_equal_paths_alone(self, kernel, marks):
        # row i of a batch sum is the sum over path i alone, bit for bit and
        # sign of zero included, for G and g, both strict values, a scalar
        # time (an event time, where strict matters) and a grid, on an
        # order-statistics and a thinned batch
        ramp = CompensatorSpec(
            rate=lambda t: 1.0 + 2.0 * np.asarray(t, dtype=float),
            rate_bound=5.0, marks=marks)
        grid = np.linspace(0.0, 2.0, 33)
        for batch in (simulate_standard_batch(4.0, marks, 2.0, 300, 31),
                      simulate_batch(ramp, 2.0, 300, 32, tag=TAG_BATCH)):
            paths = [batch.path(i) for i in range(batch.n_paths)]
            for i, path in enumerate(paths):  # tie-free: path(i) moved nothing
                lo, hi = batch.offsets[i], batch.offsets[i + 1]
                assert path.times.tobytes() == batch.times[lo:hi].tobytes()
            for fn in (kernel.G, kernel.g):
                for strict in (False, True):
                    for at in (batch.times[0], grid):
                        rows = past_sum(fn, batch, at, strict=strict)
                        for i, path in enumerate(paths):
                            alone = np.reshape(past_sum(fn, path, at, strict=strict),
                                               np.shape(at))
                            assert rows[i].tobytes() == alone.tobytes(), i

    def test_log_weights_zero_kernel(self):
        batch = simulate_standard_batch(2.0, PointMass(1.0), 1.0, 200, 18)
        dead_y = lambda t, x: np.zeros(np.asarray(x, dtype=float).shape[:-1])
        logw = batch_log_weights(dead_y, batch, 0.0)
        has_events = batch.counts > 0
        assert np.all(np.isneginf(logw[has_events]))
        assert np.all(logw[~has_events] == 0.0)

    def test_batch_reproducible(self):
        a = simulate_standard_batch(1.0, Exponential(1.0), 1.0, 100, 19)
        b = simulate_standard_batch(1.0, Exponential(1.0), 1.0, 100, 19)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.marks, b.marks)


class TestBatchGuards:
    @pytest.mark.parametrize("lam, horizon", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
        (1.0, -math.inf)])
    def test_non_finite_rate_or_horizon(self, lam, horizon):
        with pytest.raises(NonFiniteError):
            simulate_standard_batch(lam, Exponential(1.0), horizon, 10, 1)

    def test_thinned_batch_nan_horizon(self):
        spec = CompensatorSpec(rate=lambda t: np.ones(np.shape(t)),
                               rate_bound=2.0, marks=Exponential(1.0))
        with pytest.raises(NonFiniteError):
            simulate_batch(spec, math.nan, 10, 1, tag=5)

    def test_thinned_batch_nan_rate(self):
        spec = CompensatorSpec(rate=lambda t: np.full(np.shape(t), np.nan),
                               rate_bound=2.0, marks=Exponential(1.0))
        with pytest.raises(NonFiniteError, match=r"rate\(0\.\d+\) is NaN"):
            simulate_batch(spec, 1.0, 10, 1, tag=5)

    def test_thinned_batch_negative_rate(self):
        spec = CompensatorSpec(rate=lambda t: -np.ones(np.shape(t)),
                               rate_bound=2.0, marks=Exponential(1.0))
        with pytest.raises(InvalidBoundError, match=r"rate\(0\.\d+\) = -1 is below 0"):
            simulate_batch(spec, 1.0, 10, 1, tag=5)

    def test_thinned_batch_rate_above_bound(self):
        spec = CompensatorSpec(rate=lambda t: 1.0 + 2.0 * np.asarray(t),
                               rate_bound=2.0, marks=Exponential(1.0))
        with pytest.raises(InvalidBoundError, match="exceeds rate_bound = 2"):
            simulate_batch(spec, 1.0, 10, 1, tag=5)

    def test_expected_count_guard(self):
        with pytest.raises(ExplosionGuardError, match="batch expects"):
            simulate_standard_batch(1e5, Exponential(1.0), 1.0, 1000, 1)


# a batch expected to hold 10^12 events runs in a child process under an
# address-space cap: the batch must refuse it before it allocates
_HUGE_BATCH = """
import resource
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from snoise.errors import SnoiseError
from snoise.marks import Exponential
from snoise.stats import simulate_standard_batch
try:
    simulate_standard_batch(1e9, Exponential(1.0), 1.0, 1000, 1)
    print("OK")
except SnoiseError as exc:
    print(exc.code, exc)
"""


def test_huge_batch_fails_before_allocating():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _HUGE_BATCH],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("ExplosionGuard batch expects"), proc.stdout


def test_import_loads_no_scipy_stats():
    # scipy.stats takes most of a second to import; the library needs only
    # scipy.special's normal CDF and its inverse, so every CLI start skips it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, snoise, snoise.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
