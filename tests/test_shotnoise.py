import cmath
import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as spi

from snoise.errors import (
    IntegrabilityFailureError,
    InvalidBoundError,
    LevelTooWideError,
    NonFiniteError,
    ParameterError,
    QuadratureFailureError,
    UnsupportedMarksError,
)
from snoise import shotnoise
from snoise.kernels import (
    NoiseKernel,
    exponential,
    from_table,
    jump_to_level,
    power_law,
)
from snoise.marks import (
    MODE_DISCRETE,
    Exponential,
    MarkDistribution,
    Normal,
    PointMass,
    SampleOnly,
    Uniform,
)
from snoise.point_process import (
    CompensatorSpec,
    MppPath,
    break_ties,
    compensator_mass,
    empty_path,
    past_sum,
    simulate_mpp,
    standard,
)
from snoise import quadrature
from snoise.quadrature import DEFAULT_QUAD_TOL, gauss_kronrod
from snoise.rng import TAG_BATCH
from snoise.shotnoise import (
    FiltrationState,
    ShotNoiseProcess,
    conditional_cf,
    conditional_cf_parts,
    conditional_mean,
    eval_shotnoise,
    ou_recursive_update,
    semimartingale_decompose,
)
from snoise.stats import (
    batch_terminal_shotnoise,
    cf_ratio,
    empirical_cf,
    simulate_batch,
    simulate_standard_batch,
)


def state_at_zero(mark_dim=1):
    return FiltrationState(0.0, empty_path(0.0, mark_dim))


class TestEvalShotnoise:
    def test_empty_path_is_zero(self):
        proc = ShotNoiseProcess(exponential(1.0, 1.0), standard(1.0, PointMass(1.0)))
        assert eval_shotnoise(proc, empty_path(5.0), 3.0) == 0.0

    def test_single_jump_decay(self):
        proc = ShotNoiseProcess(exponential(1.0, 1.0), standard(1.0, PointMass(2.0)))
        path = MppPath([1.0], [[2.0]], 3.0)
        assert eval_shotnoise(proc, path, 2.0) == pytest.approx(2.0 * math.exp(-1.0))

    def test_jump_to_level_accumulates(self):
        proc = ShotNoiseProcess(jump_to_level(), standard(1.0, PointMass(1.0)))
        path = MppPath([1.0, 1.5], [[2.0], [-1.0]], 3.0)
        assert eval_shotnoise(proc, path, 2.0) == pytest.approx(1.0)

    def test_right_continuity_at_event(self):
        proc = ShotNoiseProcess(jump_to_level(), standard(1.0, PointMass(1.0)))
        path = MppPath([1.0], [[2.0]], 3.0)
        assert eval_shotnoise(proc, path, 1.0) == 2.0
        assert eval_shotnoise(proc, path, np.nextafter(1.0, 0.0)) == 0.0


class TestFiltrationState:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        # a NaN t once passed, and conditional_cf at theta = 0 then gave 1
        with pytest.raises(NonFiniteError, match="evaluation times must be finite"):
            FiltrationState(t, empty_path(1.0))

    @pytest.mark.parametrize("t,horizon,match", [
        (1.5, 1.0, "t beyond path horizon"),
        (0.5, 0.0, "t beyond path horizon"),
        (-0.5, 1.0, "t must be >= 0"),
    ])
    def test_time_outside_observed_horizon_rejected(self, t, horizon, match):
        with pytest.raises(ValueError, match=match):
            FiltrationState(t, empty_path(horizon))

    def test_time_inside_horizon_and_after_the_events(self):
        path = MppPath([0.2, 0.6], [[1.0], [1.0]], 1.0)
        assert FiltrationState(0.8, path).t == 0.8
        assert FiltrationState.at(path, 0.4).observed.n_events == 1
        with pytest.raises(ValueError, match="observed events beyond the state time"):
            FiltrationState(0.4, path)


class TestConditionalCf:
    def test_theta_zero_is_exactly_one(self):
        proc = ShotNoiseProcess(power_law(1.0), standard(2.0, Exponential(1.0)))
        st0 = state_at_zero()
        assert conditional_cf(proc, st0, 1.0, 0.0) == 1.0 + 0.0j

    def test_compound_poisson_closed_form(self):
        # standard shot noise with jump-to-level kernel is compound Poisson:
        # E e^{i theta S_T} = exp(lam T (e^{i theta u} - 1))
        lam, u, T = 2.0, 0.7, 1.0
        proc = ShotNoiseProcess(jump_to_level(), standard(lam, PointMass(u)))
        st0 = state_at_zero()
        for theta in np.linspace(-5.0, 5.0, 21):
            got = conditional_cf(proc, st0, T, float(theta))
            closed = cmath.exp(lam * T * (cmath.exp(1j * theta * u) - 1.0))
            assert abs(got - closed) <= 1e-8

    def test_cf_vs_monte_carlo(self):
        kern = exponential(1.0, 1.0)
        spec = standard(1.0, PointMass(1.0))
        proc = ShotNoiseProcess(kern, spec)
        batch = simulate_standard_batch(1.0, PointMass(1.0), 1.0, 100000, 5)
        terminal = batch_terminal_shotnoise(kern, batch)
        got = conditional_cf(proc, state_at_zero(), 1.0, 1.0)
        est = empirical_cf(terminal, 1.0)
        assert cf_ratio(got, est) <= 3.0

    def test_hermitian_symmetry(self):
        proc = ShotNoiseProcess(exponential(1.0, 0.5), standard(1.5, Exponential(1.0)))
        st0 = state_at_zero()
        for theta in (0.3, 1.1, 4.2):
            plus = conditional_cf(proc, st0, 1.0, theta)
            minus = conditional_cf(proc, st0, 1.0, -theta)
            assert abs(minus - plus.conjugate()) <= 1e-12

    def test_modulus_bounded_by_one(self):
        proc = ShotNoiseProcess(power_law(c=2.0), standard(3.0, Exponential(0.5)))
        st0 = state_at_zero()
        for theta in np.linspace(-8.0, 8.0, 9):
            assert abs(conditional_cf(proc, st0, 2.0, float(theta))) <= 1.0

    def test_affine_split_exposed(self):
        proc = ShotNoiseProcess(exponential(1.0, 1.0), standard(1.0, PointMass(1.0)))
        path = MppPath([0.3, 0.6], [[1.0], [1.0]], 1.0)
        state = FiltrationState.at(path, 1.0)
        parts = conditional_cf_parts(proc, state, 2.0, 1.3)
        assert parts.value == conditional_cf(proc, state, 2.0, 1.3)
        # state factor is a pure phase: log is purely imaginary for real theta
        assert parts.log_state.real == 0.0
        expected_phase = 1.3 * sum(
            math.exp(-(2.0 - ti)) for ti in (0.3, 0.6))
        assert parts.log_state.imag == pytest.approx(expected_phase, rel=1e-12)

    def test_sample_only_marks_refused(self):
        marks = SampleOnly(lambda rng, t, n: rng.normal(size=(n, 1)), 1)
        proc = ShotNoiseProcess(jump_to_level(), standard(1.0, marks))
        with pytest.raises(UnsupportedMarksError):
            conditional_cf(proc, state_at_zero(), 1.0, 1.0)

    def test_markov_consistency_exponential(self):
        # two histories with identical (t, S_t) give identical CF
        b, t, T = 0.7, 1.0, 2.0
        proc = ShotNoiseProcess(exponential(1.0, b), standard(1.0, PointMass(1.0)))
        u_match = math.exp(b * 0.5) * (math.exp(-b * 0.8) + math.exp(-b * 0.2))
        hist_a = MppPath([0.5], [[u_match]], t)
        hist_b = MppPath([0.2, 0.8], [[1.0], [1.0]], t)
        s_a = eval_shotnoise(proc, hist_a, t)
        s_b = eval_shotnoise(proc, hist_b, t)
        assert s_a == pytest.approx(s_b, rel=1e-14)
        gap = abs(
            conditional_cf(proc, FiltrationState(t, hist_a), T, 1.0)
            - conditional_cf(proc, FiltrationState(t, hist_b), T, 1.0))
        assert gap <= 1e-12

    def test_markov_counterexample_power_law(self):
        # same (t, S_t), different histories: the CF must distinguish them
        t, T = 1.0, 2.0
        proc = ShotNoiseProcess(power_law(1.0), standard(1.0, PointMass(1.0)))
        u_match = 1.5 * (1.0 / 1.8 + 1.0 / 1.2)
        hist_a = MppPath([0.5], [[u_match]], t)
        hist_b = MppPath([0.2, 0.8], [[1.0], [1.0]], t)
        assert eval_shotnoise(proc, hist_a, t) == pytest.approx(
            eval_shotnoise(proc, hist_b, t), rel=1e-14)
        gap = abs(
            conditional_cf(proc, FiltrationState(t, hist_a), T, 1.0)
            - conditional_cf(proc, FiltrationState(t, hist_b), T, 1.0))
        assert gap > 1e-3

    def test_tower_property(self):
        # averaging the time-t conditional CF over states reproduces the
        # time-0 CF (iterated expectations)
        lam, theta, t, T = 1.5, 0.9, 0.5, 1.0
        kern = exponential(1.0, 1.0)
        spec = standard(lam, Exponential(1.0))
        proc = ShotNoiseProcess(kern, spec)
        n = 10000
        batch = simulate_standard_batch(lam, Exponential(1.0), t, n, 31)

        # honesty link: the batch state factor equals conditional_cf for a few
        states = [FiltrationState(t, batch.path(i).restrict(t)) for i in range(5)]
        parts = [conditional_cf_parts(proc, s, T, theta) for s in states]
        common = parts[0].log_future
        for p in parts:
            assert abs(p.log_future - common) < 1e-12

        ids = batch.path_ids()
        aged = np.asarray(kern.G(T - batch.times, batch.marks), dtype=float)
        state_sums = np.bincount(ids, weights=aged, minlength=n)
        vals = np.exp(1j * theta * state_sums) * cmath.exp(common)
        for i, p in enumerate(parts):
            assert abs(vals[i] - p.value) < 1e-12

        target = conditional_cf(proc, state_at_zero(), T, theta)
        mean = vals.mean()
        se = math.sqrt((vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / n)
        assert abs(mean - target) <= 3.0 * se


# the cf_sweep benchmark's three cases: (a) OU kernel, Exp(1) marks, state at
# 0; (b) power-law kernel, ramp rate, Normal marks; (c) case (a) conditioned
# at t = 0.5 on two observed events
_SPEC_A = standard(1.0, Exponential(1.0))
_SPEC_B = CompensatorSpec(rate=lambda t: 1.0 + 2.0 * np.asarray(t, dtype=float),
                          rate_bound=3.0, marks=Normal(0.5, 0.3))
SWEEP_CASES = (
    (ShotNoiseProcess(exponential(1.0, 1.0), _SPEC_A), state_at_zero()),
    (ShotNoiseProcess(power_law(1.0), _SPEC_B), state_at_zero()),
    (ShotNoiseProcess(exponential(1.0, 1.0), _SPEC_A),
     FiltrationState(0.5, MppPath([0.2, 0.4], [[1.3], [0.6]], 0.5))),
)
SWEEP_THETAS = np.linspace(-5.0, 5.0, 21)


def _per_theta(proc, state, thetas):
    """The parts of one scalar call per theta, as (len(thetas), 2) complex."""
    return np.array([conditional_cf_parts(proc, state, 1.0, th)
                     for th in thetas], dtype=complex)


class TestCfGrid:
    def test_scalar_calls_keep_their_bits(self):
        # sha256 of the scalar parts of one theta per call; the mark
        # tolerance budgeted from the compensator mass moved them by at
        # most 4.6e-16
        h = hashlib.sha256()
        for proc, state in SWEEP_CASES:
            h.update(_per_theta(proc, state, SWEEP_THETAS).tobytes())
        assert h.hexdigest() == (
            "45140072c15c91a75232bddb52c15d752b608fd08f6f0860484ae57444fa55df")

    def test_scalar_parts_are_numpy_complex(self):
        proc, state = SWEEP_CASES[0]
        parts = conditional_cf_parts(proc, state, 1.0, 1.5)
        for val in (*parts, parts.value):
            assert isinstance(val, np.complex128) and np.shape(val) == ()

    @pytest.mark.parametrize("case", range(len(SWEEP_CASES)))
    def test_grid_matches_per_theta_loop(self, case):
        proc, state = SWEEP_CASES[case]
        want = _per_theta(proc, state, SWEEP_THETAS)
        grid = SWEEP_THETAS[:20].reshape(4, 5)
        parts = conditional_cf_parts(proc, state, 1.0, grid)
        assert parts.log_state.shape == parts.log_future.shape == (4, 5)
        assert parts.value.shape == (4, 5)
        got = np.stack([parts.log_state.ravel(), parts.log_future.ravel()], 1)
        assert np.abs(got - want[:20]).max() <= 1e-15
        value = conditional_cf(proc, state, 1.0, SWEEP_THETAS)
        assert np.abs(value - np.exp(want.sum(axis=1))).max() <= 1e-15

    def test_real_part_capped_per_real_component(self, monkeypatch):
        # an integral with positive real parts for both components: only the
        # real theta's is capped (its exact value has real part <= 0)
        monkeypatch.setattr(shotnoise, "compensator_mass",
                            lambda *a, **k: np.array([0.5 + 1.0j, 0.5 + 1.0j]))
        proc, state = SWEEP_CASES[0]
        parts = conditional_cf_parts(proc, state, 1.0, [1.0, -0.4j])
        assert parts.log_future.tolist() == [1.0j, 0.5 + 1.0j]

    def test_mixed_grid_matches_scalar_calls(self):
        # E[e^{0.4 S}] > 1: the imaginary component keeps its positive real part
        proc, state = SWEEP_CASES[0]
        parts = conditional_cf_parts(proc, state, 1.0, [1.0, -0.4j])
        assert parts.log_future[1].real > 0.0
        for th, got in zip((1.0, -0.4j), parts.log_future):
            assert abs(got - conditional_cf_parts(proc, state, 1.0, th)
                       .log_future) <= 1e-15

    def test_long_grid_is_blocked(self):
        proc, state = SWEEP_CASES[0]
        thetas = np.linspace(-5.0, 5.0, 2001)
        tracemalloc.start()
        try:
            parts = conditional_cf_parts(proc, state, 1.0, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # unblocked, the frontier of 2001 theta would peak near 354 MB
        assert peak <= 16e6, peak
        step = shotnoise._THETA_BLOCK
        blocks = [conditional_cf_parts(proc, state, 1.0, thetas[lo:lo + step])
                  for lo in range(0, thetas.size, step)]
        for got, part in zip(parts, zip(*blocks)):
            assert got.shape == thetas.shape
            assert np.array_equal(got, np.concatenate(part))

    def test_refused_wide_blocks_converge_one_theta_at_a_time(self):
        # case a at theta_k = k pi / 12, k < 256: the mark levels of the
        # blocks k >= 128 would hold over _MAX_VALUES values, which refuses
        # them; solved one theta at a time, those blocks converge
        proc, state = SWEEP_CASES[0]
        thetas = np.arange(256) * math.pi / 12.0
        tracemalloc.start()
        try:
            got = conditional_cf_parts(proc, state, 1.0, thetas).log_future
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 160e6, peak  # 71-78 MB seen
        closed = [cmath.log(1.0 - 1j * th / math.e) - cmath.log(1.0 - 1j * th)
                  for th in thetas]
        assert np.abs(got - closed).max() <= DEFAULT_QUAD_TOL

    def test_block_no_theta_can_meet_fails_at_its_largest_theta(
            self, monkeypatch):
        # quad_tol 1e-14 is beyond every theta of this grid: the refused
        # block's first lone theta, -5 (a largest |theta|), is refused too,
        # and its error reaches the caller before another theta is refined
        proc = ShotNoiseProcess(exponential(1.0, 0.8),
                                standard(1.5, Exponential(1.0)))
        sizes = []
        future_mass = shotnoise._future_mass

        def counted(proc, t, T, fn, quad_tol):
            sizes.append(fn(np.zeros(1)).shape[0])
            return future_mass(proc, t, T, fn, quad_tol)

        monkeypatch.setattr(shotnoise, "_future_mass", counted)
        with pytest.raises(QuadratureFailureError, match="open intervals"):
            conditional_cf_parts(proc, state_at_zero(), 1.0,
                                 np.linspace(-5.0, 5.0, 21), quad_tol=1e-14)
        assert sizes == [21, 1]

    def test_refused_block_equals_its_scalar_calls(self, monkeypatch):
        # under a guard of 2^14 values the 8-theta block is refused: each
        # theta is then solved alone, by the call a scalar theta gets
        monkeypatch.setattr(quadrature, "_MAX_VALUES", 2**14)
        proc, state = SWEEP_CASES[0]
        thetas = np.arange(1, 9) * 0.6
        sizes = []
        future_mass = shotnoise._future_mass

        def counted(proc, t, T, fn, quad_tol):
            sizes.append(fn(np.zeros(1)).shape[0])
            return future_mass(proc, t, T, fn, quad_tol)

        monkeypatch.setattr(shotnoise, "_future_mass", counted)
        got = conditional_cf_parts(proc, state, 1.0, thetas)
        assert sizes == [8] + [1] * 8
        for k, th in enumerate(thetas):
            lone = conditional_cf_parts(proc, state, 1.0, th)
            assert got.log_future[k] == lone.log_future
            assert got.log_state[k] == lone.log_state

    def test_one_theta_over_the_value_guard_names_it(self, monkeypatch):
        # a lone theta is not halved: the guard's own error reaches the caller
        monkeypatch.setattr(quadrature, "_MAX_VALUES", 2**10)
        proc, state = SWEEP_CASES[0]
        with pytest.raises(LevelTooWideError) as err:
            conditional_cf_parts(proc, state, 1.0, 5.0)
        assert err.value.code == "QuadratureFailure"
        assert "integrand values, over _MAX_VALUES = 1024" in str(err.value)
        assert "in the mark integral" in str(err.value)

    def test_lone_theta_refusal_names_the_tolerance(self):
        # a lone theta cannot be split as a block is: the error says so and
        # names quad_tol, which no level within the guard can meet
        proc = ShotNoiseProcess(exponential(1.0, 0.8),
                                standard(1.5, Exponential(1.0)))
        with pytest.raises(LevelTooWideError) as err:
            conditional_cf_parts(proc, state_at_zero(), 1.0, -5.0,
                                 quad_tol=1e-14)
        message = str(err.value)
        assert err.value.code == "QuadratureFailure"
        assert "over _MAX_VALUES" in message and "open intervals" in message
        assert message.endswith("a lone theta has no smaller part: quad_tol "
                                "= 1e-14 asks for more refinement than the "
                                "guard allows, so raise quad_tol")

    def test_zero_grid_is_exactly_one(self):
        marks = SampleOnly(lambda rng, t, n: rng.normal(size=(n, 1)), 1)
        for spec in (standard(1.0, marks), _SPEC_B):
            proc = ShotNoiseProcess(jump_to_level(), spec)
            value = conditional_cf(proc, state_at_zero(), 1.0, np.zeros(3))
            assert value.tolist() == [1.0, 1.0, 1.0]

    def test_sample_only_marks_refused_for_any_nonzero_theta(self):
        marks = SampleOnly(lambda rng, t, n: rng.normal(size=(n, 1)), 1)
        proc = ShotNoiseProcess(jump_to_level(), standard(1.0, marks))
        for grid in ([0.0, 1.0], [0.0, 0.5j], [[0.0], [-2.0]]):
            with pytest.raises(UnsupportedMarksError):
                conditional_cf(proc, state_at_zero(), 1.0, grid)

    def test_empty_range_gives_theta_shape(self):
        proc, _state = SWEEP_CASES[0]
        parts = conditional_cf_parts(proc, FiltrationState.at(
            MppPath([0.3], [[2.0]], 1.0), 1.0), 1.0, [1.0, 2.0])
        assert parts.log_future.tolist() == [0j, 0j]
        assert parts.value == pytest.approx(np.exp(2j * math.exp(-0.7)
                                                   * np.array([1.0, 2.0])))

    @pytest.mark.parametrize("case", range(2))
    def test_empty_grid_gives_empty_parts(self, case):
        # case (b)'s Normal marks check their truncated edges on no values
        proc, state = SWEEP_CASES[case]
        parts = conditional_cf_parts(proc, state, 1.0, np.zeros((0, 3)))
        for part in (*parts, parts.value):
            assert part.shape == (0, 3) and part.dtype == complex

    def test_grid_costs_about_one_scalar_call_of_the_kernel(self):
        calls = []
        base = exponential(1.0, 1.0)
        kern = NoiseKernel(base.kind, lambda t, x: calls.append(1) or base.G(t, x),
                           base.g, 1, base.params)
        proc = ShotNoiseProcess(kern, _SPEC_A)
        per_theta = []
        for th in SWEEP_THETAS:
            calls.clear()
            conditional_cf_parts(proc, state_at_zero(), 1.0, th)
            per_theta.append(len(calls))
        calls.clear()
        conditional_cf_parts(proc, state_at_zero(), 1.0, SWEEP_THETAS)
        assert len(calls) <= max(per_theta) + 2
        assert sum(per_theta) >= 15 * len(calls)


def test_cf_parts_over_an_empty_range_have_theta_shape():
    # T equal to the state time: compensator_mass gives zeros per theta
    proc = ShotNoiseProcess(exponential(1.0, 1.0), standard(1.0, PointMass(1.0)))
    path = MppPath([0.3, 0.6], [[1.0], [1.0]], 1.0)
    parts = conditional_cf_parts(proc, FiltrationState.at(path, 1.0), 1.0,
                                 [1.0, 2.0])
    assert parts.log_state.shape == parts.log_future.shape == (2,)
    assert parts.log_future.tobytes() == np.zeros(2, dtype=complex).tobytes()
    assert parts.value.shape == (2,)


@pytest.mark.parametrize("fn", [
    lambda proc, state, T: conditional_cf(proc, state, T, 0.7),
    conditional_mean], ids=["cf", "mean"])
def test_horizon_before_the_state_time_refused(fn):
    # conditional_mean once failed inside compensator_mass, "need t0 <= t1"
    proc = ShotNoiseProcess(exponential(1.0, 1.0), standard(1.0, PointMass(1.0)))
    state = FiltrationState.at(MppPath([0.3], [[1.0]], 1.0), 0.8)
    with pytest.raises(ParameterError, match="need state time <= T") as info:
        fn(proc, state, 0.5)
    assert info.value.field == "T"


@pytest.mark.parametrize("quad_tol,error", [
    (0.0, ParameterError), (-1.0, ParameterError), (math.nan, NonFiniteError),
    (math.inf, NonFiniteError)], ids=["zero", "negative", "nan", "inf"])
def test_conditional_cf_refuses_bad_quad_tol_at_entry(quad_tol, error):
    # quad_tol = 0 used to refine for 11.6 s up to 1.3 GB before failing
    proc = ShotNoiseProcess(exponential(1.0, 1.0), standard(1.0, Exponential(1.0)))
    t0 = time.perf_counter()
    with pytest.raises(error):
        conditional_cf(proc, state_at_zero(), 1.0, 0.7, quad_tol=quad_tol)
    assert time.perf_counter() - t0 < 1.0


class TestConditionalMean:
    def test_horizon_equals_state_time(self):
        proc = ShotNoiseProcess(exponential(1.0, 1.0), standard(1.0, PointMass(1.0)))
        path = MppPath([0.5], [[2.0]], 1.0)
        state = FiltrationState.at(path, 1.0)
        expect = eval_shotnoise(proc, path, 1.0)
        assert conditional_mean(proc, state, 1.0) == pytest.approx(expect)

    def test_closed_form_from_zero(self):
        # oracle: int_0^T lam u e^{-b(T-s)} ds = (lam u / b)(1 - e^{-bT})
        lam, u, b, T = 1.5, 0.7, 0.9, 2.0
        proc = ShotNoiseProcess(exponential(1.0, b), standard(lam, PointMass(u)))
        got = conditional_mean(proc, state_at_zero(), T)
        closed = lam * u / b * (1.0 - math.exp(-b * T))
        assert got == pytest.approx(closed, abs=1e-10)

    def test_closed_form_vs_monte_carlo(self):
        lam, b, T = 1.5, 0.9, 2.0
        kern = exponential(1.0, b)
        proc = ShotNoiseProcess(kern, standard(lam, Exponential(1.0)))
        got = conditional_mean(proc, state_at_zero(), T)
        n = 50000
        batch = simulate_standard_batch(lam, Exponential(1.0), T, n, 13)
        terminal = batch_terminal_shotnoise(kern, batch)
        se = terminal.std(ddof=1) / math.sqrt(n)
        assert abs(terminal.mean() - got) <= 3.0 * se

    def test_pure_decay(self):
        b = 0.8
        proc = ShotNoiseProcess(exponential(1.0, b), standard(0.0, PointMass(1.0)))
        path = MppPath([0.5], [[5.0 * math.exp(0.5 * b)]], 1.0)  # S_1 = 5
        state = FiltrationState.at(path, 1.0)
        got = conditional_mean(proc, state, 3.0)
        assert got == pytest.approx(5.0 * math.exp(-b * 2.0), rel=1e-12)

    def test_power_law_closed_form(self):
        # oracle: int_0^T lam u / (1 + c (T - s)) ds = (lam u / c) log1p(c T)
        lam, u, c, T = 1.5, 0.7, 2.0, 3.0
        proc = ShotNoiseProcess(power_law(c), standard(lam, PointMass(u)))
        got = conditional_mean(proc, state_at_zero(), T)
        assert got == pytest.approx(lam * u / c * math.log1p(c * T), abs=1e-10)

    def test_table_kernel_time_knots_are_breakpoints(self):
        # G(T - s, x) kinks at s = T - t_knot: cut there, each piece is
        # bilinear and converges at the first level, one G call for the mean
        # and two for a 21-theta CF (43 and 19 calls when only the x-knots
        # were cut)
        table = from_table([0.0, 0.3, 0.7, 1.5], [0.0, 1.0, 3.0],
                           [[0.0, 1.0, 2.0], [0.0, 0.6, 1.5],
                            [0.0, 0.5, 0.4], [0.0, 0.1, 0.2]])
        calls = []

        def G(t, x):
            calls.append(1)
            return table.G(t, x)

        kern = NoiseKernel(table.kind, G, table.g, 1, table.params)
        spec = standard(2.0, Uniform(0.0, 3.0))
        proc = ShotNoiseProcess(kern, spec)
        theta = np.linspace(-5.0, 5.0, 21)
        cf = conditional_cf(proc, state_at_zero(), 1.0, theta)
        assert len(calls) <= 3
        del calls[:]
        mean = conditional_mean(proc, state_at_zero(), 1.0)
        assert len(calls) == 1
        # oracle: E G(u, X) is linear in u between knots, so the trapezoid
        # rule over [0, 0.3, 0.7, 1] is exact; X ~ U(0, 3) averages the x
        # pieces [0, 1] and [1, 3] by weights 1/3 and 2/3
        ages = np.array([0.0, 0.3, 0.7, 1.0])
        avg = (table.G(ages, [0.5]) + 2.0 * table.G(ages, [2.0])) / 3.0
        assert mean == pytest.approx(
            2.0 * np.sum(np.diff(ages) * (avg[1:] + avg[:-1]) / 2.0), abs=1e-12)
        uncut = compensator_mass(
            spec, 0.0, 1.0,
            lambda s, x: np.exp(1j * theta[:, None, None] * table.G(1.0 - s, x)) - 1.0,
            mark_breakpoints=table.params["x_knots"])
        assert np.abs(np.log(cf) - uncut).max() <= 2 * DEFAULT_QUAD_TOL

    @pytest.mark.parametrize("ramp", [False, True], ids=["constant", "ramp"])
    def test_time_varying_marks_are_simulated_at_event_times(self, ramp):
        # a mark of 1 before t = 0.5 and 3 after: both simulators draw each
        # mark at its event's time, as the exact mean integrates F(t, dx);
        # drawn at t = 0, the constant-rate mean was 1.0 against 2.0
        class StepMarks(MarkDistribution):
            mode = MODE_DISCRETE

            def sample(self, rng, t, n):
                return np.where(np.broadcast_to(t, (n,)) < 0.5, 1.0,
                                3.0).reshape(n, 1)

            def atoms(self, t):
                late = np.asarray(t, dtype=float)[..., None] >= 0.5
                return (np.array([[1.0], [3.0]]),
                        np.where(late, [0.0, 1.0], [1.0, 0.0]))

        rate = ((lambda t: 1.0 + 2.0 * np.asarray(t, dtype=float)) if ramp
                else (lambda t: np.ones(np.shape(t))))
        spec = CompensatorSpec(rate=rate, rate_bound=3.0 if ramp else 1.0,
                               marks=StepMarks())
        proc = ShotNoiseProcess(jump_to_level(), spec)
        exact = conditional_mean(proc, state_at_zero(), 1.0)
        assert exact == pytest.approx(4.5 if ramp else 2.0, abs=1e-12)
        per_path = np.array([
            past_sum(proc.kernel.G, simulate_mpp(spec, 1.0, 5, path_index=i), 1.0)
            for i in range(4000)])
        batch = past_sum(proc.kernel.G,
                         simulate_batch(spec, 1.0, 20000, 5, tag=TAG_BATCH), 1.0)
        for sums in (per_path, batch):
            se = sums.std(ddof=1) / math.sqrt(sums.size)
            assert abs(sums.mean() - exact) <= 3.0 * se


class TestSemimartingaleDecomposition:
    def test_jump_to_level_has_zero_drift(self):
        proc = ShotNoiseProcess(jump_to_level(), standard(2.0, Exponential(1.0)))
        path = simulate_mpp(proc.spec, 2.0, 3)
        grid = np.linspace(0.0, 2.0, 9)
        dec = semimartingale_decompose(proc, path, grid)
        assert np.all(dec.drift == 0.0)
        expect = [path.cumulative_marks(t)[0] for t in grid]
        assert np.allclose(dec.jump_part, expect, atol=0.0)

    def test_single_jump_closed_form(self):
        # oracle: int_{T1}^t -b u e^{-b(s-T1)} ds = u (e^{-b(t-T1)} - 1)
        b, u, t1 = 0.9, 2.0, 0.4
        proc = ShotNoiseProcess(exponential(1.0, b), standard(1.0, PointMass(u)))
        path = MppPath([t1], [[u]], 2.0)
        grid = np.linspace(0.0, 2.0, 9)
        dec = semimartingale_decompose(proc, path, grid)
        for t, d in zip(grid, dec.drift):
            closed = u * (math.exp(-b * (t - t1)) - 1.0) if t >= t1 else 0.0
            assert d == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("kernel", [exponential(1.2, 0.7), power_law(1.5)])
    def test_reconstruction_identity_random_paths(self, kernel):
        spec = standard(2.0, Exponential(1.0))
        proc = ShotNoiseProcess(kernel, spec)
        grid = np.linspace(0.0, 2.0, 9)
        worst = 0.0
        for i in range(100):
            path = simulate_mpp(spec, 2.0, 17, path_index=i)
            dec = semimartingale_decompose(proc, path, grid)
            s_vals = np.array([eval_shotnoise(proc, path, t) for t in grid])
            worst = max(worst, float(
                np.abs(dec.drift + dec.jump_part - s_vals).max()))
        assert worst <= 1e-8

    def test_integrability_failure_raised(self):
        # g ~ s^{-3/4} is integrable but g^2 is not: the check must fail
        bad = NoiseKernel(
            "custom",
            lambda t, x: np.asarray(x, dtype=float)[..., 0]
            * 4.0 * np.asarray(t, dtype=float) ** 0.25,
            lambda t, x: np.asarray(x, dtype=float)[..., 0]
            * np.asarray(t, dtype=float) ** -0.75,
            1)
        proc = ShotNoiseProcess(bad, standard(1.0, PointMass(1.0)))
        path = MppPath([0.5], [[1.0]], 2.0)
        with np.errstate(divide="ignore"), pytest.raises(IntegrabilityFailureError):
            semimartingale_decompose(proc, path, np.linspace(0.0, 2.0, 5))


def frozen_slice_drift(proc, path, grid, quad_tol=DEFAULT_QUAD_TOL):
    """Reference drift: one Gauss-Kronrod integral per piece between
    consecutive grid points, event times and event + knot lags, integrating
    only the events already active at the piece start."""
    times = path.times
    t_end = float(grid[-1])
    bks = [times[times <= t_end]]
    for knot in proc.kernel.params.get("t_knots", ()):
        bks.append(times + knot)
    pts = np.unique(np.concatenate([[0.0], grid, *bks]))
    pts = pts[(pts >= 0.0) & (pts <= t_end)]
    cum = np.zeros(pts.size)
    running = 0.0
    for k in range(1, pts.size):
        a, b = pts[k - 1], pts[k]
        n_active = int(np.searchsorted(times, a, side="right"))
        if n_active and b > a:
            def piece(u, active=path.restrict(a)):
                return past_sum(proc.kernel.g, active, u)[0]

            running += float(gauss_kronrod(
                piece, a, b, quad_tol * (b - a) / t_end))
        cum[k] = running
    return cum[np.searchsorted(pts, grid)]


_CROWD_GRID = np.linspace(0.0, 2.0, 9)
_CROWD_PROCS = [ShotNoiseProcess(kernel, standard(2.0, Exponential(1.0)))
                for kernel in (exponential(1.2, 0.7), power_law(1.5))]


@settings(max_examples=60, deadline=None)
@given(proc=st.sampled_from(_CROWD_PROCS), data=st.data())
def test_decompose_matches_frozen_slice_reference(proc, data):
    # events spread over (0, 2] plus clusters in [1, 2] whose members lie
    # within 1e-4 of each other and, for grid-point centres, of the grid
    spread = data.draw(st.lists(st.floats(1e-3, 2.0), max_size=30))
    centres = data.draw(st.lists(
        st.one_of(st.sampled_from(list(_CROWD_GRID[4:])), st.floats(1.0, 2.0)),
        max_size=6))
    crowd = [c + d for c in centres
             for d in data.draw(st.lists(st.floats(-5e-5, 5e-5),
                                         min_size=1, max_size=5))]
    times = np.unique(np.array(spread + crowd))
    times = times[(times > 0.0) & (times <= 2.0)]
    marks = data.draw(st.lists(st.floats(0.05, 3.0), min_size=times.size,
                               max_size=times.size))
    path = MppPath(times, np.reshape(marks, (-1, 1)), 2.0)
    dec = semimartingale_decompose(proc, path, _CROWD_GRID)
    ref = frozen_slice_drift(proc, path, _CROWD_GRID)
    assert np.abs(dec.drift - ref).max() <= 1e-12


def test_decompose_long_path_caps_open_intervals_per_piece(monkeypatch):
    # about 3000 events cut [0, 10] into about 3000 pieces, and the frontier
    # opens with one interval per piece, 45k values; with the value guard
    # lowered below that count the decomposition still succeeds, because
    # the first level always runs, however many pieces it has
    monkeypatch.setattr(quadrature, "_MAX_VALUES", 2**14)
    spec = standard(300.0, Exponential(1.0))
    proc = ShotNoiseProcess(power_law(1.5), spec)
    path = simulate_mpp(spec, 10.0, 3)
    assert 15 * path.n_events > 2 * 2**14
    grid = np.linspace(0.0, 10.0, 9)
    dec = semimartingale_decompose(proc, path, grid, quad_tol=1e-8)
    s_t = past_sum(proc.kernel.G, path, grid)[0]
    assert np.abs(dec.drift + dec.jump_part - s_t).max() <= 1e-8


def test_decompose_first_event_at_the_grid_end_has_zero_drift():
    # the drift integral over [T_1, t_end] is empty: no zero tolerance share
    proc = ShotNoiseProcess(exponential(1.2, 0.7), standard(2.0, Exponential(1.0)))
    path = MppPath([2.0], [[0.5]], 2.0)
    dec = semimartingale_decompose(proc, path, np.linspace(0.0, 2.0, 9))
    assert np.all(dec.drift == 0.0)
    assert dec.jump_part[-1] == pytest.approx(1.2 * 0.5)


def test_decompose_ties_broken_one_ulp_apart():
    # break_ties leaves tied event times one ulp apart: the pieces between
    # them hold no Kronrod node and contribute 0, and drift + jumps = S
    # still holds, on the tied times themselves too
    proc = ShotNoiseProcess(power_law(1.5), standard(2.0, Exponential(1.0)))
    times = break_ties([0.5, 0.5, 0.5, 1.2, 1.2, 1.7])
    assert times[1] == math.nextafter(0.5, 1.0)
    path = MppPath(times, [[0.3], [1.1], [2.0], [0.7], [1.4], [0.9]], 2.0)
    grid = np.sort(np.concatenate([np.linspace(0.0, 2.0, 9), times]))
    dec = semimartingale_decompose(proc, path, grid, quad_tol=1e-9)
    s_t = past_sum(proc.kernel.G, path, grid)[0]
    assert np.abs(dec.drift + dec.jump_part - s_t).max() <= 1e-9


class TestOuRecursiveUpdate:
    def test_identity_with_no_jumps(self):
        assert ou_recursive_update(0.0, 1.7, 2.0, []) == 1.7

    def test_halving(self):
        assert ou_recursive_update(math.log(2.0), 1.0, 1.0, []) == pytest.approx(0.5)

    def test_offsets_validated(self):
        with pytest.raises(ValueError):
            ou_recursive_update(1.0, 0.0, 1.0, [(1.5, 1.0)])

    @pytest.mark.parametrize("b, s_t, dt, jumps, a", [
        (1.0, 2.0, math.nan, [], 1.0),
        (math.nan, 2.0, 1.0, [], 1.0),
        (1.0, math.nan, 1.0, [], 1.0),
        (1.0, math.inf, 1.0, [], 1.0),
        (1.0, 2.0, 1.0, [], math.nan),
        (1.0, 2.0, 1.0, [(0.5, math.nan)], 1.0),
        (1.0, 2.0, 1.0, [(math.nan, 1.0)], 1.0),
        (1.0, 2.0, 1.0, [(0.5, 1.0), (0.7, -math.inf)], 1.0),
    ])
    def test_non_finite_input_raises(self, b, s_t, dt, jumps, a):
        # each once returned NaN (or raised the offset ValueError)
        with pytest.raises(NonFiniteError):
            ou_recursive_update(b, s_t, dt, jumps, a=a)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), b=st.floats(0.0, 3.0),
           a=st.floats(0.2, 2.0))
    def test_iterated_updates_match_direct_evaluation(self, seed, b, a):
        spec = standard(2.0, Exponential(1.0))
        proc = ShotNoiseProcess(exponential(a, b), spec)
        path = simulate_mpp(spec, 3.0, seed)
        grid = np.linspace(0.0, 3.0, 13)
        s = 0.0
        for lo, hi in zip(grid[:-1], grid[1:]):
            mask = (path.times > lo) & (path.times <= hi)
            jumps = [(float(ti - lo), float(x[0]))
                     for ti, x in zip(path.times[mask], path.marks[mask])]
            s = ou_recursive_update(b, s, hi - lo, jumps, a=a)
        assert abs(s - eval_shotnoise(proc, path, 3.0)) <= 1e-10


def test_mark_dim_mismatch_rejected():
    from snoise.kernels import random_decay
    with pytest.raises(ValueError):
        ShotNoiseProcess(random_decay(), standard(1.0, PointMass(1.0)))


def test_integrability_value_finite_for_builtin():
    proc = ShotNoiseProcess(exponential(1.0, 1.0), standard(2.0, Exponential(1.0)))
    # oracle: int_0^T int (b a x e^{-bs})^2 lam e^{-x} ... finite, positive
    val = proc.integrability_value(2.0)
    assert math.isfinite(val) and val > 0
    # closed form: lam * E[x^2] * int_0^T b^2 e^{-2bs} ds = 2*2*(1-e^{-4})/2
    closed = 2.0 * 2.0 * (1.0 - math.exp(-4.0)) / 2.0
    assert val == pytest.approx(closed, abs=1e-7)


def test_integrability_value_keeps_the_ends_of_the_range():
    # g = 50/(1+50t)^2 peaks at t = 0: int_0^10 300 g^2 dt = 5000(1 - 501^-3),
    # and the quadrature must not drop a sliver at either end of the range
    proc = ShotNoiseProcess(power_law(50.0), standard(300.0, PointMass(1.0)))
    val = proc.integrability_value(10.0, quad_tol=1e-10)
    assert val == pytest.approx(5000.0 * (1.0 - 501.0 ** -3), abs=1e-10)


@pytest.mark.parametrize("lam, a, b, mu, T, t", [
    (1.0, 1.0, 1.0, 1.0, 1.0, 0.0),
    (1.0, 1.0, 1.0, 1.0, 1.0, 0.5),
    (2.5, 0.7, 1.8, 0.4, 2.0, 0.0),
    (2.5, 0.7, 1.8, 0.4, 2.0, 1.3),
])
def test_exponential_kernel_exp_marks_closed_form(lam, a, b, mu, T, t):
    # int_t^T int (e^{i theta a x e^{-b(T-s)}} - 1) lam F(dx) ds with
    # F = Exp(mean mu) is (lam/b)[log(1 - c e^{-b(T-t)}) - log(1 - c)],
    # c = i theta a mu
    proc = ShotNoiseProcess(exponential(a, b), standard(lam, Exponential(mu)))
    state = FiltrationState(t, empty_path(t))
    for theta in (-5.0, -0.5, 0.5, 2.0, 5.0):
        c = 1j * theta * a * mu
        closed = lam / b * (cmath.log(1.0 - c * math.exp(-b * (T - t)))
                            - cmath.log(1.0 - c))
        got = conditional_cf_parts(proc, state, T, theta).log_future
        assert abs(got - closed) <= 1e-10, theta


@pytest.mark.parametrize("lam, a, b, mu, sigma, T, t", [
    (1.0, 1.0, 1.0, 0.5, 0.3, 1.0, 0.0),
    (2.5, 0.7, 1.8, -0.4, 1.1, 2.0, 0.0),
    (2.5, 0.7, 1.8, -0.4, 1.1, 2.0, 1.3),
])
def test_exponential_kernel_normal_marks_closed_form(lam, a, b, mu, sigma, T, t):
    # with F = Normal(mu, sigma^2) the mark integral is the normal CF at
    # theta a e^{-bu}: int_0^{T-t} lam (exp(i c mu - sigma^2 c^2 / 2) - 1) du,
    # c = theta a e^{-bu}, one real quad per part; the density route cuts
    # both truncated tails of the support
    proc = ShotNoiseProcess(exponential(a, b), standard(lam, Normal(mu, sigma)))
    state = FiltrationState(t, empty_path(t))
    for theta in (-20.0, -5.0, -0.5, 0.5, 5.0, 20.0):
        want = lam * _normal_marks_future(theta, a, b, mu, sigma, T - t)
        got = conditional_cf_parts(proc, state, T, theta).log_future
        assert abs(got - want) <= 1e-9, theta


def _normal_marks_future(theta, a, b, mu, sigma, span):
    """int_0^span (exp(i c mu - sigma^2 c^2 / 2) - 1) du, c = theta a e^{-bu}:
    the future log-factor per unit rate, by one real quad per part."""
    def f(u):
        c = theta * a * math.exp(-b * u)
        return cmath.exp(1j * c * mu - 0.5 * (sigma * c) ** 2) - 1.0
    re, im = (spi.quad(lambda u: part(f(u)), 0.0, span, epsabs=3e-14,
                       epsrel=0.0, limit=200)[0]
              for part in (lambda z: z.real, lambda z: z.imag))
    return complex(re, im)


_BUDGET_THETAS = (-50.0, -5.0, 0.5, 5.0, 20.0, 50.0)
# theta that refuse quad_tol 1e-12 at rate 1e4, whose mark integrals run to
# the 1e-14 floor under any budget: the documented limit
_BUDGET_LIMIT = {"exp": (-50.0, -5.0, 5.0, 20.0, 50.0),
                 "normal": (-50.0, -5.0, 5.0, 50.0)}


@pytest.mark.parametrize("rate", [0.3, 1.0, 1e4])
@pytest.mark.parametrize("quad_tol", [1e-6, 1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("marks", ["exp", "normal"])
def test_mark_tolerance_budget_keeps_quad_tol(marks, quad_tol, rate):
    # the mark integrals run to quad_tol / (4 rate T) within [quad_tol *
    # 1e-3, quad_tol] (point_process.mark_tol), and the CF still meets
    # quad_tol against its closed form: the worst error seen is 2e-2 of
    # it; at rate <= 1, quad_tol 1e-12 with Exp(1) marks converges, which
    # a fixed inner quad_tol * 1e-3 cannot reach below the 1e-14 floor
    law = Exponential(1.0) if marks == "exp" else Normal(0.5, 0.3)
    proc = ShotNoiseProcess(exponential(1.0, 1.0), standard(rate, law))
    refused = _BUDGET_LIMIT[marks] if (rate, quad_tol) == (1e4, 1e-12) else ()
    for theta in _BUDGET_THETAS:
        if theta in refused:
            with pytest.raises(QuadratureFailureError):
                conditional_cf_parts(proc, state_at_zero(), 1.0, theta,
                                     quad_tol=quad_tol)
            continue
        if marks == "exp":
            want = rate * (cmath.log(1.0 - 1j * theta / math.e)
                           - cmath.log(1.0 - 1j * theta))
        else:
            want = rate * _normal_marks_future(theta, 1.0, 1.0, 0.5, 0.3, 1.0)
        got = conditional_cf_parts(proc, state_at_zero(), 1.0, theta,
                                   quad_tol=quad_tol).log_future
        assert abs(got - want) <= quad_tol, theta


def test_sweep_levels_start_from_the_cuts(monkeypatch):
    # integrand levels of the three sweep cases at 21 theta, counted as
    # mark pdf calls (one per level of a mark integral, one per edge
    # guard): 474 when every truncated support started whole, 254 when
    # every mark integral ran to quad_tol * 1e-3 whatever the compensator
    # mass (point_process.mark_tol)
    calls = []
    for cls in (Exponential, Normal):
        def pdf(self, t, x, _pdf=cls.pdf):
            calls.append(np.size(x))
            return _pdf(self, t, x)
        monkeypatch.setattr(cls, "pdf", pdf)
    for proc, state in SWEEP_CASES:
        _per_theta(proc, state, SWEEP_THETAS)
    assert len(calls) == 216


@pytest.mark.parametrize("marks, phi", [
    (Exponential(0.8), lambda th: 1.0 / (1.0 - 0.8j * th)),
    (Normal(0.3, 1.1), lambda th: cmath.exp(0.3j * th - 0.5 * (1.1 * th) ** 2)),
])
def test_jump_to_level_closed_form(marks, phi):
    # compound Poisson: the future log-factor is lam T (phi_F(theta) - 1)
    lam, T = 1.7, 1.5
    proc = ShotNoiseProcess(jump_to_level(), standard(lam, marks))
    for theta in (-4.0, -0.3, 0.3, 1.0, 4.0):
        got = conditional_cf_parts(proc, state_at_zero(), T, theta).log_future
        assert abs(got - lam * T * (phi(theta) - 1.0)) <= 1e-10, theta


def test_table_kernel_with_density_marks_cf_vs_monte_carlo():
    # G kinks in x at the table's x-knots 0.7 and 1.5, inside the support
    # of the Exponential(1) marks; the CF cuts its mark integral there
    kern = from_table([0.0, 0.5, 1.5, 4.0], [0.0, 0.7, 1.5, 3.0],
                      [[0.0, 0.6, 1.2, 2.0], [0.0, 0.4, 0.9, 1.5],
                       [0.0, 0.2, 0.5, 0.9], [0.0, 0.0, 0.1, 0.2]])
    marks = Exponential(1.0)
    proc = ShotNoiseProcess(kern, standard(1.5, marks))
    assert math.isfinite(proc.integrability_value(2.0))
    batch = simulate_standard_batch(1.5, marks, 2.0, 100000, 23)
    terminal = batch_terminal_shotnoise(kern, batch)
    for theta in (0.5, 1.7, 4.0):
        got = conditional_cf(proc, state_at_zero(), 2.0, theta)
        assert cf_ratio(got, empirical_cf(terminal, theta)) <= 3.0, theta


@pytest.mark.parametrize("level, error, message", [
    (math.nan, NonFiniteError, r"^rate\(0\.\d+\) is NaN$"),
    (-1.0, InvalidBoundError, r"^rate\(0\.\d+\) = -1 is below 0$"),
    (2.0, InvalidBoundError, r"^rate\(0\.\d+\) = 2 exceeds rate_bound = 1$"),
], ids=["nan", "negative", "over-bound"])
def test_exact_routes_check_the_rate_at_their_nodes(level, error, message):
    # the simulators' rule, at the first quadrature level: a NaN rate ran
    # conditional_cf for 6 s to 918 MB before it raised, and a rate of -1
    # or above rate_bound gave the CF of no law or of a spec the
    # simulators refuse
    spec = CompensatorSpec(
        rate=lambda t: np.full(np.shape(t), level), rate_bound=1.0,
        marks=Exponential(1.0))
    proc = ShotNoiseProcess(exponential(1.0, 1.0), spec)
    start = time.perf_counter()
    with pytest.raises(error, match=message):
        conditional_cf(proc, state_at_zero(), 1.0, 0.7)
    with pytest.raises(error, match=message):
        compensator_mass(spec, 0.0, 1.0, lambda s, x: s + x[..., 0])
    # a scalar time names itself
    with pytest.raises(error, match=message.replace(r"0\.\d+", "0.5")):
        spec.slice_integral(0.5, lambda x: x[:, 0])
    assert time.perf_counter() - start < 1.0


def test_mark_integral_failure_names_its_slice_times():
    # a kernel that is NaN past lag 0.5 fails inside the mark integral,
    # whose own message names only its first piece, [0, 60/2^6] of the
    # Exponential(1) support cut at its start cuts; the slice times it ran
    # at follow, and G(1 - s) is NaN for s < 0.5
    def nan_past_half(t, x):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.5, np.nan, np.asarray(x, dtype=float)[..., 0])

    kern = NoiseKernel("custom", nan_past_half, nan_past_half, 1)
    proc = ShotNoiseProcess(kern, standard(1.0, Exponential(1.0)))
    with pytest.raises(NonFiniteError) as exc:
        conditional_cf(proc, state_at_zero(), 1.0, 0.7)
    message = str(exc.value)
    assert message.startswith("integrand is not finite on [0.0, 0.9375] at depth 0")
    lo, hi = map(float, message.split("at times in [")[1].rstrip("]").split(", "))
    assert 0.0 <= lo < 0.5 and lo < hi <= 1.0
