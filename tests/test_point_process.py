import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snoise.affine import HawkesParams, simulate_hawkes
from snoise.errors import ExplosionGuardError, InvalidBoundError, NonFiniteError
from snoise.kernels import exponential, from_table, power_law, random_decay
from snoise.marks import Exponential, Normal, PointMass, Uniform
from snoise.measure_change import MarketParams, sum_past_g
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
from snoise.quadrature import adaptive_simpson
from snoise.shotnoise import ShotNoiseProcess, eval_shotnoise
from snoise.stats import ks_against_cdf


def ones(s, x):
    """Test function 1: compensator_mass then integrates the rate."""
    return np.ones(np.asarray(x, dtype=float).shape[:-1])


class TestMppPath:
    def test_validation_rejects_unsorted(self):
        with pytest.raises(ValueError):
            MppPath([0.5, 0.4], [[1.0], [1.0]], 1.0)

    def test_validation_rejects_nonpositive_start(self):
        with pytest.raises(ValueError):
            MppPath([0.0, 0.4], [[1.0], [1.0]], 1.0)

    def test_validation_rejects_beyond_horizon(self):
        with pytest.raises(ValueError):
            MppPath([0.5], [[1.0]], 0.4)

    def test_cumulative_marks_right_continuous(self):
        p = MppPath([0.5, 0.8], [[1.0], [2.0]], 1.0)
        assert p.cumulative_marks(0.49)[0] == 0.0
        assert p.cumulative_marks(0.5)[0] == 1.0  # jump included at T_i
        assert p.cumulative_marks(1.0)[0] == 3.0

    def test_restrict(self):
        p = MppPath([0.5, 0.8], [[1.0], [2.0]], 1.0)
        r = p.restrict(0.6)
        assert r.n_events == 1 and r.horizon == 0.6
        assert p.restrict(0.0).n_events == 0

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(NonFiniteError):
            MppPath([], np.empty((0, 1)), horizon)

    def test_paths_are_frozen(self):
        p = MppPath([0.5], [[1.0]], 1.0)
        with pytest.raises(ValueError):
            p.times[0] = 0.1


def test_break_ties_perturbs_by_one_ulp():
    t = break_ties(np.array([0.5, 0.5, 0.7]))
    assert t[0] == 0.5
    assert t[1] == np.nextafter(0.5, np.inf)
    assert t[2] == 0.7
    assert np.all(np.diff(t) > 0)


def reference_validate(times, marks, horizon):
    """``MppPath.__post_init__`` as first written, with the numpy wrappers."""
    times = np.array(times, dtype=float)
    marks = np.array(marks, dtype=float)
    if marks.ndim == 1:
        marks = marks.reshape(-1, 1)
    if times.ndim != 1 or marks.shape[0] != times.size:
        raise ValueError("times and marks must align")
    if times.size:
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(marks)):
            raise ValueError("times and marks must be finite")
        if times[0] <= 0 or np.any(np.diff(times) <= 0):
            raise ValueError("event times must be strictly increasing and > 0")
        if times[-1] > horizon:
            raise ValueError("event beyond horizon")
    if not math.isfinite(horizon):
        raise NonFiniteError(f"horizon must be finite, got {horizon}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    return times, marks


def reference_break_ties(times):
    times = np.array(times, dtype=float)
    for i in range(1, times.size):
        if times[i] <= times[i - 1]:
            times[i] = np.nextafter(times[i - 1], np.inf)
    return times


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0]


@st.composite
def _path_input(draw):
    """Times, marks and horizon around every boundary of the path checks."""
    times = draw(st.lists(st.one_of(st.floats(-1.0, 5.0),
                                    st.sampled_from(_SPECIAL)), max_size=8))
    if draw(st.booleans()):
        times = sorted(times)
    if times and draw(st.booleans()):  # an equal pair
        k = draw(st.integers(0, len(times) - 1))
        times.insert(k, times[k])
    n = len(times) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    dim = draw(st.sampled_from([None, 1, 2]))  # None: 1-d marks
    flat = draw(st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from(_SPECIAL)),
                         min_size=max(n, 0) * (dim or 1),
                         max_size=max(n, 0) * (dim or 1)))
    marks = np.array(flat, dtype=float).reshape((-1,) if dim is None else (-1, dim))
    finite = [t for t in times if math.isfinite(t)]
    horizon = draw(st.one_of(st.floats(-1.0, 6.0), st.sampled_from(_SPECIAL),
                             st.just(max(finite, default=1.0))))
    return times, marks, horizon


@settings(max_examples=400, deadline=None)
@example(case=([], np.empty(0), 1.0))
@example(case=([0.0, 0.5], np.ones(2), 1.0))
@example(case=([-0.0, 0.5], np.ones(2), 1.0))
@example(case=([0.5, 0.5], np.ones(2), 1.0))
@example(case=([0.5, 0.4], np.ones(2), 1.0))
@example(case=([0.5, math.nan], np.ones(2), 1.0))
@example(case=([0.5], np.array([math.inf]), 1.0))
@example(case=([0.5, 1.5], np.ones((2, 1)), 1.0))
@example(case=([5e-324, 1e-323], np.ones(2), 1.0))
@given(case=_path_input())
def test_path_validation_matches_reference(case):
    times, marks, horizon = case
    ref = _outcome(reference_validate, times, marks, horizon)
    got = _outcome(MppPath, times, marks, horizon)
    if isinstance(ref, tuple) and isinstance(ref[0], type):
        assert got == ref
    else:
        assert isinstance(got, MppPath)
        for arr, want in zip((got.times, got.marks), ref):
            assert arr.shape == want.shape and arr.tobytes() == want.tobytes()
            assert not arr.flags.writeable


@st.composite
def _tie_input(draw):
    times = sorted(draw(st.lists(st.one_of(st.floats(-1.0, 5.0),
                                           st.sampled_from(_SPECIAL)),
                                 max_size=10)))
    for _ in range(draw(st.integers(0, 3)) if times else 0):
        k = draw(st.integers(0, len(times) - 1))
        times.insert(k, times[k])
    if draw(st.booleans()):
        times = draw(st.permutations(times))
    return np.array(times, dtype=float)


@settings(max_examples=400, deadline=None)
@example(times=np.array([0.5, 0.5, 0.7]))
@example(times=np.array([0.1, 0.2, 0.3]))
@example(times=np.array([0.3]))
@example(times=np.empty(0))
@given(times=_tie_input())
def test_break_ties_matches_reference_loop(times):
    got, ref = break_ties(times), reference_break_ties(times)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("values", [[0.1, 0.2, 0.3], [0.5, 0.5, 0.4]],
                         ids=["tie_free", "tied"])
def test_break_ties_returns_a_fresh_array(values):
    for arg in (np.array(values), values):
        before = np.array(arg, dtype=float)
        out = break_ties(arg)
        assert isinstance(out, np.ndarray) and out.flags.writeable
        assert np.array_equal(np.asarray(arg), before)
        if isinstance(arg, np.ndarray):
            assert not np.shares_memory(out, arg)
    frozen = np.array(values)
    frozen.setflags(write=False)
    out = break_ties(frozen)
    assert out.flags.writeable and not np.shares_memory(out, frozen)
    out[0] = -1.0
    assert frozen[0] == values[0]


class TestSimulateMpp:
    def test_zero_rate_gives_empty_path(self):
        spec = standard(0.0, PointMass(1.0))
        assert simulate_mpp(spec, 10.0, 1).n_events == 0

    def test_mean_count_constant_rate(self):
        # oracle: Poisson mean = int lambda = 2 * 10 = 20
        spec = standard(2.0, PointMass(1.0))
        n = 20000
        counts = np.array([
            simulate_mpp(spec, 10.0, 42, path_index=i).n_events
            for i in range(n)
        ])
        assert abs(counts.mean() - 20.0) <= 3.0 * math.sqrt(20.0 / n)

    def test_mean_count_linear_rate(self):
        # oracle: int_0^2 t dt = 2
        spec = CompensatorSpec(
            rate=lambda t: np.asarray(t, dtype=float),
            rate_bound=2.0, marks=PointMass(1.0))
        n = 20000
        counts = np.array([
            simulate_mpp(spec, 2.0, 7, path_index=i).n_events
            for i in range(n)
        ])
        assert abs(counts.mean() - 2.0) <= 3.0 * math.sqrt(2.0 / n)

    def test_invalid_bound_fails_loudly(self):
        spec = CompensatorSpec(
            rate=lambda t: 1.0 + np.asarray(t, dtype=float),
            rate_bound=1.5, marks=PointMass(1.0))
        with pytest.raises(InvalidBoundError):
            simulate_mpp(spec, 5.0, 3)

    def test_reproducibility_bit_identical(self):
        spec = standard(3.0, Normal(0.0, 1.0))
        a = simulate_mpp(spec, 5.0, 11, path_index=4)
        b = simulate_mpp(spec, 5.0, 11, path_index=4)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.marks, b.marks)
        c = simulate_mpp(spec, 5.0, 11, path_index=5)
        assert not np.array_equal(a.times, c.times)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon_fails_fast(self, horizon):
        with pytest.raises(NonFiniteError):
            simulate_mpp(standard(1.0, PointMass(1.0)), horizon, 1)
        with pytest.raises(NonFiniteError):
            simulate_hawkes(HawkesParams(2.0, 0.5, 1.0), horizon, 1)

    def test_event_cap(self):
        spec = standard(100.0, PointMass(1.0))
        with pytest.raises(ExplosionGuardError):
            simulate_mpp(spec, 10.0, 1, max_events=50)

    def test_mark_law_ks(self):
        spec = standard(2.0, Exponential(1.5))
        pooled = np.concatenate([
            simulate_mpp(spec, 5.0, 21, path_index=i).marks[:, 0]
            for i in range(400)
        ])
        res = ks_against_cdf(pooled, lambda x: spec.marks.cdf(0.0, x))
        assert res.passed, (res.statistic, res.threshold)

    def test_compensated_count_martingale(self):
        # |mean(N_T) - int lambda| <= 3 SE with lambda(t) ramping down
        spec = CompensatorSpec(
            rate=lambda t: 2.0 - 0.5 * np.asarray(t, dtype=float),
            rate_bound=2.0, marks=PointMass(1.0))
        n = 20000
        counts = np.array([
            simulate_mpp(spec, 2.0, 100 + i).n_events for i in range(n)
        ])
        target = 2.0 * 2.0 - 0.5 * 2.0  # int_0^2 (2 - t/2) dt = 3
        assert compensator_mass(spec, 0.0, 2.0, ones) == pytest.approx(target,
                                                                  abs=1e-9)
        se = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - target) <= 3.0 * se


class TestCompensatorMass:
    def test_total_mass(self):
        spec = standard(1.7, Normal(0.0, 2.0))
        ones = lambda s, x: np.ones(np.asarray(x, dtype=float).shape[:-1])
        val = compensator_mass(spec, 0.0, 3.0, ones)
        assert val == pytest.approx(1.7 * 3.0, abs=1e-8)

    def test_point_mass_first_moment(self):
        spec = standard(1.0, PointMass(2.0))
        val = compensator_mass(spec, 0.0, 3.0,
                               lambda s, x: np.asarray(x, dtype=float)[..., 0])
        assert val == pytest.approx(6.0, abs=1e-10)

    def test_gaussian_cf_closed_form(self):
        # oracle: int (e^{i theta x} - 1) lam phi(x) dx dt = lam T (e^{-theta^2/2} - 1)
        lam, T = 1.3, 2.0
        spec = standard(lam, Normal(0.0, 1.0))
        for theta in (0.7, 1.7):
            val = compensator_mass(
                spec, 0.0, T,
                lambda s, x, theta=theta: np.exp(
                    1j * theta * np.asarray(x, dtype=float)[..., 0]) - 1.0)
            closed = lam * T * (math.exp(-theta**2 / 2.0) - 1.0)
            assert abs(val - closed) < 1e-8

    def test_time_slice_integral(self):
        spec = CompensatorSpec(
            rate=lambda t: 1.0 + np.asarray(t, dtype=float),
            rate_bound=3.0, marks=PointMass(2.0))
        val = spec.slice_integral(1.0, lambda x: np.asarray(x, dtype=float)[..., 0])
        assert val == pytest.approx(4.0)


def test_empty_path_helpers():
    p = empty_path(2.0, mark_dim=3)
    assert p.n_events == 0 and p.mark_dim == 3
    assert np.all(p.cumulative_marks(1.0) == 0.0)


_TABLE = from_table([0.0, 0.5, 1.5, 4.0], [0.0, 1.0, 3.0],
                    [[0.0, 1.0, 3.0], [0.0, 0.7, 2.0],
                     [0.0, 0.2, 1.1], [0.0, 0.0, 0.1]])
_KERNELS = {
    "exp_G": (exponential(1.3, 0.7).G, 1),
    "power_g": (power_law(2.0).g, 1),
    "random_decay_G": (random_decay().G, 2),
    "table_G": (_TABLE.G, 1),
    "table_g": (_TABLE.g, 1),
}


@st.composite
def _kernel_path_at(draw):
    name = draw(st.sampled_from(sorted(_KERNELS)))
    fn, dim = _KERNELS[name]
    times = np.array(sorted(draw(st.sets(
        st.floats(0.01, 3.5, allow_subnormal=False), max_size=12))))
    marks = np.array(draw(st.lists(
        st.lists(st.floats(0.0, 3.0), min_size=dim, max_size=dim),
        min_size=times.size, max_size=times.size))).reshape(-1, dim)
    extra = draw(st.lists(st.floats(0.0, 4.0), max_size=5))
    at = np.concatenate([times, extra])  # every event time, exactly
    return fn, times, marks, at


@settings(max_examples=150, deadline=None)
@given(case=_kernel_path_at(), strict=st.booleans())
def test_past_sum_matches_brute_force(case, strict):
    fn, times, marks, at = case
    got = past_sum(fn, times, marks, at, strict=strict)
    assert got.shape == at.shape
    for u, val in zip(at, got):
        terms = [float(fn(u - t, m)) for t, m in zip(times, marks)
                 if (t < u if strict else t <= u)]
        assert abs(val - math.fsum(terms)) <= 1e-13 * math.fsum(map(abs, terms))
        assert float(past_sum(fn, times, marks, u, strict=strict)) == val


def test_past_sum_rejects_non_finite_times():
    exp_kernel = exponential(1.0, 1.0)
    path = MppPath([0.5, 0.8], [[1.0], [2.0]], 1.0)
    proc = ShotNoiseProcess(exp_kernel, standard(1.0, PointMass(1.0)))
    market = MarketParams(1.0, 0.1, 0.2, lambda t: 0.02, exp_kernel,
                          standard(1.0, PointMass(1.0)))
    hawkes = simulate_hawkes(HawkesParams(2.0, 3.0, 3.0), 2.0, 3)
    assert hawkes.events.n_events
    with pytest.raises(NonFiniteError):
        eval_shotnoise(proc, path, math.nan)
    with pytest.raises(NonFiniteError):
        past_sum(exp_kernel.G, np.empty(0), np.empty((0, 1)), [0.5, math.nan])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteError):
            hawkes.intensity(bad)
        with pytest.raises(NonFiniteError):
            hawkes.intensity(np.array([0.5, bad]))
        for strict in (False, True):
            with pytest.raises(NonFiniteError):
                sum_past_g(market, bad, path, strict=strict)


# composite Gauss-Legendre for the reference's mark integrals: 64 panels of
# 20 nodes per piece between mark breakpoints
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_GL_PANELS = 64


def scalar_nested_mass(spec, t0, t1, test_fn, quad_tol, breakpoints=(),
                       mark_breakpoints=()):
    """Reference: the nested loop batched compensator_mass replaced, one
    mark integral per outer Simpson node.

    The mark integral is a fixed composite Gauss-Legendre rule, not an
    adaptive one: an adaptive rule whose nodes land on zeros of
    e^{i theta G} - 1 can accept a false estimate near 0, which makes the
    outer integrand jump and the outer Simpson fail to converge.
    """
    lo, hi = spec.marks.support(0.0)
    cuts = [lo, *sorted(k for k in mark_breakpoints if lo < k < hi), hi]
    edges = np.unique(np.concatenate(
        [np.linspace(a, b, _GL_PANELS + 1) for a, b in zip(cuts, cuts[1:])]))
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    xs = (mid[:, None] + half[:, None] * _GL_X).ravel()
    ws = (half[:, None] * _GL_W).ravel()

    def slice_value(s):
        lam = float(spec.rate(s))
        if lam == 0.0:
            return 0.0
        vals = np.asarray(test_fn(s, xs.reshape(-1, 1))) * spec.marks.pdf(s, xs)
        return lam * np.dot(vals, ws)

    return adaptive_simpson(lambda ss: np.array([slice_value(s) for s in ss]),
                            t0, t1, quad_tol, breakpoints=breakpoints)


_MASS_KERNELS = {
    "exponential": exponential(1.3, 0.7),
    "power_law": power_law(2.0),
    "table": from_table([0.0, 0.5, 1.5, 4.0], [0.0, 0.7, 1.5, 3.0],
                        [[0.0, 0.6, 1.2, 2.0], [0.0, 0.4, 0.9, 1.5],
                         [0.0, 0.2, 0.5, 0.9], [0.0, 0.0, 0.1, 0.2]]),
}
_MASS_MARKS = {
    "exponential": Exponential(0.8),
    "normal": Normal(0.6, 0.4),
    "uniform": Uniform(0.1, 2.5),
}


@settings(max_examples=30, deadline=None)
@example(kernel="power_law", marks="exponential", ramp=False,
         theta_re=0.7415311855993945, theta_im=0.0, T=1.099609375,
         frac=0.697265625, quad_tol=1e-6)
@given(kernel=st.sampled_from(sorted(_MASS_KERNELS)),
       marks=st.sampled_from(sorted(_MASS_MARKS)),
       ramp=st.booleans(),
       theta_re=st.floats(-5.0, 5.0),
       theta_im=st.one_of(st.just(0.0), st.floats(-0.3, 0.3)),
       T=st.floats(0.5, 2.0), frac=st.floats(0.0, 0.9),
       quad_tol=st.sampled_from([1e-6, 1e-8]))
def test_batched_compensator_mass_matches_scalar_nested_loop(
        kernel, marks, ramp, theta_re, theta_im, T, frac, quad_tol):
    kern = _MASS_KERNELS[kernel]
    rate = ((lambda t: 1.0 + 2.0 * np.asarray(t, dtype=float)) if ramp
            else (lambda t: np.full(np.shape(t), 1.5)))
    spec = CompensatorSpec(rate=rate, rate_bound=5.0,
                           marks=_MASS_MARKS[marks])
    theta = complex(theta_re, theta_im)

    def test_fn(s, x):
        return np.exp(1j * theta * np.asarray(kern.G(T - s, x))) - 1.0

    t0 = frac * T
    bks = [T - k for k in kern.params.get("t_knots", ())]
    x_knots = kern.params.get("x_knots", ())
    got = compensator_mass(spec, t0, T, test_fn, quad_tol=quad_tol,
                           breakpoints=bks, mark_breakpoints=x_knots)
    ref = scalar_nested_mass(spec, t0, T, test_fn, quad_tol, bks, x_knots)
    assert abs(got - ref) <= 10.0 * quad_tol


def test_slice_integral_over_times_matches_scalar_calls():
    spec = CompensatorSpec(
        rate=lambda t: np.where(np.asarray(t, dtype=float) < 1.0, 0.0, 2.0),
        rate_bound=2.0, marks=Exponential(0.5))
    s = np.array([0.5, 1.0, 1.5])
    fn = lambda x: np.exp(-s[:, None] * x[:, 0])  # (3, n)
    got = spec.slice_integral(s, fn, 1e-12)
    assert got.shape == (3,) and got[0] == 0.0
    for k, sk in enumerate(s):
        ref = spec.slice_integral(float(sk), lambda x: np.exp(-sk * x[:, 0]),
                                  1e-12)
        assert got[k] == pytest.approx(ref, abs=1e-12)
        # E e^{-s X} for X ~ Exp(mean 0.5) is 1 / (1 + s / 2)
        assert got[k] == pytest.approx(
            0.0 if sk < 1.0 else 2.0 / (1.0 + 0.5 * sk), abs=1e-11)
