import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snoise.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotSeparableError,
    ParameterError,
    ZeroAtOriginError,
)
from snoise.kernels import (
    NoiseKernel,
    check_absolute_continuity,
    custom,
    eval_G,
    exponential,
    from_table,
    is_markov_kernel,
    jump_to_level,
    power_law,
    random_decay,
)
from snoise.quadrature import cumulative_integral

QUAD_TOL = 1e-8


class TestEvalG:
    def test_exponential_at_origin(self):
        assert eval_G(exponential(1.0, 2.0), 0.0, [3.0]) == pytest.approx(3.0)

    def test_power_law_substitution(self):
        assert eval_G(power_law(1.0), 1.0, [2.0]) == pytest.approx(1.0)

    def test_random_decay(self):
        val = eval_G(random_decay(), math.log(2.0), [4.0, 1.0])
        assert val == pytest.approx(2.0)

    def test_jump_to_level_ignores_age(self):
        k = jump_to_level()
        assert eval_G(k, 0.0, [1.5]) == eval_G(k, 7.0, [1.5]) == 1.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            eval_G(random_decay(), 1.0, [1.0])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            eval_G(exponential(1.0, 1.0), -0.1, [1.0])

    def test_non_finite_detected(self):
        bad = NoiseKernel(
            "custom",
            lambda t, x: np.asarray(x, dtype=float)[..., 0] / (np.asarray(t, dtype=float) - 0.5),
            lambda t, x: np.zeros(np.broadcast(np.asarray(t, dtype=float), np.asarray(x, dtype=float)[..., 0]).shape),
            1)
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
            eval_G(bad, 0.5, [1.0])

    @pytest.mark.parametrize("build", [
        lambda: exponential(math.nan, 1.0), lambda: exponential(1.0, math.nan),
        lambda: exponential(math.inf, 1.0), lambda: exponential(1.0, -math.inf),
        lambda: power_law(math.nan), lambda: power_law(math.inf),
    ], ids=["exp-a-nan", "exp-b-nan", "exp-a-inf", "exp-b-minf",
            "power-nan", "power-inf"])
    def test_non_finite_parameter_refused(self, build):
        # exponential(nan, 1.0) and power_law(nan) used to build kernels
        # whose every value is NaN
        with pytest.raises(NonFiniteError):
            build()


class TestAbsoluteContinuity:
    @pytest.mark.parametrize("kernel", [
        jump_to_level(), exponential(1.0, 2.0), exponential(-0.5, 0.3),
        power_law(0.7),
    ])
    def test_builtin_residual_within_tol(self, kernel):
        assert check_absolute_continuity(kernel) <= QUAD_TOL

    def test_random_decay_with_varying_decay_rate(self):
        x1 = np.linspace(0.1, 3.0, 50)
        xs = np.column_stack([x1, np.linspace(0.2, 2.5, 50)])
        assert check_absolute_continuity(random_decay(), xs=xs) <= QUAD_TOL

    @pytest.mark.parametrize("kernel, dim2", [
        (exponential(1.2, 0.7), False), (power_law(1.5), False),
        (random_decay(), True), (jump_to_level(), False),
        (from_table([0.0, 0.5, 1.0, 2.0], [0.0, 1.0, 2.0, 4.0],
                    np.outer([1.0, 0.7, 0.5, 0.3], [0.0, 1.0, 2.0, 4.0])), False),
        # an inconsistent pair: g is 0.9 times the derivative of G
        (NoiseKernel("custom",
                     lambda t, x: np.asarray(x)[..., 0] * np.exp(-np.asarray(t)),
                     lambda t, x: -0.9 * np.asarray(x)[..., 0] * np.exp(-np.asarray(t)),
                     1), False),
    ], ids=["exponential", "power_law", "random_decay", "jump_to_level",
            "table", "inconsistent"])
    def test_one_call_equals_per_mark_loop(self, kernel, dim2):
        # every probe mark is one component of a single cumulative integral;
        # each mark's own integral gives the same worst residual
        ts = np.linspace(0.0, 2.0, 50)
        xs = np.ones((50, kernel.mark_dim))
        xs[:, 0] = np.linspace(0.1, 3.0, 50)
        if dim2:
            xs[:, 1] = np.linspace(0.2, 2.5, 50)
        ts_all = np.unique(np.concatenate([[0.0], ts]))
        worst = 0.0
        for x in xs:
            integral = cumulative_integral(
                lambda s: kernel.g(s, x), ts_all, QUAD_TOL / 10.0,
                breakpoints=kernel.params.get("t_knots", ()))
            worst = max(worst, float(np.abs(
                kernel.G(ts_all, x) - kernel.G(0.0, x) - integral).max()))
        got = check_absolute_continuity(kernel, ts, xs, quad_tol=QUAD_TOL)
        assert got == pytest.approx(worst, rel=1e-12, abs=1e-14)


class TestCustomKernels:
    def test_consistent_pair_accepted(self):
        k = custom(
            lambda t, x: np.asarray(x, dtype=float)[..., 0] * np.exp(-1.5 * np.asarray(t, dtype=float)),
            lambda t, x: -1.5 * np.asarray(x, dtype=float)[..., 0] * np.exp(-1.5 * np.asarray(t, dtype=float)),
            1)
        assert eval_G(k, 1.0, [2.0]) == pytest.approx(2.0 * math.exp(-1.5))

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            custom(
                lambda t, x: np.asarray(x, dtype=float)[..., 0] * np.exp(-1.5 * np.asarray(t, dtype=float)),
                lambda t, x: -0.5 * np.asarray(x, dtype=float)[..., 0] * np.exp(-1.5 * np.asarray(t, dtype=float)),
                1)

    def test_nan_residual_is_refused(self):
        # G is NaN past t = 0.9, g finite: the per-mark loop's running max
        # read the NaN residual as 0.0 and accepted the pair
        with pytest.raises(ValueError, match="= nan exceeds"):
            custom(
                lambda t, x: np.where(np.asarray(t) > 0.9, np.nan,
                                      np.asarray(x)[..., 0] * np.exp(-np.asarray(t))),
                lambda t, x: -np.asarray(x)[..., 0] * np.exp(-np.asarray(t)),
                1)

    def test_table_kernel_interpolates_and_is_consistent(self):
        ts = [0.0, 0.5, 1.0, 2.0]
        xs = [0.0, 1.0, 2.0, 4.0]
        vals = np.outer([1.0, 0.7, 0.5, 0.3], xs)
        k = from_table(ts, xs, vals)
        assert eval_G(k, 0.5, [2.0]) == pytest.approx(1.4)
        assert eval_G(k, 0.75, [1.0]) == pytest.approx(0.6)  # linear in t
        resid = check_absolute_continuity(
            k, ts=np.linspace(0.0, 2.0, 17), xs=np.linspace(0.5, 3.5, 7))
        assert resid <= QUAD_TOL

    def test_table_shape_validation(self):
        with pytest.raises(ValueError):
            from_table([0.0, 1.0], [0.0, 1.0], np.zeros((3, 2)))


class TestMarkovClassification:
    def test_exponential_is_markov_with_exact_fit(self):
        res = is_markov_kernel(exponential(1.0, 0.5),
                               grid=np.linspace(0.0, 5.0, 11), tol=1e-10)
        assert res.is_markov
        assert res.a == pytest.approx(1.0, abs=1e-12)
        assert res.b == pytest.approx(0.5, abs=1e-12)

    def test_constant_kernel_is_markov_with_b_zero(self):
        res = is_markov_kernel(exponential(2.0, 0.0))
        assert res.is_markov
        assert res.a == pytest.approx(2.0)
        assert res.b == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("c", [0.01, 0.1, 1.0, 10.0])
    def test_power_law_never_markov(self, c):
        assert not is_markov_kernel(power_law(c)).is_markov

    def test_power_law_rejected_with_oracle_residual(self):
        grid = np.linspace(0.0, 5.0, 11)
        res = is_markov_kernel(power_law(1.0), grid=grid, tol=1e-10)
        assert not res.is_markov
        # oracle: evaluate the Cauchy-relation residual directly
        H = lambda t: 1.0 / (1.0 + t)
        worst = max(
            abs(H(s - t) * H(t) - H(s) * H(0.0))
            for t in grid for s in grid if s >= t)
        assert worst > 1e-10
        assert res.max_residual == pytest.approx(worst, rel=1e-12)

    def test_jump_to_level_is_markov(self):
        res = is_markov_kernel(jump_to_level())
        # b is +0.0: -log(1.0) made it -0.0, and the report printed "b = -0"
        assert res.is_markov and res.b == 0.0 and math.copysign(1.0, res.b) == 1.0

    def test_random_decay_not_separable(self):
        with pytest.raises(NotSeparableError):
            is_markov_kernel(random_decay())

    def test_nonlinear_mark_dependence_not_separable(self):
        k = custom(lambda t, x: np.asarray(x, dtype=float)[..., 0] ** 2 * np.exp(-np.asarray(t, dtype=float)),
                   lambda t, x: -np.asarray(x, dtype=float)[..., 0] ** 2 * np.exp(-np.asarray(t, dtype=float)),
                   1)
        with pytest.raises(NotSeparableError):
            is_markov_kernel(k)

    def test_zero_at_origin(self):
        k = custom(lambda t, x: np.asarray(x, dtype=float)[..., 0] * np.sin(np.asarray(t, dtype=float)),
                   lambda t, x: np.asarray(x, dtype=float)[..., 0] * np.cos(np.asarray(t, dtype=float)),
                   1)
        with pytest.raises(ZeroAtOriginError):
            is_markov_kernel(k)

    def test_grid_needs_three_points(self):
        with pytest.raises(ValueError):
            is_markov_kernel(exponential(1.0, 1.0), grid=[0.0, 1.0])

    @pytest.mark.parametrize("grid, tol", [
        ([0.0, 1.0, math.inf, 2.0], 1e-10),
        ([0.0, 1.0, math.nan, 2.0], 1e-10),
        ([0.0, 1.0, 2.0], math.nan),
        ([0.0, 1.0, 2.0], math.inf),
    ])
    def test_non_finite_grid_or_tol_raises(self, grid, tol):
        # an infinite grid point once gave a NaN residual and a Markov
        # verdict for the power law
        with pytest.raises(NonFiniteError):
            is_markov_kernel(power_law(1.0), grid=grid, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_tol_not_above_zero_raises(self, tol):
        # tol = -1 used to return "not Markov" for the exponential kernel
        with pytest.raises(ParameterError, match="^tol must be > 0"):
            is_markov_kernel(exponential(1.0, 1.0), tol=tol)

    @pytest.mark.parametrize("nan_at", [2.0, 1.0])
    def test_nan_kernel_value_is_not_markov(self, nan_at):
        # H = e^{-t} except NaN at one time: on the grid (a NaN residual)
        # or at t = 1 only (a NaN fitted ratio); neither is Markov
        def G(t, x):
            t = np.asarray(t, dtype=float)
            return np.asarray(x, dtype=float)[..., 0] * np.where(
                t == nan_at, math.nan, np.exp(-t))
        kern = NoiseKernel("custom", G, lambda t, x: -G(t, x), 1)
        res = is_markov_kernel(kern, grid=[0.0, 0.5, 2.0, 2.5])
        assert not res.is_markov
        assert res.a is None and res.b is None


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(0.1, 3.0),
    b=st.floats(-1.0, 3.0),
    t=st.floats(0.0, 5.0),
    s=st.floats(0.0, 5.0),
    x=st.floats(0.1, 10.0),
)
def test_exponential_semigroup_identity(a, b, t, s, x):
    k = exponential(a, b)
    lhs = eval_G(k, t + s, [x])
    rhs = math.exp(-b * s) * eval_G(k, t, [x])
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(0.1, 3.0), b=st.floats(-1.0, 3.0))
def test_random_exponential_kernels_classified_markov(a, b):
    res = is_markov_kernel(exponential(a, b))
    assert res.is_markov
    assert res.a == pytest.approx(a, abs=1e-9)
    assert res.b == pytest.approx(b, abs=1e-9)
