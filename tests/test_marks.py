import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from snoise.errors import NonFiniteError
from snoise.marks import (
    Discrete,
    Exponential,
    Normal,
    PointMass,
    ProductIid,
    SampleOnly,
    Uniform,
)
from snoise.rng import make_stream


def first(x):
    return np.asarray(x, dtype=float)[..., 0]


class TestIntegration:
    def test_point_mass_exact(self):
        pm = PointMass(2.0)
        assert pm.integrate(lambda x: first(x) ** 2) == pytest.approx(4.0)

    def test_discrete_exact_sum(self):
        d = Discrete([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])
        assert d.integrate(first) == pytest.approx(0.5 + 0.9)

    def test_normal_gaussian_cf(self):
        n = Normal(0.0, 1.0)
        for theta in (0.5, 1.7, 3.0):
            val = n.integrate(lambda x: np.exp(1j * theta * first(x)), tol=1e-10)
            assert abs(val - math.exp(-theta * theta / 2.0)) < 1e-9

    def test_normal_with_location_scale(self):
        n = Normal(1.5, 0.5)
        mean = n.integrate(first, tol=1e-10)
        second = n.integrate(lambda x: first(x) ** 2, tol=1e-10)
        assert mean == pytest.approx(1.5, abs=1e-9)
        assert second == pytest.approx(0.25 + 1.5**2, abs=1e-9)

    def test_exponential_cf(self):
        e = Exponential(0.5)  # rate 2
        theta = 1.3
        val = e.integrate(lambda x: np.exp(1j * theta * first(x)), tol=1e-10)
        assert abs(val - 2.0 / (2.0 - 1j * theta)) < 1e-9

    def test_uniform_moments(self):
        u = Uniform(1.0, 3.0)
        assert u.integrate(first, tol=1e-12) == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("dist", [
        Normal(0.3, 1.2), Exponential(0.7), Uniform(-1.0, 2.0),
        Discrete([1.0, 2.0], [0.4, 0.6]), PointMass(3.0),
    ])
    def test_total_mass_is_one(self, dist):
        ones = lambda x: np.ones(np.asarray(x, dtype=float).shape[0])
        assert dist.integrate(ones, tol=1e-10) == pytest.approx(1.0, abs=1e-9)

    def test_sample_only_is_deterministic(self):
        so = SampleOnly(lambda rng, t, n: rng.normal(size=(n, 1)), 1)
        v1 = so.integrate(lambda x: first(x) ** 2)
        v2 = so.integrate(lambda x: first(x) ** 2)
        assert v1 == v2
        assert v1 == pytest.approx(1.0, abs=0.1)


    def test_kinked_integrand_converges(self):
        # E max(X - 1, 0) = e^{-2} / 2 for X ~ Exp(mean 1/2): the kink at
        # x = 1 is not a breakpoint, and the rule still reaches 1e-8
        val = Exponential(0.5).integrate(
            lambda x: np.maximum(first(x) - 1.0, 0.0), tol=1e-8)
        assert abs(val - 0.5 * math.exp(-2.0)) <= 1e-8

    def test_breakpoints_cut_the_support(self):
        kinked = lambda x: np.abs(first(x) - 1.3)
        val = Uniform(0.0, 2.0).integrate(kinked, tol=1e-13,
                                          breakpoints=[1.3, 5.0])
        assert val == pytest.approx(0.5 * (1.3**2 + 0.7**2) / 2.0, abs=1e-13)

    @pytest.mark.parametrize("dist", [
        Normal(0.3, 1.2), Exponential(0.7), Uniform(-1.0, 2.0),
        Discrete([1.0, 2.0], [0.4, 0.6]),
        SampleOnly(lambda rng, t, n: rng.normal(size=(n, 1)), 1),
    ])
    def test_vector_valued_integrand(self, dist):
        # values shaped (2, 3, n) integrate to (2, 3), one per component
        powers = np.arange(6.0).reshape(2, 3, 1)
        got = dist.integrate(lambda x: first(x) ** powers, tol=1e-10)
        assert got.shape == (2, 3)
        for k, p in enumerate(powers.ravel()):
            ref = dist.integrate(lambda x: first(x) ** p, tol=1e-10)
            assert got.ravel()[k] == pytest.approx(ref, abs=1e-10)


class TestSampling:
    def test_sampling_matches_law(self):
        rng = make_stream(7, 0, 1)
        for dist, mean, var in [
            (Normal(0.5, 2.0), 0.5, 4.0),
            (Exponential(1.5), 1.5, 2.25),
            (Uniform(0.0, 1.0), 0.5, 1.0 / 12.0),
        ]:
            draws = dist.sample(rng, 0.0, 40000)[:, 0]
            assert draws.mean() == pytest.approx(mean, abs=4 * math.sqrt(var / 40000))

    def test_discrete_sampling_frequencies(self):
        d = Discrete([0.0, 1.0], [0.25, 0.75])
        rng = make_stream(7, 0, 1)
        draws = d.sample(rng, 0.0, 20000)[:, 0]
        assert draws.mean() == pytest.approx(0.75, abs=0.02)


class TestValidation:
    def test_discrete_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Discrete([0.0, 1.0], [0.5, 0.2])

    def test_normal_std_positive(self):
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)

    def test_uniform_ordering(self):
        with pytest.raises(ValueError):
            Uniform(2.0, 1.0)

    def test_point_mass_vector(self):
        pm = PointMass([1.0, 2.0])
        assert pm.mark_dim == 2
        assert pm.sample(make_stream(1), 0.0, 3).shape == (3, 2)


class TestProductIid:
    def test_product_of_discretes_has_atoms(self):
        p = ProductIid([Discrete([1.0, 2.0], [0.5, 0.5]),
                        Discrete([10.0], [1.0])])
        pts, w = p.atoms(0.0)
        assert pts.shape == (2, 2)
        assert np.allclose(w, [0.5, 0.5])
        assert p.integrate(lambda x: x[:, 0] * x[:, 1]) == pytest.approx(15.0)

    def test_product_sampling_shape(self):
        p = ProductIid([Exponential(1.0), Uniform(0.5, 1.5)])
        assert p.mode == "sample"
        draws = p.sample(make_stream(3), 0.0, 100)
        assert draws.shape == (100, 2)
        assert (draws[:, 1] >= 0.5).all() and (draws[:, 1] <= 1.5).all()


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(family=st.sampled_from([Normal, Exponential, Uniform]),
       data=st.data(), bad=_NON_FINITE)
def test_non_finite_parameters_rejected(family, data, bad):
    # a valid parameter set, then one slot replaced by nan or +-inf
    if family is Normal:
        params = [data.draw(st.floats(-5.0, 5.0)),
                  data.draw(st.floats(0.1, 5.0))]
    elif family is Exponential:
        params = [data.draw(st.floats(0.1, 5.0))]
    else:
        lo = data.draw(st.floats(-5.0, 5.0))
        params = [lo, lo + data.draw(st.floats(0.1, 5.0))]
    family(*params)
    params[data.draw(st.integers(0, len(params) - 1))] = bad
    with pytest.raises(NonFiniteError):
        family(*params)


@pytest.mark.parametrize("mean,std", [(0.0, 1.0), (-1.3, 0.4), (2.0, 7.5)])
def test_normal_cdf_matches_scipy_stats(mean, std):
    # ndtr of the standardized mark: scipy.stats.norm.cdf's bits, also at
    # the infinities, far tails and NaN, for arrays, lists and scalars
    x = np.concatenate([make_stream(3).normal(mean, 3.0 * std, size=2000),
                        [-np.inf, np.inf, np.nan, mean, mean - 40.0 * std,
                         mean + 40.0 * std]])
    ref = scipy.stats.norm.cdf(x, loc=mean, scale=std)
    got = Normal(mean, std).cdf(0.0, x)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert Normal(mean, std).cdf(0.0, x.tolist()).tobytes() == ref.tobytes()
    x32 = x.astype(np.float32)
    assert (Normal(mean, std).cdf(0.0, x32).tobytes()
            == scipy.stats.norm.cdf(x32, loc=mean, scale=std).tobytes())
    for xi in (mean + 0.3 * std, 1, -np.inf):
        got, ref = Normal(mean, std).cdf(0.0, xi), scipy.stats.norm.cdf(xi, mean, std)
        assert type(got) is type(ref) is np.float64 and got.tobytes() == ref.tobytes()


def test_discrete_cdf_matches_its_definition():
    # F(x) = sum of the weights of the atoms whose first coordinate is <= x:
    # tied first coordinates, unsorted 2-d atoms, x at, between and beyond them
    pts = [[1.0, 5.0], [-0.5, 2.0], [1.0, -3.0], [2.5, 0.0]]
    w = [0.1, 0.2, 0.3, 0.4]
    x = np.array([-1.0, -0.5, 0.0, 1.0, 1.7, 2.5, 9.0])
    want = [sum(wi for p, wi in zip(pts, w) if p[0] <= xi) for xi in x]
    got = Discrete(pts, w).cdf(0.0, x)
    assert got.shape == x.shape
    assert got == pytest.approx(want, abs=1e-15)
    assert Discrete(pts, w).cdf(0.0, 1.0) == pytest.approx([0.6], abs=1e-15)


@pytest.mark.parametrize("law", [
    Discrete([[1.0, 5.0], [-0.5, 2.0]], [0.4, 0.6]), Exponential(2.0),
    Normal(0.5, 1.5), Uniform(-1.0, 3.0)],
    ids=["discrete", "exponential", "normal", "uniform"])
def test_cdf_at_nan_is_nan(law):
    # Discrete read 1.0 and Exponential 0.0 at NaN: a NaN sample point
    # then entered a KS statistic as a probability
    got = law.cdf(0.0, np.array([np.nan, 1.0, np.nan]))
    assert np.isnan(got[[0, 2]]).all() and np.isfinite(got[1])
    assert np.isnan(law.cdf(0.0, np.nan)).all()


def test_uniform_cdf_matches_its_definition():
    lo, hi = -1.0, 3.0
    x = np.array([-5.0, lo, 0.0, 2.0, hi, 7.0])
    want = [0.0, 0.0, 0.25, 0.75, 1.0, 1.0]
    assert Uniform(lo, hi).cdf(0.0, x) == pytest.approx(want, abs=1e-15)
