import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as spi

from snoise.errors import (
    DegenerateJumpsError,
    InvalidBoundError,
    MgfDivergesError,
    NonFiniteError,
    ParameterError,
)
from snoise.kernels import exponential, from_table, jump_to_level, power_law
from snoise.marks import Discrete, Exponential, Normal, PointMass
from snoise.measure_change import (
    GirsanovKernel,
    MarketParams,
    MartingaleMeasureSpec,
    _compensator_curve,
    density_process,
    drift_residual,
    esscher_density,
    eta_normalization,
    girsanov_compensator,
    identity_kernel,
    jump_moment_m1,
    market_price_of_risk,
    mmm_ell,
    prime_spec,
    reweighted_expectation,
    simulate_stock,
    stationary_reweight,
    unit_eta,
)
from snoise.point_process import (
    CompensatorSpec,
    MppPath,
    empty_path,
    past_sum,
    simulate_mpp,
    standard,
)
from snoise.rng import TAG_BATCH
from snoise.shotnoise import ShotNoiseProcess, conditional_cf, FiltrationState
from snoise.stats import (
    batch_log_weights,
    batch_terminal_shotnoise,
    ks_two_sample_weighted,
    simulate_batch,
    simulate_standard_batch,
)

ZERO_RATE = lambda t: np.zeros_like(np.asarray(t, dtype=float))


def flat_rate(r):
    return lambda t: np.full_like(np.asarray(t, dtype=float), r, dtype=float)


def exp_tilt_measure(lam_p, rho_p, rho=1.0):
    eta = lambda x: (rho_p / rho) * np.exp(
        -(rho_p - rho) * np.asarray(x, dtype=float)[..., 0])
    return MartingaleMeasureSpec(lam_p, eta,
                                 marks_prime=Exponential(1.0 / rho_p))


class TestDensityProcess:
    def test_identity_kernel_gives_unit_density(self):
        spec = standard(1.5, Exponential(1.0))
        path = simulate_mpp(spec, 2.0, 3)
        dens = density_process(identity_kernel(), spec, path,
                               np.linspace(0.0, 2.0, 9))
        assert np.allclose(dens.L, 1.0, atol=1e-12)
        assert not dens.zero_flag

    def test_constant_two_without_jumps(self):
        lam = 0.8
        spec = standard(lam, PointMass(1.0))
        y2 = GirsanovKernel(
            Y=lambda t, x: 2.0 * np.ones(np.asarray(x, dtype=float).shape[:-1]))
        path = empty_path(2.0)
        dens = density_process(y2, spec, path, np.array([0.0, 1.0, 2.0]))
        # L_t = exp(-(2-1) lam t) with no jump factors
        assert np.allclose(dens.L, np.exp(-lam * np.array([0.0, 1.0, 2.0])))

    def test_l_starts_at_one_and_stays_nonnegative(self):
        spec = standard(1.0, Exponential(1.0))
        mm = exp_tilt_measure(2.0, 2.0)
        gk = stationary_reweight(mm, spec)
        path = simulate_mpp(spec, 2.0, 12)
        dens = density_process(gk, spec, path, np.linspace(0.0, 2.0, 5))
        assert dens.L[0] == 1.0
        assert np.all(dens.L >= 0.0)
        assert dens.times.size == 5 + path.n_events

    def test_zero_density_flagged_not_raised(self):
        spec = standard(2.0, Discrete([0.0, 1.0], [0.5, 0.5]))
        gk = GirsanovKernel(
            Y=lambda t, x: np.asarray(x, dtype=float)[..., 0])
        # find a path with a zero-marked event
        for i in range(50):
            path = simulate_mpp(spec, 2.0, 8, path_index=i)
            if path.n_events and np.any(path.marks[:, 0] == 0.0):
                break
        dens = density_process(gk, spec, path, np.linspace(0.0, 2.0, 5))
        assert dens.zero_flag
        t_dead = path.times[path.marks[:, 0] == 0.0][0]
        assert np.all(dens.L[dens.times >= t_dead] == 0.0)

    def test_martingale_property_battery(self):
        # E[L_T] = 1 within 3 SE for (lambda'/lambda) eta across a small battery
        lam, T, n = 1.0, 1.0, 20000
        spec = standard(lam, Exponential(1.0))
        batch = simulate_standard_batch(lam, Exponential(1.0), T, n, 23)
        for lam_p in (0.5, 1.0, 2.0):
            for mm in (MartingaleMeasureSpec(lam_p, unit_eta(),
                                             marks_prime=Exponential(1.0)),
                       exp_tilt_measure(lam_p, 2.0)):
                gk = stationary_reweight(mm, spec)
                comp = girsanov_compensator(gk, spec, T)
                w = np.exp(batch_log_weights(gk.Y, batch, comp))
                se = w.std(ddof=1) / math.sqrt(n)
                assert abs(w.mean() - 1.0) <= 3.0 * se, (lam_p, w.mean(), se)

    def test_time_inhomogeneous_compensator_curve(self):
        # non-constant rate goes through quadrature, not the slope shortcut
        spec_t = standard(1.0, PointMass(1.0))
        spec = type(spec_t)(rate=lambda t: 1.0 + np.asarray(t, dtype=float),
                            rate_bound=3.0, marks=PointMass(1.0))
        y2 = GirsanovKernel(
            Y=lambda t, x: 2.0 * np.ones(np.asarray(x, dtype=float).shape[:-1]))
        dens = density_process(y2, spec, empty_path(2.0),
                               np.array([0.0, 2.0]))
        # exp(-int_0^2 (1+t) dt) = exp(-4)
        assert dens.L[-1] == pytest.approx(math.exp(-4.0), rel=1e-8)

    def test_time_dependent_kernel_compensator(self):
        # Y = 1 + t against rate 1: C(1) = int_0^1 t dt = 1/2
        y = GirsanovKernel(
            Y=lambda t, x: (1.0 + t) * np.ones(np.asarray(x).shape[:-1]))
        got = girsanov_compensator(y, standard(1.0, Exponential(1.0)), 1.0)
        assert got == pytest.approx(0.5, abs=1e-10)


# rate 2t under bound 2 with a wrong declared constant rate 2: a stationary
# shortcut once trusted it and read the compensator curve as [0, 0, 0]
DECLARED_RAMP = CompensatorSpec(rate=lambda t: 2.0 * np.asarray(t, dtype=float),
                                rate_bound=2.0, marks=Exponential(1.0),
                                stationary_rate=2.0)


class TestDeclaredRateIsChecked:
    def test_compensator_curve_integrates_the_rate(self):
        # Y = 2 built from identity_kernel(), which declared a
        # time-homogeneous Y while that shortcut existed
        y2 = dataclasses.replace(
            identity_kernel(),
            Y=lambda t, x: 2.0 * np.ones(np.asarray(x).shape[:-1]))
        curve = _compensator_curve(y2, DECLARED_RAMP,
                                   np.array([0.0, 0.5, 1.0]), 1e-10)
        assert np.allclose(curve, [0.0, 0.25, 1.0], rtol=0.0, atol=1e-10)

    def test_stationary_reweight_refuses_the_declaration(self):
        with pytest.raises(ParameterError, match="stationary_rate") as err:
            stationary_reweight(exp_tilt_measure(2.0, 2.0), DECLARED_RAMP)
        assert err.value.field == "stationary_rate"

    def test_identity_target_m1_refuses_the_declaration(self):
        market = MarketParams(1.0, 0.1, 0.2, flat_rate(0.02),
                              exponential(0.25, 1.0), DECLARED_RAMP)
        with pytest.raises(ParameterError, match="stationary_rate") as err:
            jump_moment_m1(market, None)
        assert err.value.field == "stationary_rate"


class TestReweightedExpectation:
    def test_normalization(self):
        spec = standard(1.0, Exponential(1.0))
        gk = stationary_reweight(exp_tilt_measure(2.0, 2.0), spec)
        est = reweighted_expectation(gk, spec, lambda b: np.ones(b.n_paths),
                                     1.0, 4000, 5)
        assert abs(est.value - 1.0) <= 3.0 * est.se

    def test_identity_kernel_is_plain_mc(self):
        spec = standard(2.0, Exponential(1.0))
        est = reweighted_expectation(identity_kernel(), spec,
                                     lambda b: b.counts, 1.0, 4000, 6)
        assert abs(est.value - 2.0) <= 3.0 * est.se

    def test_two_way_count_oracle(self):
        # reweighted jump count under P matches direct P' simulation; the
        # importance weights are right-skewed, so this needs a decent n
        lam_p, n = 2.0, 20000
        spec = standard(1.0, Exponential(1.0))
        mm = exp_tilt_measure(lam_p, 2.0)
        gk = stationary_reweight(mm, spec)
        est = reweighted_expectation(gk, spec, lambda b: b.counts, 1.0, n, 3)
        direct = np.array([
            simulate_mpp(prime_spec(mm, spec), 1.0, 77, path_index=i).n_events
            for i in range(n)
        ])
        se_d = direct.std(ddof=1) / math.sqrt(direct.size)
        assert abs(est.value - lam_p * 1.0) <= 3.0 * est.se
        assert abs(est.value - direct.mean()) <= 3.0 * math.hypot(est.se, se_d)

    def test_negative_kernel_rejected(self):
        spec = standard(2.0, PointMass(1.0))
        gk = GirsanovKernel(
            Y=lambda t, x: -np.ones(np.asarray(x, dtype=float).shape[:-1]))
        with pytest.raises(ValueError, match="nonnegative"):
            reweighted_expectation(gk, spec, lambda b: np.ones(b.n_paths),
                                   1.0, 50, 1)


class TestEsscher:
    def test_zero_tilt_is_identity(self):
        L = esscher_density(0.0, [0.0, 1.0], [3.0, 4.0], lambda t: 1.0)
        assert np.all(L == 1.0)

    def test_compound_poisson_mgf_pinned_against_quadrature(self):
        # closed form exp(lam t (e^{hu} - 1)) vs conditional_cf at i*(-h)
        h, lam, u, T = 0.4, 1.1, 0.6, 1.0
        proc = ShotNoiseProcess(jump_to_level(), standard(lam, PointMass(u)))
        closed = math.exp(lam * T * (math.exp(h * u) - 1.0))
        quad = conditional_cf(proc, FiltrationState(0.0, empty_path(0.0)),
                              T, -1j * h)
        assert abs(quad - closed) <= 1e-8
        assert abs(quad.imag) <= 1e-12

    def test_martingale_property(self):
        h, lam, u, T = 0.4, 1.1, 0.6, 1.0
        kern = jump_to_level()
        batch = simulate_standard_batch(lam, PointMass(u), T, 20000, 9)
        x_T = batch_terminal_shotnoise(kern, batch)
        mgf = math.exp(lam * T * (math.exp(h * u) - 1.0))
        L = np.exp(h * x_T) / mgf
        se = L.std(ddof=1) / math.sqrt(L.size)
        assert abs(L.mean() - 1.0) <= 3.0 * se

    @pytest.mark.parametrize("kernel", [exponential(1.0, 1.0), power_law(1.5)],
                             ids=["exponential", "power_law"])
    def test_density_process_matches_esscher_identity(self, kernel):
        # Y(t, x) = e^{h G(T - t, x)} makes the Girsanov density the Esscher
        # tilt: prod Y(T_i, U_i) = e^{h S_T}, and int (Y - 1) d nu over
        # [0, T] is log E e^{h S_T}, the CF at theta = -i h; the ramp rate
        # sends the compensator through its time-inhomogeneous quadrature,
        # cut at every event time
        h, T = 0.3, 1.0
        spec = CompensatorSpec(
            rate=lambda t: 1.0 + 2.0 * np.asarray(t, dtype=float),
            rate_bound=5.0, marks=Exponential(1.0))
        proc = ShotNoiseProcess(kernel, spec)
        mgf = conditional_cf(proc, FiltrationState(0.0, empty_path(0.0)),
                             T, -1j * h).real
        tilt = GirsanovKernel(
            Y=lambda t, x: np.exp(h * np.asarray(kernel.G(T - t, x))))
        for i in range(20):
            path = simulate_mpp(spec, T, 17, path_index=i)
            s_T = past_sum(kernel.G, path, T)
            want = esscher_density(h, [T], [s_T], [mgf])[0]
            got = density_process(tilt, spec, path, [T]).L[-1]
            assert abs(got / want - 1.0) <= 1e-10, (i, path.n_events)

    def test_tilted_mean_three_routes(self):
        # jump-to-level with Exp(1) marks: Y(x) = e^{hx} is the Esscher tilt,
        # and Y nu = lam e^{-(1 - h) x} dx is rate lam/(1-h) with Exp marks of
        # mean 1/(1-h); E'[S_T] three ways: reweighted under P, simulated
        # under P', and the closed form lam T / (1-h)^2
        h, lam, T, n = 0.3, 2.0, 1.0, 20000
        kern = jump_to_level()
        spec = standard(lam, Exponential(1.0))
        tilt = GirsanovKernel(
            Y=lambda t, x: np.exp(h * np.asarray(x, dtype=float)[..., 0]))
        rw = reweighted_expectation(
            tilt, spec, lambda b: past_sum(kern.G, b, T), T, n, 21)
        direct = batch_terminal_shotnoise(kern, simulate_standard_batch(
            lam / (1.0 - h), Exponential(1.0 / (1.0 - h)), T, n, 22))
        se_d = direct.std(ddof=1) / math.sqrt(n)
        closed = lam * T / (1.0 - h) ** 2
        for name, delta, se in [
                ("reweighted - closed", rw.value - closed, rw.se),
                ("direct - closed", direct.mean() - closed, se_d),
                ("reweighted - direct", rw.value - direct.mean(),
                 math.hypot(rw.se, se_d))]:
            assert abs(delta) <= 3.0 * se, \
                f"{name}: |delta|/SE = {abs(delta) / se:.3f}"

    @pytest.mark.parametrize("h, times, x_values", [
        (math.nan, [0.0, 1.0], [1.0, 2.0]),
        (math.inf, [0.0, 1.0], [1.0, 2.0]),
        (1.0, [0.0, math.nan], [1.0, 2.0]),
        (1.0, [0.0, 1.0], [math.nan, 2.0]),
        (1.0, [0.0, 1.0], [1.0, -math.inf]),
    ])
    def test_non_finite_input_raises(self, h, times, x_values):
        # a NaN h, time or value once gave a NaN density without an error
        for mgf in ([1.0, 1.0], lambda t: 1.0):
            with pytest.raises(NonFiniteError):
                esscher_density(h, times, x_values, mgf)

    def test_mgf_diverges(self):
        with pytest.raises(MgfDivergesError):
            esscher_density(1.0, [0.0, 1.0], [1.0, 2.0], lambda t: math.inf)
        with pytest.raises(MgfDivergesError):
            esscher_density(1.0, [0.0], [1.0], lambda t: 0.0)


class TestMmmEll:
    def test_direct_substitution(self):
        lam, u, x = 1.3, 0.8, 2.0
        mkt = MarketParams(1.0, 0.0, 0.2, ZERO_RATE, jump_to_level(),
                           standard(lam, PointMass(u)))
        got = mmm_ell(mkt, 0.5, x, empty_path(1.0))
        assert got == pytest.approx((1.0 / x) / (math.exp(u) - 1.0), rel=1e-12)

    def test_zero_rate_degenerate(self):
        mkt = MarketParams(1.0, 0.0, 0.2, ZERO_RATE, jump_to_level(),
                           standard(0.0, PointMass(0.8)))
        with pytest.raises(DegenerateJumpsError):
            mmm_ell(mkt, 0.5, 1.0, empty_path(1.0))

    def test_rederivation_oracle_scipy_quad(self):
        # independent quadrature route: scipy.integrate.quad on the normal density
        mu, lam = 0.07, 1.4
        marks = Normal(0.1, 0.3)
        kern = exponential(1.0, 0.8)
        mkt = MarketParams(1.0, mu, 0.2, ZERO_RATE, kern, standard(lam, marks))
        path = MppPath([0.2, 0.6], [[0.4], [0.2]], 1.0)
        t, x_tm = 0.9, 1.7
        got = mmm_ell(mkt, t, x_tm, path, quad_tol=1e-12)

        phi = lambda x: math.exp(-0.5 * ((x - 0.1) / 0.3) ** 2) / (
            0.3 * math.sqrt(2.0 * math.pi))
        num_jump = lam * spi.quad(
            lambda x: (math.exp(x) - 1.0) * phi(x), -5, 5,
            epsabs=1e-13, epsrel=1e-13)[0]
        den = lam * spi.quad(
            lambda x: (math.exp(x) - 1.0) ** 2 * phi(x), -5, 5,
            epsabs=1e-13, epsrel=1e-13)[0]
        sum_g = sum(-0.8 * xm * math.exp(-0.8 * (t - ti))
                    for ti, xm in [(0.2, 0.4), (0.6, 0.2)])
        expect = (mu + sum_g + num_jump) / den / x_tm
        assert got == pytest.approx(expect, abs=1e-10)


class TestDriftCondition:
    def test_classical_black_scholes_no_jumps(self):
        mu, r, sigma = 0.08, 0.03, 0.25
        mkt = MarketParams(1.0, mu, sigma, flat_rate(r), jump_to_level(),
                           standard(0.0, PointMass(1.0)))
        xi = market_price_of_risk(mkt, None, 0.5, empty_path(1.0))
        assert xi == pytest.approx((mu - r) / sigma, rel=1e-14)
        resid = drift_residual(mkt, None, 0.5, empty_path(1.0))
        assert abs(resid) <= 1e-14

    def test_jump_to_level_point_mass_constant_xi(self):
        mu, r, sigma, lam_p, u = 0.05, 0.01, 0.2, 2.0, 0.4
        mkt = MarketParams(1.0, mu, sigma, flat_rate(r), jump_to_level(),
                           standard(1.0, PointMass(u)))
        mm = MartingaleMeasureSpec(lam_p, unit_eta(), marks_prime=PointMass(u))
        closed = (mu - r + lam_p * (math.exp(u) - 1.0)) / sigma
        for t in (0.1, 0.5, 0.9):
            xi = market_price_of_risk(mkt, mm, t, empty_path(1.0))
            assert xi == pytest.approx(closed, rel=1e-12)

    def test_xi_perturbation_is_linear(self):
        mkt = MarketParams(1.0, 0.07, 0.3, flat_rate(0.01), jump_to_level(),
                           standard(1.0, PointMass(0.5)))
        mm = MartingaleMeasureSpec(2.0, unit_eta(), marks_prime=PointMass(0.5))
        path = simulate_mpp(mkt.spec, 1.0, 9)
        xi = market_price_of_risk(mkt, mm, 0.7, path)
        base = drift_residual(mkt, mm, 0.7, path, xi=xi)
        assert abs(base) <= 1e-12
        for delta in (0.1, -0.25):
            resid = drift_residual(mkt, mm, 0.7, path, xi=xi + delta)
            assert resid == pytest.approx(0.3 * delta, rel=1e-10)

    def test_self_consistency_random_states(self):
        marks = Discrete([0.2, 0.5, 0.9], [0.3, 0.4, 0.3])
        mkt = MarketParams(1.0, 0.07, 0.3, flat_rate(0.01),
                           exponential(1.0, 0.8), standard(1.2, marks))
        mm = MartingaleMeasureSpec(0.7, unit_eta(), marks_prime=marks)
        worst = 0.0
        for i in range(50):
            path = simulate_mpp(mkt.spec, 1.0, 31, path_index=i)
            t = 0.05 + 0.9 * (i / 49.0)
            resid = drift_residual(mkt, mm, t, path)
            worst = max(worst, abs(resid))
        assert worst <= 1e-10

    @pytest.mark.parametrize("case", ["discrete", "normal"])
    @pytest.mark.parametrize("target", ["mm", "identity"])
    def test_batch_states_equal_path_loop(self, case, target):
        # one time per path of a batch gives, bit for bit, the per-state
        # calls on batch.path(i), which still return floats
        marks = (Discrete([0.2, 0.5, 0.9], [0.3, 0.4, 0.3]) if case == "discrete"
                 else Normal(0.1, 0.3))
        spec = standard(1.2, marks)
        kernel = exponential(1.0, 0.8) if case == "discrete" else jump_to_level()
        mkt = MarketParams(1.0, 0.07, 0.3,
                           lambda t: 0.01 + 0.02 * np.asarray(t, dtype=float),
                           kernel, spec)
        mm = (MartingaleMeasureSpec(0.7, unit_eta(), marks_prime=marks)
              if target == "mm" else None)
        batch = simulate_batch(spec, 1.0, 300, 5, tag=TAG_BATCH)
        t = np.linspace(0.05, 0.95, 300)
        t[:10] = batch.times[batch.offsets[1:11] - 1]  # at an event time
        xi = market_price_of_risk(mkt, mm, t, batch)
        resid = drift_residual(mkt, mm, t, batch, xi=xi)
        own = drift_residual(mkt, mm, t, batch)
        loop = []
        for i, t_i in enumerate(t.tolist()):
            path = batch.path(i)
            xi_i = market_price_of_risk(mkt, mm, t_i, path)
            loop.append((xi_i, drift_residual(mkt, mm, t_i, path, xi=xi_i),
                         drift_residual(mkt, mm, t_i, path)))
        assert all(type(v) is float for row in loop for v in row)
        assert np.array(loop).T.tobytes() == np.stack([xi, resid, own]).tobytes()
        assert np.abs(resid).max() <= 1e-10

    def test_exponential_moment_guard(self):
        # e^x against Exponential(1) marks diverges: int e^x e^{-x} dx = inf
        mkt = MarketParams(1.0, 0.05, 0.2, flat_rate(0.0), jump_to_level(),
                           standard(1.0, Exponential(1.0)))
        mm = MartingaleMeasureSpec(1.0, unit_eta(), marks_prime=Exponential(1.0))
        with pytest.raises(MgfDivergesError):
            market_price_of_risk(mkt, mm, 0.5, empty_path(1.0))

    @pytest.mark.parametrize("quad_tol, error", [
        (-math.inf, NonFiniteError), (0.0, ParameterError)])
    def test_bad_tolerance_is_not_a_divergent_moment(self, quad_tol, error):
        # the mark integral's tolerance rule, not MgfDivergesError
        mkt = MarketParams(1.0, 0.05, 0.2, flat_rate(0.0), exponential(0.3, 1.0),
                           standard(1.0, Exponential(1.0)))
        with pytest.raises(error, match="tol"):
            jump_moment_m1(mkt, None, quad_tol=quad_tol)


class TestSimulateStock:
    def test_exponential_martingale_no_jumps(self):
        mkt = MarketParams(1.0, 0.0, 0.3, ZERO_RATE, jump_to_level(),
                           standard(0.0, PointMass(1.0)))
        grid = np.array([0.0, 0.5, 1.0])
        sp = simulate_stock(mkt, None, 1.0, grid, 20000, 21)
        x_T = sp.X[:, -1]
        se = x_T.std(ddof=1) / math.sqrt(x_T.size)
        assert abs(x_T.mean() - 1.0) <= 3.0 * se
        assert np.all(sp.X[:, 0] == 1.0)

    def test_jump_bookkeeping_exact(self):
        # same Brownian stream with and without jumps: the ratio across an
        # event time is exactly exp(G(0, U))
        u, lam = 0.6, 1.0
        base = dict(x0=1.0, mu_drift=0.1, sigma=0.2, short_rate=ZERO_RATE,
                    kernel=jump_to_level())
        mkt_j = MarketParams(spec=standard(lam, PointMass(u)), **base)
        mkt_0 = MarketParams(spec=standard(0.0, PointMass(u)), **base)
        grid = np.linspace(0.0, 1.0, 33)
        sp_j = simulate_stock(mkt_j, None, 1.0, grid, 20, 41)
        sp_0 = simulate_stock(mkt_0, None, 1.0, grid, 20, 41)
        for i in range(20):
            path = sp_j.paths.path(i)
            counts = np.searchsorted(path.times, grid, side="right")
            expect = np.exp(u * counts)
            assert np.allclose(sp_j.X[i] / sp_0.X[i], expect, rtol=1e-12)

    def test_discounted_martingale_under_mm(self):
        lam, lam_p, u = 1.0, 2.0, 0.5
        mkt = MarketParams(1.0, 0.1, 0.2, flat_rate(0.02), jump_to_level(),
                           standard(lam, PointMass(u)))
        mm = MartingaleMeasureSpec(lam_p, unit_eta(), marks_prime=PointMass(u))
        grid = np.linspace(0.0, 1.0, 9)
        sp = simulate_stock(mkt, mm, 1.0, grid, 20000, 3)
        disc = np.exp(-mkt.integrated_rate(grid))
        x_disc = sp.X * disc[None, :]
        se = x_disc[:, -1].std(ddof=1) / math.sqrt(x_disc.shape[0])
        assert abs(x_disc[:, -1].mean() - 1.0) <= 3.0 * se

    def test_slow_path_exponential_kernel_discounted_martingale(self):
        # exponential kernel exercises the dense-grid time integral and the
        # path-dependent xi drift
        lam, lam_p = 1.0, 1.5
        marks = Discrete([0.3, 0.6], [0.5, 0.5])
        mkt = MarketParams(1.0, 0.05, 0.25, flat_rate(0.01),
                           exponential(1.0, 1.2), standard(lam, marks))
        mm = MartingaleMeasureSpec(lam_p, unit_eta(), marks_prime=marks)
        grid = np.linspace(0.0, 1.0, 5)
        sp = simulate_stock(mkt, mm, 1.0, grid, 4000, 19)
        disc = np.exp(-mkt.integrated_rate(grid))
        x_T = sp.X[:, -1] * disc[-1]
        se = x_T.std(ddof=1) / math.sqrt(x_T.size)
        assert abs(x_T.mean() - 1.0) <= 3.0 * se

    def test_store_paths(self):
        mkt = MarketParams(1.0, 0.0, 0.2, ZERO_RATE, jump_to_level(),
                           standard(1.0, PointMass(0.5)))
        sp = simulate_stock(mkt, None, 1.0, np.array([0.0, 1.0]), 5, 2)
        assert sp.paths.n_paths == 5

    def test_grid_validation(self):
        mkt = MarketParams(1.0, 0.0, 0.2, ZERO_RATE, jump_to_level(),
                           standard(1.0, PointMass(0.5)))
        with pytest.raises(ValueError):
            simulate_stock(mkt, None, 1.0, np.array([0.5, 1.0]), 2, 1)


# The time integral int_0^t sum_{T_i <= s} g(s - T_i, U_i) ds as the stock
# simulator computed it before it used the closed form S_t - J_t: a
# trapezoid on 1024 points per unit time refined with all event times.  Two
# additions make it O(h^2) for table kernels, whose g jumps at event time +
# t-knot: those times refine the grid too, and every cell takes one-sided
# values 1e-9 of its width inside its ends (the right-continuous sum at a
# cell's left end and the strict one at its right end played that role for
# event times).
_POINTS_PER_UNIT = 1024


def dense_trapezoid_drift(kernel, path, grid):
    kinks = [path.times]
    for knot in kernel.params.get("t_knots", ()):
        kinks.append(path.times + knot)
    dense = np.linspace(0.0, grid[-1],
                        int(math.ceil(_POINTS_PER_UNIT * grid[-1])) + 1)
    ref = np.unique(np.concatenate([dense, grid, *kinks]))
    ref = ref[ref <= grid[-1]]
    inset = 1e-9 * np.diff(ref)
    left = past_sum(kernel.g, path, ref[:-1] + inset)[0]
    right = past_sum(kernel.g, path, ref[1:] - inset)[0]
    drift_ref = np.concatenate(
        [[0.0], np.cumsum(0.5 * (left + right) * np.diff(ref))])
    return drift_ref[np.searchsorted(ref, grid)]


_TABLE = from_table([0.0, 0.3, 0.8, 2.0], [0.0, 1.0, 2.0],
                    [[0.0, 1.0, 2.0], [0.0, 0.6, 1.5], [0.0, 0.5, 0.7],
                     [0.0, 0.1, 0.2]])
# kernel and bounds on |dg/dt| and |d^2 g / dt^2| per unit mark (0 for the
# table, whose g is piecewise constant in t)
_DRIFT_KERNELS = {
    "exponential": (exponential(0.7, 1.3), 0.7 * 1.3**2, 0.7 * 1.3**3),
    "power_law": (power_law(2.0), 2.0 * 2.0**2, 6.0 * 2.0**3),
    "table": (_TABLE, 0.0, 0.0),
}


def trapezoid_bound(grid, marks, g1, g2):
    """sum over cells of h^3/12 |f''| <= t h^2/12 sum |g''| with h <= 1/1024;
    the inset values add at most 2e-9 t sum |g'|."""
    h = 1.0 / _POINTS_PER_UNIT
    total = float(np.sum(marks))
    return grid * (h**2 / 12.0 * g2 + 2e-9 * g1) * total + 1e-11


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_DRIFT_KERNELS)),
       times=st.lists(st.floats(1e-3, 1.5), min_size=0, max_size=6,
                      unique=True),
       marks=st.lists(st.floats(0.05, 2.0), min_size=6, max_size=6),
       horizon=st.floats(0.5, 1.5))
def test_closed_form_drift_matches_dense_trapezoid(name, times, marks,
                                                   horizon):
    kernel, g1, g2 = _DRIFT_KERNELS[name]
    times = np.sort([t for t in times if t <= horizon])
    marks = np.array(marks[: times.size]).reshape(-1, 1)
    path = MppPath(times, marks, horizon)
    batch = MppPath(times, marks, horizon, np.array([0, times.size]))
    grid = np.linspace(0.0, horizon, 9)
    s_t = past_sum(kernel.G, batch, grid)[0]
    j_t = past_sum(lambda lag, x: kernel.G(np.zeros_like(lag), x),
                   batch, grid)[0]
    err = np.abs((s_t - j_t) - dense_trapezoid_drift(kernel, path, grid))
    assert np.all(err <= trapezoid_bound(grid, marks, g1, g2)), err


def test_stock_drift_integral_matches_dense_trapezoid():
    # same jumps and Brownian path under two kernels with G(0, x) = x: the
    # log ratio of the stocks is the drift integral S_t - J_t alone
    marks = Discrete([0.3, 0.6, 1.2], [0.3, 0.4, 0.3])
    grid = np.linspace(0.0, 1.0, 9)
    base = dict(x0=1.0, mu_drift=0.05, sigma=0.2, short_rate=ZERO_RATE,
                spec=standard(2.0, marks))
    ref = simulate_stock(MarketParams(kernel=jump_to_level(), **base), None,
                         1.0, grid, 50, 8)
    for kernel, g1, g2 in ((exponential(1.0, 1.3), 1.3**2, 1.3**3),
                           _DRIFT_KERNELS["table"]):
        sp = simulate_stock(MarketParams(kernel=kernel, **base), None, 1.0,
                            grid, 50, 8)
        assert sp.paths.counts.sum() > 50
        for i in range(50):
            path = sp.paths.path(i)
            err = np.abs(np.log(sp.X[i] / ref.X[i])
                         - dense_trapezoid_drift(kernel, path, grid))
            assert np.all(err <= trapezoid_bound(grid, path.marks, g1, g2)), \
                (i, err)


def _ramp_market(bound):
    spec = CompensatorSpec(rate=lambda t: 1.0 + 2.0 * np.asarray(t, dtype=float),
                           rate_bound=bound, marks=PointMass(0.4))
    return MarketParams(1.0, 0.05, 0.2, ZERO_RATE, exponential(1.0, 1.0), spec)


def test_ramp_rate_stock_count_matches_rate_integral():
    # rate 1 + 2t thinned from bound 5 on [0, 1.5]: E N = 1.5 + 1.5^2 = 3.75
    grid = np.linspace(0.0, 1.5, 4)
    sp = simulate_stock(_ramp_market(5.0), None, 1.5, grid, 20000, 14)
    counts = sp.paths.counts
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - 3.75) <= 3.0 * se


def test_ramp_rate_above_bound_raises():
    with pytest.raises(InvalidBoundError):
        simulate_stock(_ramp_market(2.0), None, 1.5, np.array([0.0, 1.5]),
                       2000, 14)


class TestEsscherLevyPreservation:
    def test_reweighted_increment_correlation_near_zero(self):
        # jump-to-level + normal marks: X = Z' is Levy; the Esscher tilt must
        # keep increments over disjoint windows uncorrelated
        h, lam, T = 0.3, 2.0, 1.0
        kern = jump_to_level()
        marks = Normal(0.0, 0.5)
        n = 20000
        batch = simulate_standard_batch(lam, marks, T, n, 77)
        ids = batch.path_ids()
        first = batch.times <= 0.5
        a = np.bincount(ids, weights=np.where(first, batch.marks[:, 0], 0.0),
                        minlength=n)
        bwin = np.bincount(ids, weights=np.where(~first, batch.marks[:, 0], 0.0),
                           minlength=n)
        x_T = a + bwin
        # mgf of the compound Poisson at h: exp(lam T (E e^{hU} - 1))
        mgf = math.exp(lam * T * (math.exp(0.5 * (h * 0.5) ** 2) - 1.0))
        w = np.exp(h * x_T) / mgf
        wm = w.mean()
        ma = np.sum(w * a) / (n * wm)
        mb = np.sum(w * bwin) / (n * wm)
        prod = w * (a - ma) * (bwin - mb) / wm
        cov = prod.mean()
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(cov) <= 3.0 * se


def test_structure_preservation_interevent_times():
    # deterministic time-homogeneous Y preserves the renewal structure:
    # reweighted inter-event gaps match direct target-measure simulation
    lam, lam_p, T, n = 1.0, 2.0, 1.0, 20000
    spec = standard(lam, Exponential(1.0))
    mm = exp_tilt_measure(lam_p, 2.0)
    gk = stationary_reweight(mm, spec)
    comp = girsanov_compensator(gk, spec, T)

    from snoise.rng import TAG_BATCH_PRIME
    base = simulate_standard_batch(lam, Exponential(1.0), T, n, 55)
    w = np.exp(batch_log_weights(gk.Y, base, comp))
    direct = simulate_standard_batch(lam_p, Exponential(0.5), T, n, 55,
                                     tag=TAG_BATCH_PRIME)

    def pooled_gaps(batch):
        gaps, ids = [], []
        for i in range(batch.n_paths):
            lo, hi = batch.offsets[i], batch.offsets[i + 1]
            if hi - lo >= 1:
                t = np.concatenate([[0.0], batch.times[lo:hi]])
                gaps.append(np.diff(t))
                ids.append(np.full(hi - lo, i))
        return np.concatenate(gaps), np.concatenate(ids)

    g_base, id_base = pooled_gaps(base)
    g_direct, _ = pooled_gaps(direct)
    res = ks_two_sample_weighted(g_base, g_direct, w1=w[id_base])
    assert res.passed, (res.statistic, res.threshold)
    # negative control: unweighted base gaps are rate-1, not rate-2
    raw = ks_two_sample_weighted(g_base, g_direct)
    assert not raw.passed


def test_eta_normalization_checked():
    spec = standard(1.0, Exponential(1.0))
    mm = exp_tilt_measure(2.0, 2.0)
    assert eta_normalization(mm, spec) == pytest.approx(1.0, abs=1e-8)
    bad = MartingaleMeasureSpec(
        2.0, lambda x: 2.0 * np.ones(np.asarray(x, dtype=float).shape[:-1]))
    assert eta_normalization(bad, spec) == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("field", ["x0", "mu", "sigma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_market_parameter_rejected(field, bad):
    # NaN passed the range checks, and simulate_stock returned NaN prices
    args = {"x0": 1.0, "mu": 0.1, "sigma": 0.2, field: bad}
    with pytest.raises(NonFiniteError, match="must be finite"):
        MarketParams(args["x0"], args["mu"], args["sigma"], ZERO_RATE,
                     jump_to_level(), standard(1.0, PointMass(0.5)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_lambda_prime_rejected(bad):
    with pytest.raises(NonFiniteError, match="lambda_prime must be finite"):
        MartingaleMeasureSpec(bad, unit_eta())
