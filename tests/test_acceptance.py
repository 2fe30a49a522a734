"""Acceptance suite: one test per criterion, run at full scale.

Each criterion prints a single ``ACCEPTANCE nn <name>: PASS/FAIL`` line
(visible with ``pytest -s``) and enforces its stated runtime cap.  All
randomness is seeded; a passing run is reproducible bit for bit.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from snoise.affine import HawkesParams, affine_cf, riccati_solve, simulate_hawkes
from snoise.cli import main as cli_main
from snoise.kernels import exponential, is_markov_kernel, jump_to_level, power_law
from snoise.marks import Discrete, Exponential, PointMass
from snoise.measure_change import (
    MarketParams,
    MartingaleMeasureSpec,
    drift_residual,
    girsanov_compensator,
    market_price_of_risk,
    simulate_stock,
    stationary_reweight,
    unit_eta,
)
from snoise.point_process import MppPath, empty_path, simulate_mpp, standard
from snoise.rng import TAG_BATCH_PRIME, make_stream
from snoise.shotnoise import (
    FiltrationState,
    ShotNoiseProcess,
    conditional_cf,
    eval_shotnoise,
    ou_recursive_update,
    semimartingale_decompose,
)
from snoise.stats import (
    batch_log_weights,
    batch_terminal_shotnoise,
    cf_ratio,
    empirical_cf,
    ks_two_sample_weighted,
    martingale_drift_test,
    simulate_standard_batch,
)

THETAS = np.linspace(-5.0, 5.0, 21)


@contextmanager
def criterion(num, name, cap_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < cap_seconds, (
        f"criterion {num} runtime {elapsed:.1f}s exceeds {cap_seconds}s")
    print(f"ACCEPTANCE {num:02d} {name}: PASS "
          f"({elapsed:.1f}s < {cap_seconds:.0f}s)")


def state_zero(mark_dim=1):
    return FiltrationState(0.0, empty_path(0.0, mark_dim))


def test_criterion_01_compound_poisson_cf_closed_form():
    with criterion(1, "compound-Poisson CF closed form", 1.0):
        lam, u, T = 2.0, 0.7, 1.0
        proc = ShotNoiseProcess(jump_to_level(), standard(lam, PointMass(u)))
        got = conditional_cf(proc, state_zero(), T, THETAS)
        closed = np.exp(lam * T * (np.exp(1j * THETAS * u) - 1.0))
        worst = float(np.abs(got - closed).max())
        assert worst <= 1e-8, worst


def test_criterion_02_cf_vs_monte_carlo_oracle():
    with criterion(2, "CF quadrature vs 1e6-path MC", 120.0):
        lam, T = 1.0, 1.0
        kern = exponential(1.0, 1.0)
        marks = Exponential(1.0)
        proc = ShotNoiseProcess(kern, standard(lam, marks))
        batch = simulate_standard_batch(lam, marks, T, 10**6, 20260809)
        terminal = batch_terminal_shotnoise(kern, batch)
        analytic = conditional_cf(proc, state_zero(), T, THETAS)
        worst = float(np.max(cf_ratio(analytic, empirical_cf(terminal, THETAS))))
        assert worst <= 3.0, worst


def test_criterion_03_markov_classification():
    with criterion(3, "Markov classification and counterexample", 10.0):
        rng = make_stream(314, 0, 30)
        for _ in range(20):
            a = float(rng.uniform(0.2, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
            b = float(rng.uniform(-1.0, 2.0))
            res = is_markov_kernel(exponential(a, b))
            assert res.is_markov
            assert abs(res.a - a) <= 1e-9
            assert abs(res.b - b) <= 1e-9
        for c in (0.1, 1.0, 10.0):
            assert not is_markov_kernel(power_law(c)).is_markov

        # state-dependence counterexample: equal (t, S_t), different histories
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
        assert gap > 1e-3, gap


def test_criterion_04_ou_recursion_equivalence():
    with criterion(4, "OU recursion equals direct evaluation", 10.0):
        a, b, horizon = 1.3, 0.8, 2.0
        spec = standard(2.0, Exponential(1.0))
        proc = ShotNoiseProcess(exponential(a, b), spec)
        grid = np.linspace(0.0, horizon, 9)
        worst = 0.0
        for i in range(1000):
            path = simulate_mpp(spec, horizon, 4004, path_index=i)
            s = 0.0
            for lo, hi in zip(grid[:-1], grid[1:]):
                mask = (path.times > lo) & (path.times <= hi)
                jumps = [(float(ti - lo), float(x[0]))
                         for ti, x in zip(path.times[mask], path.marks[mask])]
                s = ou_recursive_update(b, s, hi - lo, jumps, a=a)
            worst = max(worst, abs(s - eval_shotnoise(proc, path, horizon)))
        assert worst <= 1e-10, worst


def test_criterion_05_semimartingale_reconstruction():
    with criterion(5, "semimartingale reconstruction", 30.0):
        quad_tol = 1e-8
        spec = standard(2.0, Exponential(1.0))
        grid = np.linspace(0.0, 2.0, 9)
        for kern in (exponential(1.2, 0.7), power_law(1.5)):
            proc = ShotNoiseProcess(kern, spec)
            worst = 0.0
            for i in range(1000):
                path = simulate_mpp(spec, 2.0, 5005, path_index=i)
                dec = semimartingale_decompose(proc, path, grid,
                                               quad_tol=quad_tol)
                s_vals = np.array(
                    [eval_shotnoise(proc, path, t) for t in grid])
                worst = max(worst, float(
                    np.abs(dec.drift + dec.jump_part - s_vals).max()))
            assert worst <= quad_tol, (kern.kind, worst)


def test_criterion_06_riccati_validation():
    with criterion(6, "Riccati system and affine transform", 120.0):
        params = HawkesParams(kappa=2.0, theta_bar=0.5, lambda0=1.0)

        # psi1 is constant by construction
        u = (0.7j, 0.3j)
        sol = riccati_solve(params, u, 1.0)
        assert np.all(sol.psi1 == u[0])
        assert sol.phi[0] == 0.0 and sol.psi2[0] == u[1]

        # order-4 convergence under step halving
        ref = riccati_solve(params, (0.3j, 0.4j), 1.0, steps=2**14).final
        errs = []
        for steps in (100, 200, 400, 800):
            fin = riccati_solve(params, (0.3j, 0.4j), 1.0, steps=steps).final
            errs.append(abs(fin[0] - ref[0]) + abs(fin[2] - ref[2]))
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert all(3.7 <= s <= 4.3 for s in slopes), slopes

        # transform vs Hawkes Monte Carlo at five arguments
        n = 10**5
        n_term = np.empty(n)
        lam_term = np.empty(n)
        for i in range(n):
            hp = simulate_hawkes(params, 1.0, 6006, path_index=i)
            n_term[i] = hp.events.n_events
            lam_term[i] = float(hp.intensity(1.0))
        for u_arg in ((0.5, 0.0), (1.0, 0.0), (0.0, 0.5), (0.0, 1.0),
                      (0.5, 0.5)):
            analytic = affine_cf(params, (0.0, 0.0, params.lambda0), 1.0,
                                 u_arg)
            est = empirical_cf(u_arg[0] * n_term + u_arg[1] * lam_term, 1.0)
            assert cf_ratio(analytic, est) <= 3.0, u_arg


def test_criterion_07_hawkes_shotnoise_identity():
    with criterion(7, "Hawkes intensity shot-noise identity", 30.0):
        params = HawkesParams(kappa=2.0, theta_bar=0.5, lambda0=1.0)
        worst = 0.0
        for i in range(1000):
            hp = simulate_hawkes(params, 1.0, 7007, path_index=i)
            if hp.events.n_events:
                closed = hp.intensity(hp.events.times)
                worst = max(worst, float(
                    np.abs(closed - hp.intensities).max()))
        assert worst <= 1e-10, worst


def _tilt_measure(lam_p, rho_p, rho=1.0):
    eta = lambda x: (rho_p / rho) * np.exp(
        -(rho_p - rho) * np.asarray(x, dtype=float)[..., 0])
    return MartingaleMeasureSpec(lam_p, eta,
                                 marks_prime=Exponential(1.0 / rho_p))


def test_criterion_08_density_martingale_battery():
    with criterion(8, "density martingale E[L_T] = 1 battery", 120.0):
        lam, T, n = 1.0, 1.0, 10**5
        spec = standard(lam, Exponential(1.0))
        batch = simulate_standard_batch(lam, Exponential(1.0), T, n, 8008)
        for lam_p in (0.5, 1.0, 2.0):
            for mm in (MartingaleMeasureSpec(lam_p, unit_eta(),
                                             marks_prime=Exponential(1.0)),
                       _tilt_measure(lam_p, 2.0)):
                gk = stationary_reweight(mm, spec)
                comp = girsanov_compensator(gk, spec, T)
                w = np.exp(batch_log_weights(gk.Y, batch, comp))
                se = w.std(ddof=1) / math.sqrt(n)
                assert abs(w.mean() - 1.0) <= 3.0 * se, (lam_p, w.mean(), se)


def test_criterion_09_measure_change_law_equivalence():
    with criterion(9, "reweighted vs direct target-measure law", 120.0):
        lam, lam_p, T, n = 1.0, 2.0, 1.0, 10**5
        spec = standard(lam, Exponential(1.0))
        mm = _tilt_measure(lam_p, 2.0)
        gk = stationary_reweight(mm, spec)
        comp = girsanov_compensator(gk, spec, T)

        base = simulate_standard_batch(lam, Exponential(1.0), T, n, 9009)
        w = np.exp(batch_log_weights(gk.Y, base, comp))
        direct = simulate_standard_batch(lam_p, Exponential(1.0 / 2.0), T, n,
                                         9009, tag=TAG_BATCH_PRIME)

        # jump-count statistics: reweighted mean vs direct mean, 3 SE
        rw = w * base.counts
        se = math.hypot(rw.std(ddof=1) / math.sqrt(n),
                        direct.counts.std(ddof=1) / math.sqrt(n))
        delta = abs(rw.mean() - direct.counts.mean())
        assert delta <= 3.0 * se, (rw.mean(), direct.counts.mean())
        assert abs(rw.mean() - lam_p * T) <= 3.0 * se

        # mark statistics: weighted KS at the 1% level
        ks = ks_two_sample_weighted(
            base.marks[:, 0], direct.marks[:, 0],
            w1=np.repeat(w, base.counts))
        assert ks.passed, (ks.statistic, ks.threshold)


def test_criterion_10_drift_condition_and_discounted_martingale():
    with criterion(10, "drift condition and discounted stock", 180.0):
        # residual at 1000 random states, on a market with a decaying kernel
        # so the path-dependent g-sum is exercised
        marks = Discrete([0.2, 0.5, 0.9], [0.3, 0.4, 0.3])
        mkt_exp = MarketParams(1.0, 0.07, 0.3,
                               lambda t: np.full_like(
                                   np.asarray(t, dtype=float), 0.01),
                               exponential(1.0, 0.8), standard(1.2, marks))
        mm_exp = MartingaleMeasureSpec(0.7, unit_eta(), marks_prime=marks)
        worst = 0.0
        for i in range(1000):
            path = simulate_mpp(mkt_exp.spec, 1.0, 10010, path_index=i)
            t = 0.05 + 0.9 * (i / 999.0)
            xi = market_price_of_risk(mkt_exp, mm_exp, t, path)
            resid = drift_residual(mkt_exp, mm_exp, t, path, xi=xi)
            worst = max(worst, abs(resid))
        assert worst <= 1e-10, worst

        # discounted stock under the stationary martingale measure
        lam, lam_p, u, n = 1.0, 2.0, 0.5, 10**5
        mkt = MarketParams(1.0, 0.1, 0.2,
                           lambda t: np.full_like(
                               np.asarray(t, dtype=float), 0.02),
                           jump_to_level(), standard(lam, PointMass(u)))
        mm = MartingaleMeasureSpec(lam_p, unit_eta(), marks_prime=PointMass(u))
        grid = np.linspace(0.0, 1.0, 9)
        sp = simulate_stock(mkt, mm, 1.0, grid, n, 10110)
        disc = np.exp(-mkt.integrated_rate(grid))
        x_disc = sp.X * disc[None, :]
        se = x_disc[:, -1].std(ddof=1) / math.sqrt(n)
        assert abs(x_disc[:, -1].mean() - mkt.x0) <= 3.0 * se
        report = martingale_drift_test(grid, x_disc)
        assert report.passed, report.z_scores

        # negative control: without the measure change (mu != r) it must fail
        ctrl = simulate_stock(mkt, None, 1.0, grid, n, 10110)
        ctrl_disc = ctrl.X * disc[None, :]
        ctrl_report = martingale_drift_test(grid, ctrl_disc)
        assert not ctrl_report.passed


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical artifacts under a fixed seed", 60.0):
        config_text = """\
[run]
scenario = cf-compare
horizon = 1.0
n_paths = 2000
seed = 20260809
theta_grid = -5:5:11

[kernel]
kind = exponential
a = 1.0
b = 1.0

[compensator]
rate = 1.0
marks = exponential
mark_mean = 1.0
"""
        cfg = tmp_path / "exp.ini"
        cfg.write_text(config_text)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli_main(["cf-compare", "--config", str(cfg),
                         "--out", str(out1)]) == 0
        assert cli_main(["cf-compare", "--config", str(cfg),
                         "--out", str(out2)]) == 0
        csvs = sorted(p.name for p in out1.glob("*.csv"))
        assert csvs, "scenario produced no CSV artifacts"
        for name in csvs:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

        sim_text = config_text.replace("cf-compare", "simulate")
        cfg2 = tmp_path / "sim.ini"
        cfg2.write_text(sim_text)
        out3, out4 = tmp_path / "run3", tmp_path / "run4"
        assert cli_main(["simulate", "--config", str(cfg2),
                         "--out", str(out3)]) == 0
        assert cli_main(["simulate", "--config", str(cfg2),
                         "--out", str(out4)]) == 0
        for name in sorted(p.name for p in out3.glob("*.csv")):
            assert (out3 / name).read_bytes() == (out4 / name).read_bytes()
