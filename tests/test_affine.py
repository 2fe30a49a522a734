import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import exprel

from snoise import affine
from snoise.affine import (
    HawkesParams,
    affine_cf,
    riccati_solve,
    simulate_hawkes,
    simulate_hawkes_batch,
)
from snoise.errors import BlowUpError, ExplosionGuardError, NonFiniteError
from snoise.stats import cf_ratio, empirical_cf, ks_two_sample_weighted


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HawkesParams(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            HawkesParams(1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            HawkesParams(1.0, 0.5, -1.0)

    def test_branching_ratio(self):
        assert HawkesParams(2.0, 0.5, 1.0).branching_ratio == 0.5

    @given(params=st.tuples(st.floats(0.1, 10.0), st.floats(0.0, 10.0),
                            st.floats(0.0, 10.0)),
           slot=st.integers(0, 2),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_rejected(self, params, slot, bad):
        HawkesParams(*params)
        params = list(params)
        params[slot] = bad
        with pytest.raises(NonFiniteError):
            HawkesParams(*params)


class TestSimulateHawkes:
    def test_zero_intensity_is_absorbing(self):
        hp = simulate_hawkes(HawkesParams(1.0, 0.0, 0.0), 10.0, 1)
        assert hp.events.n_events == 0
        assert hp.intensity(5.0) == 0.0

    def test_shotnoise_identity_at_event_times(self):
        params = HawkesParams(2.0, 0.5, 1.0)
        worst = 0.0
        for i in range(200):
            hp = simulate_hawkes(params, 2.0, 11, path_index=i)
            if hp.events.n_events:
                closed = hp.intensity(hp.events.times)
                worst = max(worst, float(np.abs(closed - hp.intensities).max()))
        assert worst <= 1e-10

    def test_intensity_closed_form_structure(self):
        # deterministic part + sum of unit exponential kicks
        params = HawkesParams(1.5, 0.3, 2.0)
        hp = simulate_hawkes(params, 3.0, 5)
        t = 2.5
        deterministic = (2.0 * math.exp(-1.5 * t)
                         + 0.3 * (1.0 - math.exp(-1.5 * t)))
        kicks = sum(math.exp(-1.5 * (t - ti))
                    for ti in hp.events.times if ti <= t)
        assert hp.intensity(t) == pytest.approx(deterministic + kicks, rel=1e-12)

    @pytest.mark.parametrize("t, match", [
        (5.0, "beyond"), (1.0 + 1e-12, "beyond"), (-1.0, ">= 0"),
        (-1e-300, ">= 0")])
    def test_intensity_outside_horizon_rejected(self, t, match):
        # lambda_t once returned 0.50002 at t = 5 and 4.19 at t = -1 on a
        # path of horizon 1
        params = HawkesParams(2.0, 0.5, 1.0)
        for hp in (simulate_hawkes(params, 1.0, 1),
                   simulate_hawkes_batch(params, 1.0, 4, 3)):
            assert hp.events.n_events
            for arg in (t, np.array(t), np.array([0.5, t]), [t, 0.5]):
                with pytest.raises(ValueError, match=match):
                    hp.intensity(arg)
            for ok in (0.0, 1.0, np.array([0.0, 1.0]), np.empty(0)):
                assert np.isfinite(hp.intensity(ok)).all()

    @pytest.mark.parametrize("params", [HawkesParams(2.0, 0.5, 1.0),
                                        HawkesParams(2.0, 0.0, 0.0)])
    def test_empty_path(self, params):
        # a zero intensity is absorbing at once; at (2, 0.5, 1) about half
        # the paths on [0, 1] hold no event
        paths = [hp for hp in (simulate_hawkes(params, 1.0, 9, path_index=i)
                               for i in range(20)) if not hp.events.n_events]
        assert len(paths) >= 2
        a, b = paths[:2]
        for hp in (a, b):
            ev = hp.events
            assert ev.times.shape == (0,) and ev.marks.shape == (0, 1)
            assert ev.offsets.tolist() == [0, 0] and ev.horizon == 1.0
            assert hp.intensities.shape == (0,) and hp.intensities.dtype == float
            assert not any(arr.flags.writeable for arr in
                           (ev.times, ev.marks, ev.offsets, hp.intensities))
        for x, y in ((a.events.times, b.events.times), (a.events.marks, b.events.marks),
                     (a.events.offsets, b.events.offsets), (a.intensities, b.intensities)):
            assert x is not y and x.base is None and y.base is None

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    def test_intensity_at_a_float(self, t):
        # a float takes its own route through mean_intensity_floor and
        # past_sum: the same numpy.float64, bit for bit, as a 0-d array and
        # as the batch route at a 1-d array
        params = HawkesParams(2.0, 0.5, 1.0)
        for i in range(12):
            hp = simulate_hawkes(params, 1.0, 9, path_index=i)
            got = hp.intensity(t)
            assert type(got) is np.float64
            for ref in (hp.intensity(np.array(t)), hp.intensity(np.array([t]))[0, 0]):
                assert type(ref) is np.float64 and got.tobytes() == ref.tobytes()
        floor = params.mean_intensity_floor(t)
        assert type(floor) is np.float64
        assert floor.tobytes() == params.mean_intensity_floor(np.array(t)).tobytes()

    def test_reproducibility(self):
        params = HawkesParams(2.0, 0.5, 1.0)
        a = simulate_hawkes(params, 2.0, 9, path_index=3)
        b = simulate_hawkes(params, 2.0, 9, path_index=3)
        assert np.array_equal(a.events.times, b.events.times)

    def test_explosion_guard_supercritical(self, monkeypatch):
        # branching ratio 1/kappa = 5: cascades blow past the cap
        monkeypatch.setattr(affine, "MAX_PATH_EVENTS", 200)
        params = HawkesParams(0.2, 5.0, 20.0)
        with pytest.raises(ExplosionGuardError, match="cap 200"):
            simulate_hawkes(params, 50.0, 2)

    def test_unit_marks(self):
        hp = simulate_hawkes(HawkesParams(1.0, 1.0, 1.0), 2.0, 4)
        if hp.events.n_events:
            assert np.all(hp.events.marks == 1.0)


# (kappa, theta_bar, lambda0): intensity above theta_bar from the start;
# below it, rising, until the first events (the Lambert W branch); and no
# baseline at all
BATCH_PARAMS = [(2.0, 0.5, 1.0), (1.5, 3.0, 0.0), (1.5, 0.0, 2.0)]
U_ARGS = [(0.5, 0.0), (1.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.5, 0.5)]


@pytest.mark.parametrize("kappa, theta_bar, lambda0", BATCH_PARAMS)
class TestSimulateHawkesBatch:
    def test_same_law_as_ogata(self, kappa, theta_bar, lambda0):
        params = HawkesParams(kappa, theta_bar, lambda0)
        batch = simulate_hawkes_batch(params, 1.0, 20000, 31)
        ogata = [simulate_hawkes(params, 1.0, 31, path_index=i)
                 for i in range(4000)]
        n_ogata = [hp.events.n_events for hp in ogata]
        lam_ogata = [float(hp.intensity(1.0)) for hp in ogata]
        for x_batch, x_ogata in ((batch.events.counts, n_ogata),
                                 (batch.intensity(1.0), lam_ogata)):
            ks = ks_two_sample_weighted(x_batch, x_ogata)
            assert ks.passed, (ks.statistic, ks.threshold)

    def test_riccati_transform(self, kappa, theta_bar, lambda0):
        params = HawkesParams(kappa, theta_bar, lambda0)
        batch = simulate_hawkes_batch(params, 1.0, 10**5, 32)
        for u in U_ARGS:
            analytic = affine_cf(params, (0.0, 0.0, lambda0), 1.0, u)
            est = empirical_cf(u[0] * batch.events.counts
                               + u[1] * batch.intensity(1.0), 1.0)
            assert cf_ratio(analytic, est) <= 3.0, u

    def test_shotnoise_identity_at_every_event(self, kappa, theta_bar,
                                               lambda0):
        params = HawkesParams(kappa, theta_bar, lambda0)
        batch = simulate_hawkes_batch(params, 2.0, 20000, 33)
        assert batch.intensities.size == batch.events.times.size > 20000
        resid = np.abs(batch.closed_form_intensities() - batch.intensities)
        assert resid.max() <= 1e-10
        # the one-path views agree with the batch, lambda_T included
        lambda_T = batch.intensity(2.0)
        for i in range(20):
            hp = batch.path(i)
            if hp.events.n_events:
                assert np.abs(hp.intensity(hp.events.times)
                              - hp.intensities).max() <= 1e-10
            assert abs(hp.intensity(2.0) - lambda_T[i]) <= 1e-10


@pytest.mark.parametrize("kappa, theta_bar, lambda0", [
    (2.0, 0.5, 1e3), (2.0, 1e3, 0.0)])
def test_batch_large_intensity_stays_finite(kappa, theta_bar, lambda0):
    # E N_T = m T + (lambda0 - m)(1 - e^{-(kappa - 1) T})/(kappa - 1) with
    # the stationary mean m = kappa theta_bar / (kappa - 1)
    params = HawkesParams(kappa, theta_bar, lambda0)
    batch = simulate_hawkes_batch(params, 1.0, 200, 34)
    for arr in (batch.events.times, batch.intensities, batch.intensity(1.0)):
        assert np.isfinite(arr).all()
    m = kappa * theta_bar / (kappa - 1.0)
    mean_n = m + (lambda0 - m) * (1.0 - math.exp(-(kappa - 1.0)))
    counts = batch.events.counts
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - mean_n) <= 3.0 * se
    assert np.abs(batch.closed_form_intensities()
                  - batch.intensities).max() <= 1e-10 * lambda0 + 1e-9


def test_batch_per_path_cap(monkeypatch):
    # four supercritical paths (branching ratio 2) grow to thousands of
    # events by t = 20, far below the batch cap: only the per-path cap trips
    monkeypatch.setattr(affine, "MAX_PATH_EVENTS", 200)
    with pytest.raises(ExplosionGuardError, match="200 per path"):
        simulate_hawkes_batch(HawkesParams(0.5, 0.5, 1.0), 20.0, 4, 3)


def test_batch_nan_horizon_rejected():
    with pytest.raises(NonFiniteError):
        simulate_hawkes_batch(HawkesParams(2.0, 0.5, 1.0), math.nan, 10, 1)


# a supercritical batch runs in a child process under an address-space cap
# and a timeout: the batch must bound the events it holds in all, not only
# per path, to fail before it exhausts memory
_SUPERCRITICAL = """
import resource
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from snoise.affine import HawkesParams, simulate_hawkes_batch
from snoise.errors import SnoiseError
try:
    simulate_hawkes_batch(HawkesParams(0.5, 0.5, 1.0), 50.0, 10**5, 3)
    print("OK")
except SnoiseError as exc:
    print(exc.code, exc)
"""


def _run_child(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_batch_explosion_guard_supercritical():
    assert _run_child(_SUPERCRITICAL).startswith("ExplosionGuard ")


# a huge starting intensity is refused from its expected count before any
# draw: drawing until the event cap trips takes 1.5 s and 300 MB.  VmHWM is
# the child's own peak, which ru_maxrss is not: that starts from the peak of
# the process that forked it
_HUGE_LAMBDA0 = """
import time
from snoise.affine import HawkesParams, simulate_hawkes_batch
from snoise.errors import SnoiseError
start = time.perf_counter()
try:
    simulate_hawkes_batch(HawkesParams(2.0, 0.5, 1e308), 1.0, 10**5, 3)
    print("OK")
except SnoiseError as exc:
    print(exc.code, exc)
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(time.perf_counter() - start, int(hwm) / 1024.0)
"""


def test_batch_refuses_an_expected_count_over_the_cap_before_drawing():
    outcome, usage = _run_child(_HUGE_LAMBDA0).splitlines()
    assert outcome.startswith("ExplosionGuard batch expects inf events")
    seconds, peak_mb = map(float, usage.split())
    assert seconds < 0.5 and peak_mb < 128.0, (seconds, peak_mb)


@pytest.mark.parametrize("kappa, theta_bar, lambda0, horizon", [
    (2.0, 0.5, 1.0, 1.0), (0.5, 0.5, 1.0, 20.0), (1.0, 0.5, 1.0, 2.0),
    (1.0 + 1e-9, 0.5, 1.0, 2.0), (1.0004, 0.3, 2.0, 2.0),
    (1.0049, 0.3, 2.0, 2.0), (1.0051, 0.3, 2.0, 2.0), (1.01, 0.3, 2.0, 2.0), (3.0, 1e3, 0.0, 1.0), (1.5, 0.0, 2.0, 3.0)])
def test_expected_events_is_the_mean_intensity_integral(kappa, theta_bar,
                                                        lambda0, horizon):
    # m(t) = lambda0 e^{-r t} + kappa theta_bar t exprel(-r t), r = kappa - 1,
    # integrated by Gauss-Legendre; on both sides of the series' cut near 1
    params = HawkesParams(kappa, theta_bar, lambda0)
    nodes, weights = np.polynomial.legendre.leggauss(60)
    t = 0.5 * horizon * (nodes + 1.0)
    r = kappa - 1.0
    m = lambda0 * np.exp(-r * t) + kappa * theta_bar * t * exprel(-r * t)
    want = 0.5 * horizon * float(weights @ m)
    assert params.expected_events(horizon) == pytest.approx(want, rel=1e-12)


def test_expected_events_overflow_and_empty():
    # a long supercritical horizon overflows to inf, but with no intensity
    # at all the count stays 0, not inf * 0
    assert HawkesParams(0.001, 0.2, 0.0).expected_events(1e6) == math.inf
    assert HawkesParams(0.001, 0.0, 0.0).expected_events(1e6) == 0.0


def test_batch_guard_refuses_before_drawing(monkeypatch):
    def no_stream(*_a, **_k):
        raise AssertionError("drew before the expected count was checked")

    monkeypatch.setattr(affine, "make_stream", no_stream)
    monkeypatch.setattr(affine, "MAX_BATCH_EVENTS", 1000)
    with pytest.raises(ExplosionGuardError, match="batch expects 1.1e"):
        simulate_hawkes_batch(HawkesParams(2.0, 0.5, 1.0), 1.0, 1100, 3)


class TestRiccati:
    def test_zero_boundary_is_fixed_point(self):
        sol = riccati_solve(HawkesParams(2.0, 0.5, 1.0), (0.0, 0.0), 1.0)
        assert np.all(sol.phi == 0.0)
        assert np.all(sol.psi2 == 0.0)

    def test_psi1_constant_exactly(self):
        u = (0.7j, 0.3j)
        sol = riccati_solve(HawkesParams(2.0, 0.5, 1.0), u, 1.0)
        assert np.all(sol.psi1 == u[0])

    def test_boundary_values(self):
        u = (0.2j, -0.4j)
        sol = riccati_solve(HawkesParams(1.0, 1.0, 0.5), u, 0.5)
        assert sol.phi[0] == 0.0
        assert sol.psi2[0] == u[1]

    def test_zero_horizon_is_the_boundary_datum(self):
        u = (0.2j, -0.4j)
        sol = riccati_solve(HawkesParams(1.0, 1.0, 0.5), u, 0.0)
        assert sol.grid.tolist() == [0.0]
        assert sol.final == (0.0, u[0], u[1]) and sol.u == u

    def test_order_four_convergence(self):
        params = HawkesParams(2.0, 0.5, 1.0)
        u = (0.3j, 0.4j)
        ref = riccati_solve(params, u, 1.0, steps=2**14).final
        errs = []
        for steps in (100, 200, 400, 800):
            fin = riccati_solve(params, u, 1.0, steps=steps).final
            errs.append(abs(fin[0] - ref[0]) + abs(fin[2] - ref[2]))
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert all(3.7 <= s <= 4.3 for s in slopes), slopes

    def test_blow_up_guard(self):
        # a large positive real boundary makes psi2' ~ e^{psi2} explode
        with pytest.raises(BlowUpError):
            riccati_solve(HawkesParams(1.0, 1.0, 1.0), (0.0, 6.0), 1.0)

    @pytest.mark.parametrize("solve", [
        lambda p: riccati_solve(p, (0.1j, 0.2j), math.nan),
        lambda p: riccati_solve(p, (0.1j, 0.2j), math.inf),
        lambda p: riccati_solve(p, (0.1j, complex(math.nan, 0.0)), 1.0),
        lambda p: affine_cf(p, (0.0, 0.0, 1.0), math.nan, (0.5, 0.5)),
        lambda p: affine_cf(p, (0.0, 0.0, 1.0), math.inf, (0.5, 0.5)),
        lambda p: affine_cf(p, (math.nan, 0.0, 1.0), 1.0, (0.5, 0.5)),
    ], ids=["nan-horizon", "inf-horizon", "nan-boundary", "cf-nan-horizon",
            "cf-inf-horizon", "cf-nan-state-time"])
    def test_non_finite_input_fails_before_stepping(self, solve):
        # these used to fail in the step count (ValueError, OverflowError)
        # or as a blow-up at the first step
        with pytest.raises(NonFiniteError):
            solve(HawkesParams(2.0, 0.5, 1.0))

    def test_steps_minimum(self):
        with pytest.raises(ValueError):
            riccati_solve(HawkesParams(1.0, 1.0, 1.0), (0.0, 0.0), 1.0, steps=50)

    def test_step_cap(self):
        # horizon 1e9 died in numpy's MemoryError for a 14.9 TiB grid, and
        # 1e5 asked for gigabytes: both run in a child process under an
        # address-space cap, where each must raise the guard before it
        # allocates anything
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", _STEP_CAP],
                              capture_output=True, text=True, timeout=60,
                              env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]
        cap = affine.MAX_RICCATI_STEPS
        assert proc.stdout.split("\n")[:-1] == [
            f"ExplosionGuard 2048000000000 RK4 steps over horizon 1e+09 exceed cap {cap}",
            f"ExplosionGuard 204800000 RK4 steps over horizon 100000 exceed cap {cap}",
            f"ExplosionGuard {cap + 1} RK4 steps over horizon 1 exceed cap {cap}",
            f"ExplosionGuard 204800000 RK4 steps over horizon 100000 exceed cap {cap}",
        ]


_STEP_CAP = """
import resource
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from snoise.affine import HawkesParams, affine_cf, riccati_solve
from snoise.errors import SnoiseError
p = HawkesParams(2.0, 0.5, 1.0)
calls = (lambda: riccati_solve(p, (0.5j, 0.0), 1e9),
         lambda: riccati_solve(p, (0.5j, 0.0), 1e5),
         lambda: riccati_solve(p, (0.5j, 0.0), 1.0, steps=2**20 + 1),
         lambda: affine_cf(p, (0.0, 0, 1.0), 1e5, (0.5, 0.0)))
for call in calls:
    try:
        call()
        print("OK")
    except (SnoiseError, MemoryError) as exc:
        print(getattr(exc, "code", type(exc).__name__), exc)
"""


def _reference_rk4(params, u, horizon, steps=None):
    """The RK4 loop of riccati_solve as it stood before it ran on plain
    complex floats: a right-hand-side closure, values stored per step."""
    if steps is None:
        steps = max(100, int(math.ceil(affine.DEFAULT_STEPS_PER_UNIT * horizon)))
    kappa, theta_bar = params.kappa, params.theta_bar
    psi1 = u[0]
    h = horizon / steps
    grid = np.linspace(0.0, horizon, steps + 1)
    phi = np.zeros(steps + 1, dtype=complex)
    psi2 = np.zeros(steps + 1, dtype=complex)
    psi2[0] = u[1]

    def rhs(p2):
        return kappa * theta_bar * p2, -kappa * p2 + cmath.exp(psi1 + p2) - 1.0

    p, q = 0.0 + 0.0j, u[1]
    for k in range(steps):
        try:
            dp1, dq1 = rhs(q)
            dp2, dq2 = rhs(q + 0.5 * h * dq1)
            dp3, dq3 = rhs(q + 0.5 * h * dq2)
            dp4, dq4 = rhs(q + h * dq3)
        except OverflowError as exc:
            raise BlowUpError(
                f"exp(psi1 + psi2) overflowed at t = {grid[k]:.6g}") from exc
        p = p + (h / 6.0) * (dp1 + 2.0 * dp2 + 2.0 * dp3 + dp4)
        q = q + (h / 6.0) * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4)
        if not (cmath.isfinite(p) and cmath.isfinite(q)) or abs(q) > affine._PSI_GUARD:
            raise BlowUpError(f"|psi2| exceeded guard {affine._PSI_GUARD:.1e} "
                              f"at t = {grid[k + 1]:.6g}")
        phi[k + 1] = p
        psi2[k + 1] = q
    return phi, psi2


# affine-validate's five transform arguments for configs/affine_validate.ini
_SHIPPED_U = [(0.5, 0.0), (1.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.5, 0.5)]


@pytest.mark.parametrize("params,u,horizon,steps", [
    *((HawkesParams(2.0, 0.5, 1.0), (1j * u1, 1j * u2), 1.0, None)
      for u1, u2 in _SHIPPED_U),
    (HawkesParams(0.3, 3.0, 0.5), (0.2 + 1.0j, -0.4 + 0.3j), 2.7, None),
    (HawkesParams(1.0, 0.0, 0.5), (-0.5j, 0.25), 0.5, 137),
])
def test_riccati_bits_equal_the_reference_loop(params, u, horizon, steps):
    sol = riccati_solve(params, u, horizon, steps)
    phi, psi2 = _reference_rk4(params, u, horizon, steps)
    assert sol.phi.dtype == sol.psi1.dtype == sol.psi2.dtype == complex
    assert sol.phi.tobytes() == phi.tobytes()
    assert sol.psi2.tobytes() == psi2.tobytes()
    assert sol.psi1.tobytes() == np.full(phi.size, u[0], dtype=complex).tobytes()


@pytest.mark.parametrize("u,cause", [
    ((0.0, 6.0), "overflowed"), ((0.0, 3.0), "overflowed"),
    ((2.0, 1.5), "overflowed"), ((0.0, 2e6j), "exceeded guard")])
def test_riccati_blow_up_as_the_reference_loop(u, cause):
    # the same error, at the same step, as the reference loop
    params = HawkesParams(1.0, 1.0, 1.0)
    with pytest.raises(BlowUpError, match=cause) as ref:
        _reference_rk4(params, u, 1.0)
    with pytest.raises(BlowUpError) as got:
        riccati_solve(params, u, 1.0)
    assert str(got.value) == str(ref.value)


class TestAffineCf:
    def test_zero_argument(self):
        params = HawkesParams(2.0, 0.5, 1.0)
        assert affine_cf(params, (0.0, 0.0, 1.0), 1.0, (0.0, 0.0)) == 1.0 + 0.0j

    def test_boundary_condition_at_t_equals_T(self):
        params = HawkesParams(2.0, 0.5, 1.0)
        state = (0.7, 3.0, 2.4)
        u = (0.5, 1.1)
        got = affine_cf(params, state, 0.7, u)
        assert got == pytest.approx(cmath.exp(1j * (0.5 * 3.0 + 1.1 * 2.4)))

    def test_counting_transform_vs_monte_carlo(self):
        params = HawkesParams(2.0, 0.5, 1.0)
        n = 20000
        counts = np.array([
            simulate_hawkes(params, 1.0, 3, path_index=i).events.n_events
            for i in range(n)
        ], dtype=float)
        for w in (0.5, 1.0):
            analytic = affine_cf(params, (0.0, 0.0, 1.0), 1.0, (w, 0.0))
            est = empirical_cf(counts, w)
            assert cf_ratio(analytic, est) <= 3.0

    def test_intensity_transform_vs_monte_carlo(self):
        params = HawkesParams(2.0, 0.5, 1.0)
        n = 20000
        lam_T = np.array([
            float(simulate_hawkes(params, 1.0, 13, path_index=i).intensity(1.0))
            for i in range(n)
        ])
        analytic = affine_cf(params, (0.0, 0.0, 1.0), 1.0, (0.0, 0.7))
        est = empirical_cf(lam_T, 0.7)
        assert cf_ratio(analytic, est) <= 3.0

    def test_mean_count_critical_branching(self):
        # kappa = 1, theta_bar = 0: unit branching ratio, E[N_1] = 1 exactly
        params = HawkesParams(1.0, 0.0, 1.0)
        h = 1e-4
        cf_h = affine_cf(params, (0.0, 0.0, 1.0), 1.0, (h, 0.0))
        mean_transform = cf_h.imag / h
        assert mean_transform == pytest.approx(1.0, abs=1e-6)
        n = 20000
        counts = np.array([
            simulate_hawkes(params, 1.0, 88, path_index=i).events.n_events
            for i in range(n)
        ], dtype=float)
        se = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - mean_transform) <= 3.0 * se

    def test_mean_count_via_transform_derivative(self):
        # oracle: E[N_T] = Im CF(h, 0) / h + O(h^2); MC must agree
        params = HawkesParams(2.0, 0.5, 1.0)
        h = 1e-4
        cf_h = affine_cf(params, (0.0, 0.0, 1.0), 1.0, (h, 0.0))
        mean_transform = cf_h.imag / h
        n = 20000
        counts = np.array([
            simulate_hawkes(params, 1.0, 17, path_index=i).events.n_events
            for i in range(n)
        ], dtype=float)
        se = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - mean_transform) <= 3.0 * se

    def test_inconsistent_state_rejected(self):
        params = HawkesParams(2.0, 0.5, 1.0)
        # at t = 1 intensity cannot be below the no-event decay floor
        with pytest.raises(ValueError):
            affine_cf(params, (1.0, 0.0, 0.01), 2.0, (0.5, 0.0))

    def test_state_time_beyond_horizon_rejected(self):
        params = HawkesParams(2.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            affine_cf(params, (2.0, 0.0, 1.0), 1.0, (0.5, 0.0))
