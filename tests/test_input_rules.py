"""The input rules: two of a path, each with one home in ``point_process``,
and the number rule, with its home in ``errors.check_finite``.

Simulators need a finite horizon > 0 and, for a batch, at least one path.
Routines that read a path need every time finite and in [0, horizon]: a
scalar and an array with one bad entry fail alike, before any work.  Every
other float parameter of an exported name, a model parameter, transform
argument, level or sample, must be finite: NaN or +-inf, alone or in one
entry of an array, raises ``NonFiniteError`` naming the parameter before
any work.  Every exported callable is in one of the three tables, or in
``EXEMPT`` with the reason.  A numpy ``RuntimeWarning`` fails the module:
an input that computes before it fails shows there.
"""

import inspect
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import snoise
from snoise import measure_change, scenarios
from snoise.affine import (
    HawkesParams,
    affine_cf,
    riccati_solve,
    simulate_hawkes,
    simulate_hawkes_batch,
)
from snoise.cli import main
from snoise.errors import NonFiniteError, ParameterError
from snoise.kernels import (
    check_absolute_continuity,
    eval_G,
    exponential,
    from_table,
    is_markov_kernel,
    power_law,
)
from snoise.marks import Discrete, Exponential, Normal, PointMass, Uniform
from snoise.measure_change import (
    GirsanovKernel,
    MarketParams,
    MartingaleMeasureSpec,
    _compensator_curve,
    density_process,
    drift_residual,
    esscher_density,
    girsanov_compensator,
    identity_kernel,
    market_price_of_risk,
    mmm_ell,
    reweighted_expectation,
    sum_past_g,
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
from snoise.rng import TAG_BATCH, make_stream
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
    batch_log_weights,
    empirical_cf,
    ks_against_cdf,
    ks_two_sample_weighted,
    martingale_drift_test,
    simulate_batch,
    simulate_standard_batch,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SPEC = standard(2.0, PointMass(0.5))
KERNEL = exponential(1.0, 1.0)
PROC = ShotNoiseProcess(KERNEL, SPEC)
MARKET = MarketParams(1.0, 0.1, 0.2, lambda t: 0.02, KERNEL, SPEC)
MM = MartingaleMeasureSpec(0.7, unit_eta(), marks_prime=PointMass(0.5))
HAWKES = HawkesParams(1.5, 0.5, 1.0)
PATH = MppPath([0.2, 0.5, 0.8], [[0.5], [0.5], [0.5]], 1.0)
# two paths, for the routines that take one time per path
PAIR = MppPath([0.2, 0.5, 0.8], [[0.5], [0.5], [0.5]], 1.0, [0, 1, 3])

READERS = {
    "eval_shotnoise": lambda t: eval_shotnoise(PROC, PATH, t),
    "HawkesPath.intensity":
        lambda t: simulate_hawkes(HAWKES, 1.0, 3).intensity(t),
    "MppPath.restrict": PATH.restrict,
    "MppPath.count": PATH.count,
    "MppPath.cumulative_marks": PATH.cumulative_marks,
    "sum_past_g": lambda t: sum_past_g(MARKET, t, PAIR),
    "market_price_of_risk":
        lambda t: market_price_of_risk(MARKET, MM, t, PAIR),
    "drift_residual": lambda t: drift_residual(MARKET, MM, t, PAIR),
    "mmm_ell": lambda t: mmm_ell(MARKET, t, 1.0, PATH),
    "density_process":
        lambda t: density_process(identity_kernel(), SPEC, PATH, t),
    "semimartingale_decompose":
        lambda t: semimartingale_decompose(PROC, PATH, t),
    "FiltrationState": lambda t: FiltrationState(t, empty_path(1.0)),
}
BAD_TIMES = [
    (math.nan, NonFiniteError, "evaluation times must be finite"),
    (math.inf, NonFiniteError, "evaluation times must be finite"),
    (-1.0, ValueError, "t must be >= 0"),
    (1.0 * (1 + 1e-9), ValueError, "t beyond path horizon"),
]


def _raised(call):
    """(error type, message) of ``call()``, or None if it returned."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the table compares them
        return type(exc), str(exc)
    return None


def test_every_reader_applies_the_read_rule():
    wrong = []
    for name, read in READERS.items():
        read(0.5 if name not in ("density_process", "semimartingale_decompose")
             else np.array([0.0, 0.5, 1.0]))  # a good time is served
        for bad, err, message in BAD_TIMES:
            for t in (bad, np.array([0.5, bad])):
                got = _raised(lambda: read(t))
                if got is None or got[0] is not err or message not in got[1]:
                    wrong.append((name, t, got))
    assert not wrong, "\n".join(map(str, wrong))


def test_density_process_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="grid must be non-empty"):
        density_process(identity_kernel(), SPEC, PATH, [])


def test_eval_shotnoise_serves_a_grid():
    batch = simulate_standard_batch(2.0, PointMass(0.5), 1.0, 4, 5)
    grid = np.linspace(0.0, 1.0, 7)
    for path in (PATH, batch):
        got = eval_shotnoise(PROC, path, grid)
        assert got.tobytes() == past_sum(KERNEL.G, path, grid).tobytes()


SIMULATORS = {
    "simulate_mpp": lambda h, n: simulate_mpp(SPEC, h, 1),
    "simulate_hawkes": lambda h, n: simulate_hawkes(HAWKES, h, 1),
    "simulate_hawkes_batch":
        lambda h, n: simulate_hawkes_batch(HAWKES, h, n, 1),
    "simulate_standard_batch":
        lambda h, n: simulate_standard_batch(2.0, PointMass(0.5), h, n, 1),
    "simulate_batch": lambda h, n: simulate_batch(SPEC, h, n, 1, tag=TAG_BATCH),
    "reweighted_expectation": lambda h, n: reweighted_expectation(
        identity_kernel(), SPEC, lambda batch: batch.counts, h, 3, 1),
}
BAD_HORIZONS = [
    (math.nan, NonFiniteError, "horizon must be finite, got nan"),
    (math.inf, NonFiniteError, "horizon must be finite, got inf"),
    # a ParameterError, which is a ValueError
    (0.0, ParameterError, "horizon must be > 0"),
    (-1.0, ParameterError, "horizon must be > 0"),
]


def test_every_simulator_applies_the_simulation_rule():
    wrong = []
    for name, simulate in SIMULATORS.items():
        simulate(1.0, 3)  # a good horizon is served
        cases = [(h, 3, err, message) for h, err, message in BAD_HORIZONS]
        if name.endswith("_batch"):
            # a ParameterError, which is a ValueError
            cases += [(1.0, n, ParameterError, "n_paths must be >= 1")
                      for n in (0, -1)]
        for h, n, err, message in cases:
            got = _raised(lambda: simulate(h, n))
            if got is None or got[0] is not err or message != got[1]:
                wrong.append((name, h, n, got))
    assert not wrong, "\n".join(map(str, wrong))


def test_girsanov_compensator_refuses_bad_times_before_integrating(
        monkeypatch):
    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran before the times were checked")

    monkeypatch.setattr(measure_change, "cumulative_integral", no_integral)
    monkeypatch.setattr(type(SPEC), "slice_integral", no_integral)
    kernel = GirsanovKernel(lambda t, x: np.full(np.shape(x)[:-1], 0.5))
    for T, err, message in BAD_TIMES[:3]:
        with pytest.raises(err, match=re.escape(message)):
            girsanov_compensator(kernel, SPEC, T)
        with pytest.raises(err, match=re.escape(message)):
            _compensator_curve(kernel, SPEC, np.array([0.0, 0.5, T]), 1e-8)


def test_drift_check_states_stay_within_a_short_horizon(tmp_path, capsys,
                                                         monkeypatch):
    # the drift states are read at times inside the horizon, also below 0.5
    config = Path(__file__).resolve().parents[1] / "configs" / "drift_check.ini"
    text = config.read_text().replace("horizon = 1.0", "horizon = 0.3")
    assert "horizon = 0.3" in text
    (tmp_path / "short.ini").write_text(text)
    seen = []

    def spy(market, mm, t, path, **kwargs):
        seen.append(np.asarray(t))
        return drift_residual(market, mm, t, path, **kwargs)

    monkeypatch.setattr(scenarios, "drift_residual", spy)
    out = tmp_path / "out"
    code = main(["drift-check", "--config", str(tmp_path / "short.ini"),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err and code == 0, err
    assert seen and all(0.0 < t.min() and t.max() <= 0.3 for t in seen)
    report = (out / "report.txt").read_text()
    assert re.search(r"^PASS drift_residual: ", report, re.MULTILINE)


STATE0 = FiltrationState(0.0, empty_path(0.0))
SAMPLE = make_stream(3).normal(size=200)
STEPS = make_stream(4).normal(size=(1000, 2)).cumsum(axis=1)

# one entry per exported name with float parameters under the number rule:
# its keyword parameters are those, each default a value it serves; the
# horizons and times of the tables above, and a quad_tol (the rule of
# quadrature, tests/test_quadrature.py), are fixed inside
PARAMETERS = {
    "HawkesParams": lambda kappa=1.5, theta_bar=0.5, lambda0=1.0:
        HawkesParams(kappa, theta_bar, lambda0),
    "affine_cf": lambda state=(0.0, 0.0, 1.0), T=1.0, u=(0.5, 0.5):
        affine_cf(HAWKES, state, T, u),
    "riccati_solve": lambda u=(0.5j, 0.5j), horizon=1.0:
        riccati_solve(HAWKES, u, horizon),
    "exponential": lambda a=1.0, b=1.0: exponential(a, b),
    "power_law": lambda c=1.0: power_law(c),
    "from_table": lambda ts=(0.0, 1.0), xs=(0.0, 1.0),
    values=((0.0, 1.0), (0.0, 0.5)): from_table(ts, xs, values),
    "eval_G": lambda t=0.5, x=(1.0,): eval_G(KERNEL, t, x),
    "check_absolute_continuity": lambda ts=(0.5, 1.0), xs=(0.5, 1.0):
        check_absolute_continuity(KERNEL, ts, xs),
    "is_markov_kernel": lambda grid=(0.0, 0.5, 1.0), tol=1e-10:
        is_markov_kernel(KERNEL, grid, tol),
    "PointMass": lambda point=(0.5,): PointMass(point),
    "Discrete": lambda points=(0.5, 1.0), weights=(0.5, 0.5):
        Discrete(points, weights),
    "Normal": lambda mean=0.0, std=1.0: Normal(mean, std),
    "Exponential": lambda mean=1.0: Exponential(mean),
    "Uniform": lambda lo=0.0, hi=1.0: Uniform(lo, hi),
    "CompensatorSpec": lambda rate_bound=2.0, stationary_rate=2.0:
        CompensatorSpec(SPEC.rate, rate_bound, SPEC.marks, stationary_rate),
    "standard": lambda lam=2.0: standard(lam, PointMass(0.5)),
    "MartingaleMeasureSpec": lambda lambda_prime=0.7:
        MartingaleMeasureSpec(lambda_prime, unit_eta()),
    "MarketParams": lambda x0=1.0, mu_drift=0.1, sigma=0.2:
        MarketParams(x0, mu_drift, sigma, lambda t: 0.02, KERNEL, SPEC),
    # a non-finite mgf is the MgfDivergesError of the paper's condition
    "esscher_density": lambda h=0.5, times=(0.0, 1.0), x_values=(0.0, 0.3):
        esscher_density(h, times, x_values, lambda t: 1.0),
    "mmm_ell": lambda x_tm=1.0: mmm_ell(MARKET, 0.5, x_tm, PATH),
    "drift_residual": lambda xi=0.5: drift_residual(MARKET, MM, 0.5, PAIR,
                                                    xi=xi),
    "conditional_cf": lambda T=1.0, theta=0.7:
        conditional_cf(PROC, STATE0, T, theta),
    "conditional_cf_parts": lambda T=1.0, theta=(-0.7, 0.7j):
        conditional_cf_parts(PROC, STATE0, T, theta),
    "conditional_mean": lambda T=1.0: conditional_mean(PROC, STATE0, T),
    "ou_recursive_update":
        lambda b=1.0, s_t=0.5, dt=1.0, new_jumps=((0.5, 1.0),), a=1.0:
        ou_recursive_update(b, s_t, dt, new_jumps, a=a),
    "simulate_standard_batch": lambda lam=2.0:
        simulate_standard_batch(lam, PointMass(0.5), 1.0, 3, 1),
    "batch_log_weights": lambda compensator_integral=0.5: batch_log_weights(
        lambda t, x: np.ones(np.shape(t)), PAIR, compensator_integral),
    "empirical_cf": lambda theta=(0.0, 1.0): empirical_cf(SAMPLE, theta),
    "martingale_drift_test": lambda z_base=3.0:
        martingale_drift_test([0.0, 0.5, 1.0], np.hstack(
            [np.zeros((1000, 1)), STEPS]), z_base),
    # a KS level outside (0, 1), infinities included, is a ParameterError
    # (TestKs::test_level_outside_unit_interval_is_refused); NaN is not
    "ks_two_sample_weighted":
        lambda x1=(0.0, 1.0), x2=(0.5, 2.0), w1=(1.0, 1.0), w2=(1.0, 2.0):
        ks_two_sample_weighted(x1, x2, w1, w2),
    "ks_against_cdf": lambda x=(0.2, 0.7):
        ks_against_cdf(x, lambda v: np.clip(v, 0.0, 1.0)),
}
BAD_NUMBERS = [math.nan, math.inf, -math.inf]


def _with_bad(default, bad):
    """``bad`` for a scalar parameter; for an array, its last entry."""
    if np.ndim(default) == 0:
        return bad
    value = np.array(default)
    value.flat[-1] = bad
    return value


def test_every_number_parameter_applies_the_number_rule():
    wrong = []
    for name, call in PARAMETERS.items():
        call()  # the defaults are served
        for param in inspect.signature(call).parameters.values():
            for bad in BAD_NUMBERS:
                arg = {param.name: _with_bad(param.default, bad)}
                start = time.perf_counter()
                got = _raised(lambda: call(**arg))
                took = time.perf_counter() - start
                if (got is None or got[0] is not NonFiniteError
                        or not got[1].startswith(f"{param.name} must be "
                                                 "finite, got ")
                        or took > 1.0):
                    wrong.append((name, param.name, bad, got, took))
    assert not wrong, "\n".join(map(str, wrong))


@pytest.mark.parametrize("call, field", [
    (lambda: simulate_standard_batch(-1.0, PointMass(0.5), 1.0, 3, 1), "lam"),
    (lambda: martingale_drift_test([0.0, 1.0], np.zeros((1000, 2)), 0.0),
     "z_base"),
    (lambda: martingale_drift_test([0.0, 1.0], np.zeros((1000, 2)), -1.0),
     "z_base"),
    (lambda: Exponential(-1.0), "mean"),
    (lambda: Normal(0.0, -1.0), "std"),
    (lambda: Uniform(1.0, 0.0), "hi"),
    (lambda: Discrete([1.0, 2.0], [0.5, 0.6]), "weights"),
    (lambda: power_law(0.0), "c"),
    (lambda: standard(-1.0, PointMass(0.5)), "lam"),
    (lambda: simulate_standard_batch(1.0, PointMass(0.5), 1.0, 0, 1),
     "n_paths"),
    (lambda: empirical_cf(np.zeros(99), 1.0), "values"),
    (lambda: simulate_standard_batch(1.0, PointMass(0.5), 0.0, 3, 1),
     "horizon"),
    (lambda: CompensatorSpec(lambda t: 1.0, -1.0, PointMass(0.5)),
     "rate_bound"),
], ids=["negative-rate", "zero-z_base", "negative-z_base", "exponential-mean",
        "normal-std", "uniform-hi", "discrete-weights", "power-law-c",
        "standard-rate", "batch-n_paths", "cf-samples", "batch-horizon",
        "compensator-rate_bound"])
def test_out_of_range_number_names_its_parameter(call, field):
    # numpy's own "lam < 0" error, and a drift verdict against a
    # meaningless threshold, before; a coded SnoiseError now, which callers
    # catching ValueError still catch
    with pytest.raises(ParameterError) as err:
        call()
    assert err.value.field == field and str(err.value).startswith(field + " ")
    assert err.value.code == "Parameter" and isinstance(err.value, ValueError)


_RESULT = "a result the library builds, not an input"
_NO_FLOAT = "takes no float parameter"
_QUADRATURE = ("its floats are integration bounds, points or a tolerance: "
               "the rules of quadrature (tests/test_quadrature.py)")
EXEMPT = {
    **dict.fromkeys(["CfEstimate", "CfParts", "Decomposition", "DensityPath",
                     "DriftTestReport", "HawkesPath", "KsResult", "MarkovTest",
                     "RiccatiSolution", "StockPaths"], _RESULT),
    **dict.fromkeys(["GirsanovKernel", "MarkDistribution", "NoiseKernel",
                     "ProductIid", "SampleOnly", "ShotNoiseProcess",
                     "batch_terminal_shotnoise", "identity_kernel",
                     "jump_to_level", "prime_spec", "random_decay",
                     "stationary_reweight", "unit_eta"], _NO_FLOAT),
    **dict.fromkeys(["compensator_mass", "cumulative_integral", "custom",
                     "eta_normalization", "gauss_kronrod", "jump_moment_m1",
                     "slice_integrand"], _QUADRATURE),
    "girsanov_compensator": "T takes the read rule (test_girsanov_compensator"
                            "_refuses_bad_times_before_integrating)",
    "MppPath": "the path rule, point_process._check "
               "(test_path_validation_matches_reference)",
    "empty_path": "the path rule, point_process._check",
    "past_sum": "the times of every reader in READERS; a non-finite one "
                "raises NonFiniteError",
    "simulate_stock": "its grid lies in [0, horizon], and the batch it draws "
                      "takes check_horizon",
    "make_stream": "integer keys, each through operator.index",
    "cf_ratio": "a non-finite side reads as an infinite ratio, which fails "
                "every 3-SE verdict",
    "mean_estimate": "a statistic of a sample; a NaN sample's estimate gives "
                     "cf_ratio an infinite ratio",
}


def test_every_export_is_in_a_table_or_exempt():
    exported = {name for name, obj in vars(snoise).items()
                if callable(obj) and not name.startswith("_")}
    tables = {*READERS, *SIMULATORS, *PARAMETERS, *EXEMPT}
    assert not exported - tables, sorted(exported - tables)
    # a name that no longer exports leaves the tables too
    assert not {*PARAMETERS, *EXEMPT} - exported
