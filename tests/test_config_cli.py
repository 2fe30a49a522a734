import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snoise.cli import EXIT_NUMERICAL, main
from snoise.config import parse_config
from snoise.errors import ConfigError
from snoise.stats import CfEstimate

MINIMAL_SIMULATE = """\
[run]
scenario = simulate
horizon = 1.0
n_paths = 20
seed = 42
grid_points = 8

[kernel]
kind = exponential
a = 1.0
b = 0.5

[compensator]
rate = 1.5
marks = exponential
mark_mean = 1.0
"""


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_minimal_roundtrip(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL_SIMULATE))
        assert cfg.run.scenario == "simulate"
        assert cfg.run.seed == 42
        assert cfg.kernel.params == {"a": 1.0, "b": 0.5}
        assert cfg.spec.stationary_rate == 1.5
        # defaults are recorded for the audit trail
        assert cfg.resolved["run"]["quad_tol"] == "1e-08"

    def test_missing_seed_names_field(self, tmp_path):
        text = MINIMAL_SIMULATE.replace("seed = 42\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert err.value.field == "run.seed"
        assert "seed" in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, MINIMAL_SIMULATE + "typo_key = 3\n"))
        assert err.value.field == "compensator.typo_key"

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, MINIMAL_SIMULATE + "[extra]\nx = 1\n"))

    def test_missing_block_for_scenario(self, tmp_path):
        text = MINIMAL_SIMULATE.replace("[kernel]\nkind = exponential\na = 1.0\nb = 0.5\n\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert err.value.field == "kernel"

    def test_theta_grid_parse(self, tmp_path):
        text = MINIMAL_SIMULATE.replace("scenario = simulate",
                                        "scenario = cf-compare\ntheta_grid = -2:2:5")
        cfg = parse_config(write(tmp_path, text))
        assert np.allclose(cfg.run.theta_grid, [-2, -1, 0, 1, 2])

    def test_rate_grammar_ramp_and_table(self, tmp_path):
        text = MINIMAL_SIMULATE.replace("rate = 1.5", "rate = ramp: 1.0 0.5")
        cfg = parse_config(write(tmp_path, text))
        assert cfg.spec.stationary_rate is None
        assert float(cfg.spec.rate(2.0)) == pytest.approx(2.0)
        assert cfg.spec.rate_bound == pytest.approx(1.5)  # offset + slope*horizon

        text = MINIMAL_SIMULATE.replace("rate = 1.5",
                                        "rate = table: 0 1.0, 1 3.0")
        cfg = parse_config(write(tmp_path, text))
        assert float(cfg.spec.rate(0.5)) == pytest.approx(2.0)
        assert cfg.spec.rate_bound == 3.0

    def test_mark_grammar_errors(self, tmp_path):
        text = MINIMAL_SIMULATE.replace("mark_mean = 1.0", "")
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert err.value.field == "compensator.mark_mean"

    def test_discrete_marks(self, tmp_path):
        text = MINIMAL_SIMULATE.replace(
            "marks = exponential\nmark_mean = 1.0",
            "marks = discrete\nmark_points = 0.5, 1.5\nmark_weights = 0.3, 0.7")
        cfg = parse_config(write(tmp_path, text))
        pts, w = cfg.spec.marks.atoms(0.0)
        assert np.allclose(pts[:, 0], [0.5, 1.5])
        assert np.allclose(w, [0.3, 0.7])

    def test_exp_tilt_needs_exponential_marks(self, tmp_path):
        text = MINIMAL_SIMULATE.replace("scenario = simulate",
                                        "scenario = measure-check")
        text = text.replace("marks = exponential\nmark_mean = 1.0",
                            "marks = point_mass\nmark_value = 1.0")
        text += "\n[measure]\nlambda_prime = 2.0\neta = exp_tilt\neta_rate = 2.0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert err.value.field == "measure.eta"

    def test_supercritical_affine_warns(self, tmp_path):
        text = """\
[run]
scenario = affine-validate
seed = 1

[affine]
kappa = 0.8
theta_bar = 0.1
lambda0 = 1.0
"""
        with pytest.warns(UserWarning, match="branching ratio"):
            parse_config(write(tmp_path, text))

    def test_scenario_cli_mismatch(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, MINIMAL_SIMULATE),
                         overrides={"scenario": "cf-compare"})

    def test_custom_table_kernel(self, tmp_path):
        text = MINIMAL_SIMULATE.replace(
            "kind = exponential\na = 1.0\nb = 0.5",
            "kind = custom\ntable_t = 0, 1, 2\ntable_x = 0, 1, 2\n"
            "table_g = 0 1 2; 0 0.5 1; 0 0.25 0.5")
        cfg = parse_config(write(tmp_path, text))
        from snoise.kernels import eval_G
        assert eval_G(cfg.kernel, 1.0, [2.0]) == pytest.approx(1.0)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.sampled_from([
        ("horizon = 1.0", "horizon = {}", "run.horizon"),
        ("grid_points = 8", "grid_points = 8\nquad_tol = {}", "run.quad_tol"),
        ("a = 1.0", "a = {}", "kernel.a"),
        ("mark_mean = 1.0", "mark_mean = {}", "compensator.mark_mean"),
        ("marks = exponential\nmark_mean = 1.0",
         "marks = normal\nmark_mean = 0.5\nmark_std = {}",
         "compensator.mark_std"),
        ("marks = exponential\nmark_mean = 1.0",
         "marks = discrete\nmark_points = 0.5, {}\nmark_weights = 0.3, 0.7",
         "compensator.mark_points"),
        (None, "kappa = {}", "affine.kappa"),
    ]), bad=st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
    def test_non_finite_numbers_rejected(self, tmp_path, case, bad):
        old, new, field = case
        if old is None:
            text = ("[run]\nscenario = affine-validate\nseed = 1\n\n"
                    "[affine]\n" + new.format(bad)
                    + "\ntheta_bar = 0.5\nlambda0 = 1.0\n")
        else:
            text = MINIMAL_SIMULATE.replace(old, new.format(bad))
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert err.value.field == field


class TestCli:
    def test_simulate_csv_contract_and_determinism(self, tmp_path):
        cfg = write(tmp_path, MINIMAL_SIMULATE)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        csv1 = (out1 / "paths.csv").read_bytes()
        csv2 = (out2 / "paths.csv").read_bytes()
        assert csv1 == csv2  # byte-identical under a fixed seed
        lines = csv1.decode().strip().splitlines()
        assert lines[0] == "path_id,t,S_t"
        assert len(lines) == 1 + 20 * 8  # header + n_paths * grid_points

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path, MINIMAL_SIMULATE.replace("seed = 42\n", ""))
        code = main(["simulate", "--config", bad, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # rate table exceeds the declared bound: InvalidBound, exit 3
        text = MINIMAL_SIMULATE.replace(
            "rate = 1.5", "rate = table: 0 1.0, 1 3.0\nrate_bound = 1.0")
        code = main(["simulate", "--config", write(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "InvalidBound" in capsys.readouterr().err

    def test_overrides_and_report_audit(self, tmp_path):
        cfg = write(tmp_path, MINIMAL_SIMULATE)
        out = tmp_path / "ovr"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--paths", "5", "--seed", "123"]) == 0
        report = (out / "report.txt").read_text()
        assert "run.n_paths = 5" in report
        assert "run.seed = 123" in report
        lines = (out / "paths.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 5 * 8

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, MINIMAL_SIMULATE)
        target = tmp_path / "from_env"
        monkeypatch.setenv("SNOISE_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", cfg]) == 0
        assert (target / "report.txt").exists()

    def test_console_script_installed(self):
        # the child finds the checkout's package as the other child processes
        # do, so the test also runs from a checkout without an install
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-m", "snoise.cli", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0
        assert "snoise" in proc.stdout


class TestScenarioChecks:
    def test_cf_compare_report_contains_ratio(self, tmp_path):
        text = """\
[run]
scenario = cf-compare
horizon = 1.0
n_paths = 5000
seed = 11
theta_grid = -3:3:7

[kernel]
kind = jump_to_level

[compensator]
rate = 2.0
marks = point_mass
mark_value = 0.7
"""
        # the ramp rate draws its paths through the thinned batch
        for name, rate in [("const", "2.0"), ("ramp", "ramp: 1.0 2.0")]:
            cfg = write(tmp_path, text.replace("rate = 2.0", f"rate = {rate}"),
                        f"{name}.ini")
            out = tmp_path / name
            assert main(["cf-compare", "--config", cfg, "--out", str(out)]) == 0
            report = (out / "report.txt").read_text()
            assert "|delta|/SE" in report
            assert (out / "cf_sweep.csv").exists()

    def test_cf_compare_failure_exit_one(self, tmp_path, monkeypatch):
        # the CF ratio is a numpy float, so its verdict is a numpy bool: a
        # failing comparison must still fail the run
        monkeypatch.setattr("snoise.scenarios.empirical_cf",
                            lambda values, theta: CfEstimate(2.0, 0.01, 0.01, 0.0))
        out = tmp_path / "cf"
        cfg = write(tmp_path, MINIMAL_SIMULATE.replace(
            "scenario = simulate", "scenario = cf-compare\ntheta_grid = 0:1:2"))
        assert main(["cf-compare", "--config", cfg, "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert "FAIL cf_vs_mc" in report
        assert "RESULT: FAIL" in report

    def test_markov_expectation_failure_exit_one(self, tmp_path):
        text = """\
[run]
scenario = markov-test
seed = 1

[kernel]
kind = power_law
c = 1.0
expect_markov = true
"""
        code = main(["markov-test", "--config", write(tmp_path, text),
                     "--out", str(tmp_path / "mk")])
        assert code == 1


def test_table_kernel_with_knots_inside_horizon_simulates(tmp_path, capsys):
    # g jumps at the table knots 0.5 and 1, inside the horizon: the
    # integrability check must split its time integral there
    text = MINIMAL_SIMULATE.replace("horizon = 1.0", "horizon = 2.0").replace(
        "kind = exponential\na = 1.0\nb = 0.5",
        "kind = custom\ntable_t = 0, 0.5, 1, 3\ntable_x = 0, 1, 2\n"
        "table_g = 0 1 2; 0 0.6 1.2; 0 0.4 0.8; 0 0.1 0.2")
    out = tmp_path / "table"
    assert main(["simulate", "--config", write(tmp_path, text),
                 "--out", str(out)]) == 0, capsys.readouterr().err
    assert "RESULT: PASS" in (out / "report.txt").read_text()


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs")
                         .glob("*.ini"))


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_passes(config, tmp_path, capsys):
    # each shipped config at its own seed, through the CLI as a user runs it
    scenario = parse_config(str(config)).run.scenario
    out = tmp_path / config.stem
    assert main([scenario, "--config", str(config), "--out", str(out)]) == 0, \
        capsys.readouterr().err
    assert "RESULT: PASS" in (out / "report.txt").read_text()


# sha256 of every CSV and report.txt the shipped configs write at their
# seeds: a change to a random stream, a rounding or a report line shows here
SHIPPED_OUTPUT_SHA256 = {
    "affine_validate/events.csv":
        "020ab3589dfb76ea2d76e19d81c11c2bc53b9ad33363f5e47b68b1a4d90bf5af",
    "affine_validate/intensity.csv":
        "c686a464b7e941471c934e3743b561442d2eafbb0ed56fdd9c9712fe584c2927",
    "affine_validate/report.txt":
        "38f9f90b76d6edf09c1e85117029ede5ccaac7afeaaec52e281192c225c7c837",
    "affine_validate/transform_compare.csv":
        "1dd6e526176c0621d1e934d2ea14f765333a44af0a51bf78190e91caf17c0dfe",
    "cf_compare/cf_compare.csv":
        "e509111442ecb85bc53f18ea5ed6412290b71bd26628d99f28d47ef44082220e",
    "cf_compare/cf_sweep.csv":
        "d5db850c83cda7d937a3e334f40801dd12d0aa7cd1be0b25a78627b721f13817",
    "cf_compare/report.txt":
        "5f73b0f1d34c5aaf9eee358d15838ac1724cfc52b1294a1412235f78ec12445d",
    "drift_check/report.txt":
        "99d8d2fa724db7be222ba6972e97566547545d485d004d92d306541bc32dab47",
    "drift_check/stock.csv":
        "61c7acec9576a4302d581c430bd1f4b54e7cdbe7ea868b1c62b10350382d6cae",
    "markov_test/report.txt":
        "6233c1c935a9047fb3ec7084ed4d1b049b57a7f117e933fcbcafd15598962547",
    "measure_check/density.csv":
        "648686c008543f04ed0369d03207e4514a65f48d168246351a08117018124b7a",
    "measure_check/report.txt":
        "d82e7bcce98fb034993d9db030c897b31cf3fdd1cc6792e70d1c8c635808e56e",
    "simulate_ou/decomposition.csv":
        "41c3c8054c9ec30d124f11d7b7c5c87d9c1b464573ff13bb1253340b3ed1c4a1",
    "simulate_ou/events.csv":
        "a4a0518cd34a6048bfee0874ffc1b793bcb4d89bb2c551e249b76195d7c75b41",
    "simulate_ou/paths.csv":
        "d63cba9ce4c9f6cec72cf30398363ca6a5a82d3cb331ff76f208ec20e4570913",
    "simulate_ou/report.txt":
        "cb9685424843fd968948531528612dfb8c07c22c051c6d1d029c34585f5e49c3",
}


def test_shipped_outputs_match_golden_manifest(tmp_path):
    got = {}
    for config in SHIPPED_CONFIGS:
        out = tmp_path / config.stem
        main([parse_config(str(config)).run.scenario, "--config", str(config),
              "--out", str(out)])
        for path in [*out.glob("*.csv"), *out.glob("report.txt")]:
            got[f"{config.stem}/{path.name}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    mismatches = [
        f"{name}: expected {SHIPPED_OUTPUT_SHA256.get(name)}, got {got.get(name)}"
        for name in sorted(set(got) | set(SHIPPED_OUTPUT_SHA256))
        if got.get(name) != SHIPPED_OUTPUT_SHA256.get(name)]
    assert not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize("old, new, field", [
    pytest.param("rate = 1.5", "rate = {}", "compensator.rate", id="constant"),
    pytest.param("rate = 1.5", "rate = ramp: {} 0.5", "compensator.rate",
                 id="ramp-offset"),
    pytest.param("rate = 1.5", "rate = ramp: 1.0 {}", "compensator.rate",
                 id="ramp-slope"),
    pytest.param("rate = 1.5", "rate = table: 0 1.0, 1 {}",
                 "compensator.rate", id="table-rate"),
    pytest.param("rate = 1.5", "rate = table: 0 1.0, {} 2.0",
                 "compensator.rate", id="table-time"),
    pytest.param("grid_points = 8", "grid_points = 8\ntheta_grid = {}:5:21",
                 "run.theta_grid", id="theta-lo"),
    pytest.param("grid_points = 8", "grid_points = 8\ntheta_grid = -5:{}:21",
                 "run.theta_grid", id="theta-hi"),
])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_rate_and_theta_grid_exit_two(tmp_path, capsys, old, new,
                                                 field, bad):
    text = MINIMAL_SIMULATE.replace(old, new.format(bad))
    code = main(["simulate", "--config", write(tmp_path, text),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"ConfigError: {field}:" in err


@pytest.mark.parametrize("marks, field", [
    pytest.param("marks = normal\nmark_mean = 0.5\nmark_std = 0",
                 "compensator.mark_std", id="normal-std-zero"),
    pytest.param("marks = normal\nmark_mean = 0.5\nmark_std = -1",
                 "compensator.mark_std", id="normal-std-negative"),
    pytest.param("marks = exponential\nmark_mean = 0",
                 "compensator.mark_mean", id="exponential-mean-zero"),
    pytest.param("marks = exponential\nmark_mean = -2",
                 "compensator.mark_mean", id="exponential-mean-negative"),
    pytest.param("marks = uniform\nmark_lo = 1\nmark_hi = 1",
                 "compensator.mark_hi", id="uniform-empty"),
    pytest.param("marks = uniform\nmark_lo = 2\nmark_hi = 1",
                 "compensator.mark_hi", id="uniform-reversed"),
])
def test_invalid_mark_parameters_exit_two(tmp_path, capsys, marks, field):
    text = MINIMAL_SIMULATE.replace("marks = exponential\nmark_mean = 1.0",
                                    marks)
    path = write(tmp_path, text)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.field == field
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"ConfigError: {field}:" in capsys.readouterr().err


def test_table_kernel_with_density_marks_simulates(tmp_path, capsys):
    # G is bilinear with kinks in x at the interior knots 0.7 and 1.5, where
    # Exponential(1) marks have density: the integrability check must cut
    # its mark integral there
    text = MINIMAL_SIMULATE.replace(
        "kind = exponential\na = 1.0\nb = 0.5",
        "kind = custom\ntable_t = 0, 0.5, 1.5, 4\ntable_x = 0, 0.7, 1.5, 3\n"
        "table_g = 0 0.6 1.2 2; 0 0.4 0.9 1.5; 0 0.2 0.5 0.9; 0 0 0.1 0.2")
    out = tmp_path / "table"
    assert main(["simulate", "--config", write(tmp_path, text),
                 "--out", str(out)]) == 0, capsys.readouterr().err
    assert "RESULT: PASS" in (out / "report.txt").read_text()


@pytest.mark.parametrize("knots, field", [
    pytest.param("table_t = 0, 1, 0.5\ntable_x = 0, 1, 2", "kernel.table_t",
                 id="t-decreasing"),
    pytest.param("table_t = 0, 1, 1\ntable_x = 0, 1, 2", "kernel.table_t",
                 id="t-repeated"),
    pytest.param("table_t = 0, 1, 2\ntable_x = 0, 2, 1", "kernel.table_x",
                 id="x-decreasing"),
])
def test_bad_table_knots_exit_two(tmp_path, capsys, knots, field):
    text = MINIMAL_SIMULATE.replace(
        "kind = exponential\na = 1.0\nb = 0.5",
        f"kind = custom\n{knots}\ntable_g = 0 1 2; 0 0.5 1; 0 0.25 0.5")
    code = main(["simulate", "--config", write(tmp_path, text),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"ConfigError: {field}:" in err


DRIFT_CHECK = """\
[run]
scenario = drift-check
seed = 1

[kernel]
kind = jump_to_level

[compensator]
rate = 1.0
marks = point_mass
mark_value = 0.5

[market]
x0 = 1.0
mu = 0.1
sigma = 0.2
rate_curve = 0.02

[measure]
lambda_prime = 2.0
"""

AFFINE = """\
[run]
scenario = affine-validate
seed = 1

[affine]
kappa = 2.0
theta_bar = 0.5
lambda0 = 1.0
"""


@pytest.mark.parametrize("text, old, new, field", [
    pytest.param(DRIFT_CHECK, "sigma = 0.2", "sigma = 0", "market.sigma",
                 id="sigma-zero"),
    pytest.param(DRIFT_CHECK, "sigma = 0.2", "sigma = -0.2", "market.sigma",
                 id="sigma-negative"),
    pytest.param(DRIFT_CHECK, "x0 = 1.0", "x0 = 0", "market.x0",
                 id="x0-zero"),
    pytest.param(AFFINE, "kappa = 2.0", "kappa = 0", "affine.kappa",
                 id="kappa-zero"),
    pytest.param(AFFINE, "theta_bar = 0.5", "theta_bar = -1",
                 "affine.theta_bar", id="theta-bar-negative"),
    pytest.param(AFFINE, "lambda0 = 1.0", "lambda0 = -1", "affine.lambda0",
                 id="lambda0-negative"),
])
def test_out_of_range_parameter_names_its_field(tmp_path, text, old, new,
                                                field):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, text.replace(old, new)))
    assert err.value.field == field


@pytest.mark.parametrize("config", [
    p for p in SHIPPED_CONFIGS
    if p.stem in ("drift_check", "affine_validate", "simulate_ou", "cf_compare")
], ids=lambda p: p.stem)
def test_batch_scenarios_are_deterministic(config, tmp_path):
    scenario = parse_config(str(config)).run.scenario
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        assert main([scenario, "--config", str(config), "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    assert names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# a batch of 2*10^7 (drift-check's stock) or 4*10^7 (simulate) expected
# jumps runs the CLI in a child process under an address-space cap: the
# batch must refuse it before allocating
_HIGH_RATE_BATCH = """
import resource, sys
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from snoise.cli import main
sys.exit(main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]]))
"""


def test_high_rate_stock_batch_fails_cleanly(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    for stem, old, new in [("drift_check", "rate = 1.0\n", "rate = 1000\n"),
                           ("simulate_ou", "rate = 1.5\n", "rate = 100000\n")]:
        config = next(p for p in SHIPPED_CONFIGS if p.stem == stem)
        text = config.read_text().replace(old, new)
        assert new in text
        proc = subprocess.run(
            [sys.executable, "-c", _HIGH_RATE_BATCH,
             parse_config(str(config)).run.scenario,
             write(tmp_path, text, f"{stem}.ini"), str(tmp_path / stem)],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == EXIT_NUMERICAL, (stem, proc.stderr[-2000:])
        assert proc.stderr.startswith("ExplosionGuard: batch expects"), \
            (stem, proc.stderr[-2000:])
