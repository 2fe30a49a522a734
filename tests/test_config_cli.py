import csv
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snoise import scenarios
from snoise.cli import EXIT_NUMERICAL, main
from snoise.config import SCENARIOS, parse_config
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


NAN_AFFINE = """\
[run]
scenario = affine-validate
horizon = 1.0
seed = 3

[affine]
kappa = 2.0
theta_bar = 0.5
lambda0 = 1.0
"""

NAN_DRIFT = """\
[run]
scenario = drift-check
horizon = 1.0
seed = 3

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
eta = one
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
        # a known section the scenario does not read was once built and
        # listed in [resolved config]
        for scenario, section in (("simulate", "extra"), ("simulate", "market"),
                                  ("simulate", "measure"),
                                  ("cf-compare", "affine")):
            text = MINIMAL_SIMULATE.replace(
                "scenario = simulate", f"scenario = {scenario}")
            with pytest.raises(ConfigError,
                               match=f"reads no \\[{section}\\]") as err:
                parse_config(write(tmp_path, f"{text}[{section}]\nx = 1\n"),
                             overrides={"n_paths": 100})
            assert err.value.field == section

    def test_missing_block_for_scenario(self, tmp_path):
        text = MINIMAL_SIMULATE.replace("[kernel]\nkind = exponential\na = 1.0\nb = 0.5\n\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert err.value.field == "kernel"

    def test_theta_grid_parse(self, tmp_path):
        text = MINIMAL_SIMULATE.replace("scenario = simulate",
                                        "scenario = cf-compare\ntheta_grid = -2:2:5")
        cfg = parse_config(write(tmp_path, text), overrides={"n_paths": 100})
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
        # measure-check reads no [kernel]
        text = text.replace("[kernel]\nkind = exponential\na = 1.0\nb = 0.5\n", "")
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
                            lambda values, theta: CfEstimate(2.0, 0.01))
        out = tmp_path / "cf"
        cfg = write(tmp_path, MINIMAL_SIMULATE.replace(
            "scenario = simulate", "scenario = cf-compare\ntheta_grid = 0:1:2"))
        assert main(["cf-compare", "--config", cfg, "--paths", "100",
                     "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert "FAIL cf_vs_mc" in report
        assert "RESULT: FAIL" in report

    @pytest.mark.parametrize("scenario, patched, check", [
        ("cf-compare", "past_sum", "cf_vs_mc"),
        ("affine-validate", "affine_cf", "transform_vs_mc"),
        ("drift-check", "drift_residual", "drift_residual"),
    ])
    def test_nan_fails_check(self, tmp_path, monkeypatch, scenario, patched,
                             check):
        # a NaN in the terminal values, the analytic transforms or the
        # residuals: max(0.0, nan) is 0.0, so a Python max() passed it
        real = getattr(scenarios, patched)

        def with_nan(*args, **kwargs):
            out = np.array(real(*args, **kwargs))
            out.flat[0] = np.nan
            return out

        monkeypatch.setattr(scenarios, patched, with_nan)
        text = {"cf-compare": MINIMAL_SIMULATE.replace(
                    "scenario = simulate",
                    "scenario = cf-compare\ntheta_grid = -1:1:3"),
                "affine-validate": NAN_AFFINE, "drift-check": NAN_DRIFT}[scenario]
        out = tmp_path / "out"
        assert main([scenario, "--config", write(tmp_path, text),
                     "--paths", "200", "--out", str(out)]) == 1
        assert f"FAIL {check}:" in (out / "report.txt").read_text()

    def test_zero_se_fails_density_martingale(self, tmp_path):
        # both paths hold one event, so L_T is 2/e on each with SE 0: a
        # zero SE once passed any mean
        text = """\
[run]
scenario = measure-check
n_paths = 2
seed = 2

[compensator]
rate = 1.0
marks = exponential
mark_mean = 1.0

[measure]
lambda_prime = 2.0
eta = one
"""
        out = tmp_path / "mc"
        assert main(["measure-check", "--config", write(tmp_path, text),
                     "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert ("FAIL density_martingale: E[L_T] = 0.735759 +- 0.00e+00, "
                "|E[L_T]-1|/SE = inf") in report

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


def _old_cell(x) -> str:
    # the per-cell formatting the row-format writer replaced
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


@pytest.mark.parametrize("block", [2**12, 3])
def test_csv_writer_matches_per_cell_format(tmp_path, monkeypatch, block):
    monkeypatch.setattr(scenarios, "_CSV_BLOCK", block)
    floats = [np.float64(0.1), 1 / 3, -0.0, np.nan, np.inf, -np.inf, 5e-324,
              np.float64(-2.5e300)]
    columns = [
        [0, np.int64(1), 2, np.int64(-3), 2**62, np.int64(5), 6, 7],
        floats,
        np.array(floats),
        np.arange(8) * 3,
        np.array([0, 1, 2, 3, 2**63, 5, 6, 2**64 - 1], dtype=np.uint64),
        np.array([-128, 127, 0, -1, 1, 2, 3, -4], dtype=np.int8),
        np.array([0.1, -0.0, np.nan, np.inf, 1e-45, 3.4e38, 1 / 3, -2.5],
                 dtype=np.float32),
    ]
    header = [f"c{k}" for k in range(len(columns))]
    for n_rows in (8, 0):
        cols = [col[:n_rows] for col in columns]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        scenarios.write_csv_atomic(new, header, cols)
        with open(old, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([_old_cell(c) for c in row] for row in zip(*cols))
        assert new.read_bytes() == old.read_bytes()
    with pytest.raises(ValueError):
        scenarios.write_csv_atomic(new, header[:2], [[1, 2], [1.0]])


def test_csv_writer_refuses_non_numeric_columns(tmp_path):
    # every table a scenario writes is integer or float columns only
    out = tmp_path / "t.csv"
    for column in (["a", "b,c", 'q"uote'], [True, False, True],
                   [True, np.True_, 0.5, "s", np.int8(-4)]):
        with pytest.raises(TypeError):
            scenarios.write_csv_atomic(out, ["x", "y"], [[1, 2, 3], column])
        assert not out.exists()


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
        "272444c92b8fb43b2006862d5890dc46c9c389cdaff01ab7b6f168fce4fe3a18",
    "cf_compare/cf_compare.csv":
        "1d2aee45120408b350b98528bd4faed738c9d2dc8e1de3509a133996fed51e74",
    "cf_compare/cf_sweep.csv":
        "68103f3d8c0c048ea578722b0b6aba5cf26b4ea1c08938fd2c30fd9204f42d20",
    "cf_compare/report.txt":
        "5f73b0f1d34c5aaf9eee358d15838ac1724cfc52b1294a1412235f78ec12445d",
    "drift_check/report.txt":
        "99d8d2fa724db7be222ba6972e97566547545d485d004d92d306541bc32dab47",
    "drift_check/stock.csv":
        "0989331ccbce13069ca7dce69dfdeeb8c785e269b6cbbfd489efde42b73219bc",
    "markov_test/report.txt":
        "6233c1c935a9047fb3ec7084ed4d1b049b57a7f117e933fcbcafd15598962547",
    "measure_check/density.csv":
        "55750490dc5f44909b2f134ffbeedcd5159920d0850896bea2f8260dc01335eb",
    "measure_check/report.txt":
        "9bb09901b43e0bcc424a295427f0a33a152b28d38c9dae676f3febb203006f6f",
    "simulate_ou/decomposition.csv":
        "9be1ab1cb21b15cdd6db4cfe13188c41ab8a6c33017f07038d852fb3585195db",
    "simulate_ou/events.csv":
        "a4a0518cd34a6048bfee0874ffc1b793bcb4d89bb2c551e249b76195d7c75b41",
    "simulate_ou/paths.csv":
        "d63cba9ce4c9f6cec72cf30398363ca6a5a82d3cb331ff76f208ec20e4570913",
    "simulate_ou/report.txt":
        "a3b74616a5eedbb07dcc5e08cbcc9b94489b9c749589d786e92787f1e12400b5",
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
    pytest.param("marks = discrete\nmark_points = 1, 2\n"
                 "mark_weights = 0.5, 0.6",
                 "compensator.mark_weights", id="discrete-weights-sum"),
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


def test_negative_rate_names_the_rate_key(tmp_path, capsys):
    # standard() keeps its own range check, so the field is the key the
    # config spells, not the rate_bound of the spec that it builds
    path = write(tmp_path, MINIMAL_SIMULATE.replace("rate = 1.5", "rate = -1"))
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.field == "compensator.rate"
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path / "o")]) == 2
    assert "ConfigError: compensator.rate:" in capsys.readouterr().err


def test_power_law_decay_zero_names_its_key(tmp_path, capsys):
    # power_law's ParameterError, a SnoiseError now, still ends as the
    # config's error on the key it names
    path = write(tmp_path, MINIMAL_SIMULATE.replace(
        "kind = exponential\na = 1.0\nb = 0.5", "kind = power_law\nc = 0"))
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.field == "kernel.c"
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path / "o")]) == 2
    assert "ConfigError: kernel.c:" in capsys.readouterr().err


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
    pytest.param(MINIMAL_SIMULATE, "rate = 1.5",
                 "rate = ramp: 1.0 0.5\nrate_bound = -1",
                 "compensator.rate_bound", id="rate-bound-negative"),
    # keys the chosen kind, marks, eta or rate form never reads
    pytest.param(MINIMAL_SIMULATE, "b = 0.5", "b = 0.5\nc = 7.0", "kernel.c",
                 id="unread-c-exponential-kernel"),
    pytest.param(MINIMAL_SIMULATE, "mark_mean = 1.0",
                 "mark_mean = 1.0\nmark_std = 3.0", "compensator.mark_std",
                 id="unread-mark-std-exponential-marks"),
    pytest.param(DRIFT_CHECK, "lambda_prime = 2.0",
                 "lambda_prime = 2.0\neta = one\neta_rate = 2.0",
                 "measure.eta_rate", id="unread-eta-rate-eta-one"),
    pytest.param(MINIMAL_SIMULATE, "rate = 1.5", "rate = 1.5\nrate_bound = 5.0",
                 "compensator.rate_bound", id="unread-rate-bound-constant"),
    pytest.param(AFFINE, "seed = 1", "seed = 1\nn_path = 10", "run.n_path",
                 id="unread-typo"),
    pytest.param(MINIMAL_SIMULATE, "horizon = 1.0", "horizon = 0",
                 "run.horizon", id="horizon-zero"),
    pytest.param(MINIMAL_SIMULATE, "grid_points = 8", "grid_points = 1",
                 "run.grid_points", id="grid-points-one"),
    pytest.param(MINIMAL_SIMULATE, "seed = 42", "seed = 42\nquad_tol = 0",
                 "run.quad_tol", id="quad-tol-zero"),
    pytest.param(MINIMAL_SIMULATE, "rate = 1.5", "rate = table: 0 1.0, 0 2.0",
                 "compensator.rate", id="table-rate-times-repeated"),
    pytest.param(MINIMAL_SIMULATE, "kind = exponential\na = 1.0\nb = 0.5",
                 "kind = custom\ntable_t = 0, 1\ntable_x = 0, 1, 2\n"
                 "table_g = 0 1; 0 0.5", "kernel.table_g",
                 id="table-g-wrong-shape"),
    pytest.param(DRIFT_CHECK, "lambda_prime = 2.0",
                 "lambda_prime = 2.0\neta = exp_tilt\neta_rate = 0",
                 "measure.eta_rate", id="eta-rate-zero"),
    pytest.param(MINIMAL_SIMULATE, "kind = exponential\na = 1.0\nb = 0.5",
                 "kind = random_decay", "compensator.marks",
                 id="kernel-marks-dimension-mismatch"),
])
def test_out_of_range_parameter_names_its_field(tmp_path, capsys, text, old,
                                                new, field):
    path = write(tmp_path, text.replace(old, new))
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.field == field
    scenario = text.split("scenario = ", 1)[1].split("\n", 1)[0]
    assert main([scenario, "--config", path,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"ConfigError: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("text, field", [
    pytest.param("[kernel]\nkind = jump_to_level\n", "run", id="no-run-section"),
    pytest.param("scenario = simulate\n", "file", id="no-section-header"),
    pytest.param(None, "file", id="missing-file"),
])
def test_unusable_config_file_exits_two(tmp_path, capsys, text, field):
    path = (str(tmp_path / "absent.ini") if text is None
            else write(tmp_path, text))
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.field == field
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path / "o")]) == 2
    assert f"ConfigError: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, section, keys", [
    pytest.param("rate = 1.5", "rate = 1.5", "compensator",
                 {"rate", "marks", "mark_mean"}, id="constant-rate"),
    pytest.param("rate = 1.5", "rate = ramp: 1.0 0.5", "compensator",
                 {"rate", "rate_bound", "marks", "mark_mean"},
                 id="ramp-rate"),
    pytest.param("rate = 1.5", "rate = table: 0 1.0, 1 3.0\nrate_bound = 4",
                 "compensator", {"rate", "rate_bound", "marks", "mark_mean"},
                 id="table-rate"),
    pytest.param("kind = exponential\na = 1.0\nb = 0.5",
                 "kind = power_law\nc = 2.0", "kernel", {"kind", "c"},
                 id="power-law-kernel"),
    pytest.param("marks = exponential\nmark_mean = 1.0",
                 "marks = uniform\nmark_lo = 0\nmark_hi = 2", "compensator",
                 {"rate", "marks", "mark_lo", "mark_hi"}, id="uniform-marks"),
])
def test_resolved_lists_only_keys_the_model_reads(tmp_path, old, new,
                                                  section, keys):
    # the audit trail once listed rate_bound = 5.0 beside a constant rate
    # of 1.5, which the model ignored
    cfg = parse_config(write(tmp_path, MINIMAL_SIMULATE.replace(old, new)))
    assert set(cfg.resolved[section]) == keys
    if "rate_bound" in keys:
        assert (float(cfg.resolved[section]["rate_bound"])
                == cfg.spec.rate_bound)


def test_readme_config_example_parses(tmp_path):
    # the grammar the README documents is the one the parser reads: each
    # example holds one scenario's blocks, every one of them built
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [block.split("```", 1)[0]
                for block in readme.split("```ini\n")[1:]]
    built = {"kernel": "kernel", "compensator": "spec", "market": "market",
             "measure": "measure", "affine": "affine"}
    scenarios = []
    for example in examples:
        cfg = parse_config(write(tmp_path, example))
        blocks = SCENARIOS[cfg.run.scenario][0]
        for block, attr in built.items():
            assert (getattr(cfg, attr) is not None) == (block in blocks)
        scenarios.append(cfg.run.scenario)
    assert scenarios == ["cf-compare", "drift-check", "affine-validate"]


@pytest.mark.parametrize("stem, fewest", [
    ("cf_compare", 100), ("affine_validate", 100), ("measure_check", 2),
    ("drift_check", 2)])
def test_too_few_paths_for_the_statistics_exit_two(tmp_path, capsys, stem,
                                                   fewest):
    # below these counts cf-compare and affine-validate died on a raw
    # ValueError (exit 1), and measure-check and drift-check passed on NaN
    # standard errors
    config = str(next(p for p in SHIPPED_CONFIGS if p.stem == stem))
    scenario = parse_config(config).run.scenario
    for paths in (1, fewest - 1):
        code = main([scenario, "--config", config, "--paths", str(paths),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"ConfigError: run.n_paths: must be >= {fewest}" in err
    assert not (tmp_path / "o").exists()
    cfg = parse_config(config, overrides={"n_paths": fewest})
    assert cfg.run.n_paths == fewest


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


@pytest.mark.parametrize("seed", ["-1", "-7", str(2**64)])
def test_seed_outside_64_bits_exits_two(tmp_path, capsys, seed):
    # a negative seed used to draw the stream of seed + 2^64
    out = tmp_path / "o"
    text = MINIMAL_SIMULATE.replace("seed = 42", f"seed = {seed}")
    code = main(["simulate", "--config", write(tmp_path, text),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "ConfigError: run.seed: must be in [0, 2^64)" in err
    code = main(["simulate", "--config", write(tmp_path, MINIMAL_SIMULATE),
                 "--seed", seed, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "ConfigError: run.seed: must be in [0, 2^64)" in err
    assert not out.exists()
    assert parse_config(write(tmp_path, MINIMAL_SIMULATE), overrides={
        "seed": 2**64 - 1}).run.seed == 2**64 - 1


@pytest.mark.parametrize("curve, at_075", [
    ("-0.01", -0.01), ("table: 0 0.02, 1 -0.02", -0.01)],
    ids=["constant", "table"])
def test_short_rate_curve_takes_any_sign(tmp_path, curve, at_075):
    # the short rate once went through the intensity rule: a negative
    # constant failed on market.rate_curve and a ramp was clamped at 0
    cfg = parse_config(write(tmp_path, DRIFT_CHECK.replace(
        "rate_curve = 0.02", f"rate_curve = {curve}")))
    assert float(cfg.market.short_rate(0.75)) == pytest.approx(at_075, abs=1e-15)


def test_drift_check_with_a_negative_short_rate_passes(tmp_path, capsys):
    path = write(tmp_path, DRIFT_CHECK.replace(
        "rate_curve = 0.02", "rate_curve = ramp: 0.05 -0.1"))
    assert float(parse_config(path).market.short_rate(0.75)) == pytest.approx(-0.025)
    out = tmp_path / "dc"
    assert main(["drift-check", "--config", path, "--paths", "200",
                 "--out", str(out)]) == 0, capsys.readouterr().err
    assert "PASS drift_residual:" in (out / "report.txt").read_text()


def test_non_finite_negative_control_fails(tmp_path, capsys, monkeypatch):
    # NaN control paths give z = inf, which fails the drift test and once
    # passed the control as "fails as expected (max |z| = inf)"
    simulate_stock = scenarios.simulate_stock

    def nan_control(market, mm, *args, **kwargs):
        stock = simulate_stock(market, mm, *args, **kwargs)
        if mm is None:
            stock.X[:] = np.nan
        return stock

    monkeypatch.setattr(scenarios, "simulate_stock", nan_control)
    out = tmp_path / "dc"
    assert main(["drift-check", "--config", write(tmp_path, DRIFT_CHECK),
                 "--paths", "1000", "--out", str(out)]) == 1, \
        capsys.readouterr().err
    report = (out / "report.txt").read_text()
    assert "FAIL negative_control: P-measure drift test shows no finite " \
        "drift (max |z| = inf)" in report
    assert "PASS martingale_drift_test:" in report


@pytest.mark.parametrize("rate", ["ramp: 1.0 -2.0", "table: 0 1.0, 1 -1.0",
                                  "table: 0 1.0, 0.5 -0.1, 2 2.0"],
                         ids=["ramp", "table-end", "table-knot"])
def test_intensity_below_zero_on_the_horizon_exits_two(tmp_path, capsys, rate):
    # a ramp below 0 was once clamped there, silently changing the model
    path = write(tmp_path, MINIMAL_SIMULATE.replace("rate = 1.5", f"rate = {rate}"))
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path / "o")]) == 2
    assert ("ConfigError: compensator.rate: must be >= 0 on [0, horizon]"
            in capsys.readouterr().err)


def test_intensity_reaching_zero_at_the_horizon_parses(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL_SIMULATE.replace(
        "rate = 1.5", "rate = ramp: 1.0 -1.0")))
    assert cfg.spec.rate_bound == 1.0
    assert float(cfg.spec.rate(1.0)) == 0.0
    # a table is held to its values on [0, horizon] only, and bounded by them
    cfg = parse_config(write(tmp_path, MINIMAL_SIMULATE.replace(
        "rate = 1.5", "rate = table: 0 1.0, 0.5 2.0, 2 -1.0")))
    assert cfg.spec.rate_bound == 2.0


MARKOV_TEST = """\
[run]
scenario = markov-test
seed = 1

[kernel]
{kernel}
"""


@pytest.mark.parametrize("kernel, line", [
    ("kind = jump_to_level",
     "INFO markov_classification: Markov; fitted a = 1, b = 0, "
     "max Cauchy residual = 0.000e+00"),
    ("kind = random_decay",
     "INFO markov_classification: kernel not separable: "),
    # G(t, x) = t x: separable, with H(0) = 0
    ("kind = custom\ntable_t = 0, 1\ntable_x = 0, 1\ntable_g = 0 0; 0 1",
     "INFO markov_classification: H(0) vanishes: "),
], ids=["markov", "not-separable", "zero-at-origin"])
def test_markov_test_reports_each_classification(tmp_path, capsys, kernel, line):
    out = tmp_path / "mk"
    assert main(["markov-test", "--config", write(
        tmp_path, MARKOV_TEST.format(kernel=kernel)),
        "--out", str(out)]) == 0, capsys.readouterr().err
    assert line in (out / "report.txt").read_text()


@pytest.mark.parametrize("stem, rate, msg", [
    ("measure_check", "ramp: 1.0 0.5", "needs a constant rate"),
    ("measure_check", "0", "needs a positive rate"),
    ("drift_check", "table: 0 1.0, 1 2.0", "needs a constant rate"),
])
def test_stationary_scenarios_refuse_other_rates(tmp_path, capsys, stem, rate,
                                                  msg):
    config = next(p for p in SHIPPED_CONFIGS if p.stem == stem)
    text = config.read_text().replace("rate = 1.0\n", f"rate = {rate}\n")
    assert f"rate = {rate}\n" in text
    code = main([parse_config(str(config)).run.scenario, "--config",
                 write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"ConfigError: compensator.rate: this scenario {msg}" in \
        capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stem, old, new, code, line", [
    ("drift_check", "horizon = 1.0", "horizon = 5e-324", 3,
     "Parameter: grid must be 1-d, rising from 0"),
    ("measure_check", "mark_mean = 1.0", "mark_mean = 1e6", 3,
     "Parameter: w1 must hold weights >= 0"),
    ("measure_check", "eta_rate = 2.0", "eta_rate = 1e6", 3,
     "Parameter: w1 must hold weights >= 0"),
    ("drift_check", "sigma = 0.2", "sigma = 1e308", 2,
     "ConfigError: market.sigma: sigma must be > 0 with a finite square"),
    ("simulate_ou", "mark_mean = 1.0", "mark_mean = 1e308", 3,
     "NonFinite: drawn marks overflowed"),
    ("measure_check", "eta_rate = 2.0", "eta_rate = 1e308", 3,
     "Parameter: w1 must hold weights >= 0"),
], ids=["drift-horizon-tiny", "measure-mark-mean-huge",
        "measure-eta-rate-huge", "drift-sigma-huge", "ou-mark-mean-overflows",
        "measure-eta-rate-overflows"])
def test_fuzzed_shipped_config_ends_in_one_message(tmp_path, capsys, stem, old,
                                                   new, code, line):
    # mutations from a config fuzz that used to end in a traceback (a bare
    # ValueError, or an OverflowError after an overflow warning), or in
    # overflow warnings ahead of their message
    config = next(p for p in SHIPPED_CONFIGS if p.stem == stem)
    text = config.read_text().replace(old + "\n", new + "\n")
    assert new + "\n" in text
    got = main([parse_config(str(config)).run.scenario, "--config",
                write(tmp_path, text), "--out", str(tmp_path / "o"),
                "--paths", "2000"])
    err = capsys.readouterr().err.splitlines()
    assert got == code, err
    assert len(err) == 1 and err[0].startswith(line), err


def test_config_fuzz_one_value_per_key():
    # tests/fuzz_configs.py's checks, one hostile value per shipped key, in
    # a child process: its peak RSS stays out of this process's children
    script = Path(__file__).with_name("fuzz_configs.py")
    proc = subprocess.run([sys.executable, str(script), "--one-per-key"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    n_keys = sum(len(re.findall(r"^(?!scenario)\w+[ \t]*=", path.read_text(),
                                re.MULTILINE)) for path in SHIPPED_CONFIGS)
    assert proc.stdout.startswith(f"{n_keys} runs: ") and n_keys >= 50
    assert "\nFAULT: 0\n" in proc.stdout
