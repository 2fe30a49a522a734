"""The two input rules of a path, each with one home in ``point_process``.

Simulators need a finite horizon > 0 and, for a batch, at least one path.
Routines that read a path need every time finite and in [0, horizon]: a
scalar and an array with one bad entry fail alike, before any work.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from snoise import measure_change, scenarios
from snoise.affine import HawkesParams, simulate_hawkes, simulate_hawkes_batch
from snoise.cli import main
from snoise.errors import NonFiniteError
from snoise.kernels import exponential
from snoise.marks import PointMass
from snoise.measure_change import (
    GirsanovKernel,
    MarketParams,
    MartingaleMeasureSpec,
    _compensator_curve,
    density_process,
    drift_residual,
    girsanov_compensator,
    identity_kernel,
    market_price_of_risk,
    mmm_ell,
    sum_past_g,
    unit_eta,
)
from snoise.point_process import MppPath, past_sum, simulate_mpp, standard
from snoise.shotnoise import (
    ShotNoiseProcess,
    eval_shotnoise,
    semimartingale_decompose,
)
from snoise.stats import simulate_standard_batch

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
}
BAD_HORIZONS = [
    (math.nan, NonFiniteError, "horizon must be finite, got nan"),
    (math.inf, NonFiniteError, "horizon must be finite, got inf"),
    (0.0, ValueError, "horizon must be > 0"),
    (-1.0, ValueError, "horizon must be > 0"),
]


def test_every_simulator_applies_the_simulation_rule():
    wrong = []
    for name, simulate in SIMULATORS.items():
        simulate(1.0, 3)  # a good horizon is served
        cases = [(h, 3, err, message) for h, err, message in BAD_HORIZONS]
        if name.endswith("_batch"):
            cases += [(1.0, n, ValueError, "n_paths must be >= 1")
                      for n in (0, -1)]
        for h, n, err, message in cases:
            got = _raised(lambda: simulate(h, n))
            if got is None or got[0] is not err or message != got[1]:
                wrong.append((name, h, n, got))
    assert not wrong, "\n".join(map(str, wrong))


@pytest.mark.parametrize("homogeneous", [True, False])
def test_girsanov_compensator_refuses_bad_times_before_integrating(
        monkeypatch, homogeneous):
    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran before the times were checked")

    monkeypatch.setattr(measure_change, "cumulative_integral", no_integral)
    monkeypatch.setattr(type(SPEC), "slice_integral", no_integral)
    kernel = GirsanovKernel(lambda t, x: np.full(np.shape(x)[:-1], 0.5),
                            time_homogeneous=homogeneous)
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
