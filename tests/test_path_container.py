"""One container for one path and for a batch: ``MppPath`` and ``HawkesPath``.

Routines that can serve a batch return one value per path (a bare float for
one path at a scalar time); routines that read one path refuse a batch.
"""

import math
import re

import numpy as np
import pytest

from snoise.affine import HawkesParams, simulate_hawkes_batch
from snoise.errors import NonFiniteError
from snoise.kernels import exponential
from snoise.marks import PointMass
from snoise.measure_change import (
    MarketParams,
    MartingaleMeasureSpec,
    density_process,
    drift_residual,
    identity_kernel,
    market_price_of_risk,
    mmm_ell,
    sum_past_g,
    unit_eta,
)
from snoise.point_process import (
    _FEW,
    MppPath,
    _check,
    break_ties,
    hand_over,
    standard,
)
from snoise.shotnoise import (
    FiltrationState,
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


@pytest.fixture(scope="module")
def batch():
    b = simulate_standard_batch(2.0, PointMass(0.5), 1.0, 5, 3)
    assert b.n_paths == 5 and len(set(b.counts.tolist())) > 1
    return b


class TestLayout:
    def test_paths_of_a_batch(self):
        times = [0.5, 0.9, 0.2, 0.7]  # falls only where path 1 starts
        b = MppPath(times, np.arange(4.0), 1.0, [0, 0, 2, 2, 4])
        assert b.n_paths == 4 and b.counts.tolist() == [0, 2, 0, 2]
        assert b.path_ids().tolist() == [1, 1, 3, 3]
        assert b.path(0).n_events == b.path(2).n_events == 0
        assert b.path(3).times.tolist() == [0.2, 0.7]
        assert b.path(3).marks[:, 0].tolist() == [2.0, 3.0]
        head = b.head(2)
        assert head.n_paths == 2 and head.times.tolist() == [0.5, 0.9]
        assert b.path(-1).times.tolist() == [0.2, 0.7]
        for bad in (lambda: b.path(4), lambda: b.path(-5), lambda: b.head(5),
                    lambda: b.head(-1)):
            with pytest.raises(IndexError):
                bad()
        one = MppPath(times[:2], [1.0, 2.0], 1.0)
        assert one.n_paths == 1 and one.offsets.tolist() == [0, 2]

    def test_views_share_the_frozen_arrays(self, batch):
        for view in (batch.path(1), batch.head(3)):
            assert np.shares_memory(view.times, batch.times)
            assert np.shares_memory(view.marks, batch.marks)
            assert not (view.times.flags.writeable
                        or view.marks.flags.writeable
                        or view.offsets.flags.writeable)
        # the one-path views of every path cover the batch, in order
        joined = np.concatenate([batch.path(i).times
                                 for i in range(batch.n_paths)])
        assert joined.tobytes() == batch.times.tobytes()

    @pytest.mark.parametrize("times, offsets, match", [
        ([0.5, 0.4, 0.2, 0.7], [0, 2, 4], "increasing"),
        ([0.5, 0.9, 0.2, 0.7], [0, 3], "offsets"),
        ([0.5, 0.9, 0.2, 0.7], [1, 4], "offsets"),
        ([0.5, 0.9, 0.2, 0.7], [0, 3, 2, 4], "offsets"),
        ([0.5, 0.9, 0.2, 1.7], [0, 2, 4], "beyond"),
        ([0.5, 0.9, 0.0, 0.7], [0, 2, 4], "> 0"),
        ([0.5, 0.9, np.nan, 0.7], [0, 2, 3, 4], "finite"),
    ])
    def test_every_path_is_checked(self, times, offsets, match):
        with pytest.raises(ValueError, match=match):
            MppPath(times, np.ones(4), 1.0, offsets)

    @pytest.mark.parametrize("route", ["one-path", "batch", "long"])
    @pytest.mark.parametrize("times, mark, horizon", [
        ([0.0, 0.5, 0.7], 1.0, 1.0),
        ([-0.1, 0.5, 0.7], 1.0, 1.0),
        ([0.2, 0.5, 1.5], 1.0, 1.0),
        ([0.2, 1.0, 1.0], 1.0, 1.0),  # the nudge lands beyond the horizon
        ([0.2, math.nan, 0.7], 1.0, 1.0),
        ([0.2, 0.5, math.inf], 1.0, 1.0),
        ([0.2, 0.5, 0.7], math.nan, 1.0),
        ([0.2, 0.5, 0.7], math.inf, 1.0),
        ([0.2, 0.5, 0.7], -math.inf, 1.0),
        ([0.2, 0.5, 0.7], 1.0, math.nan),
        ([0.2, 0.5, 0.7], 1.0, math.inf),
        ([0.2, 0.5, 0.5, 0.7], 1.0, 1.0),  # a tie: nudged
        ([0.2, 0.5, 0.4, 0.7], 1.0, 1.0),  # a fall: nudged
        ([0.2, 0.5, math.nan], 1.0, 1.0),
        ([0.2, 0.5, 0.7], [1e308, 1e308, 1.0], 1.0),  # finite, sum inf
        ([0.2, 0.5], [1.0] * 3, 1.0),  # a mark row too many
        ([[0.2], [0.5], [0.7]], 1.0, 1.0),  # 2-d times
        ([], [], 1.0),
        ([], [], 0.0),
        ([], [], math.nan),
        ([], [], -1.0),
    ])
    def test_hand_over_raises_as_check(self, times, mark, horizon, route):
        # a path of at most _FEW events is checked on Python floats, a
        # longer one (after _FEW lead events) and a batch (its first event
        # a path of its own) by break_ties and _check; each gives
        # break_ties' nudge, or _check's own error and message, except
        # that a refused path with a non-finite mark is an overflowed draw
        times = np.array(times, dtype=float)
        if isinstance(mark, list):
            marks = np.array(mark).reshape(-1, 1)
        else:
            marks = np.ones((times.shape[0], 1))
            marks[1] = mark
        if route == "long" and times.size:
            lead = np.linspace(1e-3, 0.1, _FEW)
            times = np.concatenate([lead.reshape((-1,) + times.shape[1:]),
                                    times])
            marks = np.concatenate([np.ones((_FEW, 1)), marks])
        n = times.shape[0]
        offsets = np.array((0, min(n, 1), n) if route == "batch" else (0, n))
        assert (n <= _FEW) == (route != "long" or not n)
        want = times.copy()
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            want[lo:hi] = break_ties(want[lo:hi])
        try:
            _check(want, marks, horizon, offsets)
        except (ValueError, NonFiniteError) as exc:
            if isinstance(exc, ValueError) and not np.isfinite(marks).all():
                exc = NonFiniteError("drawn marks overflowed: the mark law "
                                     "sampled a value that is not finite")
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                hand_over(times, marks, horizon, offsets)
            return
        got = hand_over(times, marks, horizon, offsets)
        assert got.times.tobytes() == want.tobytes()
        assert got.marks is marks and not got.times.flags.writeable

    def test_hand_over_nudges_tied_paths_only(self):
        times = np.array([0.2, 0.5, 0.3, 0.3, 0.4, 0.1])
        b = hand_over(times, np.ones((6, 1)), 1.0, np.array([0, 2, 5, 6]))
        assert b.times[:2].tolist() == [0.2, 0.5]  # path 1 starts lower
        assert b.times[3] == np.nextafter(0.3, 1.0)
        assert b.times[[2, 4, 5]].tolist() == [0.3, 0.4, 0.1]
        assert not b.times.flags.writeable

    def test_hand_over_one_tied_path_as_break_ties(self):
        raw = [0.2, 0.3, 0.3, 0.3, 0.25, 0.9]
        b = hand_over(np.array(raw), np.ones((6, 1)), 1.0, np.array((0, 6)))
        assert b.times.tobytes() == break_ties(raw).tobytes()
        assert b.n_paths == 1 and not b.times.flags.writeable


def test_batch_routines_give_one_value_per_path(batch):
    # a scalar time on a batch: each path's value, the same bits as that
    # path alone, where the path alone gives a bare float
    cases = {
        "eval_shotnoise": lambda p: eval_shotnoise(PROC, p, 1.0),
        "sum_past_g": lambda p: sum_past_g(MARKET, 1.0, p),
        "sum_past_g_strict": lambda p: sum_past_g(MARKET, 1.0, p, strict=True),
        "market_price_of_risk": lambda p: market_price_of_risk(MARKET, MM, 1.0, p),
        "drift_residual": lambda p: drift_residual(MARKET, MM, 1.0, p),
    }
    for name, fn in cases.items():
        got = fn(batch)
        alone = [fn(batch.path(i)) for i in range(batch.n_paths)]
        assert all(type(v) is float for v in alone), name
        assert got.shape == (batch.n_paths,), name
        assert got.tobytes() == np.array(alone).tobytes(), name
    assert len(set(cases["eval_shotnoise"](batch).tolist())) > 1


def test_hawkes_batch_intensity_per_path():
    hawkes = simulate_hawkes_batch(HawkesParams(2.0, 0.5, 1.0), 2.0, 6, 4)
    got = hawkes.intensity(2.0)
    alone = [hawkes.path(i).intensity(2.0) for i in range(6)]
    assert got.shape == (6,)
    assert got.tobytes() == np.array(alone, dtype=float).tobytes()
    grid = np.linspace(0.0, 2.0, 5)
    assert hawkes.intensity(grid).shape == (6, 5)
    assert hawkes.path(2).intensity(grid).shape == (1, 5)
    first = hawkes.path(0)
    assert first.closed_form_intensities().tobytes() == \
        hawkes.closed_form_intensities()[:first.events.n_events].tobytes()


def test_one_path_routines_refuse_a_batch(batch):
    # each of these reads one path; a batch raises instead of reading
    # path 0 or merging the paths (conditional_cf_parts and
    # conditional_mean take a FiltrationState, which refuses a batch)
    grid = np.array([0.0, 0.5, 1.0])
    calls = {
        "FiltrationState": lambda p: FiltrationState(1.0, p),
        "FiltrationState.at": lambda p: FiltrationState.at(p, 0.5),
        "semimartingale_decompose":
            lambda p: semimartingale_decompose(PROC, p, grid),
        "density_process":
            lambda p: density_process(identity_kernel(), SPEC, p, grid),
        "mmm_ell": lambda p: mmm_ell(MARKET, 0.5, 1.0, p),
        "restrict": lambda p: p.restrict(0.5),
        "count": lambda p: p.count(0.5),
        "cumulative_marks": lambda p: p.cumulative_marks(0.5),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="reads one path"):
            call(batch)
        call(batch.path(0))  # one path of it is served
