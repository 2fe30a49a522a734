import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from snoise.errors import (LevelTooWideError, NonFiniteError, ParameterError,
                           QuadratureFailureError)
from snoise import quadrature
from snoise.marks import Exponential, Normal
from snoise.quadrature import (
    _WG,
    _WK,
    _XK,
    _pieces,
    cumulative_integral,
    gauss_kronrod,
)


def test_cubic_is_near_exact():
    # K15 is exact for polynomials up to degree 29, so only rounding is left
    val = gauss_kronrod(lambda x: x**3, 0.0, 2.0, 1e-10)
    assert val == pytest.approx(4.0, abs=1e-10)


def test_smooth_integrands():
    assert gauss_kronrod(np.exp, 0.0, 1.0, 1e-10) == pytest.approx(
        math.e - 1.0, abs=1e-10)
    assert gauss_kronrod(np.sin, 0.0, math.pi, 1e-10) == pytest.approx(
        2.0, abs=1e-10)


def test_empty_and_invalid_interval():
    assert gauss_kronrod(np.exp, 1.0, 1.0, 1e-8) == 0.0
    with pytest.raises(ValueError):
        gauss_kronrod(np.exp, 1.0, 0.0, 1e-8)


def test_complex_integrand_matches_parts():
    f = lambda x: np.exp(1j * 3.0 * x)
    val = gauss_kronrod(f, 0.0, 2.0, 1e-12)
    closed = (np.exp(6j) - 1.0) / 3j
    assert abs(val - closed) < 1e-11
    assert isinstance(val, complex)


def test_real_integrand_returns_float():
    val = gauss_kronrod(lambda x: x * x, 0.0, 1.0, 1e-10)
    assert isinstance(val, float)


def test_vectorized_matches_scalar():
    # the vectorized engine against scipy's QUADPACK on the scalar integrand
    f_s = lambda x: math.exp(-x) * math.cos(4 * x)
    f_v = lambda x: np.exp(-x) * np.cos(4 * x)
    a = scipy.integrate.quad(f_s, 0.0, 3.0, epsabs=1e-13, epsrel=0.0)[0]
    b = gauss_kronrod(f_v, 0.0, 3.0, 1e-11)
    assert a == pytest.approx(b, abs=1e-11)


def test_kink_with_breakpoint():
    f = lambda x: np.abs(x - 0.3)
    closed = 0.5 * (0.3**2 + 0.7**2)
    val = gauss_kronrod(f, 0.0, 1.0, 1e-12, breakpoints=[0.3])
    assert val == pytest.approx(closed, abs=1e-12)


def test_jump_at_breakpoint_uses_one_sided_limits():
    # piecewise-constant integrand with the jump exactly at the breakpoint
    f = lambda x: np.where(x < 0.4, 1.0, 3.0)
    val = gauss_kronrod(f, 0.0, 1.0, 1e-10, breakpoints=[0.4])
    assert val == pytest.approx(0.4 + 3.0 * 0.6, abs=1e-9)


def test_interior_jump_without_breakpoint_fails():
    f = lambda x: np.where(x < 1 / math.pi, 0.0, 5.0)
    with pytest.raises(QuadratureFailureError):
        gauss_kronrod(f, 0.0, 1.0, 1e-10)


def test_cumulative_matches_single_shots():
    pts = np.array([0.0, 0.3, 1.1, 2.0])
    cum = cumulative_integral(np.exp, pts, 1e-11)
    for k, t in enumerate(pts):
        assert cum[k] == pytest.approx(math.exp(t) - 1.0, abs=1e-9)


def test_cumulative_handles_duplicate_points():
    pts = np.array([0.0, 1.0, 1.0, 2.0])
    cum = cumulative_integral(lambda x: 2.0 * x, pts, 1e-11)
    assert np.allclose(cum, [0.0, 1.0, 1.0, 4.0], atol=1e-10)


@pytest.mark.parametrize("points, error, match", [
    pytest.param([], ValueError, "non-empty 1-d", id="empty"),
    pytest.param([[0.0, 1.0]], ValueError, "non-empty 1-d", id="2-d"),
    pytest.param([0.0, math.nan], NonFiniteError, "finite", id="nan"),
    pytest.param([0.0, 2.0, 1.0], ValueError, "non-decreasing",
                 id="decreasing"),
])
def test_cumulative_refuses_bad_points(points, error, match):
    with pytest.raises(error, match=match):
        cumulative_integral(_never_called, points, 1e-8)


def _never_called(x):
    raise AssertionError("the integrand was called")


@pytest.mark.parametrize("tol,error", [
    (0.0, ParameterError), (-1e-8, ParameterError),
    (math.nan, NonFiniteError), (math.inf, NonFiniteError),
    (-math.inf, NonFiniteError)], ids=["zero", "negative", "nan", "inf", "-inf"])
@pytest.mark.parametrize("integrate", [
    lambda tol: gauss_kronrod(np.sin, 0.0, 3.0, tol),
    lambda tol: gauss_kronrod(np.sin, 1.0, 1.0, tol),
    lambda tol: cumulative_integral(np.sin, [0.0, 1.0, 3.0], tol),
    lambda tol: Exponential(1.0).integrate(_never_called, tol=tol),
    lambda tol: Normal(0.3, 1.2).integrate(_never_called, tol=tol),
], ids=["gauss_kronrod", "empty-range", "cumulative_integral",
        "exponential-marks", "normal-marks"])
def test_bad_tolerance_is_refused_before_f_is_called(integrate, tol, error):
    # tol = 0 or NaN used to refine up to the frontier cap; a truncated mark
    # support's edge guard, which compares the integrand with 1e3 * tol,
    # used to call such a tol a non-negligible edge
    t0 = time.perf_counter()
    with pytest.raises(error, match="tol"):
        integrate(tol)
    assert time.perf_counter() - t0 < 1.0


def test_cumulative_integral_takes_vector_valued_f():
    # components cumulate along the pieces, each to tol, with the points on
    # the last axis: equal to per-component calls within tol
    fns = [np.exp, lambda x: np.abs(x - 0.35), lambda x: np.exp(2.5j * x)]
    pts = np.array([0.0, 0.2, 0.9, 0.9, 1.7, 2.0])
    tol = 1e-10
    got = cumulative_integral(lambda x: np.stack([f(x) for f in fns]), pts,
                              tol, breakpoints=[0.35])
    assert got.shape == (3, pts.size)
    for f, row in zip(fns, got):
        one = cumulative_integral(f, pts, tol, breakpoints=[0.35])
        assert np.abs(row - one).max() <= tol
    # two component axes, and a real result for real values
    grid = cumulative_integral(
        lambda x: np.stack([[x, 2 * x], [x * x, np.ones_like(x)]]),
        [0.0, 1.0, 2.0], tol)
    assert not np.iscomplexobj(grid) and grid.shape == (2, 2, 3)
    assert np.abs(grid - [[[0, 0.5, 2], [0, 1, 4]],
                          [[0, 1 / 3, 8 / 3], [0, 1, 2]]]).max() <= tol


def test_short_piece_far_from_zero_keeps_breakpoint_unsampled():
    # the outermost Kronrod node sits 0.4 % of a piece inside its ends, so
    # even a short piece next to 1.0 leaves the jump at the breakpoint
    # unsampled
    f = lambda x: np.where(x < 1 + 5e-5, 1.0, 3.0)
    val = gauss_kronrod(f, 1.0, 1.0 + 1e-4, 1e-10, breakpoints=[1 + 5e-5])
    assert val == pytest.approx(2e-4, abs=1e-12)


def test_cumulative_with_breakpoints_matches_per_gap_loop():
    # kinks at 0.35 and 1.7, a duplicate point and a breakpoint on a point
    f = lambda x: np.abs(x - 0.35) + np.where(x < 1.7, 0.0, np.cos(3.0 * x))
    pts = np.array([0.0, 0.2, 0.9, 0.9, 1.7, 2.0])
    bks = [0.35, 1.7, 5.0]
    cum = cumulative_integral(f, pts, 1e-11, breakpoints=bks)
    running, expect = 0.0, [0.0]
    for a, b in zip(pts[:-1], pts[1:]):
        # the duplicate point's empty gap adds 0 (its tol share, 0, is refused)
        if b > a:
            running += gauss_kronrod(f, a, b, 1e-11 * (b - a) / 2.0,
                                     breakpoints=bks)
        expect.append(running)
    assert np.abs(cum - np.array(expect)).max() <= 1e-12


# Hostile inputs run in a child process under an address-space cap and a
# timeout, so an engine that refines them without bound fails the test
# instead of exhausting the machine's memory.  The child prints the case's
# outcome, then the case's time and its own peak RSS: VmHWM, since
# ru_maxrss starts from the peak of the process that forked it.
_HOSTILE = """
import contextlib, io, math, os, resource, sys, tempfile, time
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import numpy as np
from snoise.cli import main
from snoise.errors import SnoiseError
from snoise.kernels import NoiseKernel, exponential
from snoise.marks import Exponential
from snoise.point_process import empty_path, standard
from snoise.quadrature import cumulative_integral, gauss_kronrod
from snoise.shotnoise import FiltrationState, ShotNoiseProcess, conditional_cf

def cf(kernel, rate, n_theta, quad_tol):
    proc = ShotNoiseProcess(kernel, standard(rate, Exponential(1.0)))
    state = FiltrationState(0.0, empty_path(0.0))
    return conditional_cf(proc, state, 1.0, np.linspace(-5.0, 5.0, n_theta),
                          quad_tol=quad_tol)

def nan_past_half(t, x):
    t = np.asarray(t, dtype=float)
    return np.where(t > 0.5, np.nan, np.asarray(x, dtype=float)[..., 0])

# a quad_tol the parser accepts but rounding cannot meet: on a theta grid
# the mark integrals of each outer level refine every theta towards it
CONFIG = \"\"\"
[run]
scenario = cf-compare
horizon = 1.0
n_paths = 100
seed = 1
quad_tol = 1e-14
theta_grid = -5:5:21
[kernel]
kind = exponential
a = 1.0
b = 0.8
[compensator]
rate = 1.5
marks = exponential
mark_mean = 1.0
\"\"\"

def cli():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cf.ini")
        with open(path, "w") as fh:
            fh.write(CONFIG)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["cf-compare", "--config", path, "--out", tmp])
    raise SystemExit(f"{code} {err.getvalue().strip()}")

cases = {
    "nan_half": lambda: gauss_kronrod(
        lambda x: np.where(x < 0.5, np.nan, 1.0), 0.0, 1.0, 1e-8),
    "nan_bound": lambda: gauss_kronrod(np.exp, math.nan, 1.0, 1e-8),
    "inf_bound": lambda: gauss_kronrod(np.exp, 0.0, math.inf, 1e-8),
    "nan_point": lambda: cumulative_integral(
        np.exp, np.array([0.0, math.nan]), 1e-8),
    # bounds one ulp apart, as break_ties leaves tied event times: the
    # piece has no interior, so nothing is sampled
    "ulp_piece": lambda: gauss_kronrod(
        lambda x: np.full(np.shape(x), np.nan), 1.0, math.nextafter(1.0, 2.0),
        1e-8),
    # a mark integral through a density, and a tolerance no estimate can
    # meet: on 1e6 exp(x) K15 and G7 round to the same value, so that
    # integrand converges, and a rational one stands in for it
    "gk_nan_density": lambda: Exponential(1.0).integrate(
        lambda x: np.where(x[:, 0] < 0.5, np.nan, 1.0), tol=1e-8),
    "gk_tol_below_resolution": lambda: gauss_kronrod(
        lambda x: 1e6 / (1.0 + x * x), 0.0, 1.0, 1e-20),
    # 1000 pieces refine together, so refining NaN would double all of them
    "many_pieces_nan": lambda: gauss_kronrod(
        lambda x: np.full(np.shape(x), np.nan), 0.0, 1.0, 1e-8,
        breakpoints=np.linspace(0.0, 1.0, 1001)[1:-1]),
    # the exact CF on a theta grid: each outer node holds a mark integral
    # of every theta, so refinement grows by components as well
    "cf_nan_kernel_21": lambda: cf(
        NoiseKernel("custom", nan_past_half, nan_past_half, 1), 1.0, 21, 1e-8),
    "cf_tol_21": lambda: cf(exponential(1.0, 0.8), 1.5, 21, 1e-14),
    "cf_tol_64": lambda: cf(exponential(1.0, 0.8), 1.5, 64, 1e-14),
    "cli_cf_compare_tol": cli,
}
start = time.perf_counter()
try:
    print("OK", cases[sys.argv[1]]())
except SnoiseError as exc:
    print(exc.code, exc)
except SystemExit as exc:
    print("exit", exc.code)
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(time.perf_counter() - start, int(hwm) / 1024.0)
"""


@pytest.mark.parametrize("case, code, detail", [
    ("nan_half", "NonFinite", "at depth 0"),
    ("nan_bound", "NonFinite", "bounds must be finite"),
    ("inf_bound", "NonFinite", "bounds must be finite"),
    ("nan_point", "NonFinite", "points must be finite"),
    ("ulp_piece", "OK", "0.0"),
    ("gk_nan_density", "NonFinite", "at depth 0"),
    ("gk_tol_below_resolution", "QuadratureFailure", "open intervals at depth"),
    ("many_pieces_nan", "NonFinite", "at depth 0"),
    ("cf_nan_kernel_21", "NonFinite", "at depth 0"),
    ("cf_tol_21", "QuadratureFailure", "open intervals at depth"),
    ("cf_tol_64", "QuadratureFailure", "open intervals at depth"),
    ("cli_cf_compare_tol", "exit", "3 QuadratureFailure: adaptive"),
])
def test_hostile_input_fails_fast(case, code, detail):
    # each case ends in its own error within 2 s and 256 MB; while NaN was
    # refined up to interval caps that did not count values, the cf and CLI
    # cases ran 1.9-2.4 s into numpy's MemoryError at 0.8 GB under this cap,
    # and many_pieces_nan took 272 MB
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _HOSTILE, case],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    outcome, usage = proc.stdout.splitlines()
    assert outcome.startswith(code + " "), outcome
    assert detail in outcome
    seconds, peak_mb = map(float, usage.split())
    assert seconds < 2.0 and peak_mb < 256.0, (seconds, peak_mb)


def test_gauss_kronrod_vector_valued_matches_components():
    fns = [np.exp, lambda x: np.cos(4.0 * x), lambda x: x ** 7]
    got = gauss_kronrod(lambda x: np.stack([f(x) for f in fns]), 0.0, 2.0,
                        1e-12)
    assert got.shape == (3,)
    closed = [math.exp(2.0) - 1.0, math.sin(8.0) / 4.0, 2.0 ** 8 / 8.0]
    assert np.abs(got - closed).max() <= 1e-12
    for f, val in zip(fns, got):
        assert gauss_kronrod(f, 0.0, 2.0, 1e-12) == pytest.approx(val, abs=1e-12)


def test_gauss_kronrod_complex_and_real_results():
    val = gauss_kronrod(lambda x: np.exp(3j * x), 0.0, 2.0, 1e-12)
    assert abs(val - (np.exp(6j) - 1.0) / 3j) < 1e-11
    assert np.iscomplexobj(val)
    assert not np.iscomplexobj(gauss_kronrod(lambda x: x + 0j, 0.0, 1.0))
    assert gauss_kronrod(np.exp, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        gauss_kronrod(np.exp, 1.0, 0.0)


def test_gauss_kronrod_conjugate_integrands_are_conjugate():
    # refinement reads |K15 - G7|, the same for f and conj(f)
    f = lambda x: np.exp(2.7j * x * x - x)
    plus = gauss_kronrod(f, 0.0, 5.0, 1e-11)
    minus = gauss_kronrod(lambda x: np.conj(f(x)), 0.0, 5.0, 1e-11)
    assert minus == np.conj(plus)


def test_gauss_kronrod_breakpoint_kink_and_jump():
    kink = gauss_kronrod(lambda x: np.abs(x - 0.3), 0.0, 1.0, 1e-13,
                         breakpoints=[0.3])
    assert kink == pytest.approx(0.5 * (0.3**2 + 0.7**2), abs=1e-13)
    jump = gauss_kronrod(lambda x: np.where(x < 0.4, 1.0, 3.0), 0.0, 1.0,
                         1e-12, breakpoints=[0.4])
    assert jump == pytest.approx(0.4 + 3.0 * 0.6, abs=1e-12)
    with pytest.raises(QuadratureFailureError):
        gauss_kronrod(lambda x: np.where(x < 1 / math.pi, 0.0, 5.0),
                      0.0, 1.0, 1e-10)


# The per-piece loop the refinement frontier replaced, kept as the
# reference: each gap of the edges refines alone, to its tolerance share.

def reference_pieces(f, edges, tol):
    span = edges[-1] - edges[0]
    return [reference_gk_piece(f, lo, hi, tol * (hi - lo) / span)
            for lo, hi in zip(edges[:-1], edges[1:])]


def reference_gk_piece(f, a, b, tol):
    if math.nextafter(a, math.inf) >= math.nextafter(b, -math.inf):
        return 0.0  # a piece at most two ulps wide
    lo, h = np.array([a]), np.array([b - a])
    tols = np.array([max(tol, 1e-300)])
    acc = 0.0
    for depth in range(31):
        if lo.size == 0:
            return acc
        if lo.size > 2**14:
            break
        half = 0.5 * h
        nodes = (lo + half)[:, None] + half[:, None] * _XK
        vals = np.asarray(f(nodes.ravel()))
        vals = vals.reshape(vals.shape[:-1] + nodes.shape)
        k15 = (vals @ _WK) * half
        err = np.abs(k15 - (vals @ _WG) * half)
        done = (err <= tols).reshape(-1, lo.size).all(axis=0)
        acc = acc + k15[..., done].sum(axis=-1)
        keep = ~done
        k_lo, k_half = lo[keep], half[keep]
        lo, h = np.concatenate([k_lo, k_lo + k_half]), np.concatenate([k_half, k_half])
        tols = np.concatenate([0.5 * tols[keep], 0.5 * tols[keep]])
    raise QuadratureFailureError(f"reference Gauss-Kronrod failed on [{a!r}, {b!r}]")


class CountingIntegrand:
    """``fn`` that counts the nodes it is evaluated at."""

    def __init__(self, fn):
        self.fn, self.points = fn, 0

    def __call__(self, xs):
        self.points += xs.size
        return self.fn(xs)


@st.composite
def frontier_edges(draw):
    """Increasing edges near an offset, with gaps of one ulp, two ulps and
    lengths from 1e-9 to 1, and an integrand that is smooth on each gap:
    a kink or a jump sits on an interior edge, or none is drawn."""
    x = draw(st.sampled_from([0.0, 1.0, -3.5, 100.0]))
    edges = [x]
    for gap in draw(st.lists(st.one_of(st.sampled_from(["ulp", "2ulp"]),
                                       st.floats(1e-9, 1.0)),
                             min_size=1, max_size=12)):
        if gap == "ulp":
            x = math.nextafter(x, math.inf)
        elif gap == "2ulp":
            x = math.nextafter(math.nextafter(x, math.inf), math.inf)
        else:
            x = x + gap
        if x > edges[-1]:
            edges.append(x)
    c = edges[draw(st.integers(0, len(edges) - 1))]
    w = draw(st.floats(0.5, 6.0))
    fn = draw(st.sampled_from([
        lambda xs: np.abs(xs - c) * np.exp(-0.1 * xs),
        lambda xs: np.where(xs < c, 1.0, 3.0) + np.sin(w * xs),
        lambda xs: np.exp(1j * w * xs) * np.where(xs < c, 1.0, -2.0 + 0.5j),
    ]))
    return edges, fn


@settings(max_examples=150, deadline=None)
@given(case=frontier_edges(), tol=st.sampled_from([1e-6, 1e-10]))
def test_frontier_matches_per_piece_loop(case, tol):
    # every piece refines the same intervals as alone, so the node count
    # agrees exactly and each value differs by summation order only
    edges, fn = case
    span = edges[-1] - edges[0]
    shares = [tol * (b - a) / span for a, b in zip(edges[:-1], edges[1:])]
    for vec in (False, True):
        f = (lambda xs: np.stack([fn(xs), 2.0 * fn(xs) + xs])) if vec else fn
        got_f, ref_f = CountingIntegrand(f), CountingIntegrand(f)
        got = _pieces(got_f, edges, tol)
        ref = reference_pieces(ref_f, edges, tol)
        assert got_f.points == ref_f.points
        assert len(got) == len(ref) == len(shares)
        for g, r, share in zip(got, ref, shares):
            assert np.all(np.abs(g - r) <= share)

    # the public entry points over the same edges, breakpoints included
    bks = edges[1:-1]
    ref = np.cumsum(reference_pieces(fn, edges, tol))
    cum = cumulative_integral(fn, np.array([edges[0], edges[-1]]), tol,
                              breakpoints=bks)
    assert abs(cum[-1] - ref[-1]) <= tol
    gk = gauss_kronrod(fn, edges[0], edges[-1], tol, breakpoints=bks)
    assert abs(gk - ref[-1]) <= tol


def test_convergence_at_the_last_level_is_accepted(monkeypatch):
    # the last open interval of this integrand is accepted at depth 13; with
    # _MAX_DEPTH lowered to 13 that level still runs and converges, which
    # the per-piece loop reported as a failure with "0 open intervals"
    f = lambda t: 300.0 * (50.0 / (1.0 + 50.0 * t) ** 2) ** 2
    closed = 5000.0 * (1.0 - 501.0 ** -3)
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 13)
    assert gauss_kronrod(f, 0.0, 10.0, 1e-10) == pytest.approx(closed, abs=1e-10)
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 12)
    with pytest.raises(QuadratureFailureError, match="at depth 12"):
        gauss_kronrod(f, 0.0, 10.0, 1e-10)


def test_failing_piece_is_named_as_by_per_piece_loop():
    # NaN on the middle piece only: the frontier names that piece, as the
    # per-piece loop would, at the first level, which holds the NaN
    f = CountingIntegrand(
        lambda xs: np.where((xs > 1.0) & (xs < 2.0), np.nan, xs))
    with pytest.raises(NonFiniteError) as exc:
        gauss_kronrod(f, 0.0, 3.0, 1e-8, breakpoints=[1.0, 2.0])
    assert "not finite on [1.0, 2.0] at depth 0" in str(exc.value)
    assert f.points == 3 * 15


def test_value_guard_says_it_refused_a_level(monkeypatch):
    # a QuadratureFailureError with its code, naming the values the level
    # would hold, so a caller can tell a memory guard from divergence
    monkeypatch.setattr(quadrature, "_MAX_VALUES", 600)
    with pytest.raises(LevelTooWideError) as err:
        gauss_kronrod(lambda t: np.stack([np.cos(80.0 * t)] * 2), 0.0, 1.0,
                      1e-12)
    assert err.value.code == "QuadratureFailure"
    assert str(err.value) == (
        "adaptive Gauss-Kronrod level would hold 960 integrand values, over "
        "_MAX_VALUES = 600: widest on [0.0, 1.0], 32 open intervals at depth 5")


def test_value_guard_counts_components(monkeypatch):
    # a level is refused past _MAX_VALUES values, intervals x 15 nodes x
    # components: this integrand's deepest level opens 32 intervals, 480
    # values for one component and 960 for two; the first level always runs
    f = lambda t: np.cos(80.0 * t)
    monkeypatch.setattr(quadrature, "_MAX_VALUES", 600)
    assert gauss_kronrod(f, 0.0, 1.0, 1e-12) == pytest.approx(
        math.sin(80.0) / 80.0, abs=1e-12)
    with pytest.raises(QuadratureFailureError,
                       match="32 open intervals at depth 5"):
        gauss_kronrod(lambda t: np.stack([f(t), 2.0 * f(t)]), 0.0, 1.0, 1e-12)
    monkeypatch.setattr(quadrature, "_MAX_VALUES", 1)
    assert gauss_kronrod(lambda t: t**3, 0.0, 2.0, 1e-12, breakpoints=[0.5, 1.0]
                         ) == pytest.approx(4.0, abs=1e-12)
