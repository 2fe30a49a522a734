import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from snoise.errors import QuadratureFailureError
from snoise.quadrature import adaptive_simpson, cumulative_simpson, gauss_kronrod


def test_cubic_is_near_exact():
    # Simpson is exact for cubics; the one-sided endpoint inset perturbs the
    # sample points by ~1e-12 of the interval, nothing more
    val = adaptive_simpson(lambda x: x**3, 0.0, 2.0, 1e-10)
    assert val == pytest.approx(4.0, abs=1e-10)


def test_smooth_integrands():
    assert adaptive_simpson(math.exp, 0.0, 1.0, 1e-10) == pytest.approx(
        math.e - 1.0, abs=1e-10)
    assert adaptive_simpson(math.sin, 0.0, math.pi, 1e-10) == pytest.approx(
        2.0, abs=1e-10)


def test_empty_and_invalid_interval():
    assert adaptive_simpson(math.exp, 1.0, 1.0, 1e-8) == 0.0
    with pytest.raises(ValueError):
        adaptive_simpson(math.exp, 1.0, 0.0, 1e-8)


def test_complex_integrand_matches_parts():
    f = lambda x: np.exp(1j * 3.0 * x)
    val = adaptive_simpson(f, 0.0, 2.0, 1e-12, vectorized=True)
    closed = (np.exp(6j) - 1.0) / 3j
    assert abs(val - closed) < 1e-11
    assert isinstance(val, complex)


def test_real_integrand_returns_float():
    val = adaptive_simpson(lambda x: x * x, 0.0, 1.0, 1e-10)
    assert isinstance(val, float)


def test_vectorized_matches_scalar():
    f_s = lambda x: math.exp(-x) * math.cos(4 * x)
    f_v = lambda x: np.exp(-x) * np.cos(4 * x)
    a = adaptive_simpson(f_s, 0.0, 3.0, 1e-11)
    b = adaptive_simpson(f_v, 0.0, 3.0, 1e-11, vectorized=True)
    assert a == pytest.approx(b, abs=1e-13)


def test_kink_with_breakpoint():
    f = lambda x: abs(x - 0.3)
    closed = 0.5 * (0.3**2 + 0.7**2)
    val = adaptive_simpson(f, 0.0, 1.0, 1e-12, breakpoints=[0.3])
    assert val == pytest.approx(closed, abs=1e-12)


def test_jump_at_breakpoint_uses_one_sided_limits():
    # piecewise-constant integrand with the jump exactly at the breakpoint
    f = lambda x: np.where(x < 0.4, 1.0, 3.0)
    val = adaptive_simpson(f, 0.0, 1.0, 1e-10, vectorized=True,
                           breakpoints=[0.4])
    assert val == pytest.approx(0.4 + 3.0 * 0.6, abs=1e-9)


def test_interior_jump_without_breakpoint_fails():
    f = lambda x: np.where(x < 1 / math.pi, 0.0, 5.0)
    with pytest.raises(QuadratureFailureError):
        adaptive_simpson(f, 0.0, 1.0, 1e-10, vectorized=True)


def test_cumulative_matches_single_shots():
    pts = np.array([0.0, 0.3, 1.1, 2.0])
    cum = cumulative_simpson(np.exp, pts, 1e-11)
    for k, t in enumerate(pts):
        assert cum[k] == pytest.approx(math.exp(t) - 1.0, abs=1e-9)


def test_cumulative_handles_duplicate_points():
    pts = np.array([0.0, 1.0, 1.0, 2.0])
    cum = cumulative_simpson(lambda x: 2.0 * x, pts, 1e-11)
    assert np.allclose(cum, [0.0, 1.0, 1.0, 4.0], atol=1e-10)


def test_short_piece_far_from_zero_keeps_breakpoint_unsampled():
    # a relative inset of 1e-12 * 1e-4 rounds away next to 1.0; the inset of
    # at least one ulp still keeps the jump at the breakpoint unsampled
    f = lambda x: np.where(x < 1 + 5e-5, 1.0, 3.0)
    val = adaptive_simpson(f, 1.0, 1.0 + 1e-4, 1e-10, vectorized=True,
                           breakpoints=[1 + 5e-5])
    assert val == pytest.approx(2e-4, abs=1e-12)


def test_cumulative_with_breakpoints_matches_per_gap_loop():
    # kinks at 0.35 and 1.7, a duplicate point and a breakpoint on a point
    f = lambda x: np.abs(x - 0.35) + np.where(x < 1.7, 0.0, np.cos(3.0 * x))
    pts = np.array([0.0, 0.2, 0.9, 0.9, 1.7, 2.0])
    bks = [0.35, 1.7, 5.0]
    cum = cumulative_simpson(f, pts, 1e-11, vectorized=True, breakpoints=bks)
    running, expect = 0.0, [0.0]
    for a, b in zip(pts[:-1], pts[1:]):
        running += adaptive_simpson(f, a, b, 1e-11 * (b - a) / 2.0,
                                    vectorized=True, breakpoints=bks)
        expect.append(running)
    assert np.abs(cum - np.array(expect)).max() <= 1e-12


# Hostile inputs run in a child process under an address-space cap and a
# timeout, so an engine that refines them without bound fails the test
# instead of exhausting the machine's memory.
_HOSTILE = """
import math, resource, sys
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import numpy as np
from snoise.errors import SnoiseError
from snoise.marks import Exponential
from snoise.quadrature import adaptive_simpson, cumulative_simpson, gauss_kronrod
cases = {
    "nan_half": lambda: adaptive_simpson(
        lambda x: np.where(x < 0.5, np.nan, 1.0), 0.0, 1.0, 1e-8,
        vectorized=True),
    "tol_below_resolution": lambda: adaptive_simpson(
        lambda x: 1e6 * np.exp(x), 0.0, 1.0, 1e-20, vectorized=True),
    "nan_bound": lambda: adaptive_simpson(math.exp, math.nan, 1.0, 1e-8),
    "inf_bound": lambda: adaptive_simpson(np.exp, 0.0, math.inf, 1e-8,
                                          vectorized=True),
    "nan_point": lambda: cumulative_simpson(np.exp, np.array([0.0, math.nan]),
                                            1e-8, vectorized=True),
    # bounds one ulp apart, as break_ties leaves tied event times: the
    # piece has no interior, so nothing is sampled
    "ulp_piece": lambda: adaptive_simpson(
        lambda x: np.full(np.shape(x), np.nan), 1.0, math.nextafter(1.0, 2.0),
        1e-8, vectorized=True),
    # the Gauss-Kronrod mark rule through a density integral, and directly;
    # on 1e6 exp(x) K15 and G7 round to the same value, so that integrand
    # converges, and a rational one stands in for it
    "gk_nan_density": lambda: Exponential(1.0).integrate(
        lambda x: np.where(x[:, 0] < 0.5, np.nan, 1.0), tol=1e-8),
    "gk_tol_below_resolution": lambda: gauss_kronrod(
        lambda x: 1e6 / (1.0 + x * x), 0.0, 1.0, 1e-20),
}
try:
    print("OK", cases[sys.argv[1]]())
except SnoiseError as exc:
    print(exc.code, exc)
"""


@pytest.mark.parametrize("case, code, detail", [
    ("nan_half", "NonFinite", "open intervals at depth"),
    ("tol_below_resolution", "QuadratureFailure", "open intervals at depth"),
    ("nan_bound", "NonFinite", "bounds must be finite"),
    ("inf_bound", "NonFinite", "bounds must be finite"),
    ("nan_point", "NonFinite", "points must be finite"),
    ("ulp_piece", "OK", "0.0"),
    ("gk_nan_density", "NonFinite", "open intervals at depth"),
    ("gk_tol_below_resolution", "QuadratureFailure", "open intervals at depth"),
])
def test_hostile_input_fails_fast(case, code, detail):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _HOSTILE, case],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith(code + " "), proc.stdout
    assert detail in proc.stdout


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
