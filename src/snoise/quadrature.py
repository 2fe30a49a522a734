"""Adaptive Simpson quadrature shared across the toolkit.

A single engine serves both scalar integrands (outer time integrals, where
every evaluation may itself be an inner quadrature) and vectorized integrands
(mark-density integrals, evaluated on whole batches of nodes at once).
Complex integrands are handled natively; refinement decisions use the modulus
of the Richardson error estimate, so conjugate integrands refine identically
and Hermitian symmetry survives to rounding level.

Every integral is one piece loop: the range is cut at the bounds, known
kinks passed as ``breakpoints`` (event times, table knots) and, for
:func:`cumulative_simpson`, the output points; each piece gets a share of
the tolerance proportional to its length and is sampled at least one ulp
inside its ends, so breakpoints see one-sided limits.  Non-finite bounds,
and refinement past ``_MAX_DEPTH`` or ``_MAX_OPEN`` open intervals, fail
fast (``NonFiniteError`` if the unconverged values are NaN/inf).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .errors import NonFiniteError, QuadratureFailureError

DEFAULT_QUAD_TOL = 1e-8
_MAX_DEPTH = 30
_MAX_OPEN = 2**14  # legitimate integrals here peak at 1,512 open intervals


def adaptive_simpson(
    f: Callable,
    a: float,
    b: float,
    tol: float = DEFAULT_QUAD_TOL,
    *,
    vectorized: bool = False,
    breakpoints: Iterable[float] = (),
):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    ``f`` maps a float to a float/complex value, or, with
    ``vectorized=True``, an ndarray of nodes to an ndarray of values.
    Returns a float when every evaluation is real, else a complex number.

    Raises
    ------
    NonFiniteError
        if a bound is not finite, or refinement fails on NaN/inf values.
    QuadratureFailureError
        if some piece fails to converge within the depth or frontier cap.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteError(f"integration bounds must be finite: [{a}, {b}]")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0
    edges = [a, *sorted({p for p in breakpoints if a < p < b}), b]
    total = sum(_pieces(_batched(f, vectorized), edges, tol))
    if total.imag == 0.0:
        return total.real
    return total


def cumulative_simpson(
    f: Callable,
    points: np.ndarray,
    tol: float = DEFAULT_QUAD_TOL,
    *,
    vectorized: bool = False,
    breakpoints: Iterable[float] = (),
) -> np.ndarray:
    """Cumulative integral of ``f`` from ``points[0]`` to each point.

    Integrates each piece between consecutive distinct points and interior
    breakpoints once and accumulates, so every partial sum meets ``tol``
    and the result at ``points[k]`` is consistent with
    :func:`adaptive_simpson` over ``[points[0], points[k]]``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 1 or points.size < 1:
        raise ValueError("points must be a non-empty 1-d array")
    if not np.isfinite(points).all():
        raise NonFiniteError("integration points must be finite")
    if np.any(np.diff(points) < 0):
        raise ValueError("points must be non-decreasing")
    bks = np.asarray(list(breakpoints), dtype=float)
    inner = bks[(bks > points[0]) & (bks < points[-1])]
    edges = np.unique(np.concatenate([points, inner]))
    pieces = _pieces(_batched(f, vectorized), edges.tolist(), tol)
    cum = np.concatenate([[0.0], np.cumsum(pieces)])
    out = cum[np.searchsorted(edges, points)]
    if np.all(out.imag == 0.0):
        return out.real
    return out


def _batched(f, vectorized):
    """``f`` as a map from an ndarray of nodes to complex values."""
    if vectorized:
        return lambda xs: np.asarray(f(xs), dtype=np.complex128)
    return lambda xs: np.array([f(float(x)) for x in xs], dtype=np.complex128)


def _pieces(fv, edges, tol):
    """Integral over each gap of increasing ``edges``, tol shared by length."""
    span = edges[-1] - edges[0]
    return [_integrate_piece(fv, lo, hi, tol * (hi - lo) / span)
            for lo, hi in zip(edges[:-1], edges[1:])]


def _integrate_piece(fv, a, b, tol):
    # integrate over [a + delta, b - delta]: the inset keeps evaluations off
    # the piece endpoints, so one-sided limits are used at breakpoints, and
    # the dropped slivers contribute O(1e-12 (b-a) |f|), far below tolerance;
    # on short pieces far from 0 the relative inset rounds away, so it is
    # at least one ulp
    delta = 1e-12 * (b - a)
    a = max(a + delta, math.nextafter(a, math.inf))
    b = min(b - delta, math.nextafter(b, -math.inf))
    if b <= a:  # a piece at most two ulps wide
        return 0.0j
    mid = 0.5 * (a + b)
    f0 = fv(np.array([a, mid, b]))
    lo = np.array([a])
    h = np.array([b - a])
    fl = f0[:1]
    fm = f0[1:2]
    fr = f0[2:]
    s = h / 6.0 * (fl + 4.0 * fm + fr)
    tols = np.array([max(tol, 1e-300)])

    acc = 0.0 + 0.0j
    for depth in range(_MAX_DEPTH + 1):
        if lo.size == 0:
            return acc
        if lo.size > _MAX_OPEN:
            break
        lm = lo + 0.25 * h
        rm = lo + 0.75 * h
        vals = fv(np.concatenate([lm, rm]))
        flm = vals[: lo.size]
        frm = vals[lo.size :]
        h2 = 0.5 * h
        s_left = h2 / 6.0 * (fl + 4.0 * flm + fm)
        s_right = h2 / 6.0 * (fm + 4.0 * frm + fr)
        s2 = s_left + s_right
        err = s2 - s
        done = np.abs(err) <= 15.0 * tols
        acc += np.sum(s2[done] + err[done] / 15.0)

        keep = ~done
        k_lo, k_h = lo[keep], h2[keep]
        lo = np.concatenate([k_lo, k_lo + k_h])
        h = np.concatenate([k_h, k_h])
        fl = np.concatenate([fl[keep], fm[keep]])
        fr = np.concatenate([fm[keep], fr[keep]])
        new_fm = np.concatenate([flm[keep], frm[keep]])
        s = np.concatenate([s_left[keep], s_right[keep]])
        fm = new_fm
        half_tol = 0.5 * tols[keep]
        tols = np.concatenate([half_tol, half_tol])

    if not np.isfinite(np.concatenate([fl, fm, fr])).all():
        raise NonFiniteError(
            f"integrand is not finite on [{a!r}, {b!r}] "
            f"({lo.size} open intervals at depth {depth})"
        )
    raise QuadratureFailureError(
        f"adaptive Simpson did not converge on [{a!r}, {b!r}]: "
        f"{lo.size} open intervals at depth {depth}"
    )
