"""Adaptive quadrature shared across the toolkit: one piece loop, two rules.

Time integrals use adaptive Simpson (:func:`adaptive_simpson`,
:func:`cumulative_simpson`) on scalar or vectorized integrands.  Mark
integrals use adaptive Gauss-Kronrod 7-15 bisection (:func:`gauss_kronrod`,
the QUADPACK pair of Piessens et al. 1983) on vector-valued integrands: a
whole batch of outer time nodes is one call, and an interval is refined
while any component's |K15 - G7| exceeds its tolerance share.  Complex
integrands are handled natively; refinement decisions use the modulus of
the error estimate, so conjugate integrands refine identically and
Hermitian symmetry survives to rounding level.

Every integral is one piece loop: the range is cut at the bounds, known
kinks passed as ``breakpoints`` (event times, table knots) and, for
:func:`cumulative_simpson`, the output points; each piece gets a share of
the tolerance proportional to its length.  Simpson samples each piece at
least one ulp inside its ends and Kronrod nodes are interior, so
breakpoints see one-sided limits.  Non-finite bounds, and refinement past
``_MAX_DEPTH`` or ``_MAX_OPEN`` open intervals, fail fast
(``NonFiniteError`` if the unconverged values are NaN/inf).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .errors import NonFiniteError, QuadratureFailureError

DEFAULT_QUAD_TOL = 1e-8
_MAX_DEPTH = 30
_MAX_OPEN = 2**14  # legitimate integrals here peak at 1,512 open intervals

# Gauss-Kronrod 7-15 on [-1, 1] (QUADPACK qk15): the 15 Kronrod nodes, the
# Kronrod weights, and the Gauss weights, nonzero on the 7 Gauss nodes
_XK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245])
_WK_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649])
_WK_MID = 0.209482141084727828012999174891714
_WG_HALF = np.array([0.0, 0.129484966168869693270611432679082,
                     0.0, 0.279705391489276667901467771423780,
                     0.0, 0.381830050505118944950369775488975, 0.0])
_WG_MID = 0.417959183673469387755102040816327
_XK = np.concatenate([-_XK_HALF, [0.0], _XK_HALF[::-1]])
_WK = np.concatenate([_WK_HALF, [_WK_MID], _WK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF, [_WG_MID], _WG_HALF[::-1]])


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
    edges = _edges(a, b, breakpoints)
    if b == a:
        return 0.0
    total = sum(_pieces(_batched(f, vectorized), edges, tol, _integrate_piece))
    if total.imag == 0.0:
        return total.real
    return total


def gauss_kronrod(
    f: Callable,
    a: float,
    b: float,
    tol: float = DEFAULT_QUAD_TOL,
    *,
    breakpoints: Iterable[float] = (),
):
    """Integrate a vector-valued ``f`` over ``[a, b]`` by adaptive GK 7-15.

    ``f`` maps a 1-d array of ``n`` nodes to values shaped ``(..., n)``;
    the result has shape ``(...)`` (a scalar for ``(n,)`` values) and every
    component meets the absolute tolerance ``tol``.  The result is real when
    every value is.  Raises as :func:`adaptive_simpson` does.
    """
    edges = _edges(a, b, breakpoints)
    if b == a:
        return np.zeros(np.shape(f(np.empty(0)))[:-1])[()]
    total = sum(_pieces(f, edges, tol, _gk_piece))
    if np.iscomplexobj(total) and not np.any(total.imag):
        total = total.real
    return total[()]


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
    pieces = _pieces(_batched(f, vectorized), edges.tolist(), tol,
                     _integrate_piece)
    cum = np.concatenate([[0.0], np.cumsum(pieces)])
    out = cum[np.searchsorted(edges, points)]
    if np.all(out.imag == 0.0):
        return out.real
    return out


def _edges(a, b, breakpoints):
    """``[a, *interior breakpoints, b]`` for finite bounds ``a <= b``."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteError(f"integration bounds must be finite: [{a}, {b}]")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    return [a, *sorted({p for p in breakpoints if a < p < b}), b]


def _batched(f, vectorized):
    """``f`` as a map from an ndarray of nodes to complex values."""
    if vectorized:
        return lambda xs: np.asarray(f(xs), dtype=np.complex128)
    return lambda xs: np.array([f(float(x)) for x in xs], dtype=np.complex128)


def _pieces(fv, edges, tol, rule):
    """``rule`` over each gap of increasing ``edges``, tol shared by length."""
    span = edges[-1] - edges[0]
    return [rule(fv, lo, hi, tol * (hi - lo) / span)
            for lo, hi in zip(edges[:-1], edges[1:])]


def _unconverged(rule, a, b, values, n_open, depth):
    """The error for a piece that reached the depth or frontier cap."""
    count = f"{n_open} open intervals at depth {depth}"
    if not np.isfinite(values).all():
        return NonFiniteError(
            f"integrand is not finite on [{a!r}, {b!r}] ({count})")
    return QuadratureFailureError(
        f"{rule} did not converge on [{a!r}, {b!r}]: {count}")


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

    raise _unconverged("adaptive Simpson", a, b,
                       np.concatenate([fl, fm, fr]), lo.size, depth)


def _gk_piece(f, a, b, tol):
    # bisect every interval where some component has |K15 - G7| above its
    # share of tol, and accept K15 on the rest; a component's values sit
    # on axes (..., interval, node)
    lo = np.array([a])
    h = np.array([b - a])
    tols = np.array([max(tol, 1e-300)])
    acc = 0.0
    for depth in range(_MAX_DEPTH + 1):
        if lo.size == 0:
            return acc
        if lo.size > _MAX_OPEN:
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
        vals = vals[..., keep, :]
        k_lo, k_half = lo[keep], half[keep]
        lo = np.concatenate([k_lo, k_lo + k_half])
        h = np.concatenate([k_half, k_half])
        half_tol = 0.5 * tols[keep]
        tols = np.concatenate([half_tol, half_tol])
    raise _unconverged("adaptive Gauss-Kronrod", a, b, vals, lo.size, depth)
