"""Adaptive quadrature shared across the toolkit: one refinement frontier, two rules.

Time integrals use adaptive Simpson (:func:`adaptive_simpson`,
:func:`cumulative_simpson`).  Mark integrals use adaptive Gauss-Kronrod 7-15
bisection (:func:`gauss_kronrod`, the QUADPACK pair of Piessens et al. 1983)
on vector-valued integrands: a whole batch of outer time nodes is one call,
and an interval is refined while any component's |K15 - G7| exceeds its
tolerance share.  Integrands map an ndarray of nodes to an ndarray of
values, complex ones natively; refinement reads the modulus of the error
estimate, so conjugate integrands refine identically and Hermitian symmetry
survives to rounding level.

The range is cut into pieces at the bounds, known kinks passed as
``breakpoints`` (event times, table knots) and, for
:func:`cumulative_simpson`, the output points; each piece gets a share of
the tolerance proportional to its length, and all pieces refine in one
frontier.  Simpson samples each piece at least one ulp inside its ends and
Kronrod nodes are interior, so breakpoints see one-sided limits.
Non-finite bounds, and refinement of a piece past ``_MAX_DEPTH`` or
``_MAX_OPEN`` open intervals, fail fast (``NonFiniteError`` if its
unconverged values are NaN/inf).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .errors import NonFiniteError, QuadratureFailureError

DEFAULT_QUAD_TOL = 1e-8
_MAX_DEPTH = 30
_MAX_OPEN = 2**14  # legitimate integrals here peak at 1,512 open intervals
# open intervals of all pieces together: a memory guard far above legitimate
# frontiers (a 3000-event decomposition opens 3,030 intervals)
_MAX_FRONTIER = 2**19

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
    breakpoints: Iterable[float] = (),
):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    ``f`` maps an ndarray of nodes to an ndarray of float/complex values.
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
    total = sum(_pieces(f, edges, tol, _SIMPSON))
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
    total = sum(_pieces(f, edges, tol, _GAUSS_KRONROD))
    if np.iscomplexobj(total) and not np.any(total.imag):
        total = total.real
    return total[()]


def cumulative_simpson(
    f: Callable,
    points: np.ndarray,
    tol: float = DEFAULT_QUAD_TOL,
    *,
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
    pieces = _pieces(f, edges, tol, _SIMPSON)
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


def _pieces(f, edges, tol, rule):
    """``rule`` over each gap of increasing ``edges``, tol shared by length.

    One value per gap, stacked on the first axis.  All gaps refine in one
    frontier: each open interval carries its piece id, each level is one
    call of ``f`` over every open interval, accepted estimates are summed
    per piece, and the depth and ``_MAX_OPEN`` caps hold per piece
    (``_MAX_FRONTIER`` bounds all pieces together).  A rule is
    ``(name, sampled, start, level)``: the span sampled of each piece, the
    first intervals' state, and one level, which returns the done
    intervals' estimates, the done mask, the children's state and values.
    """
    name, sampled, start, level = rule
    edges = np.asarray(edges, dtype=float)
    n_pieces = edges.size - 1
    lo, hi = edges[:-1], edges[1:]
    share = np.maximum(tol * (hi - lo) / (edges[-1] - edges[0]), 1e-300)
    a, b = bounds = sampled(lo, hi)
    piece = np.arange(n_pieces)
    # a piece too short for Simpson to sample inside (<= 2 ulps) stays 0
    if np.count_nonzero(b > a) < n_pieces:
        piece = np.flatnonzero(b > a)
        if piece.size == 0:
            return np.zeros(n_pieces)
        a, b = a[piece], b[piece]
    lo, h = a, b - a
    state = start(f, a, b)
    acc = 0.0
    for depth in range(_MAX_DEPTH + 1):
        if lo.size > _MAX_OPEN and (lo.size > _MAX_FRONTIER or np.bincount(
                np.broadcast_to(piece, lo.shape)).max() > _MAX_OPEN):
            break
        half = 0.5 * h
        # a lone piece keeps the ids [0], which broadcast over its intervals
        tols = (share * 0.5**depth)[piece]
        est, done, (left, right), values = level(f, lo, half, state, tols)
        acc = acc + _piece_sums(est, done, piece, n_pieces)

        keep = ~done
        last = (values, piece, keep)
        k_lo, k_half = lo[keep], half[keep]
        lo = np.concatenate([k_lo, k_lo + k_half])
        h = np.concatenate([k_half, k_half])
        piece = np.concatenate([piece[keep]] * 2) if n_pieces > 1 else piece
        state = [np.concatenate([l[keep], r[keep]]) for l, r in zip(left, right)]
        if lo.size == 0:
            return acc

    # the first piece over the cap, else the most crowded, with the values
    # its open intervals hold
    n_open = np.bincount(np.broadcast_to(piece, lo.shape), minlength=n_pieces)
    over = n_open > _MAX_OPEN
    p = int(np.argmax(over if over.any() else n_open))
    values, piece, keep = last
    values = np.concatenate([v[keep & (piece == p)].ravel() for v in values])
    span = f"[{float(bounds[0][p])!r}, {float(bounds[1][p])!r}]"
    count = f"{n_open[p]} open intervals at depth {depth}"
    if not np.isfinite(values).all():
        raise NonFiniteError(f"integrand is not finite on {span} ({count})")
    raise QuadratureFailureError(f"{name} did not converge on {span}: {count}")


def _piece_sums(est, done, piece, n_pieces):
    """Per-piece sums of the done intervals' estimates ``est`` (..., k); a
    lone piece takes a plain sum, the cheapest reduction per level."""
    if n_pieces == 1:
        return est.sum(axis=-1)[None]
    rows = est.reshape(math.prod(est.shape[:-1]), est.shape[-1])
    idx = (piece[done] * len(rows) + np.arange(len(rows))[:, None]).ravel()
    sums = np.bincount(idx, rows.real.ravel(), n_pieces * len(rows))
    if np.iscomplexobj(est):
        sums = sums + 1j * np.bincount(idx, rows.imag.ravel(), sums.size)
    return sums.reshape((n_pieces,) + est.shape[:-1])


def _simpson_sampled(lo, hi):
    # integrate over [lo + delta, hi - delta]: the inset keeps evaluations
    # off the piece endpoints, so one-sided limits are used at breakpoints,
    # and the dropped slivers contribute O(1e-12 (hi-lo) |f|), far below
    # tolerance; on short pieces far from 0 the relative inset rounds away,
    # so it is at least one ulp
    delta = 1e-12 * (hi - lo)
    return (np.maximum(lo + delta, np.nextafter(lo, np.inf)),
            np.minimum(hi - delta, np.nextafter(hi, -np.inf)))


def _simpson_start(f, a, b):
    # the values at the ends and midpoint, and the estimate s
    f0 = np.asarray(f(np.concatenate([a, 0.5 * (a + b), b])), complex)
    fl, fm, fr = f0.reshape(3, -1)
    return fl, fm, fr, (b - a) / 6.0 * (fl + 4.0 * fm + fr)


def _simpson_level(f, lo, h2, state, tols):
    # Richardson-corrected Simpson on the two halves (width h2) of each interval
    fl, fm, fr, s = state
    vals = np.asarray(f(np.concatenate([lo + 0.5 * h2, lo + 1.5 * h2])), complex)
    flm, frm = vals[: lo.size], vals[lo.size :]
    s_left = h2 / 6.0 * (fl + 4.0 * flm + fm)
    s_right = h2 / 6.0 * (fm + 4.0 * frm + fr)
    s2 = s_left + s_right
    err = s2 - s
    done = np.abs(err) <= 15.0 * tols
    return (s2[done] + err[done] / 15.0, done,
            ((fl, flm, fm, s_left), (fm, frm, fr, s_right)),
            (fl, flm, fm, frm, fr))


def _gk_level(f, lo, half, state, tols):
    # bisect every interval where some component has |K15 - G7| above its
    # share of tol, and accept K15 on the rest; a component's values sit
    # on axes (..., interval, node)
    nodes = (lo + half)[:, None] + half[:, None] * _XK
    vals = np.asarray(f(nodes.ravel()))
    vals = vals.reshape(vals.shape[:-1] + nodes.shape)
    k15 = (vals @ _WK) * half
    err = np.abs(k15 - (vals @ _WG) * half)
    done = (err <= tols).reshape(-1, lo.size).all(axis=0)
    return k15[..., done], done, ((), ()), (vals.swapaxes(0, -2),)


_SIMPSON = ("adaptive Simpson", _simpson_sampled, _simpson_start,
            _simpson_level)
_GAUSS_KRONROD = ("adaptive Gauss-Kronrod", lambda lo, hi: (lo, hi),
                  lambda f, a, b: (), _gk_level)
