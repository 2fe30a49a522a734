"""Adaptive Gauss-Kronrod 7-15 quadrature shared across the toolkit.

Every integral, over time or over marks, is adaptive bisection with the
QUADPACK qk15 pair of Piessens et al. (1983): an interval is accepted with
its K15 estimate once every component's |K15 - G7| is within its share of
the tolerance, else it is halved.  Integrands map a 1-d array of nodes to
an ndarray of values, complex ones natively, and may be vector-valued in
both front ends: a whole batch of outer time nodes is one call of a mark
integrand.  Refinement reads the modulus of the error estimate, so conjugate
integrands refine identically and Hermitian symmetry survives to rounding
level.

The range is cut into pieces at the bounds, known kinks passed as
``breakpoints`` (event times, table knots) and, for
:func:`cumulative_integral`, the output points; each piece gets a share of
the tolerance proportional to its length, and all pieces refine in one
frontier.  Kronrod nodes are interior, 0.43 % of an interval's length
from its ends, so breakpoints see one-sided limits on any piece longer
than about 250 ulps (an integrable singularity belongs at one); on a
shorter one the outer nodes can round onto the ends.  A piece of at most
two ulps contributes 0 unsampled.  A NaN or inf value raises
``NonFiniteError`` at the level that produces it, as non-finite bounds do,
a level past ``_MAX_DEPTH`` raises ``QuadratureFailureError``, and one over
``_MAX_VALUES`` integrand values its subclass ``LevelTooWideError``, which
says that a memory guard refused the level, not that it diverged.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .errors import (LevelTooWideError, NonFiniteError, ParameterError,
                     QuadratureFailureError)

DEFAULT_QUAD_TOL = 1e-8
_MAX_DEPTH = 30
# integrand values of one level (intervals x 15 nodes x components): a memory
# guard above legitimate levels (the widest mark level of a 64-theta CF block
# on [-20, 20] holds 576,000 values for Exp(1) marks and 403,200 for
# Normal(0.5, 0.3), the first level of a 3000-event decomposition 45k); a
# CF block whose levels would grow past it (LevelTooWideError) is solved one
# theta at a time
_MAX_VALUES = 2**21

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
    every value is.

    Raises
    ------
    NonFiniteError
        if a bound or a value of ``f`` is not finite.
    QuadratureFailureError
        if some piece fails to converge within the depth cap, or
        (``LevelTooWideError``) a level would exceed the value cap.
    """
    total = sum(_pieces(f, _edges(a, b, breakpoints), tol))
    if np.iscomplexobj(total) and not np.any(total.imag):
        total = total.real
    return total[()]


def cumulative_integral(
    f: Callable,
    points: np.ndarray,
    tol: float = DEFAULT_QUAD_TOL,
    *,
    breakpoints: Iterable[float] = (),
) -> np.ndarray:
    """Cumulative integral of ``f`` from ``points[0]`` to each point.

    ``f`` is vector-valued as for :func:`gauss_kronrod`, with values shaped
    ``(..., n)`` at ``n`` nodes, and the result is shaped
    ``(..., len(points))``.  Each piece between consecutive distinct points
    and interior breakpoints is integrated once and the pieces are
    cumulated, so every partial sum of every component meets ``tol`` and
    the result at ``points[k]`` is consistent with :func:`gauss_kronrod`
    over ``[points[0], points[k]]``.
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
    pieces = _pieces(f, edges, tol)
    cum = np.concatenate([np.zeros((1,) + pieces.shape[1:]),
                          np.cumsum(pieces, axis=0)])
    out = np.moveaxis(cum[np.searchsorted(edges, points)], 0, -1)
    if np.all(out.imag == 0.0):
        return out.real
    return out


def check_tol(tol) -> None:
    """The tolerance rule of every integral: a non-finite ``tol`` raises
    ``NonFiniteError`` and ``tol <= 0`` ``ParameterError``, since no
    tolerance share of a positive piece could be met."""
    if not math.isfinite(tol):
        raise NonFiniteError(f"quadrature tolerance must be finite, got {tol}")
    if tol <= 0:
        raise ParameterError("tol", f"must be > 0, got {tol}")


def _edges(a, b, breakpoints):
    """``[a, *interior breakpoints, b]`` for finite bounds ``a <= b``."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteError(f"integration bounds must be finite: [{a}, {b}]")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    return [a, *sorted({p for p in breakpoints if a < p < b}), b]


def _pieces(f, edges, tol):
    """GK 7-15 over each gap of increasing ``edges``, tol shared by length.

    One value per gap, stacked on the first axis.  All gaps refine in one
    frontier: each open interval carries its piece id, each level is one
    call of ``f`` over the 15 Kronrod nodes of every open interval, and
    the accepted K15 estimates of every level are summed per piece once, at
    the end.  A NaN or inf value raises
    ``NonFiniteError`` at its level; a level past ``_MAX_DEPTH`` raises
    ``QuadratureFailureError``, and one after the first that would hold
    over ``_MAX_VALUES`` values its subclass ``LevelTooWideError``, before
    that level is built; each names a piece and the depth.  ``tol`` meets
    :func:`check_tol` before ``f`` is called.
    """
    check_tol(tol)
    edges = np.asarray(edges, dtype=float)
    n_pieces = edges.size - 1
    lo, hi = edges[:-1], edges[1:]
    # a piece of at most two ulps (tied times that break_ties spaced apart)
    # contributes 0 unsampled: its nodes would round onto its ends
    piece = np.flatnonzero(np.nextafter(lo, np.inf)
                           < np.nextafter(hi, -np.inf))
    if piece.size == 0:
        return np.zeros((n_pieces,) + np.shape(f(np.empty(0)))[:-1])
    share = np.maximum(tol * (hi - lo) / (edges[-1] - edges[0]), 1e-300)
    lo, h = lo[piece], (hi - lo)[piece]
    # accepted K15 estimates of each level, and their piece ids if several
    ests, ids = [], []
    per_interval = 0  # values per interval, known after a level
    for depth in range(_MAX_DEPTH + 1):
        if lo.size * per_interval > _MAX_VALUES:
            p, n_open = _widest(piece, lo, n_pieces)
            raise LevelTooWideError(
                f"adaptive Gauss-Kronrod level would hold "
                f"{lo.size * per_interval} integrand values, over _MAX_VALUES "
                f"= {_MAX_VALUES}: widest on {edges[p:p + 2].tolist()}, "
                f"{n_open} open intervals at depth {depth}")
        half = 0.5 * h
        # bisect every interval where some component has |K15 - G7| above
        # its share of tol, and accept K15 on the rest; a component's
        # values sit on axes (..., interval, node)
        nodes = (lo + half)[:, None] + half[:, None] * _XK
        vals = np.asarray(f(nodes.ravel()))
        vals = vals.reshape(vals.shape[:-1] + nodes.shape)
        per_interval = vals.size // lo.size
        k15 = (vals @ _WK) * half
        err = np.abs(k15 - (vals @ _WG) * half)
        # every Kronrod weight is nonzero, so a NaN or inf value makes its
        # interval's error estimate NaN or inf (which max propagates), and
        # it would never converge
        if not err.max(initial=0.0) < math.inf:
            finite = np.isfinite(err).reshape(-1, lo.size).all(axis=0)
            p = int(np.broadcast_to(piece, lo.shape)[finite.argmin()])
            raise NonFiniteError(f"integrand is not finite on "
                                 f"{edges[p:p + 2].tolist()} at depth {depth}")
        # a lone piece keeps the ids [0], which broadcast over its intervals
        tols = (share * 0.5**depth)[piece]
        done = (err <= tols).reshape(-1, lo.size).all(axis=0)
        ests.append(k15[..., done])
        if n_pieces > 1:
            ids.append(piece[done])

        keep = ~done
        k_lo, k_half = lo[keep], half[keep]
        lo = np.concatenate([k_lo, k_lo + k_half])
        h = np.concatenate([k_half, k_half])
        piece = np.concatenate([piece[keep]] * 2) if n_pieces > 1 else piece
        if lo.size == 0:
            return _piece_sums(np.concatenate(ests, axis=-1), ids, n_pieces)

    p, n_open = _widest(piece, lo, n_pieces)
    raise QuadratureFailureError(
        f"adaptive Gauss-Kronrod did not converge on {edges[p:p + 2].tolist()}"
        f": {n_open} open intervals at depth {depth}")


def _widest(piece, lo, n_pieces):
    """The piece with the most open intervals, and their count."""
    n_open = np.bincount(np.broadcast_to(piece, lo.shape), minlength=n_pieces)
    p = int(np.argmax(n_open))
    return p, int(n_open[p])


def _piece_sums(est, ids, n_pieces):
    """Per-piece sums of the accepted estimates ``est`` (..., k), whose
    piece ids are the concatenated ``ids``; a lone piece takes a plain sum."""
    if n_pieces == 1:
        return est.sum(axis=-1)[None]
    rows = est.reshape(math.prod(est.shape[:-1]), est.shape[-1])
    idx = (np.concatenate(ids) * len(rows)
           + np.arange(len(rows))[:, None]).ravel()
    sums = np.bincount(idx, rows.real.ravel(), n_pieces * len(rows))
    if np.iscomplexobj(est):
        sums = sums + 1j * np.bincount(idx, rows.imag.ravel(), sums.size)
    return sums.reshape((n_pieces,) + est.shape[:-1])
