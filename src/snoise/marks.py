"""Mark distributions: the time-indexed jump-size family F(t, dx) on R^d.

Every distribution declares an integration mode that downstream quadrature
dispatches on:

``discrete``
    finitely many atoms; integration is exact summation.
``density``
    one-dimensional law with a density on a finite effective support;
    integration is adaptive Gauss-Kronrod 7-15 over the support, cut at
    any mark breakpoints (kinks of the integrand in x, such as a table
    kernel's x-knots).
``sample``
    only sampling is available; integration falls back to averaging over a
    fixed Philox substream (deterministic, but accuracy is statistical).
    The analytic characteristic-function path refuses this mode.

The built-in families are stationary (they ignore ``t``).  A time-varying
subclass gets the time from every caller: integration passes ``t`` through
(an array of times when a batch of time slices is integrated at once), and
path simulation passes each event's own time, so an event at ``t`` gets its
mark from F(t, dx).
Integrand callables are vectorized and may be vector-valued: ``fn(x)``
receives an ``(n, d)`` array of mark rows and returns values shaped
``(..., n)``; the integral has shape ``(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import QuadratureFailureError, check_finite
from .quadrature import DEFAULT_QUAD_TOL, gauss_kronrod
from .rng import TAG_AVG, make_stream

MODE_DISCRETE = "discrete"
MODE_DENSITY = "density"
MODE_SAMPLE = "sample"

_N_AVG = 4096  # draws averaged by sample-only integration


class MarkDistribution:
    """Interface for mark laws; concrete families override the relevant hooks."""

    mark_dim: int = 1
    mode: str = MODE_SAMPLE
    # edges of ``support`` that truncate an infinite tail ("lo"/"hi");
    # integration verifies the integrand is negligible at each cut, so
    # divergent integrals (e.g. exploding exponential moments) fail loudly
    # instead of being silently truncated
    truncated_edges: tuple = ()

    def sample(self, rng: np.random.Generator, t: float, n: int) -> np.ndarray:
        """Draw ``n`` marks as an ``(n, mark_dim)`` array, at a time ``t``
        or, for an ``(n,)`` array ``t``, each draw at its own time."""
        raise NotImplementedError

    def atoms(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Atoms and weights for ``discrete`` mode: ``((k, d), (k,))``."""
        raise NotImplementedError

    def pdf(self, t: float, x: np.ndarray) -> np.ndarray:
        """Density values for ``density`` mode (1-d marks only)."""
        raise NotImplementedError

    def support(self, t: float) -> tuple[float, float]:
        """Effective support for ``density`` mode quadrature."""
        raise NotImplementedError

    def cdf(self, t: float, x: np.ndarray) -> np.ndarray:
        """Marginal CDF of the first coordinate, where available (for KS tests)."""
        raise NotImplementedError

    def integrate(self, fn, t: float = 0.0, tol: float = DEFAULT_QUAD_TOL,
                  *, breakpoints=()):
        """Integrate ``fn`` against F(t, dx) per the declared mode.

        ``fn`` maps ``(n, d)`` mark rows to values shaped ``(..., n)``; the
        result has shape ``(...)``, each component to ``tol`` in density
        mode.  ``breakpoints`` are marks where ``fn`` may kink (density
        mode cuts the support there; the other modes ignore them).
        """
        if self.mode == MODE_DISCRETE:
            pts, w = self.atoms(t)
            return (w * np.asarray(fn(pts))).sum(axis=-1)
        if self.mode == MODE_DENSITY:
            lo, hi = self.support(t)
            def integrand(xs):
                return np.asarray(fn(xs.reshape(-1, 1))) * self.pdf(t, xs)
            cuts = [{"lo": lo, "hi": hi}[e] for e in self.truncated_edges]
            if cuts:
                edge = float(np.abs(integrand(np.array(cuts))).max(initial=0.0))
                if edge * (hi - lo) > 1e3 * tol:
                    raise QuadratureFailureError(
                        f"integrand is not negligible ({edge:.3e}) at the "
                        "truncated support edge; the integral may diverge"
                    )
            return gauss_kronrod(integrand, lo, hi, tol, breakpoints=breakpoints)
        # sample-only: fixed substream so repeated calls agree bit for bit
        rng = make_stream(0, 0, TAG_AVG)
        draws = self.sample(rng, t, _N_AVG)
        return np.asarray(fn(draws)).mean(axis=-1)


def _rows(values, dim):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, dim) if dim > 1 else arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected rows of dimension {dim}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PointMass(MarkDistribution):
    """All marks equal a fixed point ``u``."""

    point: tuple[float, ...]
    mode: str = field(default=MODE_DISCRETE, init=False)

    def __init__(self, point):
        object.__setattr__(self, "point", tuple(np.atleast_1d(np.asarray(point, dtype=float))))
        check_finite(point=self.point)
        object.__setattr__(self, "mark_dim", len(self.point))

    def sample(self, rng, t, n):
        return np.tile(np.asarray(self.point), (n, 1))

    def atoms(self, t):
        return np.asarray(self.point).reshape(1, -1), np.array([1.0])


@dataclass(frozen=True)
class Discrete(MarkDistribution):
    """Finitely many atoms with probability weights summing to one."""

    points: tuple
    weights: tuple
    mode: str = field(default=MODE_DISCRETE, init=False)

    def __init__(self, points, weights):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        w = np.asarray(weights, dtype=float)
        check_finite(points=pts, weights=w)
        if w.ndim != 1 or w.size != pts.shape[0]:
            raise ValueError("weights must align with points")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "points", tuple(map(tuple, pts)))
        object.__setattr__(self, "weights", tuple(w))
        object.__setattr__(self, "mark_dim", pts.shape[1])

    def _arrays(self):
        return np.asarray(self.points, dtype=float), np.asarray(self.weights, dtype=float)

    def sample(self, rng, t, n):
        pts, w = self._arrays()
        idx = rng.choice(pts.shape[0], size=n, p=w)
        return pts[idx]

    def atoms(self, t):
        return self._arrays()

    def cdf(self, t, x):
        pts, w = self._arrays()
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.array([w[pts[:, 0] <= xi].sum() for xi in x])


@dataclass(frozen=True)
class Normal(MarkDistribution):
    """Gaussian marks N(mean, std^2) on R (1-d)."""

    mean: float
    std: float
    mode: str = field(default=MODE_DENSITY, init=False)
    mark_dim: int = field(default=1, init=False)
    truncated_edges: tuple = field(default=("lo", "hi"), init=False)

    def __post_init__(self):
        check_finite(mean=self.mean, std=self.std)
        if self.std <= 0:
            raise ValueError("std must be positive")

    def sample(self, rng, t, n):
        return rng.normal(self.mean, self.std, size=n).reshape(-1, 1)

    def pdf(self, t, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.std
        return np.exp(-0.5 * z * z) / (self.std * np.sqrt(2.0 * np.pi))

    def support(self, t):
        # 13 sigma: tail mass ~ 1e-38, far below any quadrature tolerance here
        return self.mean - 13.0 * self.std, self.mean + 13.0 * self.std

    def cdf(self, t, x):
        # scipy.stats.norm.cdf(x, mean, std) by the same standardization
        return ndtr((np.asarray(x, dtype=float) - self.mean) / self.std)


@dataclass(frozen=True)
class Exponential(MarkDistribution):
    """Exponential marks on (0, inf) with the given mean (1-d)."""

    mean: float
    mode: str = field(default=MODE_DENSITY, init=False)
    mark_dim: int = field(default=1, init=False)
    truncated_edges: tuple = field(default=("hi",), init=False)

    def __post_init__(self):
        check_finite(mean=self.mean)
        if self.mean <= 0:
            raise ValueError("mean must be positive")

    def sample(self, rng, t, n):
        return rng.exponential(self.mean, size=n).reshape(-1, 1)

    def pdf(self, t, x):
        x = np.asarray(x, dtype=float)
        out = np.exp(-x / self.mean) / self.mean
        return np.where(x >= 0, out, 0.0)

    def support(self, t):
        return 0.0, 60.0 * self.mean

    def cdf(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, 1.0 - np.exp(-x / self.mean), 0.0)


@dataclass(frozen=True)
class Uniform(MarkDistribution):
    """Uniform marks on [lo, hi] (1-d)."""

    lo: float
    hi: float
    mode: str = field(default=MODE_DENSITY, init=False)
    mark_dim: int = field(default=1, init=False)

    def __post_init__(self):
        check_finite(lo=self.lo, hi=self.hi)
        if not self.hi > self.lo:
            raise ValueError("hi must exceed lo")

    def sample(self, rng, t, n):
        return rng.uniform(self.lo, self.hi, size=n).reshape(-1, 1)

    def pdf(self, t, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def support(self, t):
        return self.lo, self.hi

    def cdf(self, t, x):
        return np.clip((np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo), 0.0, 1.0)


class SampleOnly(MarkDistribution):
    """Wraps an arbitrary sampler ``(rng, t, n) -> (n, d)``; sample mode only."""

    mode = MODE_SAMPLE

    def __init__(self, sampler, mark_dim: int):
        self._sampler = sampler
        self.mark_dim = int(mark_dim)

    def sample(self, rng, t, n):
        return _rows(self._sampler(rng, t, n), self.mark_dim)


@dataclass(frozen=True)
class ProductIid(MarkDistribution):
    """Independent product of 1-d components (for d >= 2 marks, e.g. random decay).

    Sampling draws each coordinate from its component; integration is only
    available in sample mode unless every component is discrete, in which
    case the product atoms are formed explicitly.
    """

    components: tuple

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("need at least one component")
        if any(c.mark_dim != 1 for c in comps):
            raise ValueError("components must be one-dimensional")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "mark_dim", len(comps))
        all_discrete = all(c.mode == MODE_DISCRETE for c in comps)
        object.__setattr__(self, "mode", MODE_DISCRETE if all_discrete else MODE_SAMPLE)

    def sample(self, rng, t, n):
        cols = [c.sample(rng, t, n)[:, 0] for c in self.components]
        return np.column_stack(cols)

    def atoms(self, t):
        pts = np.zeros((1, 0))
        w = np.array([1.0])
        for comp in self.components:
            cp, cw = comp.atoms(t)
            pts = np.hstack([np.repeat(pts, cp.shape[0], axis=0),
                             np.tile(cp, (pts.shape[0], 1))])
            w = np.outer(w, cw).ravel()
        return pts, w
