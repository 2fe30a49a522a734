"""Affine self-exciting intensity: counting process N with intensity lambda,
where d lambda_t = kappa (theta_bar - lambda_t) dt + dN_t.

The pair X = (N, lambda) is affine on N0 x R>=0 when theta_bar >= 0, so its
conditional transform exp(phi + psi1 N + psi2 lambda) is governed by a
generalized Riccati system; and lambda itself, net of its deterministic part,
is a shot-noise process with unit marks and exponential kernel exp(-kappa t).

Transform-argument convention: the solver integrates the ODEs in the complex
boundary datum directly, so to evaluate E[exp(i <u, X_T>)] pass the boundary
``i u``.  :func:`affine_cf` applies the factor i for you.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

from .errors import BlowUpError, ExplosionGuardError, ParameterError, check_finite
from .point_process import (
    MAX_BATCH_EVENTS,
    MAX_PATH_EVENTS,
    MppPath,
    check_horizon,
    check_times,
    empty_path,
    hand_over,
    past_sum,
)
from .rng import TAG_HAWKES, TAG_HAWKES_BATCH, make_stream

DEFAULT_STEPS_PER_UNIT = 2048
# RK4 steps one riccati_solve may take (horizon 512 at the default rule):
# beside MAX_PATH_EVENTS, it makes a huge horizon fail before its
# trajectory exhausts memory
MAX_RICCATI_STEPS = 2**20
_PSI_GUARD = 1e6


@dataclass(frozen=True)
class HawkesParams:
    kappa: float
    theta_bar: float
    lambda0: float

    def __post_init__(self):
        check_finite(kappa=self.kappa, theta_bar=self.theta_bar,
                     lambda0=self.lambda0)
        if self.kappa <= 0:
            raise ParameterError("kappa", "must be > 0")
        if self.theta_bar < 0:
            raise ParameterError("theta_bar",
                                 "must be >= 0 (affine state space)")
        if self.lambda0 < 0:
            raise ParameterError("lambda0", "must be >= 0")

    @property
    def branching_ratio(self) -> float:
        """Mean offspring per event, 1/kappa; subcritical iff < 1."""
        return 1.0 / self.kappa

    def mean_intensity_floor(self, t):
        """Lowest reachable intensity at time(s) t: the one with no events."""
        # a float goes to the same ufunc as its 0-d array, and np.exp still
        # returns numpy.float64
        e = np.exp(-self.kappa * (t if isinstance(t, float)
                                  else np.asarray(t, dtype=float)))
        return self.lambda0 * e + self.theta_bar * (1.0 - e)


@dataclass(frozen=True)
class HawkesPath:
    """Hawkes events (unit marks), one path or a batch, with the post-jump
    intensity at each event as the simulation recorded it, aligned with
    ``events.times``."""

    events: MppPath
    intensities: np.ndarray
    params: HawkesParams

    def path(self, i: int) -> "HawkesPath":
        """Path ``i`` alone, as views of this container's arrays."""
        events = self.events.path(i)
        lo = self.events.offsets[range(self.events.n_paths)[i]]
        return HawkesPath(events, self.intensities[lo:lo + events.n_events],
                          self.params)

    def intensity(self, t):
        """Closed-form lambda_t = lambda0 e^{-kappa t} + theta_bar (1 -
        e^{-kappa t}) + sum_{T_i <= t} e^{-kappa (t - T_i)} per path
        (right-continuous), shaped as :func:`~snoise.point_process.past_sum`,
        for t in [0, horizon]."""
        check_times(t, self.events.horizon)
        kappa = self.params.kappa
        kicks = past_sum(lambda lag, _m: np.exp(-kappa * lag), self.events, t)
        return kicks + self.params.mean_intensity_floor(t)

    def closed_form_intensities(self) -> np.ndarray:
        """lambda at every event from the event times alone (right-continuous):
        lambda0 e^{-kappa t} + theta_bar (1 - e^{-kappa t}) + the unit kicks
        of the path's events up to and including it."""
        ev, times = self.events, self.events.times
        pos = np.arange(times.size) - np.repeat(ev.offsets[:-1], ev.counts)
        out = self.params.mean_intensity_floor(times)
        for lag in range(int(ev.counts.max(initial=0))):
            k = np.flatnonzero(pos >= lag)
            out[k] += np.exp(-self.params.kappa * (times[k] - times[k - lag]))
        return out


def simulate_hawkes(params: HawkesParams, horizon: float, seed: int, *,
                    path_index: int = 0) -> HawkesPath:
    """Ogata thinning with the piecewise bound max(current lambda, theta_bar).

    Between events the intensity decays toward theta_bar, so that bound
    dominates on each inter-candidate interval; it is refreshed at every
    candidate, accepted or not.  Near-critical parameters can generate huge
    cascades, hence the event cap ``MAX_PATH_EVENTS``.
    """
    check_horizon(horizon)
    rng = make_stream(seed, path_index, TAG_HAWKES)
    kappa, theta_bar = params.kappa, params.theta_bar

    t = 0.0
    lam = params.lambda0  # right-continuous intensity at time t
    times: list[float] = []
    intens: list[float] = []
    while True:
        lam_bar = max(lam, theta_bar)
        if lam_bar <= 0.0:
            break  # zero intensity is absorbing
        t_cand = t + rng.exponential(1.0 / lam_bar)
        if t_cand > horizon:
            break
        lam_cand = theta_bar + (lam - theta_bar) * math.exp(-kappa * (t_cand - t))
        t, lam = t_cand, lam_cand
        if rng.random() * lam_bar <= lam_cand:
            lam += 1.0
            times.append(t)
            intens.append(lam)
            if len(times) > MAX_PATH_EVENTS:
                raise ExplosionGuardError(
                    f"event count exceeded cap {MAX_PATH_EVENTS}; "
                    f"parameters may be supercritical (kappa = {kappa})"
                )

    if not times:
        return _hawkes_view(empty_path(horizon), np.empty(0), params)
    events = hand_over(np.array(times, dtype=float), np.ones((len(times), 1)),
                       horizon, np.array((0, len(times))))
    return _hawkes_view(events, np.array(intens, dtype=float), params)


def _hawkes_view(events: MppPath, intensities: np.ndarray,
                 params: HawkesParams) -> HawkesPath:
    """A :class:`HawkesPath` over a simulator's own arrays, ``intensities``
    frozen here, without the dataclass ``__init__``: the per-path loop's
    build, as ``point_process._view`` builds an ``MppPath``."""
    intensities.setflags(write=False)
    path = object.__new__(HawkesPath)
    path.__dict__.update(events=events, intensities=intensities, params=params)
    return path


def _waiting_times(lam, kappa: float, theta_bar: float, e1, e2):
    """Exact times to the next event from right-continuous intensities ``lam``.

    The compensator from the current event is
    theta_bar s + ((lam - theta_bar)/kappa)(1 - e^{-kappa s}), and the
    waiting time inverts it at a unit exponential.  For lam >= theta_bar the
    intensity splits into a decaying part, whose inverse at ``e1`` is
    -log(1 - kappa e1/(lam - theta_bar))/kappa (infinite when the log's
    argument is not positive), and a baseline arrival e2/theta_bar; the
    minimum of the two is the waiting time (Dassios & Zhao 2013).  For
    lam < theta_bar the inverse at ``e1`` is the real principal Lambert W
    solution, whose argument lies in [-1/e, 0).  ``inf`` means no further
    event.
    """
    excess = lam - theta_bar
    s = np.full(lam.shape, np.inf)
    fire = (excess > 0.0) & (kappa * e1 < excess)
    s[fire] = -np.log1p(-kappa * e1[fire] / excess[fire]) / kappa
    if theta_bar > 0.0:
        s = np.minimum(s, np.where(excess >= 0.0, e2 / theta_bar, np.inf))
        rise = excess < 0.0
        if rise.any():
            a = -excess[rise]
            c = (kappa * e1[rise] + a) / theta_bar
            w = lambertw(-(a / theta_bar) * np.exp(-c)).real
            s[rise] = (c + w) / kappa
    return s


def simulate_hawkes_batch(params: HawkesParams, horizon: float, n_paths: int,
                          seed: int) -> HawkesPath:
    """Exact simulation of ``n_paths`` Hawkes paths at once, without thinning.

    Every live path draws its next waiting time by inverting the
    compensator (:func:`_waiting_times`), so the loop runs once per event
    index.  All draws come from the stream ``(seed, 0, TAG_HAWKES_BATCH)``.
    The caps ``MAX_PATH_EVENTS`` and ``MAX_BATCH_EVENTS`` bound its events.
    """
    check_horizon(horizon, n_paths)
    rng = make_stream(seed, 0, TAG_HAWKES_BATCH)
    kappa, theta_bar = params.kappa, params.theta_bar

    live = np.arange(n_paths)
    t = np.zeros(n_paths)
    lam = np.full(n_paths, float(params.lambda0))
    steps = []  # (path ids, times, post-jump intensities) per event index
    total = 0
    while True:
        e = rng.standard_exponential(size=(2, live.size))
        wait = _waiting_times(lam, kappa, theta_bar, e[0], e[1])
        go = t + wait <= horizon
        if not go.any():
            break
        live, t, lam, wait = live[go], t[go], lam[go], wait[go]
        t = t + wait
        lam = theta_bar + (lam - theta_bar) * np.exp(-kappa * wait) + 1.0
        steps.append((live, t, lam))
        total += live.size
        if len(steps) > MAX_PATH_EVENTS or total > MAX_BATCH_EVENTS:
            raise ExplosionGuardError(
                f"event count exceeded cap ({MAX_PATH_EVENTS} per path, "
                f"{MAX_BATCH_EVENTS} in all); parameters may be "
                f"supercritical (kappa = {kappa})")

    # step k holds the paths with more than k events, so event k of path i
    # goes straight to offsets[i] + k: path-major, time order within
    counts = np.zeros(n_paths, dtype=np.intp)
    for ids, _t, _lam in steps:
        counts[ids] += 1
    offsets = np.concatenate([[0], np.cumsum(counts)])
    times, intens = np.empty(total), np.empty(total)
    for k, (ids, t_k, lam_k) in enumerate(steps):
        slot = offsets[ids] + k
        times[slot] = t_k
        intens[slot] = lam_k
    events = hand_over(times, np.ones((total, 1)), horizon, offsets)
    return _hawkes_view(events, intens, params)


@dataclass(frozen=True)
class RiccatiSolution:
    grid: np.ndarray
    phi: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    u: tuple

    @property
    def final(self) -> tuple[complex, complex, complex]:
        return complex(self.phi[-1]), complex(self.psi1[-1]), complex(self.psi2[-1])


def riccati_solve(params: HawkesParams, u, horizon: float,
                  steps: int | None = None) -> RiccatiSolution:
    """Fixed-step RK4 for the generalized Riccati system

        phi' = kappa theta_bar psi2,   psi1' = 0,
        psi2' = -kappa psi2 + exp(psi1 + psi2) - 1,

    with phi(0) = 0 and psi(0) = u (the complex boundary datum).  psi1 is
    constant by construction, not integration.  Fixed steps keep runs
    reproducible and give a clean order-4 convergence signature.  More than
    ``MAX_RICCATI_STEPS`` steps, by the default rule or given, raise
    ``ExplosionGuardError`` before anything is allocated.
    """
    u = (complex(u[0]), complex(u[1]))
    check_finite(u=u, horizon=horizon)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if horizon == 0.0:
        grid = np.zeros(1)
        return RiccatiSolution(
            grid, np.zeros(1, dtype=complex),
            np.full(1, u[0], dtype=complex), np.full(1, u[1], dtype=complex), u,
        )
    if steps is None:
        steps = max(100, int(math.ceil(DEFAULT_STEPS_PER_UNIT * horizon)))
    if steps < 100:
        raise ValueError("steps must be >= 100")
    if steps > MAX_RICCATI_STEPS:
        raise ExplosionGuardError(
            f"{steps} RK4 steps over horizon {horizon:.6g} exceed cap "
            f"{MAX_RICCATI_STEPS}")

    # RK4 on plain complex floats, the right-hand side inlined:
    # phi' = kt psi2 and psi2' = mk psi2 + exp(psi1 + psi2) - 1
    kt, mk = params.kappa * params.theta_bar, -params.kappa
    psi1 = u[0]
    h = horizon / steps
    half, sixth = 0.5 * h, h / 6.0
    grid = np.linspace(0.0, horizon, steps + 1)
    exp, isfinite = cmath.exp, cmath.isfinite
    p, q = 0.0 + 0.0j, u[1]
    phi, psi2 = [p], [q]
    for k in range(steps):
        try:
            dq1 = mk * q + exp(psi1 + q) - 1.0
            q2 = q + half * dq1
            dq2 = mk * q2 + exp(psi1 + q2) - 1.0
            q3 = q + half * dq2
            dq3 = mk * q3 + exp(psi1 + q3) - 1.0
            q4 = q + h * dq3
            dq4 = mk * q4 + exp(psi1 + q4) - 1.0
        except OverflowError as exc:
            raise BlowUpError(
                f"exp(psi1 + psi2) overflowed at t = {grid[k]:.6g}"
            ) from exc
        p = p + sixth * (kt * q + 2.0 * (kt * q2) + 2.0 * (kt * q3) + kt * q4)
        q = q + sixth * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4)
        if not (isfinite(p) and isfinite(q)) or abs(q) > _PSI_GUARD:
            raise BlowUpError(
                f"|psi2| exceeded guard {_PSI_GUARD:.1e} at t = {grid[k + 1]:.6g}"
            )
        phi.append(p)
        psi2.append(q)

    return RiccatiSolution(grid, np.array(phi), np.full(steps + 1, psi1),
                           np.array(psi2), u)


def affine_cf(params: HawkesParams, state, T: float, u, *,
              steps: int | None = None) -> complex:
    """E[exp(i u . (N_T, lambda_T)) | state] for state = (t, N_t, lambda_t)."""
    check_finite(state=state, T=T, u=u)
    t, n_t, lam_t = state
    if t > T:
        raise ValueError("need state time <= T")
    floor = params.mean_intensity_floor(t)
    if lam_t < floor - 1e-9:
        raise ValueError(
            f"inconsistent state: lambda_t = {lam_t} below reachable floor {floor}"
        )
    boundary = (1j * complex(u[0]), 1j * complex(u[1]))
    if T == t:
        return cmath.exp(boundary[0] * n_t + boundary[1] * lam_t)
    sol = riccati_solve(params, boundary, T - t, steps)
    phi_T, psi1_T, psi2_T = sol.final
    return cmath.exp(phi_T + psi1_T * n_t + psi2_T * lam_t)
