"""Experiment configuration: flat INI-style files, strictly validated.

The format is sectioned key-value text (chosen over nested formats for
diffability in golden tests).  Unknown sections or keys are errors, every
numeric field is validated on parse, and ``run.seed`` is mandatory
(reproducibility is a contract, not an option).  See the README for the full
grammar and examples.
"""

from __future__ import annotations

import configparser
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels as _kernels
from . import marks as _marks
from .affine import HawkesParams
from .errors import ConfigError
from .kernels import NoiseKernel
from .measure_change import MarketParams, MartingaleMeasureSpec, unit_eta
from .point_process import CompensatorSpec, standard
from .quadrature import DEFAULT_QUAD_TOL

SCENARIOS = (
    "simulate",
    "cf-compare",
    "markov-test",
    "affine-validate",
    "measure-check",
    "drift-check",
)

_REQUIRED_BLOCKS = {
    "simulate": ("kernel", "compensator"),
    "cf-compare": ("kernel", "compensator"),
    "markov-test": ("kernel",),
    "affine-validate": ("affine",),
    "measure-check": ("compensator", "measure"),
    "drift-check": ("kernel", "compensator", "market", "measure"),
}

# the fewest paths a scenario's statistics are defined on: its CF and
# transform estimates need 100 samples, a standard error needs 2
_MIN_PATHS = {"cf-compare": 100, "affine-validate": 100, "measure-check": 2,
              "drift-check": 2}

_ALLOWED_KEYS = {
    "run": {"scenario", "horizon", "n_paths", "seed", "grid_points",
            "quad_tol", "theta_grid"},
    "kernel": {"kind", "a", "b", "c", "table_t", "table_x", "table_g",
               "expect_markov"},
    "compensator": {"rate", "rate_bound", "marks", "mark_value", "mark_mean",
                    "mark_std", "mark_lo", "mark_hi", "mark_points",
                    "mark_weights"},
    "market": {"x0", "mu", "sigma", "rate_curve"},
    "measure": {"lambda_prime", "eta", "eta_rate"},
    "affine": {"kappa", "theta_bar", "lambda0"},
}


@dataclass(frozen=True)
class RunParams:
    scenario: str
    horizon: float
    n_paths: int
    seed: int
    grid_points: int
    quad_tol: float
    theta_grid: np.ndarray


@dataclass(frozen=True)
class ExperimentConfig:
    run: RunParams
    kernel: NoiseKernel | None = None
    spec: CompensatorSpec | None = None
    market: MarketParams | None = None
    measure: MartingaleMeasureSpec | None = None
    affine: HawkesParams | None = None
    expect_markov: bool | None = None
    resolved: dict = field(default_factory=dict)


def _fail(section, key, msg):
    raise ConfigError(msg, field=f"{section}.{key}")


class _Section:
    """One config section with typed getters and use-tracking."""

    def __init__(self, name, raw, resolved):
        self.name = name
        self.raw = dict(raw)
        self.resolved = resolved

    def _record(self, key, value):
        self.resolved.setdefault(self.name, {})[key] = str(value)

    def get_str(self, key, default=None, required=False, choices=None):
        val = self.raw.get(key)
        if val is None:
            if required:
                _fail(self.name, key, "required key is missing")
            val = default
        if val is not None and choices is not None and val not in choices:
            _fail(self.name, key, f"must be one of {sorted(choices)}, got {val!r}")
        if val is not None:
            self._record(key, val)
        return val

    def get_float(self, key, default=None, required=False):
        val = self.raw.get(key)
        if val is None:
            if required:
                _fail(self.name, key, "required key is missing")
            if default is not None:
                self._record(key, default)
            return default
        try:
            out = float(val)
        except ValueError:
            _fail(self.name, key, f"not a number: {val!r}")
        if not math.isfinite(out):
            _fail(self.name, key, f"must be finite, got {val!r}")
        self._record(key, out)
        return out

    def get_int(self, key, default=None, required=False):
        val = self.raw.get(key)
        if val is None:
            if required:
                _fail(self.name, key, "required key is missing")
            if default is not None:
                self._record(key, default)
            return default
        try:
            out = int(val)
        except ValueError:
            _fail(self.name, key, f"not an integer: {val!r}")
        self._record(key, out)
        return out

    def get_floats(self, key, required=False):
        val = self.raw.get(key)
        if val is None:
            if required:
                _fail(self.name, key, "required key is missing")
            return None
        try:
            out = [float(tok) for tok in val.replace(";", ",").split(",") if tok.strip()]
        except ValueError:
            _fail(self.name, key, f"not a comma-separated number list: {val!r}")
        if not all(map(math.isfinite, out)):
            _fail(self.name, key, f"every number must be finite, got {val!r}")
        self._record(key, ",".join(repr(v) for v in out))
        return out


def _parse_theta_grid(section) -> np.ndarray:
    spec = section.get_str("theta_grid", default="-5:5:21")
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = _finite(lo_s), _finite(hi_s), int(n_s)
        if n < 1:
            raise ValueError
    except ValueError:
        _fail("run", "theta_grid",
              f"expected 'lo:hi:count' with finite bounds, got {spec!r}")
    return np.linspace(lo, hi, n)


def _finite(token) -> float:
    """``float(token)``, raising ValueError for nan and inf as well."""
    out = float(token)
    if not math.isfinite(out):
        raise ValueError(f"not finite: {token!r}")
    return out


def _parse_rate(section, key, horizon):
    """Rate grammar: a constant, 'ramp: offset slope', or 'table: t v, t v, ...'.

    Returns (callable, inferred_bound).
    """
    raw = section.get_str(key, required=True)
    if raw.startswith("ramp:"):
        try:
            offset, slope = (_finite(tok) for tok in raw[5:].split())
        except ValueError:
            _fail(section.name, key,
                  f"expected 'ramp: offset slope' (finite), got {raw!r}")
        fn = lambda t: np.maximum(offset + slope * np.asarray(t, dtype=float), 0.0)
        bound = max(offset, offset + slope * horizon, 0.0)
        return fn, bound
    if raw.startswith("table:"):
        pairs = [tok.split() for tok in raw[6:].split(",") if tok.strip()]
        try:
            ts = np.array([_finite(p[0]) for p in pairs])
            vs = np.array([_finite(p[1]) for p in pairs])
        except (ValueError, IndexError):
            _fail(section.name, key,
                  f"expected 'table: t v, t v, ...' (finite), got {raw!r}")
        if ts.size < 2 or np.any(np.diff(ts) <= 0) or np.any(vs < 0):
            _fail(section.name, key, "table needs increasing times and rates >= 0")
        fn = lambda t: np.interp(np.asarray(t, dtype=float), ts, vs)
        return fn, float(vs.max())
    try:
        const = _finite(raw)
    except ValueError:
        _fail(section.name, key, f"unrecognized or non-finite rate {raw!r}")
    if const < 0:
        _fail(section.name, key, "rate must be >= 0")
    return None, const  # None signals a constant (stationary) rate


def _build_kernel(section) -> NoiseKernel:
    kind = section.get_str("kind", required=True, choices={
        "jump_to_level", "exponential", "power_law", "random_decay", "custom"})
    if kind == "jump_to_level":
        return _kernels.jump_to_level()
    if kind == "exponential":
        a = section.get_float("a", required=True)
        b = section.get_float("b", required=True)
        return _kernels.exponential(a, b)
    if kind == "power_law":
        c = section.get_float("c", required=True)
        if c <= 0:
            _fail("kernel", "c", "power-law decay needs c > 0")
        return _kernels.power_law(c)
    if kind == "random_decay":
        return _kernels.random_decay()
    ts = section.get_floats("table_t", required=True)
    xs = section.get_floats("table_x", required=True)
    raw_g = section.get_str("table_g", required=True)
    rows = [r for r in raw_g.split(";") if r.strip()]
    try:
        vals = np.array([[_finite(tok) for tok in row.replace(",", " ").split()]
                         for row in rows])
    except ValueError:
        _fail("kernel", "table_g",
              "rows must be finite numbers separated by spaces")
    if vals.shape != (len(ts), len(xs)):
        _fail("kernel", "table_g",
              f"need {len(ts)} rows x {len(xs)} columns, got {vals.shape}")
    return _construct("kernel", "table_g", _kernels.from_table, ts, xs, vals,
                      keys={"ts": "table_t", "xs": "table_x"})


def _build_marks(section) -> _marks.MarkDistribution:
    kind = section.get_str("marks", required=True, choices={
        "point_mass", "normal", "exponential", "uniform", "discrete"})
    if kind == "point_mass":
        value = section.get_floats("mark_value", required=True)
        return _marks.PointMass(value)
    if kind == "normal":
        return _construct("compensator", "mark_std", _marks.Normal,
                          section.get_float("mark_mean", required=True),
                          section.get_float("mark_std", required=True))
    if kind == "exponential":
        return _construct("compensator", "mark_mean", _marks.Exponential,
                          section.get_float("mark_mean", required=True))
    if kind == "uniform":
        return _construct("compensator", "mark_hi", _marks.Uniform,
                          section.get_float("mark_lo", required=True),
                          section.get_float("mark_hi", required=True))
    return _construct("compensator", "mark_weights", _marks.Discrete,
                      section.get_floats("mark_points", required=True),
                      section.get_floats("mark_weights", required=True))


def _construct(section, key, make, *args, keys=None):
    """``make(*args)``, its range check failing as ConfigError.

    The field is the one a :class:`~snoise.errors.ParameterError` names,
    renamed through ``keys`` where the config spells it otherwise, and
    ``key`` for any other ValueError.
    """
    try:
        return make(*args)
    except ValueError as exc:
        name = getattr(exc, "field", None)
        _fail(section, (keys or {}).get(name, name or key), str(exc))


def _build_compensator(section, horizon) -> CompensatorSpec:
    marks = _build_marks(section)
    fn, inferred = _parse_rate(section, "rate", horizon)
    bound = section.get_float("rate_bound", default=None)
    if fn is None:
        return standard(inferred, marks)
    if bound is None:
        bound = inferred
        section._record("rate_bound", bound)
    return CompensatorSpec(rate=fn, rate_bound=bound, marks=marks)


def _build_measure(section, spec: CompensatorSpec) -> MartingaleMeasureSpec:
    lam_p = section.get_float("lambda_prime", required=True)
    if lam_p <= 0:
        _fail("measure", "lambda_prime", "must be > 0")
    eta_kind = section.get_str("eta", default="one", choices={"one", "exp_tilt"})
    if eta_kind == "one":
        return MartingaleMeasureSpec(lam_p, unit_eta(), marks_prime=spec.marks)
    rho_p = section.get_float("eta_rate", required=True)
    if rho_p <= 0:
        _fail("measure", "eta_rate", "must be > 0")
    if not isinstance(spec.marks, _marks.Exponential):
        _fail("measure", "eta", "exp_tilt requires exponential base marks")
    rho = 1.0 / spec.marks.mean
    ratio = rho_p / rho

    def eta(x):
        x1 = np.asarray(x, dtype=float)[..., 0]
        return ratio * np.exp(-(rho_p - rho) * x1)

    return MartingaleMeasureSpec(lam_p, eta,
                                 marks_prime=_marks.Exponential(1.0 / rho_p))


def _build_market(section, kernel, spec, horizon) -> MarketParams:
    x0 = section.get_float("x0", required=True)
    mu = section.get_float("mu", required=True)
    sigma = section.get_float("sigma", required=True)
    fn, inferred = _parse_rate(section, "rate_curve", horizon)
    if fn is None:
        const = inferred
        fn = lambda t: np.full_like(np.asarray(t, dtype=float), const,
                                    dtype=float)
    return _construct("market", "x0", MarketParams, x0, mu, sigma, fn, kernel,
                      spec)


def parse_config(path, *, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    ``overrides`` may replace ``run`` keys (the CLI's --paths/--seed).
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", field="file")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}", field="file")

    for sec in cp.sections():
        if sec not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown section [{sec}]", field=sec)
        for key in cp[sec]:
            if key not in _ALLOWED_KEYS[sec]:
                raise ConfigError("unknown key", field=f"{sec}.{key}")

    if "run" not in cp:
        raise ConfigError("missing [run] section", field="run")

    resolved: dict = {}
    raw_run = dict(cp["run"])
    if overrides:
        ov_scen = overrides.get("scenario")
        if (ov_scen is not None and "scenario" in raw_run
                and raw_run["scenario"] != ov_scen):
            raise ConfigError(
                f"config requests {raw_run['scenario']!r} but the CLI "
                f"invoked {ov_scen!r}", field="run.scenario")
        raw_run.update({k: str(v) for k, v in overrides.items() if v is not None})
    run_sec = _Section("run", raw_run, resolved)

    scenario = run_sec.get_str("scenario", required=True, choices=set(SCENARIOS))
    seed = run_sec.get_int("seed", required=True)
    horizon = run_sec.get_float("horizon", default=1.0)
    if horizon <= 0:
        _fail("run", "horizon", "must be > 0")
    n_paths = run_sec.get_int("n_paths", default=1000)
    min_paths = _MIN_PATHS.get(scenario, 1)
    if n_paths < min_paths:
        _fail("run", "n_paths", f"must be >= {min_paths} for {scenario}")
    grid_points = run_sec.get_int("grid_points", default=64)
    if grid_points < 2:
        _fail("run", "grid_points", "must be >= 2")
    quad_tol = run_sec.get_float("quad_tol", default=DEFAULT_QUAD_TOL)
    if quad_tol <= 0:
        _fail("run", "quad_tol", "must be > 0")
    theta_grid = _parse_theta_grid(run_sec)
    run = RunParams(scenario, horizon, n_paths, seed, grid_points, quad_tol,
                    theta_grid)

    for block in _REQUIRED_BLOCKS[scenario]:
        if block not in cp:
            raise ConfigError(
                f"scenario {scenario!r} needs a [{block}] section", field=block)

    kernel = spec = market = measure = affine = None
    expect_markov = None

    if "kernel" in cp:
        ksec = _Section("kernel", dict(cp["kernel"]), resolved)
        kernel = _build_kernel(ksec)
        raw_expect = ksec.get_str("expect_markov", default=None,
                                  choices={"true", "false"})
        if raw_expect is not None:
            expect_markov = raw_expect == "true"
    if "compensator" in cp:
        csec = _Section("compensator", dict(cp["compensator"]), resolved)
        spec = _build_compensator(csec, horizon)
        if kernel is not None and kernel.mark_dim != spec.mark_dim:
            _fail("compensator", "marks",
                  f"mark dimension {spec.mark_dim} does not match kernel "
                  f"dimension {kernel.mark_dim}")
    if "measure" in cp:
        if spec is None:
            raise ConfigError("[measure] needs a [compensator] section",
                              field="measure")
        msec = _Section("measure", dict(cp["measure"]), resolved)
        measure = _build_measure(msec, spec)
    if "market" in cp:
        if kernel is None or spec is None:
            raise ConfigError("[market] needs [kernel] and [compensator]",
                              field="market")
        marketsec = _Section("market", dict(cp["market"]), resolved)
        market = _build_market(marketsec, kernel, spec, horizon)
    if "affine" in cp:
        asec = _Section("affine", dict(cp["affine"]), resolved)
        kappa = asec.get_float("kappa", required=True)
        theta_bar = asec.get_float("theta_bar", required=True)
        lambda0 = asec.get_float("lambda0", required=True)
        affine = _construct("affine", "kappa", HawkesParams, kappa, theta_bar,
                            lambda0)
        if kappa <= 1.0:
            warnings.warn(
                f"affine.kappa = {kappa} gives branching ratio "
                f"{1.0 / kappa:.3g} >= 1: the cascade is critical or "
                "supercritical and may hit the event cap",
                stacklevel=2,
            )

    return ExperimentConfig(run=run, kernel=kernel, spec=spec, market=market,
                            measure=measure, affine=affine,
                            expect_markov=expect_markov, resolved=resolved)
