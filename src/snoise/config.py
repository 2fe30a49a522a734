"""Experiment configuration: flat INI-style files, strictly validated.

The format is sectioned key-value text (chosen over nested formats for
diffability in golden tests).  Each key is declared once, where a builder
reads it: a key that no builder reads for the chosen kernel kind, mark law,
rate form or eta is an error (``rate_bound`` goes with ramp and table rates
only), as is a section the scenario does not read (``SCENARIOS``).  Every
numeric field is validated on parse, and ``run.seed`` is mandatory
(reproducibility is a contract, not an option).
See the README for the full grammar and examples.
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

# scenario -> (the sections it needs, the fewest paths its statistics are
# defined on: its CF and transform estimates need 100 samples, a standard
# error needs 2)
SCENARIOS = {
    "simulate": (("kernel", "compensator"), 1),
    "cf-compare": (("kernel", "compensator"), 100),
    "markov-test": (("kernel",), 1),
    "affine-validate": (("affine",), 100),
    "measure-check": (("compensator", "measure"), 2),
    "drift-check": (("kernel", "compensator", "market", "measure"), 2),
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


def _finite(token) -> float:
    """``float(token)``, raising ValueError for nan and inf as well."""
    try:
        out = float(token)
    except ValueError:
        raise ValueError(f"not a number: {token!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"must be finite, got {token!r}")
    return out


def _integer(token) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"not an integer: {token!r}") from None


def _finite_list(token) -> list[float]:
    """Comma- (or semicolon-) separated finite numbers."""
    try:
        out = [float(tok) for tok in token.replace(";", ",").split(",")
               if tok.strip()]
    except ValueError:
        raise ValueError(
            f"not a comma-separated number list: {token!r}") from None
    if not all(map(math.isfinite, out)):
        raise ValueError(f"every number must be finite, got {token!r}")
    return out


class _Section:
    """One config section: one typed getter, which records what it reads."""

    def __init__(self, name, raw, resolved):
        self.name = name
        self.raw = dict(raw)
        self.resolved = resolved
        self.read = set()

    def get(self, key, parse=str, default=None, required=False, choices=None):
        """``parse`` of the key's text, or ``default`` when it is absent,
        recorded in ``resolved`` unless None (a list as comma-joined reprs);
        a ValueError from ``parse`` fails as ConfigError on the key."""
        self.read.add(key)
        text = self.raw.get(key)
        if text is None:
            if required:
                _fail(self.name, key, "required key is missing")
            value = default
        elif choices is not None and text not in choices:
            _fail(self.name, key,
                  f"must be one of {sorted(choices)}, got {text!r}")
        else:
            try:
                value = parse(text)
            except ValueError as exc:
                _fail(self.name, key, str(exc))
        if value is not None:
            self.resolved.setdefault(self.name, {})[key] = (
                ",".join(map(repr, value)) if isinstance(value, list)
                else str(value))
        return value


def _parse_theta_grid(section) -> np.ndarray:
    spec = section.get("theta_grid", default="-5:5:21")
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = _finite(lo_s), _finite(hi_s), int(n_s)
        if n < 1:
            raise ValueError
    except ValueError:
        _fail("run", "theta_grid",
              f"expected 'lo:hi:count' with finite bounds, got {spec!r}")
    return np.linspace(lo, hi, n)


def _parse_curve(section, key):
    """Curve grammar: a constant, 'ramp: offset slope', or 'table: t v, t v, ...'.

    Returns the vectorized curve, its constant (None for a ramp or a table)
    and its table knots, with values of any sign as written.
    """
    raw = section.get(key, required=True)
    if raw.startswith("ramp:"):
        try:
            offset, slope = (_finite(tok) for tok in raw[5:].split())
        except ValueError:
            _fail(section.name, key,
                  f"expected 'ramp: offset slope' (finite), got {raw!r}")
        return lambda t: offset + slope * np.asarray(t, dtype=float), None, ()
    if raw.startswith("table:"):
        pairs = [tok.split() for tok in raw[6:].split(",") if tok.strip()]
        try:
            ts, vs = np.array([(_finite(p[0]), _finite(p[1])) for p in pairs]).T
        except (ValueError, IndexError):
            _fail(section.name, key,
                  f"expected 'table: t v, t v, ...' (finite), got {raw!r}")
        if ts.size < 2 or np.any(np.diff(ts) <= 0):
            _fail(section.name, key, "table needs increasing times")
        return lambda t: np.interp(np.asarray(t, dtype=float), ts, vs), None, ts
    try:
        const = _finite(raw)
    except ValueError:
        _fail(section.name, key, f"unrecognized or non-finite rate {raw!r}")
    return lambda t: np.full_like(np.asarray(t, dtype=float), const), const, ()


def _build_kernel(section) -> NoiseKernel:
    kind = section.get("kind", required=True, choices={
        "jump_to_level", "exponential", "power_law", "random_decay", "custom"})
    if kind == "jump_to_level":
        return _kernels.jump_to_level()
    if kind == "exponential":
        return _kernels.exponential(
            section.get("a", parse=_finite, required=True),
            section.get("b", parse=_finite, required=True))
    if kind == "power_law":
        return _construct("kernel", "c", _kernels.power_law,
                          section.get("c", parse=_finite, required=True))
    if kind == "random_decay":
        return _kernels.random_decay()
    ts = section.get("table_t", parse=_finite_list, required=True)
    xs = section.get("table_x", parse=_finite_list, required=True)
    raw_g = section.get("table_g", required=True)
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
    kind = section.get("marks", required=True, choices={
        "point_mass", "normal", "exponential", "uniform", "discrete"})

    def number(key):
        return section.get(key, parse=_finite, required=True)

    def numbers(key):
        return section.get(key, parse=_finite_list, required=True)

    # the config's names of the fields a mark law's ParameterError names
    keys = {name: "mark_" + name for name in ("mean", "std", "lo", "hi")}
    keys["weights"] = "mark_weights"

    if kind == "point_mass":
        return _marks.PointMass(numbers("mark_value"))
    if kind == "normal":
        return _construct("compensator", "mark_std", _marks.Normal,
                          number("mark_mean"), number("mark_std"), keys=keys)
    if kind == "exponential":
        return _construct("compensator", "mark_mean", _marks.Exponential,
                          number("mark_mean"), keys=keys)
    if kind == "uniform":
        return _construct("compensator", "mark_hi", _marks.Uniform,
                          number("mark_lo"), number("mark_hi"), keys=keys)
    return _construct("compensator", "mark_weights", _marks.Discrete,
                      numbers("mark_points"), numbers("mark_weights"),
                      keys=keys)


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
    rate, const, knots = _parse_curve(section, "rate")
    if const is not None:
        return _construct("compensator", "rate", standard, const, marks,
                          keys={"lam": "rate"})
    # a ramp or a table is least and largest on [0, horizon] at an end or a knot
    at = np.array([0.0, *(k for k in knots if 0.0 < k < horizon), horizon])
    values = rate(at)
    if values.min() < 0:
        _fail("compensator", "rate", f"must be >= 0 on [0, horizon], got "
              f"rate({at[values.argmin()]:.6g}) = {values.min():.6g}")
    bound = section.get("rate_bound", parse=_finite, default=float(values.max()))
    return _construct("compensator", "rate_bound", CompensatorSpec, rate,
                      bound, marks)


def _build_measure(section, spec: CompensatorSpec) -> MartingaleMeasureSpec:
    lam_p = section.get("lambda_prime", parse=_finite, required=True)
    eta_kind = section.get("eta", default="one", choices={"one", "exp_tilt"})
    if eta_kind == "one":
        eta, marks_prime = unit_eta(), spec.marks
    else:
        rho_p = section.get("eta_rate", parse=_finite, required=True)
        if rho_p <= 0:
            _fail("measure", "eta_rate", "must be > 0")
        if not isinstance(spec.marks, _marks.Exponential):
            _fail("measure", "eta", "exp_tilt requires exponential base marks")
        rho = 1.0 / spec.marks.mean
        ratio = rho_p / rho

        def eta(x):
            x1 = np.asarray(x, dtype=float)[..., 0]
            with np.errstate(over="ignore"):
                # a huge eta_rate overflows it to -inf, whose exp is the
                # limit 0
                tilt = -(rho_p - rho) * x1
            return ratio * np.exp(tilt)

        marks_prime = _marks.Exponential(1.0 / rho_p)
    return _construct("measure", "lambda_prime", MartingaleMeasureSpec, lam_p,
                      eta, marks_prime)


def _build_market(section, kernel, spec) -> MarketParams:
    x0 = section.get("x0", parse=_finite, required=True)
    mu = section.get("mu", parse=_finite, required=True)
    sigma = section.get("sigma", parse=_finite, required=True)
    return _construct("market", "x0", MarketParams, x0, mu, sigma,
                      _parse_curve(section, "rate_curve")[0], kernel, spec)


def _build_affine(section) -> HawkesParams:
    kappa = section.get("kappa", parse=_finite, required=True)
    affine = _construct("affine", "kappa", HawkesParams, kappa,
                        section.get("theta_bar", parse=_finite, required=True),
                        section.get("lambda0", parse=_finite, required=True))
    if affine.branching_ratio >= 1.0:
        warnings.warn(
            f"affine.kappa = {kappa} gives branching ratio "
            f"{affine.branching_ratio:.3g} >= 1: the cascade is critical or "
            "supercritical and may hit the event cap",
            stacklevel=3,
        )
    return affine


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

    if "run" not in cp:
        raise ConfigError("missing [run] section", field="run")

    resolved: dict = {}
    sections = {sec: _Section(sec, cp[sec], resolved) for sec in cp.sections()}
    run_sec = sections["run"]
    if overrides:
        ov_scen = overrides.get("scenario")
        if (ov_scen is not None and "scenario" in run_sec.raw
                and run_sec.raw["scenario"] != ov_scen):
            raise ConfigError(
                f"config requests {run_sec.raw['scenario']!r} but the CLI "
                f"invoked {ov_scen!r}", field="run.scenario")
        run_sec.raw.update({k: str(v) for k, v in overrides.items()
                            if v is not None})

    scenario = run_sec.get("scenario", required=True, choices=SCENARIOS)
    blocks, min_paths = SCENARIOS[scenario]
    seed = run_sec.get("seed", parse=_integer, required=True)
    if not 0 <= seed < 2**64:
        _fail("run", "seed", f"must be in [0, 2^64), got {seed}")
    horizon = run_sec.get("horizon", parse=_finite, default=1.0)
    if horizon <= 0:
        _fail("run", "horizon", "must be > 0")
    n_paths = run_sec.get("n_paths", parse=_integer, default=1000)
    if n_paths < min_paths:
        _fail("run", "n_paths", f"must be >= {min_paths} for {scenario}")
    grid_points = run_sec.get("grid_points", parse=_integer, default=64)
    if grid_points < 2:
        _fail("run", "grid_points", "must be >= 2")
    quad_tol = run_sec.get("quad_tol", parse=_finite, default=DEFAULT_QUAD_TOL)
    if quad_tol <= 0:
        _fail("run", "quad_tol", "must be > 0")
    theta_grid = _parse_theta_grid(run_sec)
    run = RunParams(scenario, horizon, n_paths, seed, grid_points, quad_tol,
                    theta_grid)

    for sec in cp.sections():
        if sec not in ("run", *blocks):
            raise ConfigError(f"scenario {scenario!r} reads no [{sec}] section",
                              field=sec)
    for block in blocks:
        if block not in cp:
            raise ConfigError(
                f"scenario {scenario!r} needs a [{block}] section", field=block)

    # only the scenario's blocks are present, and SCENARIOS pairs [measure]
    # with [compensator] and [market] with [kernel] and [compensator]
    kernel = spec = market = measure = affine = expect_markov = None
    if "kernel" in cp:
        kernel = _build_kernel(sections["kernel"])
        expect = sections["kernel"].get("expect_markov",
                                        choices={"true", "false"})
        expect_markov = None if expect is None else expect == "true"
    if "compensator" in cp:
        spec = _build_compensator(sections["compensator"], horizon)
        if kernel is not None and kernel.mark_dim != spec.mark_dim:
            _fail("compensator", "marks",
                  f"mark dimension {spec.mark_dim} does not match kernel "
                  f"dimension {kernel.mark_dim}")
    if "measure" in cp:
        measure = _build_measure(sections["measure"], spec)
    if "market" in cp:
        market = _build_market(sections["market"], kernel, spec)
    if "affine" in cp:
        affine = _build_affine(sections["affine"])

    for sec in sections.values():
        unread = [key for key in sec.raw if key not in sec.read]
        if unread:
            _fail(sec.name, unread[0], "unknown key, or one the chosen "
                  "kind, marks, rate form or eta does not read")
    return ExperimentConfig(run=run, kernel=kernel, spec=spec, market=market,
                            measure=measure, affine=affine,
                            expect_markov=expect_markov, resolved=resolved)
