"""Scenario runner: executes one configured experiment, writes CSV artifacts
and a plain-text report, and returns a process exit code.

Every report embeds the full resolved configuration (audit trail), and every
statistical comparison reports the ratio |delta| / SE rather than a bare
boolean.  Output files are written atomically (temp + rename) and floats are
serialized with 17 significant digits, so fixed seeds give byte-identical
artifacts across runs.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .affine import affine_cf, simulate_hawkes_batch
from .config import ExperimentConfig
from .errors import ConfigError, NotSeparableError, ZeroAtOriginError
from .kernels import is_markov_kernel
from .measure_change import (
    density_process,
    drift_residual,
    eta_normalization,
    girsanov_compensator,
    market_price_of_risk,
    prime_spec,
    simulate_stock,
    stationary_reweight,
)
from .point_process import empty_path, past_sum
from .rng import TAG_BATCH, TAG_BATCH_PRIME
from .shotnoise import (
    FiltrationState,
    ShotNoiseProcess,
    conditional_cf,
    semimartingale_decompose,
)
from .stats import (
    Z_BASE,
    batch_log_weights,
    cf_ratio,
    empirical_cf,
    ks_two_sample_weighted,
    martingale_drift_test,
    mean_estimate,
    simulate_batch,
)

# rows formatted at once: bounds the text a large table holds in memory
_CSV_BLOCK = 2**12


# the text of a cell by its column's dtype kind: integers in full, floats to
# 17 significant digits
_CELL_FORMAT = {"i": "%d", "u": "%d", "f": "%.17g"}


def write_csv_atomic(path: Path, header, columns) -> None:
    """Write a table given as equal-length 1-d integer or float columns
    (arrays or lists), one ``%``-format per row, a block of rows at a time;
    the rows read as ``csv.writer`` would write them."""
    columns = [np.asarray(col) for col in columns]
    if any(col.dtype.kind not in _CELL_FORMAT for col in columns):
        raise TypeError("CSV columns must be integer or float, got "
                        f"{[col.dtype.str for col in columns]}")
    n_rows = len(columns[0]) if columns else 0
    if any(len(col) != n_rows for col in columns):
        raise ValueError("CSV columns must have equal lengths")
    row = ",".join(_CELL_FORMAT[col.dtype.kind] for col in columns) + "\r\n"
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, n_rows, _CSV_BLOCK):
            cells = zip(*(col[lo:lo + _CSV_BLOCK].tolist() for col in columns))
            fh.write("".join(map(row.__mod__, cells)))
    os.replace(tmp, path)


@dataclass
class Check:
    name: str
    detail: str
    passed: bool | None  # None = informational

    def __post_init__(self):
        # a numpy bool verdict is not the ``False`` the result looks for
        if self.passed is not None:
            self.passed = bool(self.passed)


def _report_text(config: ExperimentConfig, checks: list[Check]) -> str:
    lines = ["snoise report", f"scenario: {config.run.scenario}", ""]
    lines.append("[resolved config]")
    for section in sorted(config.resolved):
        for key in sorted(config.resolved[section]):
            lines.append(f"{section}.{key} = {config.resolved[section][key]}")
    lines.append("")
    lines.append("[checks]")
    for chk in checks:
        tag = "INFO" if chk.passed is None else ("PASS" if chk.passed else "FAIL")
        lines.append(f"{tag} {chk.name}: {chk.detail}")
    lines.append("")
    failed = any(chk.passed is False for chk in checks)
    lines.append(f"RESULT: {'FAIL' if failed else 'PASS'}")
    lines.append("")
    return "\n".join(lines)


def _finish(config, checks, out_dir: Path) -> int:
    text = _report_text(config, checks)
    tmp = out_dir / "report.txt.tmp"
    tmp.write_text(text)
    os.replace(tmp, out_dir / "report.txt")
    return 1 if any(chk.passed is False for chk in checks) else 0


def run_scenario(config: ExperimentConfig, out_dir) -> int:
    """Execute the configured scenario; returns 0 (pass) or 1 (check failure)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = _RUNNERS[config.run.scenario]
    return runner(config, out_dir)


def _run_simulate(config: ExperimentConfig, out_dir: Path) -> int:
    """Write S on the grid (paths.csv), the events and path 0's decomposition.

    All paths are one :func:`~snoise.stats.simulate_batch` on ``TAG_BATCH``:
    paths.csv is one :func:`~snoise.point_process.past_sum` and events.csv the
    flat arrays, so a run's first k paths depend on its path count.
    """
    run = config.run
    proc = ShotNoiseProcess(config.kernel, config.spec)
    grid = np.linspace(0.0, run.horizon, run.grid_points)
    batch = simulate_batch(config.spec, run.horizon, run.n_paths, run.seed,
                           tag=TAG_BATCH)
    s_vals = past_sum(config.kernel.G, batch, grid)
    write_csv_atomic(out_dir / "paths.csv", ["path_id", "t", "S_t"],
                     [np.repeat(np.arange(run.n_paths), grid.size),
                      np.tile(grid, run.n_paths), s_vals.ravel()])
    mark_cols = [f"U_{d + 1}" for d in range(config.spec.mark_dim)]
    write_csv_atomic(out_dir / "events.csv", ["path_id", "T_i", *mark_cols],
                     [batch.path_ids(), batch.times, *batch.marks.T])

    checks = []
    decomp = semimartingale_decompose(proc, batch.path(0), grid,
                                      quad_tol=run.quad_tol)
    s_first = s_vals[0]
    resid = float(np.abs(decomp.drift + decomp.jump_part - s_first).max())
    write_csv_atomic(
        out_dir / "decomposition.csv",
        ["t", "S_t", "drift_t", "jump_part_t"],
        [grid, s_first, decomp.drift, decomp.jump_part],
    )
    checks.append(Check(
        "semimartingale_reconstruction",
        f"max |drift + jumps - S| = {resid:.3e} <= quad_tol = {run.quad_tol:.1e}",
        resid <= run.quad_tol,
    ))
    return _finish(config, checks, out_dir)


def _run_cf_compare(config: ExperimentConfig, out_dir: Path) -> int:
    run = config.run
    proc = ShotNoiseProcess(config.kernel, config.spec)
    state0 = FiltrationState(0.0, empty_path(0.0, config.spec.mark_dim))

    analytic = conditional_cf(proc, state0, run.horizon, run.theta_grid,
                              quad_tol=run.quad_tol)
    write_csv_atomic(
        out_dir / "cf_sweep.csv", ["theta", "re", "im", "abs"],
        [run.theta_grid, analytic.real, analytic.imag,
         np.hypot(analytic.real, analytic.imag)],
    )

    batch = simulate_batch(config.spec, run.horizon, run.n_paths, run.seed,
                           tag=TAG_BATCH)
    terminal = past_sum(config.kernel.G, batch, run.horizon)
    est = empirical_cf(terminal, run.theta_grid)
    ratio = cf_ratio(analytic, est)
    # an array max, unlike max(), keeps a NaN ratio and so fails the check
    worst = float(np.max(ratio))
    delta = analytic - est.value
    write_csv_atomic(
        out_dir / "cf_compare.csv",
        ["theta", "re_analytic", "im_analytic", "re_mc", "im_mc", "se",
         "abs_delta", "ratio"],
        np.broadcast_arrays(run.theta_grid, analytic.real, analytic.imag,
                            est.value.real, est.value.imag, est.se,
                            np.hypot(delta.real, delta.imag), ratio),
    )
    checks = [Check(
        "cf_vs_mc",
        f"max |delta|/SE = {worst:.3f} <= {Z_BASE} over "
        f"{run.theta_grid.size} theta points, {run.n_paths} paths",
        worst <= Z_BASE,
    )]
    return _finish(config, checks, out_dir)


def _run_markov_test(config: ExperimentConfig, out_dir: Path) -> int:
    checks = []
    verdict = None
    try:
        result = is_markov_kernel(config.kernel)
    except NotSeparableError as exc:
        checks.append(Check("markov_classification",
                            f"kernel not separable: {exc}", None))
    except ZeroAtOriginError as exc:
        checks.append(Check("markov_classification",
                            f"H(0) vanishes: {exc}", None))
    else:
        verdict = result.is_markov
        if result.is_markov:
            detail = (f"Markov; fitted a = {result.a:.12g}, "
                      f"b = {result.b:.12g}, "
                      f"max Cauchy residual = {result.max_residual:.3e}")
        else:
            detail = (f"not Markov; max Cauchy residual = "
                      f"{result.max_residual:.3e}")
        checks.append(Check("markov_classification", detail, None))
    if config.expect_markov is not None:
        ok = verdict is not None and verdict == config.expect_markov
        checks.append(Check(
            "markov_expectation",
            f"expected {config.expect_markov}, classified {verdict}", ok))
    return _finish(config, checks, out_dir)


def _run_affine_validate(config: ExperimentConfig, out_dir: Path) -> int:
    run = config.run
    params = config.affine
    batch = simulate_hawkes_batch(params, run.horizon, run.n_paths, run.seed)
    n_term = batch.events.counts
    lam_term = batch.intensity(run.horizon)
    identity_resid = float(np.abs(batch.closed_form_intensities()
                                  - batch.intensities).max(initial=0.0))
    first = batch.path(0)

    checks = [Check(
        "shotnoise_identity",
        f"max |lambda_sim - closed form| = {identity_resid:.3e} <= 1e-10 "
        "at event times",
        identity_resid <= 1e-10,
    )]

    u = np.array([(0.5, 0.0), (1.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.5, 0.5)])
    analytic = np.array([affine_cf(params, (0.0, 0.0, params.lambda0),
                                   run.horizon, u_k) for u_k in u.tolist()])
    est = empirical_cf(u[:, :1] * n_term + u[:, 1:] * lam_term, 1.0)
    ratio = cf_ratio(analytic, est)
    worst = float(np.max(ratio))
    write_csv_atomic(
        out_dir / "transform_compare.csv",
        ["u1", "u2", "re_analytic", "im_analytic", "re_mc", "im_mc", "se",
         "ratio"],
        [u[:, 0], u[:, 1], analytic.real, analytic.imag,
         est.value.real, est.value.imag, est.se, ratio],
    )
    checks.append(Check(
        "transform_vs_mc",
        f"max |delta|/SE = {worst:.3f} <= {Z_BASE} over {len(u)} "
        f"transform arguments, {run.n_paths} paths",
        worst <= Z_BASE,
    ))

    events = first.events.times
    write_csv_atomic(out_dir / "events.csv", ["path_id", "T_i"],
                     [np.zeros(events.size, dtype=int), events])
    grid = np.unique(np.concatenate(
        [np.linspace(0.0, run.horizon, run.grid_points), events]))
    write_csv_atomic(out_dir / "intensity.csv", ["t", "lambda_t"],
                     [grid, first.intensity(grid)[0]])
    return _finish(config, checks, out_dir)


def _require_stationary(config):
    lam = config.spec.stationary_rate
    if lam is None or lam <= 0:
        need = "constant" if lam is None else "positive"
        raise ConfigError(f"this scenario needs a {need} rate",
                          field="compensator.rate")


def _run_measure_check(config: ExperimentConfig, out_dir: Path) -> int:
    run = config.run
    _require_stationary(config)
    spec, mm = config.spec, config.measure
    girsanov = stationary_reweight(mm, spec)
    checks = []

    norm = eta_normalization(mm, spec, run.quad_tol)
    checks.append(Check(
        "eta_normalization",
        f"|int eta dF - 1| = {abs(norm - 1.0):.3e} <= 1e-6",
        abs(norm - 1.0) <= 1e-6,
    ))

    comp = girsanov_compensator(girsanov, spec, run.horizon,
                                quad_tol=run.quad_tol)
    batch = simulate_batch(spec, run.horizon, run.n_paths, run.seed,
                           tag=TAG_BATCH)
    weights = np.exp(batch_log_weights(girsanov.Y, batch, comp))

    mean_l = mean_estimate(weights)
    ratio = cf_ratio(1.0, mean_l)
    checks.append(Check(
        "density_martingale",
        f"E[L_T] = {mean_l.value:.6f} +- {mean_l.se:.2e}, "
        f"|E[L_T]-1|/SE = {ratio:.3f} <= {Z_BASE}",
        ratio <= Z_BASE,
    ))

    direct = simulate_batch(prime_spec(mm, spec), run.horizon, run.n_paths,
                            run.seed, tag=TAG_BATCH_PRIME)
    rw = mean_estimate(weights * batch.counts)
    mean_d = mean_estimate(direct.counts)
    # independent samples: the SE of the difference adds theirs in quadrature
    zratio = cf_ratio(mean_d.value, rw._replace(se=math.hypot(rw.se, mean_d.se)))
    checks.append(Check(
        "reweighted_count",
        f"reweighted mean count {rw.value:.4f} vs direct {mean_d.value:.4f}, "
        f"|delta|/SE = {zratio:.3f} <= {Z_BASE} "
        f"(target lambda'*T = {mm.lambda_prime * run.horizon:.4f})",
        zratio <= Z_BASE,
    ))

    if batch.times.size and direct.times.size:
        ks = ks_two_sample_weighted(
            batch.marks[:, 0], direct.marks[:, 0],
            w1=np.repeat(weights, batch.counts))
        checks.append(Check(
            "reweighted_mark_ks",
            f"KS = {ks.statistic:.4f} <= {ks.threshold:.4f} at 1% "
            f"(n_eff = {ks.n_eff_1:.0f} vs {ks.n_eff_2:.0f})",
            ks.passed,
        ))

    grid = np.linspace(0.0, run.horizon, run.grid_points)
    dens = [density_process(girsanov, spec, batch.path(i), grid,
                            quad_tol=run.quad_tol)
            for i in range(min(run.n_paths, 10))]
    write_csv_atomic(out_dir / "density.csv", ["path_id", "t", "L_t"],
                     [np.repeat(np.arange(len(dens)),
                                [d.times.size for d in dens]),
                      np.concatenate([d.times for d in dens]),
                      np.concatenate([d.L for d in dens])])
    return _finish(config, checks, out_dir)


def _run_drift_check(config: ExperimentConfig, out_dir: Path) -> int:
    run = config.run
    _require_stationary(config)
    market, mm = config.market, config.measure

    grid = np.linspace(0.0, run.horizon, 9)
    stock = simulate_stock(market, mm, run.horizon, grid, run.n_paths,
                           run.seed, quad_tol=run.quad_tol)
    # the path terms of xi and of the residual cancel, so any state serves:
    # the stock's own first jump paths give them, one time per path
    checks = []
    n_states = min(run.n_paths, 1000)
    states = stock.paths.head(n_states)
    t = run.horizon * (0.1 + 0.8 * (np.arange(n_states) / max(n_states - 1, 1)))
    xi = market_price_of_risk(market, mm, t, states, quad_tol=run.quad_tol)
    resid = drift_residual(market, mm, t, states, xi=xi, quad_tol=run.quad_tol)
    worst = float(np.abs(resid).max())
    checks.append(Check(
        "drift_residual",
        f"max |residual| = {worst:.3e} <= 1e-10 over {n_states} states",
        worst <= 1e-10,
    ))

    disc = np.exp(-market.integrated_rate(grid, run.quad_tol))
    disc_paths = stock.X * disc[None, :]
    mean_t = mean_estimate(disc_paths[:, -1])
    ratio = cf_ratio(market.x0, mean_t)
    checks.append(Check(
        "discounted_martingale",
        f"mean(e^-int r X_T) = {mean_t.value:.6f} vs X0 = {market.x0}, "
        f"|delta|/SE = {ratio:.3f} <= {Z_BASE}",
        ratio <= Z_BASE,
    ))
    if run.n_paths >= 1000:
        report = martingale_drift_test(grid, disc_paths)
        checks.append(Check(
            "martingale_drift_test",
            f"max |z| = {float(np.abs(report.z_scores).max()):.3f} <= "
            f"{report.threshold:.3f} over {report.z_scores.size} windows",
            report.passed,
        ))

        r0 = float(market.short_rate(0.0))
        if abs(market.mu_drift - r0) > 1e-12:
            control = simulate_stock(market, None, run.horizon, grid,
                                     run.n_paths, run.seed,
                                     quad_tol=run.quad_tol)
            ctrl_paths = control.X * disc[None, :]
            ctrl = martingale_drift_test(grid, ctrl_paths)
            # a NaN or overflowed control gives z = inf, which fails the
            # drift test without showing any drift
            z = np.abs(ctrl.z_scores)
            shows_drift = bool(np.isfinite(z).all()
                               and (z > ctrl.threshold).any())
            checks.append(Check(
                "negative_control",
                f"P-measure drift test "
                f"{'fails as expected' if shows_drift else 'shows no finite drift'}"
                f" (max |z| = {float(z.max()):.1f})",
                shows_drift,
            ))

    girsanov = stationary_reweight(mm, market.spec)
    n_rows = min(run.n_paths, 10)
    l_at_grid = []
    for i in range(n_rows):
        dens = density_process(girsanov, market.spec, stock.paths.path(i), grid,
                               quad_tol=run.quad_tol)
        l_at_grid.append(dens.L[np.searchsorted(dens.times, grid)])
    write_csv_atomic(out_dir / "stock.csv", ["path_id", "t", "X_t", "L_t"],
                     [np.repeat(np.arange(n_rows), grid.size),
                      np.tile(grid, n_rows), stock.X[:n_rows].ravel(),
                      np.concatenate(l_at_grid)])
    return _finish(config, checks, out_dir)


_RUNNERS = {
    "simulate": _run_simulate,
    "cf-compare": _run_cf_compare,
    "markov-test": _run_markov_test,
    "affine-validate": _run_affine_validate,
    "measure-check": _run_measure_check,
    "drift-check": _run_drift_check,
}
