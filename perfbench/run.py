"""snoise benchmark runner.

One workload, as the benchmark contract calls it:

    python3 perfbench/run.py --workload cf_sweep --seed 0 --seconds 15 --trace 0

All workloads, with a table of every metric by name and unit (exit code 1 if
any gate fails):

    python3 perfbench/run.py --all [--seed 0] [--seconds 15] [--trace 0|1]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json and ``--trace 1`` its per-layer
metrics.  Human-readable lines go to standard error.  Full results (machine
information, every gate, pass times) and the traced spans are written under
``.bench_out/`` at the repository root.
"""

import os

# pinned before numpy loads, here and in every child process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from clock import Stopwatch, scaled_interval  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2      # fresh processes timed for setup_s, besides the run's own
MIN_PASSES = 2        # passes of one seed are compared for determinism
CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: {path} is missing")
    return json.loads(path.read_text())


def require_sources():
    if not (SRC / "snoise" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no snoise sources under {SRC}")


def import_library():
    """Import the workloads against the checkout's own ``src/snoise``."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import snoise
    if Path(snoise.__file__).resolve().parent != SRC / "snoise":
        raise SystemExit(f"perfbench: imported snoise from {snoise.__file__}, not {SRC}")
    import tracing
    import workloads
    return workloads, tracing


def set_up(name, seed, scale, probe_factory=None):
    """Import, build the inputs and warm up; returns (workload, raw_s, scaled_s)."""
    def build():
        workloads, tracing = import_library()
        probe = probe_factory(tracing) if probe_factory else tracing.NullProbe()
        wl = workloads.WORKLOADS[name](seed, scale, probe)
        wl.warmup()
        return wl
    return scaled_interval(build)


def probe_setup(args) -> tuple[float, float]:
    """setup_s of a fresh process, measured inside it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", repr(args.scale)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: set-up probe exited with {proc.returncode}")
    raw, scaled = proc.stdout.split()[-2:]
    return float(raw), float(scaled)


class Tally:
    """Operations and gates attempted and failed over a run."""

    def __init__(self, seed):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.gates = {}   # name -> (passed, detail) of the latest evaluation
        self.misses = []  # every failed gate, with its pass and seed

    def gate(self, pass_id, name, passed, detail):
        self.attempted += 1
        self.gates[name] = (bool(passed), detail)
        if not passed:
            self.failed += 1
            self.misses.append({"pass": pass_id, "gate": name, "seed": self.seed,
                                "detail": detail})
            print(f"GATE FAIL {name} (seed {self.seed}, pass {pass_id}): {detail}",
                  file=sys.stderr)


def measure(wl, probe, tally, seconds, min_passes, first_pass_id):
    """Repeat the workload's pass while another one fits in ``seconds``.

    Returns the passes as ``(scaled_s, PassResult)`` and the scaled latency
    of every operation in them.
    """
    passes, latencies = [], array("d")
    watch = Stopwatch()
    start = time.perf_counter()
    while True:
        pass_id = first_pass_id + len(passes)
        probe.begin_pass(pass_id)
        t0 = time.perf_counter()
        watch.begin()
        try:
            res = wl.run_pass(watch)
        except Exception:  # a raising library call fails the pass, not the run
            traceback.print_exc()
            tally.attempted += 1
            tally.gate(pass_id, "pass_completed", False, "the pass raised")
            break
        res.raw_s, scaled = watch.end()
        cal = watch.calibrations
        res.calibration_ms = [1e3 * min(cal), 1e3 * statistics.median(cal), 1e3 * max(cal)]
        latencies.extend(watch.latencies)
        tally.attempted += len(watch.latencies) + watch.steps
        elapsed = time.perf_counter() - t0
        passes.append((scaled, res))
        for g in res.gates:
            tally.gate(pass_id, g.name, g.passed, g.detail)
        if len(passes) > 1:
            tally.gate(pass_id, "deterministic_across_passes",
                       res.digest == passes[0][1].digest, "outputs equal pass 1")
        if (len(passes) >= min_passes
                and time.perf_counter() - start + elapsed > seconds):
            break
    return passes, latencies


def percentile(values, q):
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(passes, lat, setup_samples):
    """The end-to-end metrics, all times at the reference speed (see clock.py)."""
    times = [t for t, _r in passes]
    return {
        "setup_s": statistics.median(scaled for _raw, scaled in setup_samples),
        "run_s": statistics.median(times),
        "items_per_s": sum(r.items for _t, r in passes) / sum(times),
        "op_ms_p50": 1e3 * percentile(lat, 0.5),
        "op_ms_p90": 1e3 * percentile(lat, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def stream_us(keys):
    """Median microseconds per ``make_stream`` call on the workload's own keys."""
    from snoise.rng import make_stream
    samples = []
    for key in keys * max(1, 200 // max(len(keys), 1)):
        t0 = time.perf_counter_ns()
        make_stream(*key)
        samples.append((time.perf_counter_ns() - t0) / 1e3)
    return statistics.median(samples) if samples else 0.0


def per_layer(names, probe, traced_passes, untraced_passes, stream_keys, tally):
    """Per-layer metrics of two traced passes; their counts must repeat exactly."""
    counts = [probe.pass_counts(pid) for pid in (1, 2)]
    tally.gate(2, "trace_counts_repeat", counts[0] == counts[1],
               "every counter of traced pass 2 equals pass 1")
    tally.gate(2, "trace_transparent",
               all(r.digest == untraced_passes[0][1].digest for _t, r in traced_passes),
               "traced outputs equal untraced outputs")
    selfs = [probe.self_seconds(pid) for pid in (1, 2)]
    c = counts[0]
    candidates = c.get("point_process.simulate_mpp:rate.points", 0)
    derived = {
        "point_process.simulate_mpp.candidates": candidates,
        "point_process.simulate_mpp.accept_ratio":
            c.get("point_process.simulate_mpp.accepted", 0) / candidates if candidates else 0.0,
        "rng.make_stream.us": stream_us(stream_keys),
        "trace.overhead_frac":
            statistics.median(t for t, _r in traced_passes)
            / statistics.median(t for t, _r in untraced_passes) - 1.0,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".s"):
            out[name] = statistics.mean(s.get(name[:-2], 0.0) for s in selfs)
        else:
            out[name] = c.get(name, 0)
    return out


def cpu_info() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_info(seed) -> dict:
    import numpy
    import scipy
    return {
        "cpu": cpu_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload_seed": seed,
        "git_commit": git_commit(),
    }


def run_workload(args) -> int:
    spec = load_spec()
    require_sources()
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    tally = Tally(args.seed)
    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)] if not args.trace else []
    wl, *own_setup = set_up(args.workload, args.seed, args.scale)
    setup_samples.append(tuple(own_setup))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if not args.trace:
        reported, latencies = measure(wl, wl.probe, tally, args.seconds, MIN_PASSES, 1)
        metrics = end_to_end(reported, latencies, setup_samples) if reported else {}
    else:
        untraced, _lat = measure(wl, wl.probe, tally, args.seconds / 2.0, 1, 1)
        del wl
        traced_wl, _raw, _scaled = set_up(args.workload, args.seed, args.scale,
                                          lambda tracing: tracing.Probe())
        probe = traced_wl.probe
        traced, latencies = measure(traced_wl, probe, tally, 0.0, 2, 1)
        metrics = {}
        if untraced and len(traced) == 2:
            metrics = per_layer(list(units), probe, traced, untraced,
                                traced_wl.stream_keys(), tally)
        probe.write_spans(OUT / f"spans-{stem}.tsv.gz")
        reported = traced

    missing = [name for name in units if name not in metrics]
    if missing:
        tally.gate(0, "metrics_emitted", False, f"no value for {missing}")
    correct = tally.failed == 0
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "machine": machine_info(args.seed),
        "setup_samples_s": {"raw": [r for r, _s in setup_samples],
                            "scaled": [s for _r, s in setup_samples]},
        "pass_seconds": {"raw": [r.raw_s for _t, r in reported],
                         "scaled": [t for t, _r in reported]},
        "calibration_ms_min_median_max": [r.calibration_ms for _t, r in reported],
        "items_per_pass": reported[0][1].items if reported else 0,
        "latency_samples": len(latencies),
        "gates": {name: {"passed": p, "detail": d} for name, (p, d) in tally.gates.items()},
        "gate_misses": tally.misses,
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_frac": tally.failed / max(tally.attempted, 1),
        "correct": correct,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    for name in units:
        if name in metrics:
            print(f"{args.workload:13s} {name:44s} {metrics[name]:14.6g} {units[name]}",
                  file=sys.stderr)
    print(f"{args.workload:13s} {'fail_frac':44s} {result['fail_frac']:14.6g} "
          f"({tally.failed}/{tally.attempted})", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": result["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; exit code 1 if any gate failed."""
    rows, combined, ok = [], {}, True
    for name in args.workloads:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--scale", repr(args.scale)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        combined[name] = json.loads((OUT / f"result-{stem}.json").read_text())
        rows.append((name, "fail_frac", res["failed"] / res["attempted"],
                     f"({res['failed']}/{res['attempted']})"))
        rows.extend((name, m, v["value"], v["unit"]) for m, v in res["metrics"].items())
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(combined, indent=1) + "\n")
    for name, metric, value, unit in rows:
        print(f"{name:13s} {metric:44s} {value:14.6g} {unit}")
    print("all gates passed" if ok else "SOME GATES FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    names = [w["name"] for w in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the pass sizes (the smoke test runs tiny ones)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must lie in (0, 1]")
    if args.setup_probe:
        _wl, raw, scaled = set_up(args.workload, args.seed, args.scale)
        print(repr(raw), repr(scaled))
        return 0
    if args.all:
        args.workloads = [args.workload] if args.workload else names
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
