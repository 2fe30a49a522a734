"""Smoke test of the benchmark at tiny scale (about a minute on 2 CPUs).

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced, with
pass sizes scaled down, and checks that the result line has exactly the
contract's keys, that every gate passed and that every metric named in
BENCHMARK.json is emitted with its unit.  Exits 1 on the first problem.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCALE = "0.02"


def check(cond, msg):
    if not cond:
        raise SystemExit(f"smoke: {msg}")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
                   "--seed", "1", "--seconds", "0", "--trace", str(trace),
                   "--scale", SCALE]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            check(proc.returncode == 0, f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"result keys {sorted(res)}")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{wl['name']} trace {trace} failed gates:\n{proc.stderr}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            check(got == want, f"{wl['name']} trace {trace}: metrics differ from "
                               f"BENCHMARK.json: {sorted(set(want) ^ set(got))}")
            check(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
                  f"{wl['name']} trace {trace}: a metric value is not a number")
            print(f"ok {wl['name']} trace {trace}: {len(got)} metrics")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
