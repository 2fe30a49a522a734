"""The benchmark's imports from ``snoise`` still resolve, and its calls work.

``perfbench/`` drives the library through its public names; a renamed or
deleted name would surface only as a failed benchmark run, so one test
reads the benchmark's sources (without importing them) and resolves every
name they import from ``snoise``.  Another runs one small pass of the
library-level workloads, so that a changed return shape fails here too, and
a third runs those passes and a small pass of the shipped configs traced:
the benchmark's counting wrappers forward only some hooks of a kernel or
mark law, so a library route keyed on anything else would compute other
outputs in the traced pass.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _snoise_imports():
    for source in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module.split(".")[0] == "snoise"):
                for alias in node.names:
                    yield source.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "snoise":
                        yield source.name, alias.name, None


def test_benchmark_imports_resolve():
    imports = set(_snoise_imports())
    assert any(src == "workloads.py" and name is not None
               for src, _module, name in imports)
    missing = []
    for source, module, name in sorted(imports, key=str):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            missing.append(f"{source}: {module}")
            continue
        if name is not None and not hasattr(mod, name):
            missing.append(f"{source}: {name} from {module}")
    assert not missing, missing


SMALL_SCALES = [("cf_sweep", 0.01), ("path_loop", 0.01), ("batch_oracle", 0.002)]
SMALL_PASSES = pytest.mark.parametrize("name, scale", SMALL_SCALES)


def _pass(monkeypatch, name, scale, traced=False):
    """One pass at a small scale, as perfbench/run.py makes it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in ("clock", "tracing", "workloads"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    clock = importlib.import_module("clock")
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    probe = tracing.Probe() if traced else tracing.NullProbe()
    wl = workloads.WORKLOADS[name](1, scale, probe)
    wl.warmup()
    watch = clock.Stopwatch()
    watch.begin()
    res = wl.run_pass(watch)
    watch.end()
    return res


@SMALL_PASSES
def test_benchmark_pass_gates_hold(monkeypatch, name, scale):
    res = _pass(monkeypatch, name, scale)
    assert res.items >= 1 and res.gates
    failed = [(g.name, g.detail) for g in res.gates if not g.passed]
    assert not failed, failed


@pytest.mark.parametrize("name, scale", [*SMALL_SCALES, ("cli_configs", 0.01)])
def test_traced_pass_computes_the_same_outputs(monkeypatch, name, scale):
    # the benchmark's trace_transparent gate, in the small passes; the
    # cli_configs digest reads the CSV bytes only
    plain = _pass(monkeypatch, name, scale)
    traced = _pass(monkeypatch, name, scale, traced=True)
    assert traced.digest == plain.digest
