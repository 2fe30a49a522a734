"""The benchmark's imports from ``snoise`` still resolve.

``perfbench/`` drives the library through its public names; a renamed or
deleted name would surface only as a failed benchmark run, so this test
reads the benchmark's sources (without importing them) and resolves every
name they import from ``snoise``.
"""

import ast
import importlib
from pathlib import Path

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
