"""Config fuzz: every key of the shipped configs set to each hostile value.

    python tests/fuzz_configs.py [--one-per-key]

Every key of ``configs/*.ini`` but ``scenario`` is set, one at a time, to
each of ``VALUES``, and the mutated config runs through ``cli.main``
in-process with ``--paths 2000``.  A run is at fault if an exception
escapes ``main``, if it exits outside 0-3, or if it exits 2 (configuration
error) or 3 (numerical failure) without printing exactly one
``Code: message`` line.  The script exits 1 on any fault.  It also lists,
without failing on them, the runs that exit 1 (a check failed) and the runs
that leak a numpy ``RuntimeWarning``.  ``--one-per-key`` runs one value
per key instead, as ``tests/test_config_cli.py`` does in a child process:
some runs allocate a few hundred MB before their guard fails them, which
would raise the peak RSS that a test process's children inherit.  pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import shutil
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from snoise.cli import main  # noqa: E402

CONFIGS = sorted((ROOT / "configs").glob("*.ini"))
VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", "", "abc", "5e-324",
          "1e6", "-0")
_KEY = re.compile(r"^(\w+)[ \t]*=[ \t]*(.*)$", re.MULTILINE)
_SECTION = re.compile(r"^\[(\w+)\]", re.MULTILINE)
_MESSAGE = re.compile(r"^\w+: \S")


class Mutation(NamedTuple):
    name: str  # config stem, section.key and value
    scenario: str
    text: str


class Outcome(NamedTuple):
    code: int | None  # None: an exception escaped main
    stderr: list[str]
    warned: bool  # a numpy RuntimeWarning leaked
    escaped: str = ""


def mutations(one_per_key: bool = False):
    """Every key of every shipped config, ``scenario`` aside, set to each of
    ``VALUES``; with ``one_per_key``, the k-th key gets the k-th value only
    (cycling), so one run per key still meets every value."""
    k = 0
    for config in CONFIGS:
        text = config.read_text()
        scenario = re.search(r"^scenario[ \t]*=[ \t]*(\S+)", text,
                             re.MULTILINE).group(1)
        for m in _KEY.finditer(text):
            if m.group(1) == "scenario":
                continue
            section = [s.group(1) for s in _SECTION.finditer(text, 0, m.start())]
            key = f"{config.stem}:{section[-1]}.{m.group(1)}"
            chosen = [VALUES[k % len(VALUES)]] if one_per_key else VALUES
            k += 1
            for value in chosen:
                yield Mutation(f"{key} = {value!r}", scenario,
                               text[:m.start(2)] + value + text[m.end(2):])


def run(mutation: Mutation, workdir: Path) -> Outcome:
    """The mutated config through ``cli.main``, in-process."""
    config, out = workdir / "fuzz.ini", workdir / "out"
    config.write_text(mutation.text)
    err = io.StringIO()
    code, escaped = None, ""
    with warnings.catch_warnings(record=True) as seen, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main([mutation.scenario, "--config", str(config),
                         "--out", str(out), "--paths", "2000"])
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - reported
            escaped = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(out, ignore_errors=True)
    warned = any(issubclass(w.category, RuntimeWarning) for w in seen)
    return Outcome(code, err.getvalue().splitlines(), warned, escaped)


def fault(outcome: Outcome) -> str | None:
    """Why a run is at fault, or None."""
    if outcome.code is None:
        return f"escaped main: {outcome.escaped}"
    if outcome.code not in (0, 1, 2, 3):
        return f"exit {outcome.code}"
    if outcome.code in (2, 3) and not (
            len(outcome.stderr) == 1 and _MESSAGE.match(outcome.stderr[0])):
        return f"exit {outcome.code} with stderr {outcome.stderr}"
    return None


def main_fuzz(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--one-per-key", action="store_true",
                        help="one value per key, cycling through the values")
    args = parser.parse_args(argv)
    codes, failed, warned, faults = Counter(), [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        for mutation in mutations(args.one_per_key):
            outcome = run(mutation, Path(tmp))
            codes[outcome.code] += 1
            if outcome.code == 1:
                failed.append(mutation.name)
            if outcome.warned:
                warned.append(mutation.name)
            why = fault(outcome)
            if why:
                faults.append(f"{mutation.name}: {why}")
    total = sum(codes.values())
    print(f"{total} runs: " + ", ".join(
        f"exit {c} x{n}" for c, n in sorted(codes.items(),
                                            key=lambda cn: str(cn[0]))))
    for title, names in (("exit 1 (a check failed)", failed),
                         ("leaked a RuntimeWarning", warned),
                         ("FAULT", faults)):
        print(f"{title}: {len(names)}")
        for name in names:
            print(f"  {name}")
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main_fuzz())
