#!/usr/bin/env python3
"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py

Checks that two traced runs of one build give identical counts (calls of
every span, lines, points, generic-line tries), that the probes are really
installed while tracing, and that afterwards every probed name is bound to
its original object again, also when the traced code raises. Exits 0 when
all checks pass. Writes only under .perfbench/ in the checkout.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from planecode import cli  # noqa: E402

WORK = ROOT / ".perfbench" / "selftest"
ARGV = ["build", "-p", "x^2-2", "-o", str(WORK / "selftest.json")]


def traced_counts() -> tuple[dict, list, list]:
    """Counts of one traced build, sites left unpatched inside, sites not restored after."""
    before = tracer.snapshot_bindings()
    tr = tracer.Tracer()
    with tr, contextlib.redirect_stderr(io.StringIO()):
        unpatched = sorted(set(before) - set(tracer.changed_bindings(before)))
        code = cli.main(ARGV)
    if code != 0:
        raise SystemExit(f"traced build exited with {code}")
    counts = {f"{span}.calls": row["calls"] for span, row in tr.table().items()}
    counts.update(tr.counters)
    return counts, unpatched, tracer.changed_bindings(before)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    failures = []
    try:
        first, unpatched, moved = traced_counts()
        second, _, _ = traced_counts()
        if unpatched:
            failures.append(f"probes not installed while tracing: {unpatched}")
        if moved:
            failures.append(f"bindings not restored: {moved}")
        if first != second:
            diff = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
                    if first.get(k) != second.get(k)}
            failures.append(f"traced counts differ between runs: {diff}")
        if first["configuration.final_lines"] <= 0 or first["projgeom.incident.calls"] <= 0:
            failures.append(f"traced build counted no work: {first}")

        before = tracer.snapshot_bindings()
        with contextlib.suppress(RuntimeError), tracer.Tracer():
            raise RuntimeError("raised inside the traced block")
        moved = tracer.changed_bindings(before)
        if moved:
            failures.append(f"bindings not restored after an exception: {moved}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(f"ok: {len(first)} counts repeat exactly, {len(tracer.PROBES)} bindings restored")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
