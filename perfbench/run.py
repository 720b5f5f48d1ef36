#!/usr/bin/env python3
"""Benchmark of the planecode CLI, run the way users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are taken relative to this file's checkout. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full record of the run (every command,
output digests, environment, spans) goes to
.perfbench/results/<workload>-seed<N>-trace<T>.json in the checkout.

--trace 0 is a closed loop with one client: each CLI command is its own
child process of the current interpreter with the checkout's src on the
path, started only after the previous one has ended. Whole passes over the
workload's commands repeat until S seconds have gone by, and end-to-end
metrics are reported.

--trace 1 replays the same commands in this process through
planecode.cli.main, once plain and once with per-module probes installed
(see tracer.py), then runs the microbenchmarks (see micro.py), and reports
the per-layer metrics.

Outputs are checked after the timed phase; a failed check counts the
command as failed. The seed picks the microbenchmark operands; the CLI
commands themselves are fixed so that line counts and output bytes can be
compared between any two runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import micro
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# A run must end within 180 s; give up well before that.
RUN_BUDGET_S = 170
IMPORT_PROBES = 3


@dataclass(frozen=True)
class Command:
    kind: str  # build, certify, decode or cover
    argv: tuple[str, ...]  # arguments after `planecode`; file names are relative to the work dir
    poly: str | None = None
    output: str | None = None  # file the command writes
    config: str | None = None  # configuration file the command writes or reads


def build(poly: str, out: str) -> Command:
    return Command("build", ("build", "-p", poly, "-o", out), poly=poly, output=out, config=out)


def certify(poly: str, out: str) -> Command:
    return Command("certify", ("certify", "-p", poly, "-o", out), poly=poly, output=out)


def decode(config: str) -> Command:
    return Command("decode", ("decode", config), config=config)


def cover(config: str, out: str) -> Command:
    return Command("cover", ("cover", config, "-o", out), output=out, config=config)


LADDER = ("x^2-2", "x^3-2", "x^4-x-1", "3*x^2-5")
READ_SET = ("x^2-x-1", "x^3-2", "x^4-x-1")

# name -> (set-up commands, timed commands). README.md says why each was chosen.
WORKLOADS = {
    "build-ladder": ((), tuple(build(p, f"ladder{i}.json") for i, p in enumerate(LADDER))),
    "certify-deg5": ((), (certify("x^5-x-1", "certificate.json"),)),
    "read-files": (
        tuple(build(p, f"input{i}.json") for i, p in enumerate(READ_SET)),
        tuple(
            c
            for i in range(len(READ_SET))
            for c in (decode(f"input{i}.json"), cover(f"input{i}.json", f"report{i}.json"))
        ),
    ),
}


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded(f"run exceeded {RUN_BUDGET_S} s")


@dataclass
class Outcome:
    command: Command | None
    phase: str
    wall_s: float
    exit_code: int
    max_rss_mb: float = 0.0
    stdout: str = ""
    failed: bool = False  # set by Run.check_outputs


class Run:
    """State of one benchmark run: its work directory and every outcome."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.work = STATE / "work" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.outcomes: list[Outcome] = []
        self.problems: list[str] = []

    def child(self, args: list[str], log: str) -> tuple[float, int, float, str]:
        """Run the interpreter with args in the work dir: wall s, exit code, max RSS MB, stdout."""
        out_path = self.work / f"{log}.out"
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=self.work,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=subprocess.STDOUT,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024, out_path.read_text(errors="replace")

    def command(self, cmd: Command, phase: str) -> Outcome:
        wall, code, rss, stdout = self.child(
            ["-m", "planecode", *cmd.argv], f"{len(self.outcomes):03d}-{cmd.kind}"
        )
        outcome = Outcome(cmd, phase, wall, code, rss, stdout)
        self.outcomes.append(outcome)
        return outcome

    def import_s(self) -> float:
        """Median wall time of a fresh interpreter importing planecode.cli."""
        walls = []
        for k in range(IMPORT_PROBES):
            wall, code, rss, _ = self.child(["-c", "import planecode.cli"], f"import{k}")
            self.outcomes.append(Outcome(None, "setup", wall, code, rss))
            walls.append(wall)
        return statistics.median(walls)

    def digests(self) -> dict[str, str]:
        return {p.name: checks.sha256(p) for p in sorted(self.work.glob("*.json"))}

    def check_outputs(self, timed: tuple[Command, ...], setup: tuple[Command, ...]) -> int:
        """Check every output; return the sum of final line counts."""
        lines: dict[str, int] = {}
        bad_outputs: set[str] = set()

        def note(found: list[str], output: str | None) -> None:
            self.problems.extend(found)
            if found and output:
                bad_outputs.add(output)

        for cmd in setup + timed:
            if cmd.kind == "build":
                found, lines[cmd.output] = _guard(checks.config_file, self.work / cmd.output, cmd.poly)
                note(found, cmd.output)
        for cmd in timed:
            if cmd.kind == "certify":
                found, lines[cmd.output] = _guard(checks.certificate, self.work / cmd.output, cmd.poly)
                note(found, cmd.output)
            elif cmd.kind == "cover":
                found, _ = _guard(checks.cover_report, self.work / cmd.output, lines[cmd.config])
                note(found, cmd.output)
        for o in self.outcomes:
            failed = o.exit_code != 0
            if o.command is not None:
                if o.command.kind == "decode" and o.exit_code == 0:
                    found = checks.decode_stdout(o.stdout, " ".join(o.command.argv))
                    self.problems.extend(found)
                    failed = failed or bool(found)
                failed = failed or o.command.output in bad_outputs
            if o.exit_code != 0:
                label = " ".join(o.command.argv) if o.command else "import probe"
                self.problems.append(f"{label}: exit code {o.exit_code}")
            o.failed = failed
        return sum(lines.values())

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)


def _guard(check, *args):
    """Run an output check; a file too broken to check is one problem."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - any crash means the output is wrong
        return [f"{args[0].name}: could not be checked: {exc!r}"], 0


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
    source = sorted((SRC / "planecode").glob("*.py"))
    digest = hashlib.sha256()
    for path in source:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "load_average": os.getloadavg(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_end_to_end(run: Run, setup, timed, seconds: int) -> tuple[dict, dict]:
    import_s = run.import_s()
    t = time.perf_counter()
    for cmd in setup:
        run.command(cmd, "setup")
    setup_s = import_s + time.perf_counter() - t

    pass_walls = []
    by_kind: dict[str, list[float]] = {}
    start = time.perf_counter()
    while True:
        sums: dict[str, float] = {}
        t = time.perf_counter()
        for cmd in timed:
            o = run.command(cmd, f"pass{len(pass_walls)}")
            sums[cmd.kind] = sums.get(cmd.kind, 0.0) + o.wall_s
        pass_walls.append(time.perf_counter() - t)
        for kind, s in sums.items():
            by_kind.setdefault(f"{kind}_s", []).append(s)
        if time.perf_counter() - start >= seconds:
            break

    lines_total = run.check_outputs(timed, setup)
    timed_rss = [o.max_rss_mb for o in run.outcomes if o.phase.startswith("pass")]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(pass_walls),
        "peak_rss_mb": max(timed_rss),
        "lines_total": lines_total,
    }
    extra = {
        "passes": len(pass_walls),
        "pass_wall_s": pass_walls,
        "import_s": import_s,
        "by_kind_s": {k: statistics.median(v) for k, v in by_kind.items()},
    }
    return metrics, extra


def _replay(run: Run, cli, timed, tr=None) -> tuple[float, int]:
    """Run the timed commands through cli.main in this process: wall s, config bytes."""
    config_bytes = 0
    total = 0.0
    cwd = os.getcwd()
    os.chdir(run.work)
    try:
        for i, cmd in enumerate(timed):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                t = time.perf_counter()
                try:
                    if tr is None:
                        code = cli.main(list(cmd.argv))
                    else:
                        tr.request = i
                        code = tr.span(f"cli.{cmd.kind}", cli.main, list(cmd.argv))
                except Exception as exc:  # noqa: BLE001 - a crash is a failed command
                    run.problems.append(f"{' '.join(cmd.argv)}: raised {exc!r}")
                    code = -1
                wall = time.perf_counter() - t
            total += wall
            phase = "untraced" if tr is None else "traced"
            run.outcomes.append(Outcome(cmd, phase, wall, code, stdout=sink.getvalue()))
            if cmd.config and (run.work / cmd.config).exists():
                config_bytes += (run.work / cmd.config).stat().st_size
    finally:
        os.chdir(cwd)
    return total, config_bytes


def run_traced(run: Run, setup, timed, seed: int) -> tuple[dict, dict]:
    for cmd in setup:
        run.command(cmd, "setup")

    t = time.perf_counter()
    from planecode import cli

    import_s = time.perf_counter() - t

    before = tracer.snapshot_bindings()
    untraced_s, config_bytes = _replay(run, cli, timed)
    plain = run.digests()
    tr = tracer.Tracer()
    with tr:
        traced_s, _ = _replay(run, cli, timed, tr)
    moved = tracer.changed_bindings(before)
    if moved:
        run.problems.append(f"bindings not restored after tracing: {moved}")
    if run.digests() != plain:
        run.problems.append("the traced pass wrote different output bytes")

    run.check_outputs(timed, setup)
    micro_metrics = micro.run(seed)

    c = tr.counters
    incident_calls = tr.calls("projgeom.incident")
    tries = c["configuration.generic_tries"]
    metrics = {
        "configuration.augment_s": tr.total_s("configuration.augment"),
        "configuration.amplify_s": tr.total_s("configuration.amplify"),
        "configuration.even_lines": c["configuration.even_lines"],
        "configuration.final_lines": c["configuration.final_lines"],
        "configuration.points": c["configuration.points"],
        "configuration.generic_tries": tries,
        "configuration.generic_accept_ratio": c["configuration.generic_added"] / tries if tries else 0.0,
        "projgeom.incident_calls": incident_calls,
        "projgeom.incident_s": tr.total_s("projgeom.incident"),
        "projgeom.incident_hit_ratio": (
            c["projgeom.incident_true"] / incident_calls if incident_calls else 0.0
        ),
        "projgeom.meet_calls": tr.calls("projgeom.meet"),
        "projgeom.meet_s": tr.total_s("projgeom.meet"),
        "projgeom.join_calls": tr.calls("projgeom.join"),
        "projgeom.cross_ratio_s": tr.total_s("projgeom.cross_ratio"),
        "numberfield.mul_calls": tr.calls("numberfield.mul"),
        "numberfield.mul_s": tr.total_s("numberfield.mul"),
        "numberfield.inv_calls": tr.calls("numberfield.inv"),
        "numberfield.inv_s": tr.total_s("numberfield.inv"),
        "numberfield.check_irreducible_calls": tr.calls("numberfield.check_irreducible"),
        "numberfield.check_irreducible_s": tr.total_s("numberfield.check_irreducible"),
        "numberfield.isolate_roots_s": tr.total_s("numberfield.isolate_roots"),
        "numberfield.embed_s": tr.total_s("numberfield.embed"),
        "slp_compiler.compile_s": tr.total_s("slp_compiler.compile"),
        "slp_compiler.emit_s": tr.total_s("slp_compiler.emit"),
        "slp_compiler.raw_lines": c["slp_compiler.raw_lines"],
        "serialize.dump_s": tr.total_s("serialize.dump"),
        "serialize.load_s": tr.total_s("serialize.load"),
        "serialize.config_bytes": config_bytes,
        "decode.decode_s": tr.self_s("decode.decode"),
        "decode.certificate_s": tr.self_s("decode.certificate"),
        "cover.select_m_s": tr.total_s("cover.select_m"),
        "cover.hypotheses_s": tr.total_s("cover.hypotheses"),
        "cover.hypotheses_pairs": c["cover.hypotheses_pairs"],
        "cover.report_s": tr.total_s("cover.report"),
        "cli.import_s": import_s,
        "trace.overhead_s": traced_s - untraced_s,
        **micro_metrics,
    }
    extra = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans_by_name": tr.table(),
        "counters": c,
        "spans": [
            {"name": n, "parent": p, "command": r, "start": s, "end": e}
            for n, p, r, s, e in tr.spans
        ],
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "planecode" / "cli.py").is_file():
        print(f"error: no planecode sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_BUDGET_S)
    setup, timed = WORKLOADS[args.workload]
    run = Run(args.workload, args.seed, args.trace)
    try:
        if args.trace:
            metrics, extra = run_traced(run, setup, timed, args.seed)
        else:
            metrics, extra = run_end_to_end(run, setup, timed, args.seconds)
        outputs = run.digests()
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(run.work, ignore_errors=True)

    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 4
    attempted = len(run.outcomes)
    failed = run.failed
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "error_rate": failed / attempted,
        "problems": run.problems,
        "outputs_sha256": outputs,
        "commands": [
            {
                "phase": o.phase,
                "argv": list(o.command.argv) if o.command else ["-c", "import planecode.cli"],
                "wall_s": o.wall_s,
                "exit_code": o.exit_code,
                "max_rss_mb": o.max_rss_mb,
            }
            for o in run.outcomes
        ],
        **extra,
        "result": result,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"record written to {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
