"""Per-module spans for the traced run, recorded from outside the program.

Modules of planecode import each other by name (``from .projgeom import
meet``), so a wrapper has to be installed in every namespace that binds the
name; patching ``projgeom.meet`` alone would not be seen by ``configuration``.
Each probe names such a binding and the span it feeds. Several bindings can
feed one span (``projgeom.meet`` is bound in configuration, slp_compiler and
cover).

Spans are aggregated in memory per name: calls, inclusive time and self time
(inclusive minus the time of directly nested spans). The hot arithmetic and
geometry spans run millions of times, so only their aggregates are kept;
every other span is also kept as a record (name, parent, command, start, end).
No probed function calls itself, so inclusive times are never counted twice.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute path, span). An attribute path with a dot patches a
# class attribute, which is where the operator methods of NFElement live.
PROBES = (
    ("planecode.numberfield", "NFElement.__mul__", "numberfield.mul"),
    ("planecode.numberfield", "NFElement.__rmul__", "numberfield.mul"),
    ("planecode.numberfield", "NFElement.inv", "numberfield.inv"),
    ("planecode.numberfield", "check_irreducible", "numberfield.check_irreducible"),
    ("planecode.slp_compiler", "check_irreducible", "numberfield.check_irreducible"),
    ("planecode.decode", "isolate_roots", "numberfield.isolate_roots"),
    ("planecode.decode", "embed", "numberfield.embed"),
    ("planecode.configuration", "incident", "projgeom.incident"),
    ("planecode.configuration", "meet", "projgeom.meet"),
    ("planecode.slp_compiler", "meet", "projgeom.meet"),
    ("planecode.cover", "meet", "projgeom.meet"),
    ("planecode.configuration", "join", "projgeom.join"),
    ("planecode.slp_compiler", "join", "projgeom.join"),
    ("planecode.decode", "cross_ratio", "projgeom.cross_ratio"),
    ("planecode.pipeline", "compile_polynomial", "slp_compiler.compile"),
    ("planecode.pipeline", "emit_configuration", "slp_compiler.emit"),
    ("planecode.pipeline", "augment_even_valence", "configuration.augment"),
    ("planecode.pipeline", "amplify_marks", "configuration.amplify"),
    ("planecode.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("planecode.decode", "run_pipeline", "pipeline.run_pipeline"),
    ("planecode.cli", "decode", "decode.decode"),
    ("planecode.decode", "decode", "decode.decode"),
    ("planecode.cli", "separation_certificate", "decode.certificate"),
    ("planecode.cli", "build_cover_report", "cover.report"),
    ("planecode.cover", "select_m", "cover.select_m"),
    ("planecode.cover", "check_cover_hypotheses", "cover.hypotheses"),
    ("planecode.cli", "loads", "serialize.load"),
    ("planecode.cli", "config_from_json", "serialize.load"),
    ("planecode.cli", "config_to_json", "serialize.dump"),
    ("planecode.cli", "certificate_to_json", "serialize.dump"),
    ("planecode.cli", "cover_report_to_json", "serialize.dump"),
    ("planecode.cli", "dumps_canonical", "serialize.dump"),
)

# Spans too frequent to keep one record per call.
HOT = frozenset(
    {"numberfield.mul", "numberfield.inv", "projgeom.incident", "projgeom.meet", "projgeom.join"}
)


def _count_incident(counters, args, result):
    if result:
        counters["projgeom.incident_true"] += 1


def _count_emit(counters, args, result):
    counters["slp_compiler.raw_lines"] += result.line_count


def _count_generic(counters, before, after):
    """Lines added and parameters consumed by the generic-line search."""
    counters["configuration.generic_tries"] += after.params_consumed - before.params_consumed
    counters["configuration.generic_added"] += after.line_count - before.line_count


def _count_augment(counters, args, result):
    counters["configuration.even_lines"] += result.line_count
    _count_generic(counters, args[0], result)


def _count_amplify(counters, args, result):
    counters["configuration.final_lines"] += result.line_count
    counters["configuration.points"] += len(result.points)
    _count_generic(counters, args[0], result)


def _count_hypotheses(counters, args, result):
    counters["cover.hypotheses_pairs"] += result.pairs_checked


OBSERVERS = {
    "projgeom.incident": _count_incident,
    "slp_compiler.emit": _count_emit,
    "configuration.augment": _count_augment,
    "configuration.amplify": _count_amplify,
    "cover.hypotheses": _count_hypotheses,
}

COUNTERS = (
    "projgeom.incident_true",
    "slp_compiler.raw_lines",
    "configuration.even_lines",
    "configuration.final_lines",
    "configuration.points",
    "configuration.generic_tries",
    "configuration.generic_added",
    "cover.hypotheses_pairs",
)


def _owner(module_name: str, path: str):
    """The namespace object holding the last component of path, and that name."""
    obj = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        obj = getattr(obj, part)
    return obj, name


class Tracer:
    """Installs the probes, aggregates spans, and restores every binding."""

    def __init__(self):
        self.stats = {span: [0, 0.0, 0.0] for _, _, span in PROBES}  # calls, total, self
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple[str, str | None, int, float, float]] = []
        self.request = -1
        self._child = []  # per open span: time spent in its direct children
        self._names = []  # open recorded spans, for parent links
        self._originals = []

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("probes already installed")
        for module_name, path, span in PROBES:
            owner, name = _owner(module_name, path)
            original = vars(owner)[name]
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(original, span))

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a recorded span that is not a probe."""
        self.stats.setdefault(name, [0, 0.0, 0.0])
        return self._wrap(fn, name)(*args)

    def _wrap(self, fn, name: str):
        child = self._child
        names = self._names
        agg = self.stats[name]
        observe = OBSERVERS.get(name)
        counters = self.counters
        spans = self.spans
        clock = time.perf_counter

        if name in HOT:

            def hot(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    inner = child.pop()
                    if child:
                        child[-1] += dt
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - inner
                if observe is not None:
                    observe(counters, args, result)
                return result

            return hot

        def recorded(*args, **kwargs):
            parent = names[-1] if names else None
            names.append(name)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child.pop()
                names.pop()
                if child:
                    child[-1] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - inner
                spans.append((name, parent, self.request, t0, t1))
            if observe is not None:
                observe(counters, args, result)
            return result

        return recorded

    def calls(self, span: str) -> int:
        return self.stats[span][0]

    def total_s(self, span: str) -> float:
        return self.stats[span][1]

    def self_s(self, span: str) -> float:
        return self.stats[span][2]

    def table(self) -> dict:
        return {
            span: {"calls": c, "total_s": t, "self_s": s}
            for span, (c, t, s) in sorted(self.stats.items())
        }


def snapshot_bindings() -> dict:
    """The object currently bound at every probe site."""
    out = {}
    for module_name, path, _ in PROBES:
        owner, name = _owner(module_name, path)
        out[(module_name, path)] = vars(owner)[name]
    return out


def changed_bindings(before: dict) -> list[tuple[str, str]]:
    """Probe sites whose binding is no longer the object in the snapshot."""
    now = snapshot_bindings()
    return [site for site, obj in before.items() if now[site] is not obj]
