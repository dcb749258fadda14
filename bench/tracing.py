"""Spans and counters around latspec's public functions, for the traced run.

``Tracer.install`` wraps each function in ``POINTS`` at every binding in
latspec's modules, found by object identity (so ``cli``'s from-imports are
caught), and patches the listed methods on their classes; class names are
never rebound because the package uses them in ``isinstance`` checks.
``Tracer.remove`` restores every binding.  Spans stay in memory as
``[name, start_ns, end_ns, parent_index, job]`` until the run writes them out.
"""

from __future__ import annotations

import functools
import re
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

_MISSING = object()


def _count(name):
    def hook(tracer, args, result):
        tracer.counts[tracer.job][name] += 1
    return hook


def _verified(tracer, args, result):
    """Calls, and size and failures of each distinct lattice verified."""
    counts = tracer.counts[tracer.job]
    counts["lattice.verify_axioms_calls"] += 1
    lat = args[0]
    if all(seen is not lat for seen in tracer.verified):
        tracer.verified.append(lat)
        counts["lattice.verified_elements"] += lat.n
        counts["lattice.failed_checks"] += len(result.failures())


def _opens(tracer, args, result):
    tracer.counts[tracer.job]["topology.opens"] += len(args[0].opens)


_CANDIDATES = re.compile(r"(checked|skipped:) (\d+) candidate maps")


def _uniqueness(tracer, args, result):
    match = _CANDIDATES.search(result.note)
    if match:
        counts = tracer.counts[tracer.job]
        if match.group(1) == "checked":
            counts["adjunction.uniqueness_candidates"] += int(match.group(2))
        else:
            counts["adjunction.uniqueness_skipped"] += 1


def _blocks(tracer, args, result):
    tracer.counts[tracer.job]["decomposition.blocks"] += len(result.blocks)


def _ideals(tracer, args, result):
    tracer.counts[tracer.job]["instances.ideals"] += len(result.ideals)


# (module, function or Class.method, span name or None for a count only, hook)
POINTS = (
    ("cli", "main", "cli.main", None),
    ("sources", "read_lattice", "sources.read", _count("sources.read_calls")),
    ("sources", "read_space", "sources.read", _count("sources.read_calls")),
    ("sources", "parse_datum", "sources.read", _count("sources.read_calls")),
    ("sources", "parse_semiring", "sources.read", _count("sources.read_calls")),
    ("sources", "lattice_source", "sources.lattice_source", None),
    ("lattice", "verify_axioms", "lattice.verify_axioms", _verified),
    ("lattice", "prime_elements", "lattice.primes", None),
    ("lattice", "radical", "lattice.radical", None),
    ("lattice", "FiniteIdealLattice.covers", "lattice.covers", None),
    ("topology", "FiniteSpace.__init__", "topology.space_build", _opens),
    ("topology", "verify_spectral", "topology.verify_spectral", None),
    ("topology", "zariski_spectrum", "topology.spectrum", _count("topology.spectrum_calls")),
    ("topology", "hochster_dual", "topology.dual", None),
    ("topology", "open_lattice", "topology.open_lattice", None),
    ("topology", "closed_set_classification", "topology.classification", None),
    ("topology", "open_set_classification", "topology.classification", None),
    ("topology", "support_classification", "topology.classification", None),
    ("adjunction", "SpectrumDatum.__init__", "adjunction.datum", None),
    ("adjunction", "SupportDatum.__init__", "adjunction.datum", None),
    ("adjunction", "universal_spectrum_map", "adjunction.universal_map", None),
    ("adjunction", "universal_support_map", "adjunction.universal_map", None),
    ("adjunction", "is_classifying", "adjunction.classifying", None),
    ("adjunction", "preimage_uniqueness", "adjunction.uniqueness", _uniqueness),
    ("decomposition", "decompose_semiprime", "decomposition.decompose", _blocks),
    ("instances", "FiniteSemiring.__init__", "instances.semiring", None),
    ("instances", "semiring_ideal_lattice", "instances.ideal_lattice", _ideals),
    ("instances", "ideal_closure", None, _count("instances.ideal_closure_calls")),
    ("instances", "divisor_lattice", "instances.divisor", None),
    ("emitters", "canonical_json", "emitters.emit", None),
    ("emitters", "space_json", "emitters.emit", None),
    ("emitters", "space_dot", "emitters.emit", None),
    ("emitters", "lattice_json", "emitters.emit", None),
    ("emitters", "lattice_dot", "emitters.emit", None),
    ("emitters", "table_json", "emitters.emit", None),
    ("emitters", "decomposition_json", "emitters.emit", None),
)

SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span, _ in POINTS if span))
COUNT_NAMES = ("sources.read_calls", "sources.errors", "lattice.verify_axioms_calls",
               "lattice.verified_elements", "lattice.failed_checks",
               "topology.spectrum_calls", "topology.opens",
               "adjunction.uniqueness_candidates", "adjunction.uniqueness_skipped",
               "decomposition.blocks", "instances.ideal_closure_calls",
               "instances.ideals")


def package_modules():
    """latspec and its submodules, as imported now."""
    return {name: module for name, module in sys.modules.items()
            if name == "latspec" or name.startswith("latspec.")}


class Tracer:
    """Records spans and per-job counts while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(Counter)
        self.job = None
        self.verified = []
        self.missing = []
        self._undo = []

    def start_job(self, job):
        self.job = job
        self.verified = []

    def install(self):
        modules = package_modules()
        self.missing = []
        for module_name, target, span, hook in POINTS:
            module = modules.get(f"latspec.{module_name}")
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{target}")
                continue
            wrapper = self._wrap(original, span, hook)
            if owner_name:
                self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                setattr(owner, attr, wrapper)
                continue
            for each in modules.values():
                for name, value in list(vars(each).items()):
                    if value is original:
                        self._undo.append((each, name, original))
                        setattr(each, name, wrapper)

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, fn, span, hook):
        tracer = self
        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                hook(tracer, args, None)
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            record = [span, 0, 0, parent, tracer.job]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if span == "sources.read" and (parent < 0 or spans[parent][0] != span):
                    tracer.counts[tracer.job]["sources.errors"] += 1
                raise
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result
        return traced


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for child_start, child_end in sorted(children[index]):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append(end - start - covered)
    return result


def layer_metrics(spans, counts, jobs):
    """Per-job means over ``jobs`` (job -> factor applied to its times): self
    time of each span name in ms, the inclusive ``cli.main_ms``, and every
    count."""
    totals = Counter()
    for (name, start, end, _, job), own in zip(spans, self_times(spans), strict=True):
        if job in jobs:
            scale = jobs[job] / 1e6
            key = "cli.self_ms" if name == "cli.main" else f"{name}_ms"
            totals[key] += own * scale
            if name == "cli.main":
                totals["cli.main_ms"] += (end - start) * scale
    for job in jobs:
        totals.update(counts.get(job, {}))
    names = ["cli.main_ms", "cli.self_ms"]
    names += [f"{name}_ms" for name in SPAN_NAMES if name != "cli.main"]
    names += COUNT_NAMES
    return {name: totals[name] / max(len(jobs), 1) for name in names}
