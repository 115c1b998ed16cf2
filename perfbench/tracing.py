"""Per-layer spans, taken from outside the program.

``Tracer.install`` wraps the function at each layer boundary of ``intpoints``
by rebinding a module (or class) attribute, so that every call, or every
``next()`` of a generator, records a span: name, start, end, parent span and
op.  Spans stay in memory until the pass ends.  ``layer_metrics`` turns one
pass's spans into self times and counts.  Nothing under ``src/`` changes.

``arith`` gets no span: ``merge_squarefree`` and the ``QuadElem`` operators
run in the innermost loops, where a wrapper would cost more than the call.
Their time shows in the self time of ``search.candidates`` and
``pointset.concyclic``.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # attribute path inside the module, e.g. "ModContext.line_masks"
    span: str
    generator: bool = False
    count: Optional[tuple[str, Callable]] = None  # (counter, value from the result)

    @property
    def key(self) -> str:
        return f"{self.module.removeprefix('intpoints.')}.{self.attr}"


def _vertices(groups) -> int:
    return 2 * sum(len(bucket) for bucket in groups.values())  # both signs of y


# The package re-exports `search` as a function, so modules are imported by
# name.  A function reached through two bindings (e.g. `canonical_form` from
# `search` and from `pointset`) is wrapped at both under one span name.
TARGETS = (
    Target("intpoints.cli", "main", "cli.main"),
    Target("intpoints.cli", "search", "search.search", generator=True),
    Target("intpoints.cli", "_record", "cli.record"),
    Target("intpoints.cli", "embed", "pointset.embed"),
    Target("intpoints.cli", "pointset_characteristic", "pointset.characteristic"),
    Target("intpoints.cli", "verify", "pointset.verify"),
    Target("intpoints.cli", "mod_max_general_position", "modplane.search",
           count=("modplane.nodes", lambda result: result.nodes)),
    Target("intpoints.search", "_spf_sieve", "search.sieve"),
    Target("intpoints.search", "_candidate_groups", "search.candidates",
           count=("search.candidates.vertices", _vertices)),
    Target("intpoints.search", "_clique_stream", "search.cliques", generator=True),
    Target("intpoints.search", "canonical_form", "pointset.canonical",
           count=("search.canonical_calls", lambda result: 1)),
    Target("intpoints.pointset", "canonical_form", "pointset.canonical"),
    Target("intpoints.pointset", "embed", "pointset.embed"),
    Target("intpoints.pointset", "is_concyclic_or_collinear", "pointset.concyclic"),
    Target("intpoints.modplane", "ModContext.line_masks", "modplane.line_masks"),
)


def _resolve(target: Target):
    """(owner, attribute name, function) of a wrap target, or None when it is gone."""
    try:
        owner = importlib.import_module(target.module)
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, name)
    except (ImportError, AttributeError):
        return None
    if not callable(fn) or inspect.isgeneratorfunction(fn) != target.generator:
        return None
    return owner, name, fn


class Tracer:
    """Spans as lists ``[name, start, end, parent, op, tag]``; ``tag`` numbers
    the generator instance a ``next()`` span belongs to."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            found = _resolve(target)
            if found is None:
                self.missing.append(target.key)
                continue
            owner, name, fn = found
            setattr(owner, name, self._wrap_generator(target, fn) if target.generator else self._wrap_call(target, fn))

    def _open(self, name: str, tag: int) -> list:
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, tag]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap_call(self, target: Target, fn):
        name, counts = target.span, self.counts
        counter, measure = target.count or (None, None)

        def wrapper(*args, **kwargs):
            span = self._open(name, 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter:
                counts[counter] += measure(result)
            return result

        return wrapper

    def _wrap_generator(self, target: Target, fn):
        name, counts = target.span, self.counts
        instances = f"{name}.instances"
        items = f"{name}.items"

        def wrapper(*args, **kwargs):
            counts[instances] += 1
            tag = counts[instances]
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(name, tag)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                counts[items] += 1
                yield item

        return wrapper


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------


def self_times(spans) -> tuple[dict[str, float], Counter]:
    """Per span name: summed self time (duration minus child spans), and calls."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (name, start, end, *_), inner in zip(spans, covered):
        self_s[name] += end - start - inner
        calls[name] += 1
    return self_s, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _key_times_ms(spans) -> list[float]:
    per_key: dict[int, float] = defaultdict(float)
    for name, start, end, _, _, tag in spans:
        if name == "search.cliques":
            per_key[tag] += end - start
    return [1000 * t for t in per_key.values()]


def _pass_values(p: dict) -> dict[str, float]:
    """Layer metrics of one traced pass (``p`` as the child reports it)."""
    spans, counts = p["spans"], Counter(p["counts"])
    self_s, calls = self_times(spans)
    keys_ms = _key_times_ms(spans)
    roots = sum(end - start for _, start, end, parent, *_ in spans if parent < 0)
    return {
        "search.sieve.self_s": self_s["search.sieve"],
        "search.candidates.self_s": self_s["search.candidates"],
        "search.candidates.calls": calls["search.candidates"],
        "search.candidates.vertices": counts["search.candidates.vertices"],
        "search.keys": counts["search.cliques.instances"],
        "search.cliques.self_s": self_s["search.cliques"],
        "search.key_p50_ms": statistics.median(keys_ms) if keys_ms else 0.0,
        "search.key_max_ms": max(keys_ms, default=0.0),
        "search.search.self_s": self_s["search.search"],
        "search.emitted": counts["search.search.items"],
        "search.emit_ratio": _ratio(counts["search.search.items"], counts["search.canonical_calls"]),
        "pointset.canonical.self_s": self_s["pointset.canonical"],
        "pointset.canonical.calls": calls["pointset.canonical"],
        "pointset.embed.self_s": self_s["pointset.embed"],
        "pointset.characteristic.self_s": self_s["pointset.characteristic"],
        "pointset.verify.self_s": self_s["pointset.verify"],
        "pointset.concyclic.self_s": self_s["pointset.concyclic"],
        "pointset.concyclic.calls": calls["pointset.concyclic"],
        "cli.record.self_s": self_s["cli.record"],
        "cli.records": calls["cli.record"],
        "cli.output_bytes": p["output_bytes"],
        "cli.main.self_s": self_s["cli.main"],
        "modplane.search.self_s": self_s["modplane.search"],
        "modplane.line_masks.self_s": self_s["modplane.line_masks"],
        "modplane.nodes": counts["modplane.nodes"],
        "modplane.nodes_per_s": _ratio(counts["modplane.nodes"], self_s["modplane.search"]),
        "trace.unattributed_s": p["wall_s"] - roots,
    }


# Each per-layer metric: unit, which direction is better, and the wrap
# targets it needs.  A metric whose targets are not all wrapped is missing:
# the child spans it subtracts, or the calls it counts, were not seen.
_CLI_CALLS = ("cli.search", "cli._record", "cli.verify", "cli.mod_max_general_position")
LAYER_METRICS = {
    "search.sieve.self_s": ("s", "lower", ("search._spf_sieve",)),
    "search.candidates.self_s": ("s", "lower", ("search._candidate_groups", "search._spf_sieve")),
    "search.candidates.calls": ("count", "lower", ("search._candidate_groups",)),
    "search.candidates.vertices": ("count", "lower", ("search._candidate_groups",)),
    "search.keys": ("count", "lower", ("search._clique_stream",)),
    "search.cliques.self_s": ("s", "lower", ("search._clique_stream", "search.canonical_form")),
    "search.key_p50_ms": ("ms", "lower", ("search._clique_stream",)),
    "search.key_max_ms": ("ms", "lower", ("search._clique_stream",)),
    "search.search.self_s": ("s", "lower", ("cli.search", "search._candidate_groups", "search._clique_stream")),
    "search.emitted": ("count", "higher", ("cli.search",)),
    "search.emit_ratio": ("1", "higher", ("cli.search", "search.canonical_form")),
    "pointset.canonical.self_s": ("s", "lower", ("search.canonical_form", "pointset.canonical_form")),
    "pointset.canonical.calls": ("count", "lower", ("search.canonical_form", "pointset.canonical_form")),
    "pointset.embed.self_s": ("s", "lower", ("cli.embed", "pointset.embed")),
    "pointset.characteristic.self_s": ("s", "lower", ("cli.pointset_characteristic",)),
    "pointset.verify.self_s": ("s", "lower", ("cli.verify", "pointset.embed", "pointset.canonical_form",
                                              "pointset.is_concyclic_or_collinear")),
    "pointset.concyclic.self_s": ("s", "lower", ("pointset.is_concyclic_or_collinear",)),
    "pointset.concyclic.calls": ("count", "lower", ("pointset.is_concyclic_or_collinear",)),
    "cli.record.self_s": ("s", "lower", ("cli._record", "cli.embed", "cli.pointset_characteristic")),
    "cli.records": ("count", "higher", ("cli._record",)),
    "cli.output_bytes": ("bytes", "lower", ()),
    "cli.main.self_s": ("s", "lower", ("cli.main",) + _CLI_CALLS),
    "modplane.search.self_s": ("s", "lower", ("cli.mod_max_general_position", "modplane.ModContext.line_masks")),
    "modplane.line_masks.self_s": ("s", "lower", ("modplane.ModContext.line_masks",)),
    "modplane.nodes": ("count", "lower", ("cli.mod_max_general_position",)),
    "modplane.nodes_per_s": ("1/s", "higher", ("cli.mod_max_general_position", "modplane.ModContext.line_masks")),
    "proc.cpu_s": ("s", "lower", ()),
    "proc.cpu_ratio": ("1", "higher", ()),
    "trace.overhead_s": ("s", "lower", ()),
    "trace.unattributed_s": ("s", "lower", ("cli.main",)),
}


def layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Medians over traced passes, plus the process and tracing figures
    that compare them with the untraced passes of the same run.

    Returns the metrics and the names of those that are missing.
    """
    missing_targets = {key for p in traced for key in p["missing"]}
    per_pass = [_pass_values(p) for p in traced]
    values = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    # fastest against fastest: traced passes run no speed probes (speed.py), and
    # the host's noise only slows a pass
    values["trace.overhead_s"] = min(p["wall_s"] for p in traced) - min(p["wall_s"] for p in untraced)
    values["proc.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
    values["proc.cpu_ratio"] = statistics.median(p["cpu_s"] / p["lifetime_s"] for p in untraced)
    missing = [
        name for name, (_, _, needs) in LAYER_METRICS.items()
        if any(key in missing_targets for key in needs)
    ]
    return {name: values[name] for name in LAYER_METRICS if name not in missing}, missing
