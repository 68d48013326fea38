"""Spans around blockseq's public functions, installed from outside.

`Tracer` replaces every public (not underscore-prefixed) function of the
six package modules, in every blockseq module namespace that binds it,
so calls are caught as the calling module sees them -- including
`from .windows import generate` bindings and lazy imports.  Nothing
under src/ is edited, and uninstalling restores the originals.

A span is [name, start, end, parent index, task id, size]; `size` is the
count the layer reports at its boundary (terms, states, blocks, bytes).
A layer's self time is its span's duration minus its child spans.
Calls that `a_prefix` makes to `a_batch` stay inside the `a_prefix`
span: they are the oracle's own chunking, so `words.a_batch` counts
only the direct callers (morphism fingerprints, series spot checks).
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

from blockseq import cli, morphism, series, structure, windows, words

LAYERS = (words, windows, morphism, structure, series, cli)

# Count recorded at each boundary, from the function's result.
SIZES = {
    "words.a_prefix": len,
    "words.a_batch": len,
    "windows.generate": len,
    "morphism.build_morphism": lambda mu: mu.alphabet_size,
    "morphism.expand_fixed_point": len,
    "structure.z_array": len,
    "structure.classify_range": len,
    "cli.format_sequence": len,
}

# child span name -> parent span name under which it records no span
FOLDED = {"words.a_batch": "words.a_prefix"}

# The per-layer metrics, in report order.
METRICS = (
    ("windows.generate.self_s", "s"), ("windows.generate.calls", "count"),
    ("windows.generate.terms", "terms"), ("windows.generate.peak_mib", "MiB"),
    ("words.a_prefix.self_s", "s"), ("words.a_prefix.terms", "terms"),
    ("words.a_batch.self_s", "s"), ("words.a_batch.terms", "terms"),
    ("morphism.build_morphism.self_s", "s"),
    ("morphism.build_morphism.states", "count"),
    ("morphism.build_morphism.oracle_terms", "terms"),
    ("morphism.oracle_terms_per_state", "terms/state"),
    ("morphism.expand_fixed_point.self_s", "s"),
    ("morphism.expand_fixed_point.terms", "terms"),
    ("structure.z_array.self_s", "s"), ("structure.z_array.calls", "count"),
    ("structure.z_array.terms", "terms"),
    ("structure.z_array.calls_per_powers", "count"),
    ("structure.scan_power_prefixes.self_s", "s"),
    ("structure.classify_range.self_s", "s"),
    ("structure.classify_range.blocks", "count"),
    ("structure.tail_periods.self_s", "s"),
    ("series.functional_equation_residual.self_s", "s"),
    ("series.degree_evidence.self_s", "s"),
    ("series.series_from_sequence.calls", "count"),
    ("cli.format_sequence.self_s", "s"), ("cli.format_sequence.bytes", "bytes"),
    ("cli.run.self_s", "s"),
    ("words.self_s", "s"), ("windows.self_s", "s"), ("morphism.self_s", "s"),
    ("structure.self_s", "s"), ("series.self_s", "s"), ("cli.self_s", "s"),
    ("trace.pass_s", "s"), ("trace.overhead_s", "s"),
    ("trace.accounted_frac", "ratio"),
)


def public_functions():
    """(layer.name, function) for each public function of each layer."""
    for module in LAYERS:
        layer = module.__name__.rsplit(".", 1)[1]
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == module.__name__):
                yield f"{layer}.{name}", fn


@contextmanager
def patched(replacements: dict):
    """Rebind each original function to its replacement in every blockseq
    module that holds it; restore on exit."""
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname != "blockseq" and not modname.startswith("blockseq."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacements:
                undo.append((module, attr, value))
                setattr(module, attr, replacements[value])
    try:
        yield
    finally:
        for module, attr, value in undo:
            setattr(module, attr, value)


class Tracer:
    """In-memory spans.  The caller calls begin_task() before each task,
    so one task's spans share a task id."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = -1
        self.subcommands = {}  # task id -> subcommand

    def begin_task(self, subcommand: str) -> None:
        self.task += 1
        self.subcommands[self.task] = subcommand

    def _wrap(self, name, fn):
        size_of = SIZES.get(name)
        folded_under = FOLDED.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if folded_under and parent >= 0 and spans[parent][0] == folded_under:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, parent, self.task, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if size_of is not None:
                span[5] = size_of(result)
            return result

        return traced

    def installed(self):
        return patched({fn: self._wrap(name, fn)
                        for name, fn in public_functions()})

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, task, size in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task,
                                     "size": size}) + "\n")


def pass_metrics(tracer: Tracer, lo: int, hi: int, wall: float) -> dict:
    """Per-layer metrics of tracer.spans[lo:hi], one traced pass of
    `wall` seconds."""
    spans, subcommands = tracer.spans, tracer.subcommands
    child = defaultdict(float)
    for name, start, end, parent, task, size in spans[lo:hi]:
        if parent >= 0:
            child[parent] += end - start
    self_s, calls, sizes = defaultdict(float), Counter(), Counter()
    layer_s = defaultdict(float)
    oracle_terms = 0
    z_calls_in_powers = 0
    for i in range(lo, hi):
        name, start, end, parent, task, size = spans[i]
        own = end - start - child[i]
        self_s[name] += own
        layer_s[name.split(".", 1)[0]] += own
        calls[name] += 1
        sizes[name] += size
        if name == "words.a_batch":
            p = parent
            while p >= 0 and spans[p][0] != "morphism.build_morphism":
                p = spans[p][3]
            oracle_terms += size if p >= 0 else 0
        if name == "structure.z_array" and subcommands[task] == "powers":
            z_calls_in_powers += 1
    states = sizes["morphism.build_morphism"]
    n_powers = sum(1 for t in {s[4] for s in spans[lo:hi]}
                   if subcommands[t] == "powers")
    out = {
        "windows.generate.calls": calls["windows.generate"],
        "windows.generate.terms": sizes["windows.generate"],
        "words.a_prefix.terms": sizes["words.a_prefix"],
        "words.a_batch.terms": sizes["words.a_batch"],
        "morphism.build_morphism.states": states,
        "morphism.build_morphism.oracle_terms": oracle_terms,
        "morphism.oracle_terms_per_state":
            oracle_terms / states if states else 0.0,
        "morphism.expand_fixed_point.terms":
            sizes["morphism.expand_fixed_point"],
        "structure.z_array.calls": calls["structure.z_array"],
        "structure.z_array.terms": sizes["structure.z_array"],
        "structure.z_array.calls_per_powers":
            z_calls_in_powers / n_powers if n_powers else 0.0,
        "structure.classify_range.blocks": sizes["structure.classify_range"],
        "series.series_from_sequence.calls":
            calls["series.series_from_sequence"],
        "cli.format_sequence.bytes": sizes["cli.format_sequence"],
        "trace.pass_s": wall,
        "trace.accounted_frac": sum(layer_s.values()) / wall,
    }
    for name, unit in METRICS:
        if name.endswith(".self_s"):
            key = name[:-len(".self_s")]
            out[name] = layer_s[key] if "." not in key else self_s[key]
    out["_self_by_function"] = dict(self_s)
    return out


class PeakMeter:
    """Under tracemalloc, the highest peak of any one windows.generate
    call.  reset_peak() loses the enclosing task's peak, so the task peak
    seen so far is kept in `task_peak`."""

    def __init__(self):
        self.task_peak = 0
        self.generate_peak = 0

    def _wrap(self, fn):
        def metered(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self.task_peak = max(self.task_peak, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.generate_peak = max(self.generate_peak, peak - current)
        return metered

    def installed(self):
        return patched({windows.generate: self._wrap(windows.generate)})
