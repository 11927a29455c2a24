"""Per-layer spans, recorded from outside the package.

Child side: ``python perfbench/tracing.py SPANS_OUT T_SPAWN WORKLOAD RUN_ID -- ARGS...``
imports ``zhcorrect.cli``, wraps the public functions of each layer at every
module attribute that holds them (so names brought in with ``from ... import``
are covered too), runs ``zhcorrect.cli.main(ARGS)`` in-process and writes the
spans as JSON. ``T_SPAWN`` is the parent's ``time.perf_counter()`` just before
it started this process; on Linux that clock is system-wide, so the child can
measure its own start-up.

Parent side: ``command_metrics`` turns one spans file into per-layer numbers.
A span's self time is its duration minus the durations of its direct
children; the self times of all spans plus ``cli.other_s`` add up to the
traced wall time of the command.

Per-probability functions (``conditional``, ``NgramLM.prob``) are not wrapped:
they run millions of times and the wrapper would dominate. Decode's beam
expansions are derived instead from ``ConfusionChannel.partners`` and the
beam width.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

from workloads import text_of

# Layer module -> public functions wrapped in the traced run.
TARGETS = {
    "textnorm": ("units_of",),
    "corpus": ("parse_parallel",),
    "alignment": ("align",),
    "edits": ("extract_edits", "match_edits", "format_edit_records", "parse_edit_file"),
    "metrics": ("score_csc", "sentence_edit_counts"),
    "model": ("fit_stage", "dataset_objective", "decode", "save_model", "load_model"),
}

# Spans whose per-call durations are kept for percentiles: name -> (unit, scale from s).
PERCENTILES = {"alignment.align": ("us", 1e6), "model.decode": ("ms", 1e3)}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _decode_expansions(channel, src, beam_width: int) -> int:
    """Beam entries scored by decode: at each position every live beam is
    extended by the unit itself and each of its channel partners."""
    live, total = 1, 0
    for unit in src:
        options = len({unit, *channel.partners(unit)})
        total += live * options
        live = min(beam_width, live * options)
    return total


# Counters run inside the span they count (their cost is well under 1 % of
# it). Each gets (counters, args, kwargs, result) of the wrapped call.
def _count_align(counters, args, kwargs, result):
    src, tgt = _arg(args, kwargs, 0, "src"), _arg(args, kwargs, 1, "tgt")
    counters["alignment.align.cells"] += (len(src) + 1) * (len(tgt) + 1)


def _count_parse(counters, args, kwargs, result):
    counters["corpus.units"] += sum(
        len(p.source) + sum(len(r) for r in p.references) for p in result.pairs
    )


def _count_extract(counters, args, kwargs, result):
    counters["edits.count"] += len(result.edits)


def _count_objective(counters, args, kwargs, result):
    counters["model.objective_pairs"] += len(_arg(args, kwargs, 1, "corpus").pairs)


def _count_saved(counters, args, kwargs, result):
    counters["model.file_bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_loaded(counters, args, kwargs, result):
    counters["model.file_bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


class _DecodeCounter:
    def __init__(self, decode):
        self.signature = inspect.signature(decode)

    def __call__(self, counters, args, kwargs, result):
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        model, src = bound.arguments["model"], bound.arguments["src"]
        counters["model.decode.expansions"] += _decode_expansions(
            model.channel, src, bound.arguments["beam_width"]
        )
        counters["model.decode.changed"] += text_of(result) != text_of(src)


COUNTERS = {
    "alignment.align": _count_align,
    "corpus.parse_parallel": _count_parse,
    "edits.extract_edits": _count_extract,
    "model.dataset_objective": _count_objective,
    "model.save_model": _count_saved,
    "model.load_model": _count_loaded,
}


class Tracer:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counters, args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> list[str]:
        """Wrap every target at every ``zhcorrect`` module attribute that
        holds it. Returns the names of the spans installed."""
        modules = [m for n, m in list(sys.modules.items()) if n == "zhcorrect" or n.startswith("zhcorrect.")]
        installed = []
        for module_name, functions in TARGETS.items():
            module = sys.modules.get(f"zhcorrect.{module_name}")
            for function in functions:
                original = getattr(module, function, None)
                if original is None:
                    continue
                name = f"{module_name}.{function}"
                count = _DecodeCounter(original) if name == "model.decode" else COUNTERS.get(name)
                traced = self.wrap(name, original, count)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is original]:
                        setattr(m, attr, traced)
                installed.append(name)
        return installed


def child_main(argv: list[str]) -> int:
    out, t_spawn, workload, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS_OUT T_SPAWN WORKLOAD RUN_ID -- ARGS...")
    import zhcorrect.cli as cli

    t_import = time.perf_counter()
    tracer = Tracer()
    installed = tracer.install()
    for stream in (sys.stdout, sys.stderr):
        stream.reconfigure(encoding="utf-8")
    code = cli.main(cli_args)
    t_end = time.perf_counter()
    sys.stdout.flush()
    payload = {
        "workload": workload,
        "run_id": run_id,
        "argv": cli_args,
        "exit_code": code,
        "t_spawn": float(t_spawn),
        "t_import": t_import,
        "t_end": t_end,
        "installed": installed,
        "counters": dict(tracer.counters),
        "spans": tracer.spans,
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
    return code


# ---------------------------------------------------------------------------
# Parent side


def unit(metric: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    for suffix, name in (("_per_cell", "ns"), ("_per_expansion", "us"), ("_us", "us"), ("_ms", "ms"),
                         ("_s", "s"), ("_frac", "frac"), ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return name
    return "count"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def self_times(spans: list) -> list[float]:
    """Duration minus the durations of direct children, per span."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def command_metrics(payload: dict) -> dict:
    """Totals of one traced command: per-span calls and self time, per-call
    durations of the spans in PERCENTILES, counters, wall and start-up."""
    spans = payload["spans"]
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    durations: defaultdict = defaultdict(list)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own
        if name in PERCENTILES:
            durations[name].append(end - start)
    wall = payload["t_end"] - payload["t_spawn"]
    return {
        "calls": calls,
        "self_s": self_s,
        "durations": durations,
        "counters": Counter(payload["counters"]),
        "wall_s": wall,
        "startup_s": payload["t_import"] - payload["t_spawn"],
        "other_s": wall - sum(self_s.values()),
    }


def iteration_metrics(commands: list[dict]) -> dict:
    """The per-layer metrics of one traced iteration (its command sequence)."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counters: Counter = Counter()
    durations: defaultdict = defaultdict(list)
    wall = startup = other = 0.0
    for c in commands:
        calls.update(c["calls"])
        self_s.update(c["self_s"])
        counters.update(c["counters"])
        for name, values in c["durations"].items():
            durations[name].extend(values)
        wall += c["wall_s"]
        startup += c["startup_s"]
        other += c["other_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "textnorm.units_of.calls": calls["textnorm.units_of"],
        "textnorm.units_of.self_s": self_s["textnorm.units_of"],
        "corpus.parse_parallel.calls": calls["corpus.parse_parallel"],
        "corpus.parse_parallel.self_s": self_s["corpus.parse_parallel"],
        "corpus.units": counters["corpus.units"],
        "alignment.align.calls": calls["alignment.align"],
        "alignment.align.self_s": self_s["alignment.align"],
        "alignment.align.cells": counters["alignment.align.cells"],
        "alignment.ns_per_cell": ratio(self_s["alignment.align"] * 1e9, counters["alignment.align.cells"]),
        "edits.extract_edits.calls": calls["edits.extract_edits"],
        "edits.extract_edits.self_s": self_s["edits.extract_edits"],
        "edits.match_edits.calls": calls["edits.match_edits"],
        "edits.match_edits.self_s": self_s["edits.match_edits"],
        "edits.format_edit_records.self_s": self_s["edits.format_edit_records"],
        "edits.parse_edit_file.self_s": self_s["edits.parse_edit_file"],
        "edits.count": counters["edits.count"],
        "metrics.sentence_edit_counts.self_s": self_s["metrics.sentence_edit_counts"],
        "metrics.score_csc.self_s": self_s["metrics.score_csc"],
        "model.fit_stage.self_s": self_s["model.fit_stage"],
        "model.dataset_objective.calls": calls["model.dataset_objective"],
        "model.dataset_objective.self_s": self_s["model.dataset_objective"],
        "model.objective_pairs": counters["model.objective_pairs"],
        "model.decode.calls": calls["model.decode"],
        "model.decode.self_s": self_s["model.decode"],
        "model.decode.expansions": counters["model.decode.expansions"],
        "model.decode.us_per_expansion": ratio(self_s["model.decode"] * 1e6, counters["model.decode.expansions"]),
        "model.decode.changed_frac": ratio(counters["model.decode.changed"], calls["model.decode"]),
        "model.save_model.self_s": self_s["model.save_model"],
        "model.load_model.self_s": self_s["model.load_model"],
        "model.file_bytes": counters["model.file_bytes"],
        "cli.startup_s": startup,
        "cli.other_s": other,
        "trace.wall_s": wall,
    }
    for name, (suffix, scale) in PERCENTILES.items():
        m[f"{name}.p50_{suffix}"] = percentile(durations[name], 0.50) * scale
        m[f"{name}.p99_{suffix}"] = percentile(durations[name], 0.99) * scale
    return m


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
