"""Traced run of one fintag CLI stage.

Wraps every listed public function of every layer at each module
attribute that binds it (`cli`, `insertion` and `corpus` import functions
by name, so wrapping the defining module alone would miss their calls),
records one span per call in memory and writes the spans out when the
stage ends. Spans carry their parent, taken from a per-thread stack whose
bottom is the stage's own span, so calls made in worker threads nest under
the stage too.

Usage:
    PYTHONPATH=src python bench/tracer.py --spans OUT.json -- insert --input ...

`reduce_spans` turns span files into per-function calls and self time,
where self time is a span's duration minus the part of it its children
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "markup": ("parse", "serialize", "derive_erroneous", "derive_original", "to_target_output"),
    "patterns": ("extract_numbers", "sentence_spans"),
    "corpus": ("ingest", "filter_grounded", "emit_training_pair", "split", "distribution_report"),
    "insertion": ("plan_errors", "insert_rule_based", "build_insertion_prompt", "insert_llm"),
    "quality": ("check", "fix", "read_records", "write_records"),
    "detect_eval": ("parse_prediction", "align", "score", "read_gold_documents", "read_predictions"),
    "edit_eval": ("score_editing", "containment_judge"),
    "llm_client": ("LlmClient.cached_complete", "LlmClient.complete"),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

ROOT_ID = 0


def _observe_grounded(counters, result):
    counters["corpus.filter_grounded.kept"] += bool(result)


def _observe_rule(counters, result):
    counters["insertion.planned"] += len(result.plan.kinds)
    counters["insertion.applied"] += len(result.applied)


def _observe_fix(counters, result):
    counters["quality.fix.repaired"] += bool(result.fixed and result.applied)
    counters["quality.fix.discarded"] += not result.fixed


def _observe_prediction(counters, result):
    _, warnings = result
    counters["detect_eval.unparseable"] += any(w.category == "demoted" for w in warnings)


# Counts of useful work, read off return values at the layer boundary.
OBSERVERS = {
    "corpus.filter_grounded": _observe_grounded,
    "insertion.insert_rule_based": _observe_rule,
    "quality.fix": _observe_fix,
    "detect_eval.parse_prediction": _observe_prediction,
}


class Tracer:
    """In-memory span recorder. A span is (name, id, parent id, start,
    end, is_call); generator functions get one call span plus one
    non-call span per item they produce."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(ROOT_ID + 1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [ROOT_ID]
        return stack

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((name, sid, stack[-1], start, end, True))
            if observe is not None:
                with self._lock:
                    observe(self.counters, result)
            if inspect.isgenerator(result):
                return self._iterate(name, result)
            return result

        return traced

    def _iterate(self, name: str, gen):
        while True:
            stack = self._stack()
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((name, sid, stack[-1], start, end, False))
            yield item

    def install(self) -> None:
        """Replace each listed function at every `fintag` module attribute
        bound to it, and each listed method on its class."""
        modules = {mod: importlib.import_module(f"fintag.{mod}") for mod in LAYERS}
        importlib.import_module("fintag.cli")
        package = [m for n, m in list(sys.modules.items()) if n == "fintag" or n.startswith("fintag.")]
        for mod, fns in LAYERS.items():
            for fn_name in fns:
                name = f"{mod}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(modules[mod], cls_name)
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                    continue
                original = getattr(modules[mod], fn_name)
                wrapped = self.wrap(name, original)
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)


def run_stage(argv: list, spans_path: str) -> int:
    tracer = Tracer()
    tracer.install()
    from fintag import cli

    stage = f"cli.{argv[0]}" if argv else "cli"
    start = perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        end = perf_counter()
        tracer.spans.append((stage, ROOT_ID, None, start, end, True))
        names = sorted({s[0] for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": names,
                    "spans": [[index[s[0]], *s[1:]] for s in tracer.spans],
                    "counters": dict(tracer.counters),
                },
                fh,
                separators=(",", ":"),
            )
    return rc


def _covered(intervals: list, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def reduce_spans(payload: dict) -> dict:
    """Per span name: calls and self_s; plus the counters and the
    structural counts the ratios need."""
    names = payload["names"]
    spans = [(names[s[0]], *s[1:]) for s in payload["spans"]]
    children: dict = defaultdict(list)
    name_of = {}
    for name, sid, parent, start, end, _ in spans:
        children[parent].append((start, end))
        name_of[sid] = name
    out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    attempted_llm = set()
    prompts_in_llm = 0
    cache_misses = 0
    for name, sid, parent, start, end, is_call in spans:
        row = out[name]
        row["calls"] += bool(is_call)
        row["self_s"] += (end - start) - _covered(children.get(sid, ()), start, end)
        parent_name = name_of.get(parent)
        if name == "insertion.build_insertion_prompt" and parent_name == "insertion.insert_llm":
            prompts_in_llm += 1
            attempted_llm.add(parent)
        if name == "llm_client.LlmClient.complete" and parent_name == "llm_client.LlmClient.cached_complete":
            cache_misses += 1
    structure = {
        "insertion.insert_llm.attempts": prompts_in_llm,
        "insertion.insert_llm.attempted_records": len(attempted_llm),
        "llm_client.cache_misses": cache_misses,
    }
    return {"functions": dict(out), "counters": {**payload["counters"], **structure}}


def main(argv: list) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.json -- <fintag arguments>", file=sys.stderr)
        return 2
    return run_stage(argv[3:], argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
