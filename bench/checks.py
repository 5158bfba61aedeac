"""Correctness checks on the outputs of one repetition of a workload.

Each check states an invariant of the pipeline rather than today's bytes,
so a legitimate change to the grammar or the inserter does not read as a
failure. Every function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from fintag.markup import derive_original
from fintag.quality import check, read_records


def _record_lines(path: Path) -> list[str]:
    """JSONL lines other than blanks and the `_meta` header."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and "_meta" not in json.loads(line):
            lines.append(line)
    return lines


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def count(path: Path) -> int:
    return len(_record_lines(path))


def check_inserted(records: Path, grounded: int) -> list[str]:
    """The grounding filter keeps at least every record whose evidence
    holds all the figures of its response, and each kept record yields
    one inserted record."""
    inserted = count(records)
    if inserted < grounded:
        return [f"insert wrote {inserted} records for {grounded} grounded QA rows"]
    return []


def check_fixed(records: Path, fixed: Path) -> list[str]:
    """The gate keeps every record, since rule-mode insertion is exactly
    reversible and leaves it nothing to discard; every kept record passes
    `check` and reconstructs its original exactly."""
    problems = []
    if count(fixed) != count(records):
        problems.append(f"gate kept {count(fixed)} of {count(records)} records")
    for record, warnings in read_records(fixed):
        issues = check(record, warnings)
        if issues:
            problems.append(f"{record.id}: fails the gate: {issues[0].detail}")
        elif derive_original(record.doc) != record.original:
            problems.append(f"{record.id}: does not reconstruct its original")
    return problems


def check_pairs(fixed: Path, pairs: Path) -> list[str]:
    """Gate output passes the gate and has a QA source, so `pairs` emits
    one pair for every record."""
    if count(pairs) != count(fixed):
        return [f"pairs wrote {count(pairs)} pairs for {count(fixed)} records"]
    return []


def check_split(pairs: Path, train: Path, val: Path) -> list[str]:
    """Train and validation are disjoint and together hold every pair."""
    all_pairs = _record_lines(pairs)
    parts = _record_lines(train) + _record_lines(val)
    ids = [json.loads(line)["id"] for line in parts]
    problems = []
    if len(set(ids)) != len(ids):
        problems.append("train and validation share records")
    if sorted(parts) != sorted(all_pairs):
        problems.append("train and validation do not cover the pairs exactly")
    return problems


def check_report(report: Path, fixed: Path) -> list[str]:
    passages = json.loads(report.read_text(encoding="utf-8"))["total"]["passages"]
    expected = count(fixed)
    if passages != expected:
        return [f"report counts {passages} passages, gate kept {expected}"]
    return []


def check_detection(report: Path, gold: int) -> list[str]:
    """Every gold passage is scored once, and micro F1 lies strictly
    between the trivial bounds: 0 for a predictor that tags nothing, 100
    for one that copies the gold."""
    payload = json.loads(report.read_text(encoding="utf-8"))
    problems = []
    scored = sum(payload["binary"][k] for k in ("tp", "fp", "fn", "tn"))
    if scored != gold:
        problems.append(f"detection scored {scored} of {gold} gold passages")
    f1 = payload["overall"]["f1"]
    if not 0 < f1 < 100:
        problems.append(f"detection F1 {f1} is at a trivial bound")
    return problems


def check_editing(report: Path, rows: int) -> list[str]:
    """Every row is scored, and the mean lies strictly between 0 and 100:
    the inputs mix supported and unsupported renderings, so an extreme mean
    means the reference is not the evidence."""
    payload = json.loads(report.read_text(encoding="utf-8"))
    problems = []
    if len(payload["records"]) != rows:
        problems.append(f"editing scored {len(payload['records'])} of {rows} rows")
    mean = payload["mean_pct"]
    if not 0 < mean < 100:
        problems.append(f"editing mean {mean} is at an extreme")
    return problems


def check_replay(output: Path, expected: Path, cache: Path, cache_digest: str) -> list[str]:
    """Replayed insertion reproduces the records built in set-up, and the
    warm cache is exactly as set-up left it: no miss reached the network
    path and nothing was appended."""
    problems = []
    if digest(cache) != cache_digest:
        problems.append("LLM cache differs from the one set-up warmed")
    if _record_lines(output) != _record_lines(expected):
        problems.append("replayed records differ from the records built in set-up")
    return problems
