"""The taxonomy table and the renderings derived from it.

The pinned values were taken from the hand-written spellings the table
replaced, so a change to the table's rows or orders shows up here as well
as in replay-cache misses."""

from __future__ import annotations

import hashlib
import json

from conftest import WORKED_TARGET
from fintag.cli import dispatch
from fintag.corpus import distribution_report
from fintag.insertion import InsertionPlan, build_insertion_prompt
from fintag.prompts import build_detection_prompt
from fintag.taxonomy import DEFAULT_LABELS, FAVA_LABELS, KINDS, ErrorType


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_the_enum_and_the_table_keep_their_own_orders():
    assert [kind.value for kind in ErrorType] == [
        "temporal", "numerical", "entity", "relation", "contradictory", "unverifiable",
    ]
    assert DEFAULT_LABELS == (
        "numerical", "temporal", "entity", "relation", "contradictory", "unverifiable",
    )
    assert [row.kind.value for row in KINDS] == list(DEFAULT_LABELS)
    assert all(kind.row.kind is kind for kind in ErrorType)


def test_fava_extra_tags_are_its_labels_that_are_not_kinds():
    extra = tuple(label for label in FAVA_LABELS if label not in DEFAULT_LABELS)
    assert extra == ("invented", "subjective")
    assert len(FAVA_LABELS) - len(extra) == 4


def test_detection_prompt_bytes_are_pinned():
    assert _sha256(build_detection_prompt("P", "R")).startswith("3e069d8171be769f")


def test_insertion_prompt_bytes_are_pinned():
    kinds = (
        ErrorType.UNVERIFIABLE, ErrorType.NUMERICAL, ErrorType.TEMPORAL,
        ErrorType.CONTRADICTORY, ErrorType.RELATION, ErrorType.ENTITY,
    )
    prompt = build_insertion_prompt("P", "C", InsertionPlan(False, 6, kinds, 0))
    assert _sha256(prompt).startswith("cece330f31b3004d")


def test_eval_detect_table_headers(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(json.dumps({"id": "g0", "target": WORKED_TARGET}) + "\n", encoding="utf-8")
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"id": "g0", "raw": WORKED_TARGET}) + "\n", encoding="utf-8")
    headers = {}
    for label_set in ("default", "fava"):
        capsys.readouterr()
        assert dispatch(["eval-detect", "--gold", str(gold), "--pred", str(pred),
                         "--label-set", label_set]) == 0
        headers[label_set] = capsys.readouterr().out.splitlines()[0].split()
    assert headers["default"] == ["Metric", "Num.", "Tem.", "Ent.", "Rel.", "Con.", "Unv.", "Ov.", "Bi."]
    assert headers["fava"] == ["Metric", "Ent.", "Rel.", "Con.", "Inv.", "Sub.", "Unv.", "Ov.", "Bi."]


def test_report_row_titles():
    lines = distribution_report([]).format_table().splitlines()
    assert [line[:24].rstrip() for line in lines[3:]] == [
        "Numerical Errors", "Temporal Errors", "Entity Errors", "Relation Errors",
        "Contradictory Statements", "Unverifiable Statements",
    ]
