"""End-to-end CLI tests driving `dispatch` with temp files."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import (
    WORKED_ERRONEOUS,
    WORKED_ORIGINAL,
    WORKED_TAGGED,
    WORKED_TARGET,
    make_context,
    make_passage,
)
import fintag
from fintag.cli import dispatch
from fintag.corpus import QARecord, write_qa_records


def _qa_file(path, n=30, seed=0):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        passage = make_passage(rng)
        records.append(
            QARecord(f"qa{i}", (make_context(rng, passage),), "What changed?", passage)
        )
    write_qa_records(path, records)
    return records


def _checkout_env(**extra):
    """The environment of a fresh process that imports this checkout's fintag."""
    src = os.path.dirname(os.path.dirname(fintag.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _run_probe(probe, *argv, cwd=None):
    """Stdout of `python -c probe argv...` in a fresh process that imports
    this checkout's fintag."""
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=_checkout_env(), cwd=cwd,
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_cli_import_leaves_http_stack_unloaded():
    # The HTTP stack is for live LLM calls only; every stage process pays
    # for whatever `fintag.cli` imports.
    probe = "import sys, fintag.cli; print('requests' in sys.modules)"
    assert _run_probe(probe).strip() == "False"


# Standard modules that no build stage but `insert --mode llm` and `split`
# needs: each costs a stage process several milliseconds to import.
_STDLIB_WATCHED = ("logging", "fractions")

_LOADED_PROBE = (
    "import json, sys\n"
    "from fintag.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    f"watched = ('fintag',) + {_STDLIB_WATCHED!r}\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in watched)))\n"
    "sys.exit(rc)\n"
)


def _stage_modules(tmp_path, *argv):
    """The fintag modules, and the watched standard ones, a CLI stage
    process has loaded when it ends."""
    return set(json.loads(_run_probe(_LOADED_PROBE, *argv, cwd=tmp_path).splitlines()[-1]))


def test_package_import_loads_no_submodule():
    probe = "import sys, fintag; print(sorted(m for m in sys.modules if m.startswith('fintag')))"
    assert _run_probe(probe).strip() == "['fintag']"


def test_version_loads_only_the_cli(tmp_path):
    assert _stage_modules(tmp_path, "--version") == {"fintag", "fintag.cli"}


def _stage_argv(tmp_path, stage):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=4)
    records = tmp_path / "records.jsonl"
    if stage == "insert":
        return ["insert", "--input", str(qa), "--output", str(records)]
    if stage in ("fix", "pairs", "report"):
        assert dispatch(["insert", "--input", str(qa), "--output", str(records)]) == 0
    if stage == "fix":
        return ["fix", "--input", str(records), "--output", str(tmp_path / "fixed.jsonl")]
    if stage == "pairs":
        return ["pairs", "--records", str(records), "--qa", str(qa),
                "--output", str(tmp_path / "pairs.jsonl")]
    if stage == "report":
        return ["report", "--input", str(records), "--output", str(tmp_path / "report.txt")]
    if stage == "split":
        return ["split", "--input", str(qa), "--train-out", str(tmp_path / "train.jsonl"),
                "--val-out", str(tmp_path / "val.jsonl")]
    if stage == "eval-edit":
        rows = _edit_rows(tmp_path / "rows.jsonl")
        return ["eval-edit", "--input", str(rows), "--judge", "containment",
                "--output", str(tmp_path / "edit.json")]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps({"id": "g0", "input": WORKED_ERRONEOUS, "target": WORKED_TARGET})
                     + "\n", encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"id": "g0", "raw": WORKED_TARGET}) + "\n", encoding="utf-8")
    return ["eval-detect", "--gold", str(pairs), "--pred", str(preds),
            "--output", str(tmp_path / "detect.txt")]


@pytest.mark.parametrize(
    "stage, runs, unloaded",
    [
        ("eval-detect", "detect_eval", ("insertion", "quality", "corpus", "edit_eval", "llm_client")),
        ("eval-edit", "edit_eval", ("insertion", "quality", "corpus", "detect_eval", "llm_client")),
        ("fix", "quality", ("insertion", "corpus", "detect_eval", "edit_eval", "llm_client")),
        ("insert", "insertion", ("detect_eval", "edit_eval", "llm_client", *_STDLIB_WATCHED)),
        ("split", "partition",
         ("corpus", "quality", "markup", "patterns", "prompts", "taxonomy", "logging")),
        ("pairs", "corpus", ("insertion", "detect_eval", "edit_eval", "llm_client", *_STDLIB_WATCHED)),
        ("report", "corpus", ("insertion", "detect_eval", "edit_eval", "llm_client", *_STDLIB_WATCHED)),
    ],
)
def test_stage_loads_only_the_layers_it_runs(tmp_path, capsys, stage, runs, unloaded):
    loaded = _stage_modules(tmp_path, *_stage_argv(tmp_path, stage))
    capsys.readouterr()
    assert f"fintag.{runs}" in loaded
    assert not loaded & {name if name in _STDLIB_WATCHED else f"fintag.{name}" for name in unloaded}


def test_usage_error_exits_2(capsys):
    assert dispatch([]) == 2
    assert dispatch(["derive", "--input", "x"]) == 2  # missing --form
    capsys.readouterr()


def test_missing_input_exits_1(tmp_path, capsys):
    code = dispatch(
        ["derive", "--input", str(tmp_path / "nope.jsonl"), "--form", "original"]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


_RECORD = {"id": "a", "original": "x", "tagged": "x", "provenance": "p"}
_QA = {"id": "q0", "documents": ["Sales were $5."], "question": "q", "response": "Sales were $5."}
_GOLD = {"id": "g0", "target": WORKED_TARGET}
_PRED = {"id": "g0", "raw": WORKED_TARGET}
_FIX = ["fix", "--input", "records.jsonl", "--output", "out"]
_DETECT = ["eval-detect", "--gold", "gold.jsonl", "--pred", "pred.jsonl", "--output", "out"]
_EDIT = ["eval-edit", "--input", "rows.jsonl", "--output", "out"]
_INSERT = ["insert", "--input", "qa.jsonl", "--output", "out"]
_REPORT = ["report", "--input", "records.jsonl", "--sources", "sources.json", "--output", "out"]
_INI = _INSERT + ["--config", "fintag.ini"]


@pytest.mark.parametrize(
    "argv, files, where, reason",
    [
        pytest.param(_FIX, {"records.jsonl": [_RECORD, {"id": "b", "original": "y", "tagged": 5}]},
                     "records.jsonl:2", "field 'tagged' is int, expected str", id="fix-tagged-int"),
        pytest.param(_FIX, {"records.jsonl": [{"id": "a", "original": 7, "tagged": "x"}]},
                     "records.jsonl:1", "field 'original' is int, expected str",
                     id="fix-original-int"),
        pytest.param(_FIX, {"records.jsonl": [_RECORD, _RECORD | {"provenance": 5}]},
                     "records.jsonl:2", "field 'provenance' is int, expected str or NoneType",
                     id="fix-provenance-int"),
        pytest.param(_FIX, {"records.jsonl": [{"id": "a", "original": "x"}]},
                     "records.jsonl:1", "missing field 'tagged'", id="fix-no-tagged"),
        pytest.param(_DETECT, {"gold.jsonl": [{"id": "g0", "target": 3}], "pred.jsonl": [_PRED]},
                     "gold.jsonl:1", "field 'target' is int, expected str", id="detect-target-int"),
        pytest.param(_DETECT, {"gold.jsonl": [{"id": "g0", "prompt": "p"}], "pred.jsonl": [_PRED]},
                     "gold.jsonl:1", "missing field 'target'", id="detect-no-target"),
        pytest.param(_DETECT, {"gold.jsonl": [_GOLD], "pred.jsonl": [{"id": "g0", "raw": 5}]},
                     "pred.jsonl:1", "field 'raw' is int, expected str", id="detect-raw-int"),
        pytest.param(_EDIT, {"rows.jsonl": [{"id": "e", "edited": 5, "reference": "x"}]},
                     "rows.jsonl:1", "field 'edited' is int, expected str", id="edit-edited-int"),
        pytest.param(_EDIT, {"rows.jsonl": [{"id": "e", "edited": "x"}]},
                     "rows.jsonl:1", "missing field 'reference'", id="edit-no-reference"),
        pytest.param(_INSERT + ["--exemplars", "ex.jsonl"],
                     {"qa.jsonl": [_QA], "ex.jsonl": [{"kind": "numerica", "passage": "p", "tagged": "t"}]},
                     "ex.jsonl:1", "unknown kind 'numerica'", id="exemplar-unknown-kind"),
        pytest.param(_INSERT + ["--exemplars", "ex.jsonl"],
                     {"qa.jsonl": [_QA], "ex.jsonl": [{"kind": "numerical", "passage": "p"}]},
                     "ex.jsonl:1", "missing field 'tagged'", id="exemplar-no-tagged"),
        pytest.param(_REPORT, {"records.jsonl": [_RECORD], "sources.json": '["a"]'}, "sources.json",
                     "expected a JSON object of record id to source label", id="sources-list"),
        pytest.param(_REPORT, {"records.jsonl": [_RECORD], "sources.json": '{"a": 1}'}, "sources.json",
                     "expected a JSON object of record id to source label", id="sources-int-label"),
        pytest.param(_REPORT, {"records.jsonl": [_RECORD], "sources.json": '{"a": '}, "sources.json",
                     "bad JSON (Expecting value)", id="sources-bad-json"),
        pytest.param(_INSERT, {"qa.jsonl": [_QA | {"id": "a"}, _QA | {"id": "a"}]},
                     "qa.jsonl:2", "duplicate id 'a' (first at line 1)", id="insert-duplicate-id"),
        pytest.param(_FIX, {"records.jsonl": json.dumps(_RECORD).encode() + b'\n{"id": "\xff"}\n'},
                     "records.jsonl:2", "not UTF-8", id="fix-not-utf8"),
        pytest.param(_INI, {"qa.jsonl": [_QA], "fintag.ini": "[inserter]\nmax_error = 3\n"},
                     "fintag.ini", "[inserter] unknown key 'max_error'", id="ini-max-error"),
        pytest.param(_INI, {"qa.jsonl": [_QA], "fintag.ini": "[inserter]\nweight.numerica = 2\n"},
                     "fintag.ini", "[inserter] unknown key 'weight.numerica'", id="ini-weight-kind"),
        pytest.param(_INI, {"qa.jsonl": [_QA], "fintag.ini": "[inserter]\nclean_probabilty = 1\n"},
                     "fintag.ini", "[inserter] unknown key 'clean_probabilty'", id="ini-clean"),
        pytest.param(_INI, {"qa.jsonl": [_QA], "fintag.ini": "[inserter]\nmax_errors = six\n"},
                     "fintag.ini", "[inserter] max_errors: invalid literal for int() with base 10: 'six'",
                     id="ini-bad-value"),
        pytest.param(_INI + ["--mode", "llm"],
                     {"qa.jsonl": [_QA], "fintag.ini": "[client:a]\nendpoint = x\nmodle = m\n"},
                     "fintag.ini", "[client:a] unknown key 'modle'", id="ini-client-key"),
    ],
)
def test_bad_input_exits_1_naming_where(tmp_path, capsys, argv, files, where, reason):
    for name, content in files.items():
        if isinstance(content, list):
            content = "".join(json.dumps(r) + "\n" for r in content)
        if isinstance(content, str):
            content = content.encode("utf-8")
        (tmp_path / name).write_bytes(content)
    argv = [str(tmp_path / arg) if arg in files or arg == "out" else arg for arg in argv]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err == f"fintag: error: {tmp_path / where}: {reason}\n"
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_derive_raw_golden_forms(tmp_path, capsys):
    src = tmp_path / "tagged.txt"
    src.write_text(WORKED_TAGGED + "\n", encoding="utf-8")

    assert dispatch(["derive", "--input", str(src), "--form", "erroneous", "--raw"]) == 0
    assert capsys.readouterr().out.rstrip("\n") == WORKED_ERRONEOUS

    assert dispatch(["derive", "--input", str(src), "--form", "original", "--raw"]) == 0
    assert capsys.readouterr().out.rstrip("\n") == WORKED_ORIGINAL

    assert dispatch(["derive", "--input", str(src), "--form", "target", "--raw"]) == 0
    assert capsys.readouterr().out.rstrip("\n") == WORKED_TARGET


def test_insert_fix_pairs_report_pipeline(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=40, seed=1)
    records = tmp_path / "records.jsonl"
    fixed = tmp_path / "fixed.jsonl"
    pairs = tmp_path / "pairs.jsonl"
    report = tmp_path / "report.json"

    assert dispatch(["insert", "--input", str(qa), "--output", str(records), "--seed", "5"]) == 0
    assert dispatch(["fix", "--input", str(records), "--output", str(fixed),
                     "--tally", str(tmp_path / "tally.json")]) == 0
    assert dispatch(["pairs", "--records", str(fixed), "--qa", str(qa),
                     "--output", str(pairs)]) == 0
    assert dispatch(["report", "--input", str(fixed), "--format", "json",
                     "--output", str(report)]) == 0
    capsys.readouterr()

    payload = json.loads(report.read_text(encoding="utf-8"))
    total = payload["total"]
    assert total["passages"] == 40
    assert total["hallucinated_pct"] + total["non_hallucinated_pct"] == 100.0
    # every record survived the gate (rule-based inserts are always valid)
    fixed_lines = [l for l in fixed.read_text().splitlines() if '"_meta"' not in l]
    assert len(fixed_lines) == 40
    meta = json.loads(fixed.read_text().splitlines()[0])["_meta"]
    assert meta["tool"] == "fintag" and "version" in meta


def test_validate_reports_defects(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    rows = [
        {"id": "bad", "original": "a x b", "tagged": "a <mark>x</mark> b",
         "provenance": "model-x", "seed": 0},
        {"id": "good", "original": "fine text", "tagged": "fine text",
         "provenance": "model-x", "seed": 0},
    ]
    records.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    out = tmp_path / "issues.json"
    assert dispatch(["validate", "--input", str(records), "--output", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["clean"] == 1
    assert payload["flagged"][0]["id"] == "bad"
    assert payload["flagged"][0]["issues"][0]["kind"] == "invalid_format"


def test_fix_tally_counts_fixable_issues_of_discarded_records(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    row = {"id": "r1", "original": "Not the tagged passage.", "provenance": "model-x", "seed": 0,
           "tagged": "Cash was <relation><delete>$5</delete><mark>$5</mark></relation>."}
    records.write_text(json.dumps(row) + "\n", encoding="utf-8")
    tally = tmp_path / "tally.json"
    discarded = tmp_path / "discarded.jsonl"
    assert dispatch(["fix", "--input", str(records), "--output", str(tmp_path / "fixed.jsonl"),
                     "--tally", str(tally), "--discarded", str(discarded), "--seed", "3"]) == 0
    capsys.readouterr()
    counts = json.loads(tally.read_text(encoding="utf-8"))["tally"]["model-x"]
    assert counts["discarded"] == 1
    assert counts["identical_text"] == 1 and counts["inconsistent_content"] == 1
    header, row = [json.loads(line) for line in discarded.read_text(encoding="utf-8").splitlines()]
    assert header["_meta"]["command"] == "fix" and header["_meta"]["seed"] == 3
    assert row == {"id": "r1", "reasons": ["inconsistent_content"]}


def test_split_deterministic(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text(
        "\n".join(json.dumps({"id": i}) for i in range(100)) + "\n", encoding="utf-8"
    )
    outs = []
    for run in ("a", "b"):
        train = tmp_path / f"train-{run}.jsonl"
        val = tmp_path / f"val-{run}.jsonl"
        assert dispatch([
            "split", "--input", str(data), "--train-out", str(train),
            "--val-out", str(val), "--ratio", "0.95", "--seed", "7",
        ]) == 0
        outs.append((train.read_bytes(), val.read_bytes()))
    capsys.readouterr()
    assert outs[0] == outs[1]
    train_lines = outs[0][0].decode().strip().splitlines()
    val_lines = outs[0][1].decode().strip().splitlines()
    assert len(train_lines) - 1 == 95 and len(val_lines) - 1 == 5  # minus _meta


def test_split_rejects_a_corrupt_line(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text('{"id": 0}\n{oops\n{"id": 2}\n', encoding="utf-8")
    train, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    assert dispatch(["split", "--input", str(data), "--train-out", str(train),
                     "--val-out", str(val)]) == 1
    err = capsys.readouterr().err
    assert f"fintag: error: {data}:2: bad JSON" in err
    assert not train.exists() and not val.exists()


def test_fix_rejects_a_lone_surrogate_before_writing(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text(
        '{"id": "a", "original": "x", "tagged": "x"}\n'
        '{"id": "b", "original": "y\\ud800", "tagged": "y"}\n',
        encoding="utf-8",
    )
    out = tmp_path / "fixed.jsonl"
    assert dispatch(["fix", "--input", str(records), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.strip() == f"fintag: error: {records}:2: lone surrogate in a string (UTF-8 cannot encode it)"
    assert not out.exists()


@pytest.mark.parametrize("bad_line", ["5", '"a string with _meta in it"'])
@pytest.mark.parametrize("stage", ["eval-detect", "eval-edit"])
def test_strict_stage_reports_a_non_object_line(tmp_path, capsys, stage, bad_line):
    argv = _stage_argv(tmp_path, stage)
    path = tmp_path / ("pairs.jsonl" if stage == "eval-detect" else "rows.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    lines = path.read_text(encoding="utf-8").count("\n")
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.strip() == f"fintag: error: {path}:{lines}: not a JSON object"


def test_insert_counts_a_non_object_line_as_skipped(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=3)
    with open(qa, "a", encoding="utf-8") as fh:
        fh.write("5\n")
    out = tmp_path / "records.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(out)]) == 0
    assert "read=4 kept=3 skipped_lines=1 records=3" in capsys.readouterr().err


def test_insert_counts_a_line_that_is_not_utf8_as_skipped(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=3)
    with open(qa, "ab") as fh:
        fh.write(b'{"id": "q\xff", "documents": ["d"], "question": "q", "response": "r"}\n')
    out = tmp_path / "records.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(out)]) == 0
    assert "read=4 kept=3 skipped_lines=1 records=3" in capsys.readouterr().err


def test_eval_detect_gold_as_prediction_scores_100(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=25, seed=2)
    records = tmp_path / "records.jsonl"
    pairs = tmp_path / "pairs.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(records), "--seed", "2"]) == 0
    assert dispatch(["pairs", "--records", str(records), "--qa", str(qa),
                     "--output", str(pairs)]) == 0

    preds = tmp_path / "preds.jsonl"
    with open(pairs, encoding="utf-8") as fh, open(preds, "w", encoding="utf-8") as out:
        for line in fh:
            obj = json.loads(line)
            if "_meta" in obj:
                continue
            out.write(json.dumps({"id": obj["id"], "raw": obj["target"]}) + "\n")

    report = tmp_path / "detect.json"
    assert dispatch(["eval-detect", "--gold", str(pairs), "--pred", str(preds),
                     "--format", "json", "--output", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["overall"]["f1"] == 100.0
    assert payload["binary"]["f1"] == 100.0
    assert payload["unparseable_predictions"] == 0
    for label, counts in payload["per_kind"].items():
        if counts["tp"]:
            assert counts["f1"] == 100.0


def test_eval_edit_containment(tmp_path, capsys):
    rows = tmp_path / "edit.jsonl"
    rows.write_text(
        json.dumps({
            "id": "e1",
            "edited": WORKED_ORIGINAL,
            "reference": WORKED_ORIGINAL,
        }) + "\n"
        + json.dumps({
            "id": "e2",
            "edited": WORKED_ERRONEOUS,
            "reference": WORKED_ORIGINAL,
        }) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "edit-report.json"
    assert dispatch(["eval-edit", "--input", str(rows), "--output", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text(encoding="utf-8"))
    by_id = {r["id"]: r for r in payload["records"]}
    assert by_id["e1"]["score"] == 1.0
    assert by_id["e2"]["score"] < 1.0


def _edit_rows(path):
    path.write_text(
        "".join(
            json.dumps({"id": rid, "edited": edited, "reference": WORKED_ORIGINAL}) + "\n"
            for rid, edited in (("e1", WORKED_ORIGINAL), ("e2", WORKED_ERRONEOUS))
        ),
        encoding="utf-8",
    )
    return path


def test_eval_edit_reports_judge_failures(tmp_path, capsys, caplog, monkeypatch):
    import fintag.edit_eval as edit_eval

    judge = edit_eval.containment_judge

    def fails_on_dates(fact, reference):
        if "2008" in fact:
            raise RuntimeError("judge down")
        return judge(fact, reference)

    monkeypatch.setattr(edit_eval, "containment_judge", fails_on_dates)
    out = tmp_path / "edit-report.json"
    assert dispatch(["eval-edit", "--input", str(_edit_rows(tmp_path / "rows.jsonl")),
                     "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert "failed 1/3 units" in err
    assert "RuntimeError: judge down" in caplog.text
    e2 = json.loads(out.read_text(encoding="utf-8"))["records"][1]
    assert e2 == {"id": "e2", "supported": 1, "total": 2, "abstained": 1, "score": 1.0}


def test_eval_edit_fails_when_the_judge_fails_every_unit(tmp_path, capsys, monkeypatch):
    import fintag.edit_eval as edit_eval

    def unreachable(fact, reference):
        raise ConnectionError("endpoint unreachable")

    monkeypatch.setattr(edit_eval, "containment_judge", unreachable)
    out = tmp_path / "edit-report.json"
    assert dispatch(["eval-edit", "--input", str(_edit_rows(tmp_path / "rows.jsonl")),
                     "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "fintag: error: the containment judge failed on all 3 units" in err
    assert not out.exists()


def test_eval_edit_writes_each_id_as_a_string(tmp_path, capsys):
    rows = tmp_path / "rows.jsonl"
    rows.write_text(
        "".join(json.dumps({"id": rid, "edited": WORKED_ORIGINAL, "reference": WORKED_ORIGINAL}) + "\n"
                for rid in (5, "e2")),
        encoding="utf-8",
    )
    out = tmp_path / "edit.json"
    assert dispatch(["eval-edit", "--input", str(rows), "--output", str(out)]) == 0
    capsys.readouterr()
    assert [r["id"] for r in json.loads(out.read_text(encoding="utf-8"))["records"]] == ["5", "e2"]


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("first_id, repeat_id", [("g0", "g0"), (5, "5")])
@pytest.mark.parametrize("repeated", ["gold", "pred"])
def test_eval_detect_rejects_a_repeated_id(tmp_path, capsys, repeated, first_id, repeat_id):
    plain = "Revenue was flat."
    rows = {"gold": [{"id": "g1", "target": plain}], "pred": [{"id": "g1", "raw": plain}]}
    field = "target" if repeated == "gold" else "raw"
    rows[repeated] = [
        {"id": first_id, field: plain}, *rows[repeated], {"id": repeat_id, field: WORKED_TARGET}
    ]
    gold = _write_rows(tmp_path / "gold.jsonl", rows["gold"])
    pred = _write_rows(tmp_path / "pred.jsonl", rows["pred"])
    out = tmp_path / "detect.json"
    assert dispatch(["eval-detect", "--gold", gold, "--pred", pred, "--output", str(out)]) == 1
    path = gold if repeated == "gold" else pred
    assert capsys.readouterr().err == (
        f"fintag: error: {path}:3: duplicate id {str(first_id)!r} (first at line 1)\n"
    )
    assert not out.exists()


def test_pairs_rejects_a_repeated_qa_id(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=3)
    inserted = tmp_path / "records.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(inserted)]) == 0
    # `insert` rejects the repeat too, so it is added after the records are
    # written. A blank line and a skipped row still count in line numbers.
    qa.write_text(
        qa.read_text(encoding="utf-8") + "\n" + '{"id": "qa9"}\n'
        + json.dumps({"id": "qa1", "documents": ["d"], "question": "q", "response": "r"}) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "pairs.jsonl"
    capsys.readouterr()
    assert dispatch(["pairs", "--records", str(inserted), "--qa", str(qa), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"fintag: error: {qa}:6: duplicate id 'qa1' (first at line 2)\n"
    assert not out.exists()


def test_eval_detect_reports_unpaired_ids(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        "".join(
            json.dumps({"id": f"g{i}", "input": WORKED_ERRONEOUS, "target": WORKED_TARGET}) + "\n"
            for i in range(8)
        ),
        encoding="utf-8",
    )
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        "".join(json.dumps({"id": rid, "raw": WORKED_TARGET}) + "\n" for rid in ("g0", "x1", "x2")),
        encoding="utf-8",
    )
    report = tmp_path / "detect.json"
    assert dispatch(["eval-detect", "--gold", str(pairs), "--pred", str(preds),
                     "--format", "json", "--output", str(report)]) == 0
    err = capsys.readouterr().err
    assert ("eval-detect: 7 gold ids without a prediction (e.g. g1, g2, g3, g4, g5); "
            "2 prediction ids without gold (e.g. x1, x2)") in err
    assert json.loads(report.read_text(encoding="utf-8"))["binary"]["f1"] < 100.0


def test_insert_honours_config_file(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=20, seed=4)
    config = tmp_path / "fintag.ini"
    config.write_text(
        "[inserter]\n"
        "clean_probability = 1.0\n",  # every plan clean: no tags anywhere
        encoding="utf-8",
    )
    records = tmp_path / "records.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(records),
                     "--config", str(config), "--seed", "1"]) == 0
    capsys.readouterr()
    lines = records.read_text(encoding="utf-8").splitlines()
    meta = json.loads(lines[0])["_meta"]
    assert meta["config"]["clean_probability"] == 1.0
    for line in lines[1:]:
        obj = json.loads(line)
        assert obj["tagged"] == obj["original"]


class _StubEndpoint(BaseHTTPRequestHandler):
    """Chat-completion endpoint that corrupts the prompt's passage
    deterministically with the rule-based inserter."""

    calls = 0

    def do_POST(self):
        from fintag.insertion import InsertionPlan, insert_rule_based
        from fintag.markup import serialize
        from fintag.taxonomy import ErrorType

        type(self).calls += 1
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        prompt = payload["messages"][1]["content"]
        start = prompt.rfind("Passage: ") + len("Passage: ")
        end = prompt.rfind("\n\nReturn only")
        plan = InsertionPlan(False, 1, (ErrorType.NUMERICAL,), 0)
        tagged = serialize(
            insert_rule_based(prompt[start:end], "", plan, seed=5).record.doc
        )
        body = json.dumps({"choices": [{"message": {"content": tagged}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _StubEndpoint)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubEndpoint.calls = 0
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    server.shutdown()
    server.server_close()


def test_insert_llm_mode_round_robin_and_cache(tmp_path, capsys, stub_endpoint):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=8, seed=6)
    config = tmp_path / "fintag.ini"
    config.write_text(
        "[inserter]\nclean_probability = 0.0\n"
        f"[client:alpha]\nendpoint = {stub_endpoint}\nmodel = stub-a\n"
        f"cache_path = {tmp_path / 'cache-a.jsonl'}\n"
        f"[client:beta]\nendpoint = {stub_endpoint}\nmodel = stub-b\n"
        f"cache_path = {tmp_path / 'cache-b.jsonl'}\n",
        encoding="utf-8",
    )
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / f"llm-{run}.jsonl"
        assert dispatch([
            "insert", "--input", str(qa), "--output", str(out),
            "--mode", "llm", "--config", str(config), "--seed", "9", "--jobs", "2",
        ]) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]  # warm cache reproduces bytes
    assert _StubEndpoint.calls == 8  # second run never hit the network

    rows = [json.loads(l) for l in outputs[0].decode().splitlines()]
    provenances = {r["provenance"] for r in rows if "_meta" not in r}
    assert provenances == {"alpha", "beta"}  # profiles round-robin
    for r in rows:
        if "_meta" in r:
            continue
        assert "<numerical>" in r["tagged"]


def test_insert_llm_mode_checks_every_id_before_calling_the_model(tmp_path, capsys, stub_endpoint):
    qa = tmp_path / "qa.jsonl"
    records = _qa_file(qa, n=6, seed=6)
    write_qa_records(qa, records + [records[0]])  # no cache: a late repeat wastes every call
    config = tmp_path / "fintag.ini"
    config.write_text(f"[client:alpha]\nendpoint = {stub_endpoint}\nmodel = stub-a\n", encoding="utf-8")
    out = tmp_path / "llm.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(out),
                     "--mode", "llm", "--config", str(config), "--jobs", "2"]) == 1
    assert capsys.readouterr().err == f"fintag: error: {qa}:7: duplicate id 'qa0' (first at line 1)\n"
    assert _StubEndpoint.calls == 0
    assert not out.exists()


def test_pool_results_come_in_input_order_two_bursts_at_most():
    from concurrent.futures import ThreadPoolExecutor

    from fintag.cli import _in_order

    drawn = []

    def items():
        for i in range(10):
            drawn.append(i)
            yield i

    with ThreadPoolExecutor(max_workers=3) as pool:
        results = _in_order(pool, lambda i: i * i, items(), burst=3)
        assert next(results) == 0 and len(drawn) == 6
        assert list(results) == [i * i for i in range(1, 10)]


def _readme_ini() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_writes_the_no_config_records(tmp_path, capsys):
    # README's [inserter] block spells out every default, weights included,
    # so it must plan and echo exactly what no config does.
    assert "weight.numerical = 20.0" in _readme_ini()
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=40, seed=3)
    config = tmp_path / "fintag.ini"
    config.write_text(_readme_ini(), encoding="utf-8")
    outputs = []
    for extra in ([], ["--config", str(config)]):
        records = tmp_path / f"records-{len(extra)}.jsonl"
        assert dispatch(["insert", "--input", str(qa), "--output", str(records), "--seed", "3",
                         *extra]) == 0
        outputs.append(records.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_a_weight_left_out_of_the_config_excludes_its_kind(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=30, seed=6)
    config = tmp_path / "fintag.ini"
    config.write_text("[inserter]\nweight.temporal = 30.8\n", encoding="utf-8")
    records = tmp_path / "records.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(records),
                     "--config", str(config)]) == 0
    capsys.readouterr()
    meta = json.loads(records.read_text(encoding="utf-8").splitlines()[0])["_meta"]
    assert meta["config"]["type_weights"] == {"temporal": 30.8}
    assert dispatch(["report", "--input", str(records)]) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    assert [row.split()[-1] for row in rows] == ["0.0%", "100.0%", "0.0%", "0.0%", "0.0%", "0.0%"]
    assert rows[1].startswith("Temporal Errors ")


def test_rule_insert_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=40, seed=8)
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"records-{hash_seed}.jsonl"
        subprocess.run(
            [sys.executable, "-m", "fintag.cli", "insert", "--input", str(qa), "--output", str(out),
             "--seed", "5"],
            env=_checkout_env(PYTHONHASHSEED=hash_seed), capture_output=True, check=True,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_rerun_byte_identical(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=30, seed=3)
    outputs = []
    for run in ("one", "two"):
        records = tmp_path / f"records-{run}.jsonl"
        fixed = tmp_path / f"fixed-{run}.jsonl"
        pairs = tmp_path / f"pairs-{run}.jsonl"
        report = tmp_path / f"report-{run}.json"
        assert dispatch(["insert", "--input", str(qa), "--output", str(records), "--seed", "11"]) == 0
        assert dispatch(["fix", "--input", str(records), "--output", str(fixed)]) == 0
        assert dispatch(["pairs", "--records", str(fixed), "--qa", str(qa), "--output", str(pairs)]) == 0
        assert dispatch(["report", "--input", str(fixed), "--format", "json", "--output", str(report)]) == 0
        outputs.append(
            (records.read_bytes(), fixed.read_bytes(), pairs.read_bytes(), report.read_bytes())
        )
    capsys.readouterr()
    assert outputs[0] == outputs[1]
