"""End-to-end CLI tests driving `dispatch` with temp files."""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    WORKED_ERRONEOUS,
    WORKED_ORIGINAL,
    WORKED_TAGGED,
    WORKED_TARGET,
    checkout_env,
    make_context,
    make_passage,
    write_qa_records,
)
import fintag
from fintag.cli import dispatch
from fintag.corpus import QARecord


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


def _run_probe(probe, *argv, cwd=None):
    """Stdout of `python -c probe argv...` in a fresh process that imports
    this checkout's fintag."""
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=checkout_env(), cwd=cwd,
                         capture_output=True, encoding="utf-8", check=True)
    return out.stdout


def test_cli_import_leaves_http_stack_unloaded(tmp_path, stub_endpoint):
    # The HTTP stack is for live LLM calls only; every stage process pays
    # for whatever `fintag.cli` imports, and a warm-cache replay calls no
    # model.
    probe = ("import sys, fintag.cli\n"
             "rc = fintag.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
             "print([m for m in ('urllib.request', 'http.client') if m in sys.modules])\n"
             "sys.exit(rc)\n")
    assert _run_probe(probe).strip() == "[]"
    argv, _ = _warm_insert(tmp_path, stub_endpoint)
    assert _run_probe(probe, *argv, "--output", str(tmp_path / "warm.jsonl"), cwd=tmp_path).strip() == "[]"
    assert _StubEndpoint.calls == 6  # every call replayed


# Standard modules that no build or evaluation stage but `split` needs:
# each costs a stage process several milliseconds to import. No stage needs
# `hashlib`, whose `_hashlib` loads OpenSSL, about 3.5 MB of memory: cache
# keys are hashed by the interpreter's builtin SHA-256. No stage needs
# `dataclasses`, which loads `inspect`, `ast`, `dis` and `tokenize`: the
# package's value types are NamedTuples.
_STDLIB_WATCHED = ("logging", "fractions", "hashlib", "_hashlib", "dataclasses")

_LOADED_PROBE = (
    "import json, sys, threading\n"
    "started = []\n"
    "start = threading.Thread.start\n"
    "threading.Thread.start = lambda thread: (started.append(thread.name), start(thread))[1]\n"
    "from fintag.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    f"watched = ('fintag', 'concurrent') + {_STDLIB_WATCHED!r}\n"
    "print(json.dumps(started))\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in watched)))\n"
    "sys.exit(rc)\n"
)


def _stage_probe(tmp_path, *argv):
    """The fintag modules, `concurrent`'s and the watched standard ones, a
    CLI stage process has loaded when it ends, and the names of the threads
    it started."""
    *_, started, loaded = _run_probe(_LOADED_PROBE, *argv, cwd=tmp_path).splitlines()
    return set(json.loads(loaded)), json.loads(started)


def _stage_modules(tmp_path, *argv):
    return _stage_probe(tmp_path, *argv)[0]


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
    if stage in ("fix", "pairs", "report", "derive"):
        assert dispatch(["insert", "--input", str(qa), "--output", str(records)]) == 0
    if stage == "fix":
        return ["fix", "--input", str(records), "--output", str(tmp_path / "fixed.jsonl")]
    if stage == "pairs":
        return ["pairs", "--records", str(records), "--qa", str(qa),
                "--output", str(tmp_path / "pairs.jsonl")]
    if stage == "report":
        return ["report", "--input", str(records), "--output", str(tmp_path / "report.txt")]
    if stage == "derive":
        return ["derive", "--input", str(records), "--form", "target",
                "--output", str(tmp_path / "derived.jsonl")]
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
        ("eval-detect", "detect_eval",
         ("insertion", "quality", "corpus", "edit_eval", "llm_client", "patterns", *_STDLIB_WATCHED)),
        ("eval-edit", "edit_eval",
         ("insertion", "quality", "corpus", "detect_eval", "llm_client", *_STDLIB_WATCHED)),
        ("fix", "quality",
         ("insertion", "corpus", "detect_eval", "edit_eval", "llm_client", *_STDLIB_WATCHED)),
        ("insert", "insertion", ("detect_eval", "edit_eval", "llm_client", *_STDLIB_WATCHED)),
        ("split", "partition",
         ("corpus", "quality", "markup", "patterns", "prompts", "taxonomy", "logging", "hashlib",
          "_hashlib", "dataclasses")),
        ("pairs", "corpus", ("insertion", "detect_eval", "edit_eval", "llm_client", *_STDLIB_WATCHED)),
        ("report", "corpus",
         ("insertion", "quality", "detect_eval", "edit_eval", "llm_client", *_STDLIB_WATCHED)),
        ("derive", "records", ("quality", "patterns", "corpus", "insertion")),
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
# llm mode with a pool: the pool is read before any model call is made.
_POOL = _INI + ["--mode", "llm", "--exemplars", "ex.jsonl"]
_CLIENT = "[client:a]\nendpoint = x\nmodel = m\n"


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
        # The predictions are indexed before the gold rows are read.
        pytest.param(_DETECT, {"gold.jsonl": [{"id": "g0"}], "pred.jsonl": [{"id": "g0", "raw": 5}]},
                     "pred.jsonl:1", "field 'raw' is int, expected str", id="detect-both-bad"),
        pytest.param(_EDIT, {"rows.jsonl": [{"id": "e", "edited": 5, "reference": "x"}]},
                     "rows.jsonl:1", "field 'edited' is int, expected str", id="edit-edited-int"),
        pytest.param(_EDIT, {"rows.jsonl": [{"id": "e", "edited": "x"}]},
                     "rows.jsonl:1", "missing field 'reference'", id="edit-no-reference"),
        pytest.param(_POOL, {"qa.jsonl": [_QA], "fintag.ini": _CLIENT,
                             "ex.jsonl": [{"kind": "numerica", "passage": "p", "tagged": "t"}]},
                     "ex.jsonl:1", "unknown kind 'numerica'", id="exemplar-unknown-kind"),
        pytest.param(_POOL, {"qa.jsonl": [_QA], "fintag.ini": _CLIENT,
                             "ex.jsonl": [{"kind": "numerical", "passage": "p"}]},
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


@pytest.mark.parametrize("io_encoding", ["latin-1", "cp1252"])
def test_stdout_holds_the_bytes_of_the_output_file_whatever_the_io_encoding(tmp_path, io_encoding):
    # "€" has no latin-1 byte, and cp1252 spells it 0x80; the output file
    # holds its UTF-8 bytes, and so must stdout.
    tagged = "Revenue was <numerical><delete>€5</delete><mark>€7</mark></numerical> million, up 10%."
    raw = tmp_path / "tagged.txt"
    raw.write_text(tagged + "\n", encoding="utf-8")
    records = tmp_path / "records.jsonl"
    row = {"id": "a", "original": "Revenue was €5 million, up 10%.", "tagged": tagged}
    records.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    for argv in (["derive", "--input", str(raw), "--form", "erroneous", "--raw"],
                 ["derive", "--input", str(records), "--form", "erroneous"]):
        stage = [sys.executable, "-m", "fintag.cli", *argv]
        subprocess.run([*stage, "--output", str(out)], env=checkout_env(), capture_output=True, check=True)
        shown = subprocess.run(stage, env=checkout_env(PYTHONIOENCODING=io_encoding), capture_output=True)
        assert (shown.returncode, shown.stderr) == (0, b"")
        assert shown.stdout == out.read_bytes()
        assert "€7".encode("utf-8") in shown.stdout


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
    fixed_lines = [l for l in fixed.read_text(encoding="utf-8").splitlines() if '"_meta"' not in l]
    assert len(fixed_lines) == 40
    meta = json.loads(fixed.read_text(encoding="utf-8").splitlines()[0])["_meta"]
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


def test_split_reports_a_bad_ratio_before_it_reads_a_line(tmp_path, capsys):
    data = tmp_path / "bad.jsonl"
    data.write_text('{"id": 0}\n{oops\n', encoding="utf-8")
    train, val = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
    assert dispatch(["split", "--input", str(data), "--train-out", str(train),
                     "--val-out", str(val), "--ratio", "1.5"]) == 1
    assert capsys.readouterr().err == "fintag: error: ratio must be strictly between 0 and 1\n"
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


def test_insert_prints_the_reasons_of_the_first_five_skipped_lines(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=2)
    out = tmp_path / "records.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(out)]) == 0
    assert len(capsys.readouterr().err.splitlines()) == 1  # nothing skipped, nothing more said
    row = {"id": "x", "documents": [], "question": "q", "response": "r"}
    with open(qa, "a", encoding="utf-8") as fh:
        fh.write("not json\n" + json.dumps(row) + "\n")
    assert dispatch(["insert", "--input", str(qa), "--output", str(out)]) == 0
    assert capsys.readouterr().err.splitlines()[1:] == [
        "insert: skipped line 3: bad JSON (Expecting value)",
        "insert: skipped line 4: documents must be a nonempty list of strings",
    ]
    with open(qa, "a", encoding="utf-8") as fh:
        fh.write("5\n" * 5)
    assert dispatch(["insert", "--input", str(qa), "--output", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert "skipped_lines=7" in err[0]
    assert err[1:] == [
        "insert: skipped line 3: bad JSON (Expecting value)",
        "insert: skipped line 4: documents must be a nonempty list of strings",
        "insert: skipped line 5: not a JSON object",
        "insert: skipped line 6: not a JSON object",
        "insert: skipped line 7: not a JSON object",
        "insert: skipped 2 more (not shown)",
    ]


def test_pairs_prints_the_reasons_of_the_qa_lines_it_skipped(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=3)
    records, out = tmp_path / "records.jsonl", tmp_path / "pairs.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(records)]) == 0
    argv = ["pairs", "--records", str(records), "--qa", str(qa), "--output", str(out)]
    capsys.readouterr()
    assert dispatch(argv) == 0
    assert capsys.readouterr().err == "pairs: wrote 3\n"  # nothing skipped, nothing more said
    lines = qa.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps(json.loads(lines[1]) | {"documents": []})
    qa.write_text("\n".join(lines + ["not json"]) + "\n", encoding="utf-8")
    assert dispatch(argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        "pairs: skipping qa1: no QA source",
        "pairs: wrote 2 skipped_lines=2",
        "pairs: skipped line 2: documents must be a nonempty list of strings",
        "pairs: skipped line 4: bad JSON (Expecting value)",
    ]


@pytest.mark.parametrize("ids", [[], ["q0", 'é"\\n\t1', 7]])
def test_insert_sources_out_is_the_indented_json_map(tmp_path, capsys, ids):
    qa = tmp_path / "qa.jsonl"
    qa.write_text("".join(json.dumps(_QA | {"id": rid}) + "\n" for rid in ids), encoding="utf-8")
    sources = tmp_path / "sources.json"
    assert dispatch(["insert", "--input", str(qa), "--output", str(tmp_path / "records.jsonl"),
                     "--source", "fin\u00e9\"qa", "--sources-out", str(sources)]) == 0
    capsys.readouterr()
    expected = dict.fromkeys(map(str, ids), "fin\u00e9\"qa")
    assert sources.read_text(encoding="utf-8") == json.dumps(expected, ensure_ascii=False, indent=2) + "\n"


def test_pairs_skips_a_record_that_fails_the_gate(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=3)
    records, out = tmp_path / "records.jsonl", tmp_path / "pairs.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(records)]) == 0
    lines = records.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[2])
    lines[2] = json.dumps(row | {"original": row["original"] + " Extra words."})
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert dispatch(["pairs", "--records", str(records), "--qa", str(qa), "--output", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"pairs: skipping {row['id']}: fails quality gate",
        "pairs: wrote 2",
    ]
    written = [json.loads(line)["id"] for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert row["id"] not in written and len(written) == 2


def test_insert_rule_mode_reads_no_exemplar_pool(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=6, seed=3)
    plain, pooled = tmp_path / "plain.jsonl", tmp_path / "pooled.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(plain)]) == 0
    assert dispatch(["insert", "--input", str(qa), "--output", str(pooled),
                     "--exemplars", str(tmp_path / "missing.jsonl")]) == 0
    assert "error" not in capsys.readouterr().err
    assert pooled.read_bytes() == plain.read_bytes()


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


@pytest.mark.parametrize(
    "profile, reason",
    [
        ([], "--judge llm needs --profile"),
        (["--profile", "c"], "unknown client profile 'c' (the config defines: a, b)"),
    ],
)
def test_eval_edit_llm_judge_names_its_profile_problem(tmp_path, capsys, profile, reason):
    config = tmp_path / "fintag.ini"
    config.write_text("[client:a]\nendpoint = x\nmodel = m\n[client:b]\nendpoint = y\nmodel = m\n",
                      encoding="utf-8")
    out = tmp_path / "edit.json"
    assert dispatch(["eval-edit", "--input", str(_edit_rows(tmp_path / "rows.jsonl")), "--judge", "llm",
                     "--config", str(config), "--output", str(out), *profile]) == 1
    assert capsys.readouterr().err == f"fintag: error: {reason}\n"
    assert not out.exists()


def test_eval_edit_llm_judge_names_a_missing_profile_before_it_reads_a_row(tmp_path, capsys):
    rows = tmp_path / "bad.jsonl"
    rows.write_text(_edit_rows(tmp_path / "rows.jsonl").read_text(encoding="utf-8").splitlines()[0]
                    + "\n{oops\n", encoding="utf-8")
    out = tmp_path / "edit.json"
    assert dispatch(["eval-edit", "--input", str(rows), "--judge", "llm", "--output", str(out)]) == 1
    assert capsys.readouterr().err == "fintag: error: --judge llm needs --profile\n"
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


def test_eval_edit_says_how_many_rows_have_no_sentence(tmp_path, capsys):
    rows = tmp_path / "rows.jsonl"
    edited = (WORKED_ORIGINAL, "", " \n\t", WORKED_ERRONEOUS)
    _write_rows(rows, [{"id": f"e{i}", "edited": text, "reference": WORKED_ORIGINAL}
                       for i, text in enumerate(edited)])
    out = tmp_path / "edit.json"
    assert dispatch(["eval-edit", "--input", str(rows), "--output", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    records = json.loads(out.read_text(encoding="utf-8"))["records"]
    assert [(r["total"], r["score"]) for r in records[1:3]] == [(0, 0.0), (0, 0.0)]
    assert err[0] == "eval-edit: 2 rows have no sentence and score 0.0"
    assert err[1].startswith("containment") and len(err) == 2
    # Without such a row, only the table row is printed.
    _write_rows(rows, [{"id": "e0", "edited": WORKED_ORIGINAL, "reference": WORKED_ORIGINAL}])
    assert dispatch(["eval-edit", "--input", str(rows), "--output", str(out)]) == 0
    assert [line.split()[0] for line in capsys.readouterr().err.splitlines()] == ["containment"]


@pytest.mark.parametrize("ids", [[], [5, "é\"2", "e3"]])
@pytest.mark.parametrize("to_stdout", [False, True])
def test_eval_edit_writes_the_indented_payload(tmp_path, capsys, ids, to_stdout):
    from fintag.edit_eval import containment_judge, score_corpus

    rows = [{"id": rid, "edited": text, "reference": WORKED_ORIGINAL}
            for rid, text in zip(ids, (WORKED_ORIGINAL, WORKED_ERRONEOUS, "Revenue rose."))]
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    out = tmp_path / "edit.json"
    assert dispatch(["eval-edit", "--input", str(path)] + ([] if to_stdout else ["--output", str(out)])) == 0
    written = capsys.readouterr().out if to_stdout else out.read_text(encoding="utf-8")
    results, mean, _ = score_corpus(rows, containment_judge)
    payload = {"meta": {"tool": "fintag", "version": fintag.__version__, "command": "eval-edit",
                        "judge": "containment"},
               "records": results, "mean_score": round(mean, 4), "mean_pct": round(100 * mean, 1)}
    assert written == json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


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
    fails_gate = False  # reply with a passage that does not reconstruct the prompt's
    status = 200  # any other status is answered with an empty body
    body = None  # when set, the JSON value sent as every reply's body

    def do_POST(self):
        from fintag.insertion import InsertionPlan, insert_rule_based
        from fintag.markup import serialize
        from fintag.taxonomy import ErrorType

        type(self).calls += 1
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if self.status != 200:
            self.send_response(self.status)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        prompt = payload["messages"][1]["content"]
        start = prompt.rfind("Passage: ") + len("Passage: ")
        end = prompt.rfind("\n\nReturn only")
        plan = InsertionPlan(False, 1, (ErrorType.NUMERICAL,), 0)
        tagged = serialize(
            insert_rule_based(prompt[start:end], "", plan, seed=5).record.doc
        )
        if self.fails_gate:
            tagged = "An unrelated passage."
        reply = {"choices": [{"message": {"content": tagged}}]} if self.body is None else self.body
        body = json.dumps(reply).encode()
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
    _StubEndpoint.fails_gate = False
    _StubEndpoint.status = 200
    _StubEndpoint.body = None
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


def test_insert_llm_mode_checks_the_exemplar_pool_before_calling_the_model(
    tmp_path, capsys, stub_endpoint
):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=4, seed=6)
    pool = tmp_path / "pool.jsonl"
    pool.write_text(json.dumps({"kind": "numerical", "passage": "It was $5.",
                                "tagged": "It was <numerical><delete>$5</delete><mark>$7</mark>"
                                          "</numerical>."}) + "\n", encoding="utf-8")
    config = tmp_path / "fintag.ini"
    config.write_text("[inserter]\nweight.numerical = 1.0\nweight.relation = 1.0\n"
                      f"[client:alpha]\nendpoint = {stub_endpoint}\nmodel = stub-a\n",
                      encoding="utf-8")
    out = tmp_path / "llm.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(out), "--mode", "llm",
                     "--config", str(config), "--exemplars", str(pool)]) == 1
    assert capsys.readouterr().err == f"fintag: error: {pool}: no exemplar for kind 'relation'\n"
    assert _StubEndpoint.calls == 0
    assert not out.exists()


def _insert_counts(err: str) -> dict:
    line = next(line for line in err.splitlines() if line.startswith("insert: "))
    return {key: int(value) for key, value in (field.split("=") for field in line.split()[1:])}


def test_insert_counts_the_planned_kinds_that_found_no_site(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    write_qa_records(qa, [
        QARecord(f"q{i}", ("Management was confident.",), "How was the outlook?",
                 f"Management was confident about the outlook of segment {name}.")
        for i, name in enumerate(("alpha", "beta", "gamma"))
    ])
    config = tmp_path / "fintag.ini"
    config.write_text("[inserter]\nclean_probability = 0.0\nweight.numerical = 1.0\n",
                      encoding="utf-8")
    assert dispatch(["insert", "--input", str(qa), "--output", str(tmp_path / "out.jsonl"),
                     "--config", str(config)]) == 0
    counts = _insert_counts(capsys.readouterr().err)
    assert counts["kept"] == 3
    assert counts["site_skips"] > 0
    assert counts["records"] + counts["failures"] == counts["kept"]


def test_insert_llm_mode_counts_each_record_whose_replies_fail_the_gate(
    tmp_path, capsys, stub_endpoint
):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=4, seed=6)
    config = tmp_path / "fintag.ini"
    config.write_text("[inserter]\nclean_probability = 0.0\n"
                      f"[client:alpha]\nendpoint = {stub_endpoint}\nmodel = stub-a\n",
                      encoding="utf-8")
    _StubEndpoint.fails_gate = True
    out = tmp_path / "llm.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(out), "--mode", "llm",
                     "--config", str(config), "--max-retries", "1", "--jobs", "2"]) == 0
    counts = _insert_counts(capsys.readouterr().err)
    assert counts["kept"] > 0
    assert counts["failures"] == counts["kept"]
    assert counts["records"] == 0
    assert counts["records"] + counts["failures"] == counts["kept"]
    assert _StubEndpoint.calls == 2 * counts["kept"]  # first try plus one retry each


_LINE_KINDS = ("grounded", "ungrounded", "blank", "bad JSON", "not an object", "not UTF-8")


def _mixed_qa_file(path, kinds, seed) -> dict:
    """A QA file of one line of each kind in `kinds`, and the counts that
    `insert` must report for it."""
    rng = random.Random(seed)
    lines = []
    for i, kind in enumerate(kinds):
        passage = make_passage(rng)
        row = {"id": f"q{i}", "documents": [make_context(rng, passage)], "question": "What changed?",
               "response": passage + (" Margins reached 97531 points." if kind == "ungrounded" else "")}
        lines.append({"blank": b"  ", "bad JSON": b"{oops", "not an object": b"[5]",
                      "not UTF-8": b'{"id": "\xff"}'}.get(kind) or json.dumps(row).encode())
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    valid = kinds.count("grounded") + kinds.count("ungrounded")
    skipped = len(kinds) - valid - kinds.count("blank")
    return {"read": valid + skipped, "kept": kinds.count("grounded"), "skipped_lines": skipped}


def _check_insert_counters(capsys, kinds, seed, *options):
    with tempfile.TemporaryDirectory() as tmp:
        qa, out = Path(tmp) / "qa.jsonl", Path(tmp) / "records.jsonl"
        expected = _mixed_qa_file(qa, kinds, seed)
        assert dispatch(["insert", "--input", str(qa), "--output", str(out), "--seed", str(seed),
                         *options]) == 0
        counts = _insert_counts(capsys.readouterr().err)
        written = len(out.read_text(encoding="utf-8").splitlines()) - 1  # after the _meta line
    assert {key: counts[key] for key in expected} == expected
    assert counts["records"] + counts["failures"] == counts["kept"]
    assert counts["records"] == written
    return counts


_MIXED_LINES = st.lists(st.sampled_from(_LINE_KINDS), max_size=12)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=_MIXED_LINES, seed=st.integers(0, 1000))
def test_insert_counts_every_line_it_reads(capsys, kinds, seed):
    assert _check_insert_counters(capsys, kinds, seed)["failures"] == 0


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=_MIXED_LINES, seed=st.integers(0, 1000), fails_gate=st.booleans())
def test_insert_llm_mode_counts_every_line_it_reads(tmp_path, capsys, stub_endpoint, kinds, seed,
                                                    fails_gate):
    config = tmp_path / "fintag.ini"
    config.write_text(f"[client:alpha]\nendpoint = {stub_endpoint}\nmodel = stub-a\n", encoding="utf-8")
    _StubEndpoint.fails_gate = fails_gate
    counts = _check_insert_counters(capsys, kinds, seed, "--mode", "llm", "--config", str(config),
                                    "--max-retries", "0", "--jobs", "2")
    assert fails_gate or counts["failures"] == 0


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_insert_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=2)
    out = tmp_path / "records.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(out), "--jobs", jobs]) == 2
    reason = "invalid int value: 'two'" if jobs == "two" else f"must be at least 1, got {jobs}"
    assert capsys.readouterr().err.endswith(f"error: argument --jobs: {reason}\n")
    assert not out.exists()


def test_insert_llm_mode_calls_no_queued_unit_after_one_raises(tmp_path, capsys, stub_endpoint):
    # Every call is refused, so the first unit to finish raises. The units
    # submitted by then (two bursts of 128) are cancelled, not called.
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=400, seed=6)
    config = tmp_path / "fintag.ini"
    config.write_text("[inserter]\nclean_probability = 0.0\n"  # every unit calls the model
                      f"[client:alpha]\nendpoint = {stub_endpoint}\nmodel = stub-a\n", encoding="utf-8")
    _StubEndpoint.status = 401
    out = tmp_path / "llm.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(out), "--mode", "llm",
                     "--config", str(config), "--jobs", "2", "--no-ground-filter",
                     "--sources-out", str(tmp_path / "sources.json")]) == 1
    assert capsys.readouterr().err == "fintag: error: auth: HTTP 401\n"
    assert 0 < _StubEndpoint.calls < 128
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fintag.ini", "qa.jsonl"]


def test_insert_llm_mode_fails_on_a_malformed_reply_body(tmp_path, capsys, stub_endpoint):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=4, seed=6)
    config = tmp_path / "fintag.ini"
    config.write_text("[inserter]\nclean_probability = 0.0\n"  # every unit calls the model
                      f"[client:alpha]\nendpoint = {stub_endpoint}\nmodel = stub-a\n", encoding="utf-8")
    _StubEndpoint.body = {"choices": [{"message": None}]}
    out = tmp_path / "llm.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(out), "--mode", "llm",
                     "--config", str(config), "--jobs", "2", "--no-ground-filter"]) == 1
    assert capsys.readouterr().err == "fintag: error: bad_reply: no completion text in reply\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fintag.ini", "qa.jsonl"]


def _drawn_items(n, drawn):
    for i in range(n):
        drawn.append(i)
        yield i


def _square_inline_unless(pooled):
    from fintag.cli import _Miss

    def inline(i):
        if i in pooled:
            raise _Miss
        return i * i

    return inline


def test_a_failed_stage_writes_nothing_to_stdout(tmp_path, capsys, monkeypatch, stub_endpoint):
    # Every judge call is refused, so the stage fails once it has written
    # its records, which stdout would hold but for staging.
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setenv("TMPDIR", str(temp))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    config = tmp_path / "fintag.ini"
    config.write_text(f"[client:alpha]\nendpoint = {stub_endpoint}\nmodel = stub-a\n", encoding="utf-8")
    _StubEndpoint.status = 401
    assert dispatch(["eval-edit", "--input", str(_edit_rows(tmp_path / "rows.jsonl")), "--judge", "llm",
                     "--config", str(config), "--profile", "alpha"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "fintag: error: the llm judge failed on all 3 units\n"
    assert captured.out == ""
    assert _StubEndpoint.calls == 3
    assert list(temp.iterdir()) == []


def test_pool_results_come_in_input_order_two_bursts_at_most():
    from concurrent.futures import ThreadPoolExecutor

    from fintag.cli import _in_order

    drawn = []
    # Even items need the pool; odd ones are done in this thread, and wait
    # behind the futures ahead of them.
    with ThreadPoolExecutor(max_workers=3) as pool:
        results = _in_order(_square_inline_unless(range(0, 10, 2)),
                            lambda i: pool.submit(lambda: i * i), _drawn_items(10, drawn), burst=3)
        assert next(results) == 0 and len(drawn) == 6
        assert list(results) == [i * i for i in range(1, 10)]


def test_in_order_yields_inline_results_as_drawn_while_no_future_is_ahead():
    from fintag.cli import _in_order

    def submit(item):
        raise AssertionError("no item needs the pool")

    drawn = []
    results = _in_order(_square_inline_unless(()), submit, _drawn_items(10, drawn), burst=3)
    assert next(results) == 0 and drawn == [0]
    assert next(results) == 1 and drawn == [0, 1]
    assert list(results) == [i * i for i in range(2, 10)]


def test_in_order_raises_the_first_error_in_input_order_and_draws_no_more():
    from concurrent.futures import ThreadPoolExecutor

    from fintag.cli import _Miss, _in_order

    def inline(i):
        if i == 2:
            raise _Miss
        if i == 4:
            raise ValueError("inline error")
        return i

    def pooled(i):
        raise KeyError("pool error")

    drawn = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        results = _in_order(inline, lambda i: pool.submit(pooled, i), _drawn_items(10, drawn))
        assert next(results) == 0
        assert next(results) == 1
        with pytest.raises(KeyError, match="pool error"):
            next(results)
    assert drawn == [0, 1, 2, 3, 4]


def _llm_insert_config(path, endpoint, cache):
    path.write_text("[inserter]\nclean_probability = 0.0\n"  # every unit calls the model
                    f"[client:alpha]\nendpoint = {endpoint}\nmodel = stub-a\ncache_path = {cache}\n",
                    encoding="utf-8")
    return str(path)


def test_warm_cache_insert_starts_no_pool(tmp_path, stub_endpoint):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=6, seed=6)
    config = _llm_insert_config(tmp_path / "fintag.ini", stub_endpoint, tmp_path / "cache.jsonl")
    argv = ["insert", "--input", str(qa), "--mode", "llm", "--config", config, "--jobs", "2",
            "--no-ground-filter"]
    # Cold, the model is called from the pool's threads.
    loaded, started = _stage_probe(tmp_path, *argv, "--output", str(tmp_path / "cold.jsonl"))
    assert _StubEndpoint.calls == 6
    assert "concurrent.futures" in loaded
    assert 1 <= len(started) <= 2 and all(name.startswith("ThreadPoolExecutor") for name in started)
    loaded, started = _stage_probe(tmp_path, *argv, "--output", str(tmp_path / "warm.jsonl"))
    assert _StubEndpoint.calls == 6
    assert (tmp_path / "warm.jsonl").read_bytes() == (tmp_path / "cold.jsonl").read_bytes()
    assert "fintag.llm_client" in loaded
    assert not {m for m in loaded if m.startswith("concurrent")}
    assert not loaded & {"hashlib", "_hashlib"}  # no OpenSSL to hash cache keys
    assert started == []


def _warm_insert(tmp_path, endpoint, n=6):
    """Argv of an llm-mode insert over `n` QA rows, whose replay cache a
    cold run has just filled, and the rows."""
    qa = tmp_path / "qa.jsonl"
    rows = _qa_file(qa, n=n, seed=6)
    config = _llm_insert_config(tmp_path / "fintag.ini", endpoint, tmp_path / "cache.jsonl")
    argv = ["insert", "--input", str(qa), "--mode", "llm", "--config", config, "--jobs", "2",
            "--no-ground-filter"]
    assert dispatch([*argv, "--output", str(tmp_path / "cold.jsonl")]) == 0
    assert _StubEndpoint.calls == n
    return argv, rows


def test_warm_cache_insert_reads_its_input_once(tmp_path, capsys, stub_endpoint, monkeypatch):
    from fintag import corpus

    argv, _ = _warm_insert(tmp_path, stub_endpoint)
    read, ingest = [], corpus.ingest
    monkeypatch.setattr(corpus, "ingest", lambda *args, **kw: read.append(args) or ingest(*args, **kw))
    assert dispatch([*argv, "--output", str(tmp_path / "warm.jsonl")]) == 0
    capsys.readouterr()
    assert len(read) == 1  # no id pass: no unit calls the model
    assert _StubEndpoint.calls == 6
    assert (tmp_path / "warm.jsonl").read_bytes() == (tmp_path / "cold.jsonl").read_bytes()


def test_warm_cache_insert_refuses_a_repeated_id(tmp_path, capsys, stub_endpoint):
    argv, rows = _warm_insert(tmp_path, stub_endpoint)
    qa = tmp_path / "qa.jsonl"
    write_qa_records(qa, rows + [rows[0]])  # every unit, the repeat too, replays
    capsys.readouterr()
    out = tmp_path / "warm.jsonl"
    assert dispatch([*argv, "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"fintag: error: {qa}:7: duplicate id 'qa0' (first at line 1)\n"
    assert _StubEndpoint.calls == 6
    assert not out.exists()


def test_a_cache_written_under_one_hash_seed_replays_under_another(tmp_path, stub_endpoint):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=6, seed=6)
    cache = tmp_path / "cache.jsonl"
    config = _llm_insert_config(tmp_path / "fintag.ini", stub_endpoint, cache)
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"records-{hash_seed}.jsonl"
        subprocess.run(
            [sys.executable, "-m", "fintag.cli", "insert", "--input", str(qa), "--output", str(out),
             "--mode", "llm", "--config", config, "--no-ground-filter"],
            env=checkout_env(PYTHONHASHSEED=hash_seed), capture_output=True, check=True,
        )
        outputs.append((out.read_bytes(), cache.read_bytes()))
        assert _StubEndpoint.calls == 6  # the second run misses no key
    assert outputs[0] == outputs[1]


def _cache_keys(lines):
    return sorted(json.loads(line)["key"] for line in lines)


def test_partly_warm_cache_calls_each_miss_once_at_any_jobs(tmp_path, capsys, stub_endpoint):
    from fintag.corpus import ingest
    from fintag.insertion import InserterConfig, InsertionFailure, insert_llm, plan_errors
    from fintag.llm_client import ClientProfile, LlmClient
    from fintag.records import write_records

    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n=12, seed=6)
    cache = tmp_path / "cache.jsonl"
    config = _llm_insert_config(tmp_path / "fintag.ini", stub_endpoint, cache)
    argv = ["insert", "--input", str(qa), "--mode", "llm", "--config", config, "--seed", "3",
            "--max-retries", "1", "--no-ground-filter"]
    # Two cold runs at --jobs 1, so each cache holds its lines in unit
    # order: unit k's first reply passes the gate at good[k]; its two
    # replies fail it at bad[2k] and bad[2k + 1].
    caches = {}
    for fails_gate in (False, True):
        _StubEndpoint.fails_gate = fails_gate
        assert dispatch([*argv, "--jobs", "1", "--output", str(tmp_path / "warm.jsonl")]) == 0
        caches[fails_gate] = cache.read_text(encoding="utf-8").splitlines()
        cache.unlink()
    good, bad = caches[False], caches[True]
    assert (len(good), len(bad)) == (12, 24)
    # By k % 4, unit k: 0, misses its first reply, calls and passes; 1,
    # fails its first, a hit, and misses its second, so it reruns from the
    # start and passes; 2, passes on a hit; 3, fails twice on hits.
    partial, missing = "", []
    for k in range(12):
        first, second = bad[2 * k], bad[2 * k + 1]
        kept, lost = {0: ([], [first]), 1: ([first], [second]), 2: ([good[k]], []),
                      3: ([first, second], [])}[k % 4]
        partial += "".join(line + "\n" for line in kept)
        missing += lost
    _StubEndpoint.fails_gate = False
    capsys.readouterr()

    serial_cache = tmp_path / "serial-cache.jsonl"
    serial_cache.write_text(partial, encoding="utf-8")
    client = LlmClient(ClientProfile("alpha", stub_endpoint, "stub-a", cache_path=str(serial_cache)))
    records = []
    for i, (_, _, row) in enumerate(ingest(qa, "all")):
        plan = plan_errors(row.response, InserterConfig(clean_probability=0.0), seed=3 + i)
        try:
            records.append(insert_llm(row.response, row.reference, plan, client, max_retries=1,
                                      record_id=row.id))
        except InsertionFailure:
            pass
    client.close()
    assert len(records) == 9
    write_records(tmp_path / "serial.jsonl", records)
    serial = (tmp_path / "serial.jsonl").read_text(encoding="utf-8").splitlines()
    _StubEndpoint.calls = 0

    for jobs in ("1", "2", "8"):
        cache.write_text(partial, encoding="utf-8")
        out = tmp_path / f"jobs-{jobs}.jsonl"
        assert dispatch([*argv, "--jobs", jobs, "--output", str(out)]) == 0
        assert _insert_counts(capsys.readouterr().err)["failures"] == 3
        assert out.read_text(encoding="utf-8").splitlines()[1:] == serial
        assert _StubEndpoint.calls == len(missing)
        _StubEndpoint.calls = 0
        written = cache.read_text(encoding="utf-8")
        assert written.startswith(partial)
        assert _cache_keys(written[len(partial):].splitlines()) == _cache_keys(missing)


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
            env=checkout_env(PYTHONHASHSEED=hash_seed), capture_output=True, check=True,
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
