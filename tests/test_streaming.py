"""The streaming stages: flat memory, atomic outputs and in-place runs."""

from __future__ import annotations

import json
import os
import random
import tempfile
import threading
import tracemalloc
from contextlib import contextmanager, nullcontext

import pytest

from conftest import make_context, make_passage, write_qa_records
from fintag.cli import dispatch
from fintag.corpus import QARecord
from fintag.detect_eval import evaluate_corpus
from fintag.edit_eval import JudgeVerdict, VerdictLabel, score_corpus
from fintag.insertion import InsertionPlan, insert_rule_based
from fintag.jsonl import write_jsonl
from fintag.markup import Form, derive_erroneous, parse, serialize, to_target_output
from fintag.taxonomy import ErrorType

# Evidence of at least 1 KB a row, so a stage that keeps rows shows.
_FILLER = " ".join(f"Segment note {k} restates the schedule of the prior filing." for k in range(20))


def _qa_file(path, n, seed=0):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        passage = make_passage(rng)
        records.append(QARecord(f"qa{i}", (make_context(rng, passage), _FILLER), "What changed?", passage))
    write_qa_records(path, records)


def _chain(tmp_path, n):
    """The `build` chain over `n` QA rows in `tmp_path`, stage by stage."""
    tmp_path.mkdir(exist_ok=True)
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, n)
    f = {name: str(tmp_path / name) for name in (
        "records.jsonl", "sources.json", "fixed.jsonl", "pairs.jsonl", "train.jsonl", "val.jsonl",
        "report.json")}
    return [
        ["insert", "--input", str(qa), "--output", f["records.jsonl"], "--sources-out", f["sources.json"]],
        ["fix", "--input", f["records.jsonl"], "--output", f["fixed.jsonl"]],
        ["pairs", "--records", f["fixed.jsonl"], "--qa", str(qa), "--output", f["pairs.jsonl"]],
        ["split", "--input", f["pairs.jsonl"], "--train-out", f["train.jsonl"], "--val-out", f["val.jsonl"]],
        ["report", "--input", f["fixed.jsonl"], "--sources", f["sources.json"], "--format", "json",
         "--output", f["report.json"]],
    ]


def _eval_files(tmp_path, n):
    """Gold pairs, replies and editing rows over `n` passages in
    `tmp_path`, each gold target and reference padded past 1 KB. A third of
    the gold ids have no reply, and every tenth passage adds a reply that
    no gold row has."""
    tmp_path.mkdir(exist_ok=True)
    rng = random.Random(0)
    gold, preds, edits = [], [], []
    for i in range(n):
        passage = make_passage(rng)
        context = make_context(rng, passage)
        plan = InsertionPlan(False, 2, (ErrorType.NUMERICAL, ErrorType.TEMPORAL), i)
        doc = insert_rule_based(passage, context, plan, seed=i).record.doc
        target, erroneous = f"{serialize(to_target_output(doc))} {_FILLER}", derive_erroneous(doc)[0]
        gold.append({"id": f"g{i}", "target": target})
        if i % 3:
            preds.append({"id": f"g{i}", "raw": target if i % 3 == 1 else erroneous})
        if i % 10 == 0:
            preds.append({"id": f"x{i}", "raw": erroneous})
        edits.append({"id": f"e{i}", "edited": erroneous, "reference": f"{context} {_FILLER}"})
    paths = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl", tmp_path / "edits.jsonl"
    for path, rows in zip(paths, (gold, preds, edits)):
        write_jsonl(path, rows)
    return paths


def _eval_chain(tmp_path, n):
    """`eval-detect` and `eval-edit` over `n` rows in `tmp_path`."""
    gold, pred, edits = _eval_files(tmp_path, n)
    return [
        ["eval-detect", "--gold", str(gold), "--pred", str(pred), "--format", "json",
         "--output", str(tmp_path / "detect.json")],
        ["eval-edit", "--input", str(edits), "--output", str(tmp_path / "edit.json")],
    ]


def _peaks(argvs) -> dict:
    """Each stage's peak of traced Python memory, in bytes."""
    peaks = {}
    for argv in argvs:
        tracemalloc.start()
        try:
            assert dispatch(argv) == 0
            peaks[argv[0]] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def _growth_per_row(tmp_path, chain, small: int = 100, large: int = 1000) -> dict:
    """Each stage's peak growth per row from `small` to `large` rows, in bytes."""
    _peaks(chain(tmp_path / "warm", 5))  # imports and one-time tables
    low, high = _peaks(chain(tmp_path / "small", small)), _peaks(chain(tmp_path / "large", large))
    return {stage: (high[stage] - low[stage]) / (large - small) for stage in high}


def test_each_build_stage_keeps_memory_flat(tmp_path, capsys):
    per_row = _growth_per_row(tmp_path, _chain)
    capsys.readouterr()
    assert (tmp_path / "large" / "qa.jsonl").stat().st_size > 1000 * 1024
    assert all(growth < 512 for growth in per_row.values()), per_row


def test_each_evaluation_stage_keeps_memory_flat(tmp_path, capsys):
    per_row = _growth_per_row(tmp_path, _eval_chain)
    capsys.readouterr()
    for name in ("gold.jsonl", "edits.jsonl"):
        assert (tmp_path / "large" / name).stat().st_size > 1000 * 1024
    assert all(growth < 512 for growth in per_row.values()), per_row


def _mostly_discarded(tmp_path, n):
    """`fix --discarded` over `n` records of which three in four are
    discarded: their tagged text does not render their original."""
    tmp_path.mkdir(exist_ok=True)
    records = tmp_path / "records.jsonl"
    rows = ({"id": f"record-{i:06d}-" + "x" * 200, "original": f"Sales rose {i}. {_FILLER}",
             "tagged": f"Sales {'rose' if i % 4 == 0 else 'fell'} {i}. {_FILLER}"} for i in range(n))
    write_jsonl(records, rows)
    return [["fix", "--input", str(records), "--output", str(tmp_path / "fixed.jsonl"),
             "--discarded", str(tmp_path / "discarded.jsonl")]]


def test_fix_writes_discarded_rows_as_it_finds_them(tmp_path, capsys):
    # The records output holds two batches of kept records at its peak
    # (see `jsonl.batches`); from 600 rows up both are full, so only rows
    # held elsewhere add to the peak.
    per_row = _growth_per_row(tmp_path, _mostly_discarded, 600, 1800)
    summaries = [line for line in capsys.readouterr().err.splitlines() if line.startswith("fix:")]
    assert summaries[-1] == "fix: kept=450 discarded=1350"
    lines = (tmp_path / "large" / "discarded.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1351 and json.loads(lines[1])["reasons"] == ["inconsistent_content"]
    assert per_row["fix"] < 128, per_row


# Five KB of text, made anew for each row so that every row held shows.
_TEXT = "Revenue rose 5% in 2023. " * 200


def _write_rows(tmp_path, n):
    write_jsonl(tmp_path / "rows.jsonl", ({"id": i, "text": f"{i} {_TEXT}"} for i in range(n)))


def _score_detection(tmp_path, n):
    class Replies:
        def get(self, rid, default=""):
            return f"{rid} {_TEXT}"

    gold = ((str(i), parse(f"{i} {_TEXT}", Form.TARGET_OUTPUT).document) for i in range(n))
    evaluate_corpus(gold, Replies())


def _score_editing(tmp_path, n):
    class Discard:
        def append(self, result):
            pass

    rows = ({"id": i, "edited": f"{i} {_TEXT}", "reference": f"{i} {_TEXT}"} for i in range(n))
    score_corpus(rows, lambda fact, reference: JudgeVerdict(VerdictLabel.SUPPORTED), Discard())


@pytest.mark.parametrize("loop", [_write_rows, _score_detection, _score_editing])
def test_a_batched_loop_holds_one_batch_at_a_time(tmp_path, loop):
    # From one batch to ten, the peak may not grow by a quarter of a
    # batch's text: the previous batch, and its last row, are dropped
    # before the next one is drawn.
    peaks = []
    for n in (64, 640):
        tracemalloc.start()
        try:
            loop(tmp_path, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * len(_TEXT) // 4, peaks


def _records(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


_GOOD = [{"id": f"r{i}", "original": "Sales rose.", "tagged": "Sales rose."} for i in range(3)]


@pytest.mark.parametrize("existing", [None, b"old bytes\n"])
def test_a_bad_line_after_good_ones_leaves_no_output(tmp_path, capsys, existing):
    records = tmp_path / "records.jsonl"
    _records(records, _GOOD)
    with open(records, "a", encoding="utf-8") as fh:
        fh.write("{oops\n")
    out = tmp_path / "fixed.jsonl"
    if existing is not None:
        out.write_bytes(existing)
    assert dispatch(["fix", "--input", str(records), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"fintag: error: {records}:4: bad JSON (Expecting property name enclosed in double quotes)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["records.jsonl"] + ([] if existing is None else ["fixed.jsonl"]))
    if existing is not None:
        assert out.read_bytes() == existing


def test_fix_in_place_writes_what_a_separate_output_gets(tmp_path, capsys):
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, 20, seed=4)
    records = tmp_path / "records.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(records), "--seed", "3"]) == 0
    separate = tmp_path / "fixed.jsonl"
    assert dispatch(["fix", "--input", str(records), "--output", str(separate)]) == 0
    assert dispatch(["fix", "--input", str(records), "--output", str(records)]) == 0
    capsys.readouterr()
    assert records.read_bytes() == separate.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fixed.jsonl", "qa.jsonl", "records.jsonl"]


def test_split_in_place_keeps_every_line(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    _records(data, [{"id": i, "text": "é" * i} for i in range(40)])
    val = tmp_path / "val.jsonl"
    before = set(data.read_text(encoding="utf-8").splitlines())
    assert dispatch(["split", "--input", str(data), "--train-out", str(data), "--val-out", str(val),
                     "--ratio", "0.9"]) == 0
    capsys.readouterr()
    after = [line for path in (data, val) for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(after) == 40 and set(after) == before


@pytest.mark.parametrize("stage", ["split", "fix", "insert"])
def test_a_stage_whose_last_output_fails_writes_none(tmp_path, capsys, stage):
    # The first output is the stage's input, so renaming it early would
    # lose rows; the second cannot be opened.
    missing = str(tmp_path / "missing-dir" / "out")
    data = tmp_path / "data.jsonl"
    if stage == "insert":
        _qa_file(data, 5)
        argv = ["insert", "--input", str(data), "--output", str(data), "--sources-out", missing]
    else:
        _records(data, _GOOD)
        argv = (["split", "--input", str(data), "--train-out", str(data), "--val-out", missing]
                if stage == "split" else
                ["fix", "--input", str(data), "--output", str(data), "--discarded", missing])
    before = data.read_bytes()
    assert dispatch(argv) == 1
    assert capsys.readouterr().err.endswith(f"No such file or directory: {missing!r}\n")
    assert data.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]


def test_two_outputs_may_name_one_file(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    _records(data, [{"id": i} for i in range(20)])
    out = tmp_path / "out.jsonl"
    assert dispatch(["split", "--input", str(data), "--train-out", str(out), "--val-out", str(out),
                     "--ratio", "0.5"]) == 0
    capsys.readouterr()
    assert len(out.read_text(encoding="utf-8").splitlines()) == 11  # the val subset, written last
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "out.jsonl"]


@contextmanager
def _fed_fifo(fifo, data: bytes):
    """`fifo` made and fed `data` by a thread while the block runs."""
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(data), daemon=True)
    writer.start()
    # A stage that opened the FIFO again would wait for a writer for good.
    unblock = threading.Timer(10, lambda: fifo.write_bytes(b""))
    unblock.daemon = True
    unblock.start()
    try:
        yield str(fifo)
    finally:
        unblock.cancel()
        writer.join(timeout=10)


def test_split_reads_an_input_that_is_not_a_regular_file(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    _records(data, [{"id": i, "text": "é" * i} for i in range(40)])
    outs = {name: tmp_path / f"{name}.jsonl" for name in ("fifo-train", "fifo-val", "train", "val")}
    with _fed_fifo(tmp_path / "in.fifo", data.read_bytes()) as fifo:
        assert dispatch(["split", "--input", fifo, "--train-out", str(outs["fifo-train"]),
                         "--val-out", str(outs["fifo-val"])]) == 0
    assert dispatch(["split", "--input", str(data), "--train-out", str(outs["train"]),
                     "--val-out", str(outs["val"])]) == 0
    capsys.readouterr()
    assert outs["fifo-train"].read_bytes() == outs["train"].read_bytes()
    assert outs["fifo-val"].read_bytes() == outs["val"].read_bytes()


def test_eval_detect_reads_inputs_that_are_not_regular_files(tmp_path, capsys):
    gold, pred, _ = _eval_files(tmp_path, 30)
    fifo_out, file_out = tmp_path / "fifo.json", tmp_path / "file.json"
    with _fed_fifo(tmp_path / "gold.fifo", gold.read_bytes()) as gold_fifo, \
            _fed_fifo(tmp_path / "pred.fifo", pred.read_bytes()) as pred_fifo:
        assert dispatch(["eval-detect", "--gold", gold_fifo, "--pred", pred_fifo, "--format", "json",
                         "--output", str(fifo_out)]) == 0
    fifo_err = capsys.readouterr().err
    assert dispatch(["eval-detect", "--gold", str(gold), "--pred", str(pred), "--format", "json",
                     "--output", str(file_out)]) == 0
    assert capsys.readouterr().err == fifo_err
    assert "10 gold ids without a prediction" in fifo_err
    assert fifo_out.read_bytes() == file_out.read_bytes()


def test_eval_edit_llm_judge_checks_every_row_before_the_first_call(tmp_path, capsys, monkeypatch):
    from fintag.llm_client import CompletionReply, LlmClient

    calls = []

    def call(self, request):
        calls.append(request)
        return CompletionReply("Supported", "stub", 0.0)

    monkeypatch.setattr(LlmClient, "call", call)
    config = tmp_path / "fintag.ini"
    config.write_text("[client:a]\nendpoint = x\nmodel = m\n", encoding="utf-8")
    _, _, edits = _eval_files(tmp_path, 3)
    good = edits.read_bytes()
    bad = good + b'{"id": "e3", "edited": 5, "reference": "r"}\n'
    outs = {}
    for kind in ("file", "fifo"):
        for rows, name in ((good, "good"), (bad, "bad")):
            out = tmp_path / f"{kind}-{name}.json"
            path = tmp_path / f"{kind}-{name}.jsonl"
            with _fed_fifo(path, rows) if kind == "fifo" else nullcontext(str(path)) as source:
                if kind == "file":
                    path.write_bytes(rows)
                argv = ["eval-edit", "--input", source, "--judge", "llm", "--profile", "a",
                        "--config", str(config), "--output", str(out)]
                code = dispatch(argv)
            err = capsys.readouterr().err
            if name == "bad":
                assert (code, calls) == (1, [])
                assert err == f"fintag: error: {path}:4: field 'edited' is int, expected str\n"
                assert not out.exists()
            else:
                assert code == 0 and calls, err
                outs[kind] = out.read_bytes()
            calls.clear()
    assert outs["fifo"] == outs["file"]


@pytest.mark.parametrize("fails", [False, True])
def test_rereadable_reads_a_fifo_through_one_copy_that_the_block_removes(tmp_path, monkeypatch, fails):
    from fintag.jsonl import read_jsonl, rereadable

    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    data = tmp_path / "rows.jsonl"
    _records(data, _GOOD)
    with rereadable(data) as same:
        assert same is data
    with _fed_fifo(tmp_path / "in.fifo", data.read_bytes()) as fifo, \
            pytest.raises(ValueError, match="the block failed") if fails else nullcontext():
        with rereadable(fifo) as copy:
            assert str(copy) == fifo
            assert [p.name for p in temp.iterdir()] == [os.path.basename(copy)]
            for _ in range(2):  # read twice
                assert [obj for _, obj, _ in read_jsonl(copy)] == _GOOD
            if fails:
                raise ValueError("the block failed")
    assert list(temp.iterdir()) == []


def _stub_call(self, request):
    """A model reply: the prompt's passage with one numerical edit, as the
    rule inserter makes it, or a judge's verdict."""
    from fintag.llm_client import CompletionReply

    end = request.user.rfind("\n\nReturn only the tagged passage.")
    if end < 0:
        return CompletionReply("Supported", "stub", 0.0)
    passage = request.user[request.user.rfind("Passage: ") + len("Passage: "):end]
    plan = InsertionPlan(False, 1, (ErrorType.NUMERICAL,), 0)
    return CompletionReply(serialize(insert_rule_based(passage, "", plan, seed=5).record.doc), "stub", 0.0)


def _twice_read(tmp_path, stage):
    """A stage that reads an input twice: that input file, the line that
    stops the stage when appended to it, and its arguments for an input
    path and an output directory."""
    tmp_path.mkdir()
    qa = tmp_path / "qa.jsonl"
    _qa_file(qa, 12)
    records = tmp_path / "records.jsonl"
    assert dispatch(["insert", "--input", str(qa), "--output", str(records)]) == 0
    gold, pred, edits = _eval_files(tmp_path, 12)
    config = tmp_path / "fintag.ini"
    config.write_text("[client:a]\nendpoint = x\nmodel = m\n", encoding="utf-8")
    llm = ["--config", str(config)]
    repeat = qa.read_bytes().splitlines(True)[0]  # a repeated QA id
    return {
        "insert": (qa, repeat, lambda src, out: ["insert", "--input", src, "--output", f"{out}/r.jsonl",
                                                 "--mode", "llm", "--jobs", "2", *llm]),
        "pairs": (qa, repeat, lambda src, out: ["pairs", "--records", str(records), "--qa", src,
                                                "--output", f"{out}/p.jsonl"]),
        "split": (records, b"{oops\n", lambda src, out: ["split", "--input", src, "--train-out",
                                                         f"{out}/t.jsonl", "--val-out", f"{out}/v.jsonl"]),
        "eval-detect": (pred, b"{oops\n", lambda src, out: ["eval-detect", "--gold", str(gold), "--pred", src,
                                                            "--format", "json", "--output", f"{out}/d.json"]),
        "eval-edit": (edits, b"{oops\n", lambda src, out: ["eval-edit", "--input", src, "--judge", "llm",
                                                           "--profile", "a", *llm, "--output", f"{out}/e.json"]),
    }[stage]


@pytest.mark.parametrize("stage", ["insert", "pairs", "split", "eval-detect", "eval-edit"])
def test_a_stage_reads_twice_an_input_that_is_not_a_regular_file(tmp_path, capsys, monkeypatch, stage):
    # A FIFO input gives the outputs, stderr and exit code of the same bytes
    # in a regular file, when the stage succeeds and when a bad last line
    # stops it; the copy it reads twice is gone either way.
    from fintag.llm_client import LlmClient

    monkeypatch.setattr(LlmClient, "call", _stub_call)
    data, bad, argv = _twice_read(tmp_path / "data", stage)
    capsys.readouterr()
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    runs = {}
    for kind in ("file", "fifo"):
        for name, rows in (("good", data.read_bytes()), ("bad", data.read_bytes() + bad)):
            out, path = tmp_path / f"{kind}-{name}", tmp_path / f"{kind}-{name}.jsonl"
            out.mkdir()
            if kind == "file":
                path.write_bytes(rows)
            with _fed_fifo(path, rows) if kind == "fifo" else nullcontext(str(path)) as source:
                code = dispatch(argv(source, out))
            err = capsys.readouterr().err.replace(str(path), "<input>")
            runs[kind, name] = code, err, {p.name: p.read_bytes() for p in out.iterdir()}
            assert list(temp.iterdir()) == []
    assert runs["fifo", "good"] == runs["file", "good"]
    assert runs["fifo", "bad"] == runs["file", "bad"]
    code, _, outputs = runs["file", "good"]
    assert code == 0 and sum(text.count(b"\n") for text in outputs.values()) > 2 * len(outputs), runs
    code, err, outputs = runs["file", "bad"]
    assert (code, outputs) == (1, {}) and err.startswith("fintag: error: <input>:"), err


def test_output_through_a_symlink_replaces_its_target(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    _records(records, _GOOD)
    target = tmp_path / "target.jsonl"
    target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    assert dispatch(["fix", "--input", str(records), "--output", str(link)]) == 0
    capsys.readouterr()
    assert link.is_symlink()
    assert len(target.read_text(encoding="utf-8").splitlines()) == 4  # _meta and three rows


def test_output_that_is_not_a_regular_file_is_held_until_the_stage_ends(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    _records(records, _GOOD)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert dispatch(["fix", "--input", str(records), "--output", str(fifo)]) == 0
    finally:
        reader.join(timeout=10)
    capsys.readouterr()
    assert len(received[0].splitlines()) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.fifo", "records.jsonl"]


def test_a_failed_stage_writes_nothing_to_an_output_that_is_not_a_regular_file(tmp_path, capsys):
    # 100 good rows, then one that fails: the first 64-row batch is written
    # before the stage reads the bad row, and must not reach the reader.
    records = tmp_path / "records.jsonl"
    _records(records, [{"id": f"r{i}", "original": "Sales rose.", "tagged": "Sales rose."} for i in range(100)]
             + [{"id": "bad", "original": 5, "tagged": "Sales rose."}])
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert dispatch(["fix", "--input", str(records), "--output", str(fifo)]) == 1
        assert os.read(reader, 1 << 20) == b""
    finally:
        os.close(reader)
    assert "fintag: error:" in capsys.readouterr().err


@pytest.mark.parametrize("output", ["missing-dir/fixed.jsonl", ""])
def test_an_output_that_cannot_be_opened_is_named(tmp_path, capsys, monkeypatch, output):
    monkeypatch.chdir(tmp_path)
    _records(tmp_path / "records.jsonl", _GOOD)
    assert dispatch(["fix", "--input", "records.jsonl", "--output", output]) == 1
    assert capsys.readouterr().err == f"fintag: error: [Errno 2] No such file or directory: {output!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]
