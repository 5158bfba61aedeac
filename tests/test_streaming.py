"""The streaming stages: flat memory, atomic outputs and in-place runs."""

from __future__ import annotations

import json
import os
import random
import threading
import tracemalloc

import pytest

from conftest import make_context, make_passage
from fintag.cli import dispatch
from fintag.corpus import QARecord, write_qa_records

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


def _peaks(tmp_path, n) -> dict:
    """Each stage's peak of traced Python memory, in bytes."""
    peaks = {}
    for argv in _chain(tmp_path, n):
        tracemalloc.start()
        try:
            assert dispatch(argv) == 0
            peaks[argv[0]] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_each_build_stage_keeps_memory_flat(tmp_path, capsys):
    _peaks(tmp_path / "warm", 5)  # imports and one-time tables
    small, large = _peaks(tmp_path / "small", 100), _peaks(tmp_path / "large", 1000)
    capsys.readouterr()
    assert (tmp_path / "large" / "qa.jsonl").stat().st_size > 1000 * 1024
    per_row = {stage: (large[stage] - small[stage]) / 900 for stage in large}
    assert all(growth < 512 for growth in per_row.values()), per_row


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


def test_split_reads_an_input_that_is_not_a_regular_file(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    _records(data, [{"id": i, "text": "é" * i} for i in range(40)])
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(data.read_bytes()), daemon=True)
    writer.start()
    # A split that opened the FIFO again would wait for a writer for good.
    unblock = threading.Timer(10, lambda: fifo.write_bytes(b""))
    unblock.daemon = True
    unblock.start()
    outs = {name: tmp_path / f"{name}.jsonl" for name in ("fifo-train", "fifo-val", "train", "val")}
    try:
        assert dispatch(["split", "--input", str(fifo), "--train-out", str(outs["fifo-train"]),
                         "--val-out", str(outs["fifo-val"])]) == 0
    finally:
        unblock.cancel()
        writer.join(timeout=10)
    assert dispatch(["split", "--input", str(data), "--train-out", str(outs["train"]),
                     "--val-out", str(outs["val"])]) == 0
    capsys.readouterr()
    assert outs["fifo-train"].read_bytes() == outs["train"].read_bytes()
    assert outs["fifo-val"].read_bytes() == outs["val"].read_bytes()


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


def test_output_that_is_not_a_regular_file_is_written_in_place(tmp_path, capsys):
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


@pytest.mark.parametrize("output", ["missing-dir/fixed.jsonl", ""])
def test_an_output_that_cannot_be_opened_is_named(tmp_path, capsys, monkeypatch, output):
    monkeypatch.chdir(tmp_path)
    _records(tmp_path / "records.jsonl", _GOOD)
    assert dispatch(["fix", "--input", "records.jsonl", "--output", output]) == 1
    assert capsys.readouterr().err == f"fintag: error: [Errno 2] No such file or directory: {output!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]
