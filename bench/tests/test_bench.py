"""Tests of the benchmark itself: seeded inputs, correctness checks, the
traced bypass counts and the metric declarations.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from fintag.insertion import InserterConfig, insert_rule_based, plan_errors  # noqa: E402
from fintag.quality import write_records  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# --- seeded inputs ------------------------------------------------------------


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.write_jsonl(tmp_path / f"{name}.jsonl", gen.make_corpus(seed, 200))
    a, b, c = ((tmp_path / f"{n}.jsonl").read_bytes() for n in "abc")
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", ["score", "llm-replay"])
def test_setup_is_deterministic(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(run, "SCORE_PAIRS", 60)
    monkeypatch.setattr(run, "SCORE_EDIT_ROWS", 30)
    monkeypatch.setattr(run, "LLM_RECORDS", 60)
    snapshots = []
    for name in ("one", "two"):
        w = run.WORKLOADS[workload](tmp_path / name, 3)
        w.setup()
        files = {p.name: p.read_text() for p in sorted(w.inputs.iterdir()) if p.suffix == ".jsonl"}
        if "llm-cache.jsonl" in files:
            # The client records each reply's measured latency; the replay
            # depends only on keys and reply texts.
            entries = [json.loads(line) for line in files["llm-cache.jsonl"].splitlines()]
            files["llm-cache.jsonl"] = [(e["key"], e["reply"]["text"]) for e in entries]
        snapshots.append(files)
    assert snapshots[0] == snapshots[1]


def test_generator_covers_the_added_shapes():
    rows = gen.make_corpus(11, 400)
    responses = [r["response"] for r in rows]
    # an integer directly followed by a comma, the shape of the known
    # number-token defect
    assert any(not re.fullmatch(r"(19|20)\d\d", m.group(1))
               for p in responses for m in re.finditer(r"\b(\d[\d,]*\d), ", p))
    config = InserterConfig()
    assert (gen.TOKENS_PER_ERROR, gen.MAX_ERRORS) == (config.tokens_per_error, config.max_errors)
    assert any(plan_errors(p, config, seed=i).count == config.max_errors
               for i, p in enumerate(responses))
    assert all(len(r["documents"]) >= 3 and "|" in r["documents"][1] for r in rows)
    def figures(text):
        return set(re.findall(r"\d[\d,.]*\d", text))

    grounded = [figures(r["response"]) <= figures("\n\n".join(r["documents"])) for r in rows]
    assert 0 < grounded.count(False) < len(rows)
    assert all(grounded[i] for i in range(len(rows)) if gen.grounded(i))


# --- correctness checks ------------------------------------------------------


def _fixed_file(path: Path, n: int = 20) -> Path:
    records = []
    for i, row in enumerate(gen.make_corpus(2, n)):
        plan = plan_errors(row["response"], seed=i)
        reference = "\n\n".join(row["documents"])
        records.append(insert_rule_based(row["response"], reference, plan, seed=i,
                                         record_id=row["id"]).record)
    write_records(path, records, meta={"command": "fix"})
    return path


def _rewrite(path: Path, index: int, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[index])
    change(obj)
    lines[index] = json.dumps(obj, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_line(path: Path, index: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:index] + lines[index + 1:]), encoding="utf-8")


def test_check_inserted_rejects_fewer_records_than_grounded_rows(tmp_path):
    records = _fixed_file(tmp_path / "records.jsonl", n=10)
    assert checks.check_inserted(records, 9) == []
    assert checks.check_inserted(records, 10) == []
    _drop_line(records, 4)
    assert checks.check_inserted(records, 10)


def test_check_fixed_rejects_a_record_that_does_not_reconstruct(tmp_path):
    records = _fixed_file(tmp_path / "records.jsonl")
    path = _fixed_file(tmp_path / "fixed.jsonl")
    assert checks.check_fixed(records, path) == []
    _rewrite(path, 3, lambda o: o.update(original=o["original"] + " Extra."))
    assert checks.check_fixed(records, path)


def test_check_fixed_rejects_a_record_that_fails_the_gate(tmp_path):
    records = _fixed_file(tmp_path / "records.jsonl")
    path = _fixed_file(tmp_path / "fixed.jsonl")
    _rewrite(path, 2, lambda o: o.update(tagged=o["tagged"] + " <numerical>x"))
    assert checks.check_fixed(records, path)


def test_check_fixed_rejects_a_dropped_record(tmp_path):
    records = _fixed_file(tmp_path / "records.jsonl")
    path = _fixed_file(tmp_path / "fixed.jsonl")
    _drop_line(path, 5)
    assert checks.check_fixed(records, path)
    path.write_text(path.read_text().splitlines(keepends=True)[0])  # header only
    assert checks.check_fixed(records, path)


def test_check_pairs_rejects_a_skipped_record(tmp_path):
    fixed = _fixed_file(tmp_path / "fixed.jsonl", n=10)
    pairs, _, _ = _split_files(tmp_path)
    assert checks.check_pairs(fixed, pairs) == []
    _drop_line(pairs, 7)
    assert checks.check_pairs(fixed, pairs)


def _split_files(tmp_path: Path):
    lines = [json.dumps({"id": f"p{i}", "prompt": "q", "target": str(i)}) for i in range(10)]
    meta = json.dumps({"_meta": {"command": "split"}})
    paths = [tmp_path / n for n in ("pairs.jsonl", "train.jsonl", "val.jsonl")]
    for path, body in zip(paths, (lines, lines[:8], lines[8:])):
        path.write_text("\n".join([meta] + body) + "\n", encoding="utf-8")
    return paths


def test_check_split_rejects_overlap_and_loss(tmp_path):
    pairs, train, val = _split_files(tmp_path)
    assert checks.check_split(pairs, train, val) == []
    val.write_text(val.read_text() + train.read_text().splitlines()[1] + "\n")
    assert checks.check_split(pairs, train, val)
    pairs, train, val = _split_files(tmp_path)
    train.write_text("\n".join(train.read_text().splitlines()[:-1]) + "\n")
    assert checks.check_split(pairs, train, val)


def test_check_report_rejects_a_wrong_passage_count(tmp_path):
    fixed = _fixed_file(tmp_path / "fixed.jsonl", n=5)
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"total": {"passages": 5}}))
    assert checks.check_report(report, fixed) == []
    report.write_text(json.dumps({"total": {"passages": 4}}))
    assert checks.check_report(report, fixed)


@pytest.mark.parametrize("f1, scored, ok", [(0.0, 10, False), (100.0, 10, False),
                                             (63.2, 10, True), (63.2, 9, False)])
def test_check_detection_rejects_trivial_f1_and_unscored_gold(tmp_path, f1, scored, ok):
    path = tmp_path / "detect.json"
    binary = {"tp": 4, "fp": 1, "fn": 2, "tn": scored - 7}
    path.write_text(json.dumps({"overall": {"f1": f1}, "binary": binary}))
    assert (checks.check_detection(path, 10) == []) is ok


@pytest.mark.parametrize("mean, scored, ok", [(0.0, 6, False), (100.0, 6, False),
                                               (71.5, 6, True), (71.5, 5, False)])
def test_check_editing_rejects_an_extreme_mean_and_unscored_rows(tmp_path, mean, scored, ok):
    path = tmp_path / "edit.json"
    path.write_text(json.dumps({"mean_pct": mean, "records": [{}] * scored}))
    assert (checks.check_editing(path, 6) == []) is ok


def test_check_replay_rejects_a_removed_cache_line_and_changed_output(tmp_path):
    expected = _fixed_file(tmp_path / "expected.jsonl", n=6)
    output = tmp_path / "records.jsonl"
    shutil.copy(expected, output)
    cache = tmp_path / "cache.jsonl"
    cache.write_text("".join(json.dumps({"key": str(i), "reply": {}}) + "\n" for i in range(4)))
    digest = checks.digest(cache)
    assert checks.check_replay(output, expected, cache, digest) == []
    cache.write_text("".join(cache.read_text().splitlines(keepends=True)[1:]))
    assert checks.check_replay(output, expected, cache, digest)
    shutil.copy(expected, output)
    cache.write_text("".join(json.dumps({"key": str(i), "reply": {}}) + "\n" for i in range(4)))
    _rewrite(output, 1, lambda o: o.update(provenance="other"))
    assert checks.check_replay(output, expected, cache, digest)


def test_stub_replies_exercise_repair_and_retry():
    tagged = "Sales <numerical><delete>1,000</delete><mark>1,250</mark></numerical> rose."
    variants = {gen.make_stub_reply(tagged, 0, random.Random(i)) for i in range(200)}
    assert tagged in variants
    assert any("```" in v for v in variants)
    assert any("</mark>" not in v for v in variants)
    assert any("<delete>1,000</delete><mark>1,000</mark>" in v for v in variants)
    assert all(gen.make_stub_reply(tagged, 1, random.Random(i)) == tagged for i in range(50))


def test_self_time_subtracts_the_union_of_children():
    # A root span of 10 s with two overlapping children (worker threads)
    # covering 1..6 and 4..8, and a grandchild inside the first child.
    payload = {
        "names": ["cli.insert", "insertion.insert_llm", "quality.check"],
        "spans": [[0, 0, None, 0.0, 10.0, True], [1, 1, 0, 1.0, 6.0, True],
                  [1, 2, 0, 4.0, 8.0, True], [2, 3, 1, 2.0, 3.0, True]],
        "counters": {},
    }
    functions = tracer.reduce_spans(payload)["functions"]
    assert functions["cli.insert"]["self_s"] == pytest.approx(3.0)
    assert functions["insertion.insert_llm"] == {"calls": 2, "self_s": pytest.approx(8.0)}
    assert functions["quality.check"] == {"calls": 1, "self_s": pytest.approx(1.0)}


def test_scale_uses_the_calibration_samples_on_either_side(monkeypatch):
    samples = iter([0.1, 0.2, 0.3, 0.4, 0.5])
    monkeypatch.setattr(calib, "run", lambda: next(samples))
    monkeypatch.setattr(calib, "NEIGHBOURS", 2)
    scale = calib.Scale()
    marks = [scale.mark() for _ in range(4)]
    assert marks == [1, 2, 3, 4]
    # Work before mark 2 is scaled by the mean of the samples 0.1 and 0.2
    # before it and 0.3 and 0.4 after it; work at the ends by fewer.
    assert scale.reference_s(5.0, 2) == pytest.approx(5.0 * calib.REFERENCE_S / 0.25)
    assert scale.reference_s(5.0, 1) == pytest.approx(5.0 * calib.REFERENCE_S / 0.2)
    assert scale.reference_s(5.0, 4) == pytest.approx(5.0 * calib.REFERENCE_S / 0.4)


# --- whole runs --------------------------------------------------------------


@pytest.fixture
def small(monkeypatch):
    for name, value in (("BUILD_RECORDS", 40), ("SCORE_PAIRS", 60), ("SCORE_EDIT_ROWS", 30),
                        ("LLM_RECORDS", 40), ("SETUP_SHARE", 0.0), ("MIN_REPS", 1),
                        ("STARTUP_PROBES", 1)):
        monkeypatch.setattr(run, name, value)


# Layers each workload must bypass, by the calls the traced run counts.
BYPASSED = {
    "build": ("insertion.insert_llm", "llm_client.", "detect_eval.", "edit_eval."),
    "score": ("insertion.insert_rule_based", "insertion.insert_llm", "llm_client.", "quality."),
    "llm-replay": ("insertion.insert_rule_based", "patterns.extract_numbers", "detect_eval.",
                   "edit_eval.", "corpus.filter_grounded"),
}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_is_correct_and_confirms_bypasses(small, capsys, workload):
    assert run.main(["--workload", workload, "--seed", "4", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert [name for name, _ in run.per_layer_names()] == list(metrics)
    for name, m in metrics.items():
        if name.endswith(".calls") and name.startswith(BYPASSED[workload]):
            assert m["value"] == 0, name
    exercised = {
        "build": "insertion.insert_rule_based.calls",
        "score": "edit_eval.containment_judge.calls",
        "llm-replay": "llm_client.LlmClient.cached_complete.calls",
    }[workload]
    assert metrics[exercised]["value"] > 0
    assert metrics["llm_client.LlmClient.complete.calls"]["value"] == 0


def test_llm_replay_rechecks_the_cache_on_every_repetition(small, tmp_path):
    workload = run.LlmReplay(tmp_path, 4)
    workload.setup()
    spawner = run.Spawner()
    try:
        session = run.Session(workload, spawner)
        session.run_chain()
        session.run_chain()
        assert session.failed == 0
        with open(workload.cache, "a", encoding="utf-8") as fh:
            fh.write(workload.cache.read_text(encoding="utf-8").splitlines(keepends=True)[0])
        session.run_chain()
        assert session.failed == 1
    finally:
        spawner.close()


def test_untraced_run_reports_every_end_to_end_metric(small, capsys):
    assert run.main(["--workload", "build", "--seed", "4", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- declarations ------------------------------------------------------------


def test_metric_declarations():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    assert len(e2e) <= 16 and len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert [(m["name"], m["unit"]) for m in layers] == run.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in e2e)
