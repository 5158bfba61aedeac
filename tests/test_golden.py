"""Golden digests of the chain: the sha256 of every file the CLI stages
write from a committed QA fixture must equal a committed manifest, under
two hash seeds.

`data/golden_qa.jsonl` (300 rows, long passages and every sentence shape
among them, a few whose evidence does not ground the response) was written
once from `conftest`'s passage generators, and `data/golden_edit_rows.jsonl`
once from every third of the chain's pairs, so neither moves when a
generator changes. A change that moves an output on purpose updates
`data/golden_manifest.json` and names each changed file, and why; a
difference is never hidden by writing the manifest or the cache anew.

The LLM runs, `insert --mode llm --jobs 2` over every 15th QA row and
`eval-edit --judge llm` over every 12th editing row, replay from
`data/golden_llm_cache.jsonl` through the `[client:golden]` profile of
`data/golden_llm.ini`. Its endpoint is empty, so a lookup that misses
fails at once, and its `cache_path` names a copy in the work directory,
whose digest shows that nothing was appended. The cache was written once
by running the same units through `LlmClient(profile, transport=stub)`:
- `insert_llm(..., max_retries=2)` for each grounded row in input order,
  with the plan `insert` draws for it at `--seed 7`. The stub answered
  with the row's `insert_rule_based` passage under that plan. First
  replies took turns being fenced, mistyped (a confidently classified
  edit given another kind, which the gate relabels), identical-span (an
  edit's mark set to its delete, which the gate unwraps), malformed (the
  first `</mark>` dropped, so the unit retries) and plain; the edit, and
  the wrong kind, were drawn from `random.Random(f"golden:{id}:{attempt}")`.
  Retries, and replies with no edit to change, were plain.
- `score_corpus` with `llm_judge` over the editing rows. The stub
  answered the judge calls in turn with "Supported", "Unsupported",
  "The fact is not supported." and "I cannot tell." (an abstention).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import checkout_env

DATA = Path(__file__).parent / "data"
QA = str(DATA / "golden_qa.jsonl")
EDIT_ROWS = str(DATA / "golden_edit_rows.jsonl")
LLM_INI = str(DATA / "golden_llm.ini")
LLM_CACHE = DATA / "golden_llm_cache.jsonl"

_BUILD = [
    ["insert", "--input", QA, "--output", "records.jsonl", "--seed", "7", "--source", "golden",
     "--sources-out", "sources.json"],
    ["fix", "--input", "records.jsonl", "--output", "fixed.jsonl", "--discarded", "discarded.jsonl",
     "--tally", "tally.json", "--seed", "7"],
    ["pairs", "--records", "fixed.jsonl", "--qa", QA, "--output", "pairs.jsonl", "--source", "golden"],
    ["split", "--input", "pairs.jsonl", "--train-out", "train.jsonl", "--val-out", "val.jsonl",
     "--ratio", "0.8", "--seed", "7"],
    ["report", "--input", "fixed.jsonl", "--sources", "sources.json", "--output", "report.txt"],
    ["report", "--input", "fixed.jsonl", "--sources", "sources.json", "--format", "json",
     "--output", "report.json"],
]

_SCORE = [
    *(["eval-detect", "--gold", "pairs.jsonl", "--pred", "replies.jsonl", "--label-set", labels,
       "--match-mode", mode, "--format", "json", "--output", f"detect-{labels}-{mode}.json"]
      for labels in ("default", "fava") for mode in ("overlap", "exact")),
    ["eval-edit", "--input", EDIT_ROWS, "--judge", "containment", "--output", "edit.json"],
]


def _llm_runs(inputs: Path) -> list:
    """The LLM runs, over the rows of the fixtures they read, written into
    `inputs`; each replays from the cache copy `llm-cache.jsonl`."""
    inputs.mkdir(exist_ok=True)
    for name, fixture, step in (("qa.jsonl", QA, 15), ("edit-rows.jsonl", EDIT_ROWS, 12)):
        rows = Path(fixture).read_text(encoding="utf-8").splitlines(keepends=True)
        (inputs / name).write_text("".join(rows[::step]), encoding="utf-8")
    return [
        ["insert", "--input", str(inputs / "qa.jsonl"), "--output", "llm-records.jsonl", "--mode", "llm",
         "--jobs", "2", "--config", LLM_INI, "--seed", "7", "--source", "golden"],
        ["eval-edit", "--input", str(inputs / "edit-rows.jsonl"), "--judge", "llm", "--profile", "golden",
         "--config", LLM_INI, "--output", "llm-edit.json"],
    ]


# Runs the build stages, writes each gold pair's target as its own reply,
# then runs the scoring stages and the LLM runs. `_meta` records the
# toolkit version, held here to a constant so that a version bump moves no
# digest.
_CHAIN = """\
import json, sys
from fintag import cli
cli.__version__ = "golden"
build, score, llm = json.loads(sys.argv[1])
for argv in build:
    assert cli.dispatch(argv) == 0, argv
with open("pairs.jsonl", encoding="utf-8") as fh, open("replies.jsonl", "w", encoding="utf-8") as out:
    for line in fh:
        row = json.loads(line)
        if "_meta" not in row:
            out.write(json.dumps({"id": row["id"], "raw": row["target"]}) + "\\n")
for argv in score + llm:
    assert cli.dispatch(argv) == 0, argv
"""


def _chain_digests(workdir: Path, hash_seed: str, llm: list) -> dict:
    """The sha256 of every file the chain writes into `workdir`, and of the
    cache copy the LLM runs `llm` replay from, run in a fresh process under
    `PYTHONHASHSEED=hash_seed`."""
    workdir.mkdir()
    shutil.copyfile(LLM_CACHE, workdir / "llm-cache.jsonl")
    out = subprocess.run([sys.executable, "-c", _CHAIN, json.dumps([_BUILD, _SCORE, llm])],
                         env=checkout_env(PYTHONHASHSEED=hash_seed), cwd=workdir, capture_output=True,
                         encoding="utf-8")
    assert out.returncode == 0, out.stderr
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(workdir.iterdir())}


def test_rule_chain_outputs_match_the_golden_manifest(tmp_path):
    manifest = json.loads((DATA / "golden_manifest.json").read_text(encoding="utf-8"))
    assert manifest["llm-cache.jsonl"] == hashlib.sha256(LLM_CACHE.read_bytes()).hexdigest()
    llm = _llm_runs(tmp_path / "llm-inputs")
    for hash_seed in ("0", "1"):
        assert _chain_digests(tmp_path / f"seed-{hash_seed}", hash_seed, llm) == manifest, hash_seed
