"""Golden digests of the rule chain: the sha256 of every file the CLI
stages write from a committed QA fixture must equal a committed manifest,
under two hash seeds.

`data/golden_qa.jsonl` (300 rows, long passages and every sentence shape
among them, a few whose evidence does not ground the response) was written
once from `conftest`'s passage generators, and `data/golden_edit_rows.jsonl`
once from every third of the chain's pairs, so neither moves when a
generator changes. A change that moves an output on purpose updates
`data/golden_manifest.json` and names each changed file, and why; a
difference is never hidden by writing the manifest anew.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import fintag

DATA = Path(__file__).parent / "data"
QA = str(DATA / "golden_qa.jsonl")
EDIT_ROWS = str(DATA / "golden_edit_rows.jsonl")

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

# Runs the build stages, writes each gold pair's target as its own reply,
# then runs the scoring stages. `_meta` records the toolkit version, held
# here to a constant so that a version bump moves no digest.
_CHAIN = """\
import json, sys
from fintag import cli
cli.__version__ = "golden"
build, score = json.loads(sys.argv[1])
for argv in build:
    assert cli.dispatch(argv) == 0, argv
with open("pairs.jsonl", encoding="utf-8") as fh, open("replies.jsonl", "w", encoding="utf-8") as out:
    for line in fh:
        row = json.loads(line)
        if "_meta" not in row:
            out.write(json.dumps({"id": row["id"], "raw": row["target"]}) + "\\n")
for argv in score:
    assert cli.dispatch(argv) == 0, argv
"""


def _chain_digests(workdir: Path, hash_seed: str) -> dict:
    """The sha256 of every file the chain writes into `workdir`, run in a
    fresh process under `PYTHONHASHSEED=hash_seed`."""
    workdir.mkdir()
    src = os.path.dirname(os.path.dirname(fintag.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", _CHAIN, json.dumps([_BUILD, _SCORE])], env=env,
                         cwd=workdir, capture_output=True, encoding="utf-8")
    assert out.returncode == 0, out.stderr
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(workdir.iterdir())}


def test_rule_chain_outputs_match_the_golden_manifest(tmp_path):
    manifest = json.loads((DATA / "golden_manifest.json").read_text(encoding="utf-8"))
    for hash_seed in ("0", "1"):
        assert _chain_digests(tmp_path / f"seed-{hash_seed}", hash_seed) == manifest, hash_seed
