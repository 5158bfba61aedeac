"""Benchmark of the fintag CLI: seeded inputs, each stage in its own
process, correctness checks, and one JSON result line.

Usage, from the root of the repository:

    python3 bench/run.py --workload build --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each exists):

    build       insert (rule mode, grounding filter on) -> fix -> pairs
                -> split -> report over a seeded QA corpus
    score       eval-detect over gold pairs and mixed model replies, then
                eval-edit --judge containment against the QA evidence
    llm-replay  insert --mode llm --jobs 2 --no-ground-filter, replayed
                from a record/replay cache that set-up warms

Set-up builds the inputs; the stage chain is then repeated until --seconds
have passed. The calibration loop of bench/calib.py runs after every
stage process and every set-up, and each of them is scaled by the
samples nearest it. With --trace 0 the result holds the end-to-end
metrics, in reference seconds (see calib.py), and set-up is
repeated between repetitions, in a directory of its own, for a fifth of
the time; setup_s is its mean. With --trace 1 the result holds the
per-layer metrics: medians of stage wall, CPU and max RSS from untraced
repetitions, then calls and self time per public function from
repetitions that run each stage under bench/tracer.py.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit code 0 on a completed run, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calib
import gen
import tracer

# `checks` and `fintag` are imported inside functions: main() first checks
# that the sources exist, so that a checkout without them fails cleanly.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

STAGES = ("insert", "fix", "pairs", "split", "report", "eval-detect", "eval-edit")
SETUP_SHARE = 0.2
MIN_REPS = 3
STAGE_TIMEOUT_S = 120
STARTUP_PROBES = 5

# Records per workload, sized so one repetition of the chain takes a few
# seconds on a 2-core machine and a run holds several repetitions.
BUILD_RECORDS = 2500
SCORE_PAIRS = 1500
SCORE_EDIT_ROWS = 600
LLM_RECORDS = 2500

# A cache miss in llm-replay falls through to this endpoint; nothing
# listens on the discard port, so a miss fails fast and stays local.
REPLAY_ENDPOINT = "http://127.0.0.1:9/v1/chat/completions"


# --- stage processes ---------------------------------------------------------


@dataclass(frozen=True)
class StageRun:
    stage: str
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    mark: int = 0  # calib.Scale mark for wall_s


class Spawner:
    """Runs processes through bench/spawner.py, which measures each one.
    Start it before loading inputs so that its own small RSS is what
    every child starts from."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, stage: str, cmd: list, cwd: Path) -> StageRun:
        request = {"cmd": cmd, "cwd": str(cwd), "log": str(cwd / f"{stage}.log"),
                   "timeout": STAGE_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended early")
        return StageRun(stage, **json.loads(reply))

    def run_stage(self, argv: list, cwd: Path, spans: Path | None = None) -> StageRun:
        if spans is None:
            cmd = [sys.executable, "-m", "fintag.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans), "--", *argv]
        return self.run(argv[0], cmd, cwd)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


# --- workloads ---------------------------------------------------------------


class Workload:
    """Set-up, the stage chain and the checks of one workload. `records`
    is the input record count that records_per_s divides by."""

    records = 0

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.inputs = work / "inputs"

    def setup(self) -> None:
        raise NotImplementedError

    def chain(self) -> list:
        raise NotImplementedError

    def check(self, out: Path) -> dict:
        """Problems per stage for the outputs in `out`."""
        raise NotImplementedError

    def outputs(self) -> dict:
        """Output files per stage, compared across repetitions."""
        raise NotImplementedError

    def _fresh_inputs(self) -> Path:
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        return self.inputs


class Build(Workload):
    def setup(self) -> None:
        rows = gen.make_corpus(self.seed, BUILD_RECORDS)
        gen.write_jsonl(self._fresh_inputs() / "qa.jsonl", rows)
        self.records = len(rows)
        self.grounded = sum(map(gen.grounded, range(len(rows))))

    def chain(self) -> list:
        qa, seed = str(self.inputs / "qa.jsonl"), str(self.seed)
        return [
            ["insert", "--input", qa, "--output", "records.jsonl", "--seed", seed,
             "--source", "bench", "--sources-out", "sources.json"],
            ["fix", "--input", "records.jsonl", "--output", "fixed.jsonl", "--seed", seed],
            ["pairs", "--records", "fixed.jsonl", "--qa", qa, "--output", "pairs.jsonl"],
            ["split", "--input", "pairs.jsonl", "--train-out", "train.jsonl",
             "--val-out", "val.jsonl", "--ratio", "0.95", "--seed", seed],
            ["report", "--input", "fixed.jsonl", "--sources", "sources.json",
             "--format", "json", "--output", "report.json"],
        ]

    def outputs(self) -> dict:
        return {
            "insert": ["records.jsonl", "sources.json"],
            "fix": ["fixed.jsonl"],
            "pairs": ["pairs.jsonl"],
            "split": ["train.jsonl", "val.jsonl"],
            "report": ["report.json"],
        }

    def check(self, out: Path) -> dict:
        import checks

        return {
            "insert": checks.check_inserted(out / "records.jsonl", self.grounded),
            "fix": checks.check_fixed(out / "records.jsonl", out / "fixed.jsonl"),
            "pairs": checks.check_pairs(out / "fixed.jsonl", out / "pairs.jsonl"),
            "split": checks.check_split(out / "pairs.jsonl", out / "train.jsonl", out / "val.jsonl"),
            "report": checks.check_report(out / "report.json", out / "fixed.jsonl"),
        }


def _qa_record(row: dict):
    from fintag.corpus import QARecord

    return QARecord(row["id"], tuple(row["documents"]), row["question"], row["response"], "bench")


class Score(Workload):
    def setup(self) -> None:
        from fintag.corpus import emit_training_pair, write_pairs
        from fintag.insertion import InserterConfig, insert_rule_based, plan_errors
        from fintag.markup import derive_erroneous

        inputs = self._fresh_inputs()
        config = InserterConfig()
        rng = random.Random(f"score:{self.seed}")
        pairs, preds, edits = [], [], []
        for i, row in enumerate(gen.make_corpus(self.seed, SCORE_PAIRS)):
            qa = _qa_record(row)
            plan = plan_errors(qa.response, config, seed=self.seed + i)
            record = insert_rule_based(qa.response, qa.reference, plan, seed=self.seed + i,
                                       record_id=qa.id).record
            pair = emit_training_pair(record, qa)
            pairs.append(pair)
            raw = gen.make_prediction(pair.target, rng)
            if raw is not None:
                preds.append({"id": qa.id, "raw": raw})
            if i < SCORE_EDIT_ROWS:
                erroneous, _ = derive_erroneous(record.doc)
                edits.append(gen.make_edit_row(qa.id, qa.response, erroneous, qa.reference, rng))
        write_pairs(inputs / "gold.jsonl", pairs)
        gen.write_jsonl(inputs / "predictions.jsonl", preds)
        gen.write_jsonl(inputs / "edits.jsonl", edits)
        self.gold, self.edit_rows = len(pairs), len(edits)
        self.records = self.gold + self.edit_rows

    def chain(self) -> list:
        return [
            ["eval-detect", "--gold", str(self.inputs / "gold.jsonl"),
             "--pred", str(self.inputs / "predictions.jsonl"), "--format", "json",
             "--output", "detect.json"],
            ["eval-edit", "--input", str(self.inputs / "edits.jsonl"), "--judge", "containment",
             "--output", "edit.json"],
        ]

    def outputs(self) -> dict:
        return {"eval-detect": ["detect.json"], "eval-edit": ["edit.json"]}

    def check(self, out: Path) -> dict:
        import checks

        return {
            "eval-detect": checks.check_detection(out / "detect.json", self.gold),
            "eval-edit": checks.check_editing(out / "edit.json", self.edit_rows),
        }


class StubTransport:
    """Chat-completion transport for warming the replay cache. It answers
    with the rule-based insertion of the record being processed, varied by
    gen.make_stub_reply; `begin` names that record."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tagged = ""
        self.record_id = ""
        self.attempt = 0

    def begin(self, record_id: str, tagged: str) -> None:
        self.record_id, self.tagged, self.attempt = record_id, tagged, 0

    def __call__(self, profile, payload, headers):
        rng = random.Random(f"stub:{self.seed}:{self.record_id}:{self.attempt}")
        text = gen.make_stub_reply(self.tagged, self.attempt, rng)
        self.attempt += 1
        return 200, json.dumps({"choices": [{"message": {"content": text}}]})


class LlmReplay(Workload):
    def setup(self) -> None:
        import checks
        from fintag.insertion import InserterConfig, insert_llm, insert_rule_based, plan_errors
        from fintag.llm_client import ClientProfile, LlmClient
        from fintag.markup import serialize
        from fintag.quality import write_records

        inputs = self._fresh_inputs()
        rows = gen.make_corpus(self.seed, LLM_RECORDS)
        gen.write_jsonl(inputs / "qa.jsonl", rows)
        self.cache = inputs / "llm-cache.jsonl"
        profile = ClientProfile(name="replay", endpoint=REPLAY_ENDPOINT, model="replay-model",
                                cache_path=str(self.cache))
        (inputs / "replay.ini").write_text(
            f"[client:{profile.name}]\nendpoint = {profile.endpoint}\nmodel = {profile.model}\n"
            f"cache_path = {profile.cache_path}\n",
            encoding="utf-8",
        )
        stub = StubTransport(self.seed)
        client = LlmClient(profile, transport=stub, sleeper=lambda s: None)
        config = InserterConfig()
        records = []
        for i, row in enumerate(rows):
            qa = _qa_record(row)
            plan = plan_errors(qa.response, config, seed=self.seed + i)
            rule = insert_rule_based(qa.response, qa.reference, plan, seed=self.seed + i,
                                     record_id=qa.id)
            stub.begin(qa.id, serialize(rule.record.doc))
            records.append(insert_llm(qa.response, qa.reference, plan, client, record_id=qa.id))
        write_records(inputs / "expected.jsonl", records)
        self.cache_digest = checks.digest(self.cache)
        self.records = len(rows)

    def chain(self) -> list:
        return [
            ["insert", "--input", str(self.inputs / "qa.jsonl"), "--output", "records.jsonl",
             "--mode", "llm", "--config", str(self.inputs / "replay.ini"), "--seed", str(self.seed),
             "--jobs", "2", "--no-ground-filter"],
        ]

    def outputs(self) -> dict:
        # The cache's absolute path survives joining with the output
        # directory, so every repetition re-checks that nothing was added.
        return {"insert": ["records.jsonl", str(self.cache)]}

    def check(self, out: Path) -> dict:
        import checks

        return {
            "insert": checks.check_replay(out / "records.jsonl", self.inputs / "expected.jsonl",
                                          self.cache, self.cache_digest),
        }


WORKLOADS = {"build": Build, "score": Score, "llm-replay": LlmReplay}


# --- repetitions -------------------------------------------------------------


class Session:
    """Repetitions of one workload's stage chain, with the operation tally.

    An operation is one stage process. It fails on a non-zero exit, on a
    failed check of its outputs, or on outputs that differ from those of
    the first repetition that passed the checks."""

    def __init__(self, workload: Workload, spawner: Spawner):
        self.workload, self.spawner = workload, spawner
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.reference: dict = {}
        self.layers: list = []  # per-layer numbers of each traced repetition
        self.scale = calib.Scale()

    def fail(self, stage: str, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{stage}: {problem}")

    def run_chain(self, traced: bool = False) -> list:
        """One repetition. Outputs are checked in full until a repetition
        passes; later ones must match its bytes."""
        import checks

        workload = self.workload
        out = workload.work / "rep"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        runs = []
        for i, argv in enumerate(workload.chain()):
            run = self.spawner.run_stage(argv, out, out / f"spans-{i}.json" if traced else None)
            run = dataclasses.replace(run, mark=self.scale.mark())
            self.attempted += 1
            if run.rc != 0:
                self.fail(run.stage, f"exit code {run.rc}, see {run.stage}.log")
            runs.append(run)
        if any(run.rc for run in runs):
            return runs
        if traced:
            self.layers.append(traced_rep(out, len(runs)))
        outputs = workload.outputs()
        digests = {name: checks.digest(out / name) for files in outputs.values() for name in files}
        if self.reference:
            for stage, files in outputs.items():
                if any(digests[name] != self.reference[name] for name in files):
                    self.fail(stage, "outputs differ from the first checked repetition")
            return runs
        failed = self.failed
        for stage, problems in workload.check(out).items():
            if problems:
                self.fail(stage, problems[0])
        if self.failed == failed:
            self.reference = digests
        return runs

    def repeat(self, seconds: float, traced: bool = False) -> list:
        """The stage runs of each repetition, for at least `seconds`."""
        reps = []
        deadline = perf_counter() + seconds
        while len(reps) < MIN_REPS or perf_counter() < deadline:
            reps.append(self.run_chain(traced))
        return reps


def timed_setup(workload: Workload) -> float:
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


def measure(session: Session, seconds: float, probe: Workload):
    """Set-up, then untraced repetitions for at least `seconds`, with
    set-ups of `probe` (the same workload in its own directory) run
    between them until set-up has taken SETUP_SHARE of the time. Set-up is
    timed across the whole run, like the chain, so a drift in the
    machine's speed during the run reaches both alike. Returns the mean
    set-up time in reference seconds and the repetitions."""
    scale = session.scale
    setups, reps = [(timed_setup(session.workload), scale.mark())], []
    start = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() < start + seconds:
        reps.append(session.run_chain())
        while sum(wall for wall, _ in setups) < SETUP_SHARE * (perf_counter() - start):
            setups.append((timed_setup(probe), scale.mark()))
    return statistics.mean(scale.reference_s(*setup) for setup in setups), reps


def throughput(session: Session, reps: list) -> float:
    """Records per reference second over all repetitions: total records
    over total stage time in reference seconds. A mean, not a median of
    per-repetition rates: a stage's own time varies from one repetition
    to the next, and the median of a few samples jumps."""
    ref_s = sum(session.scale.reference_s(run.wall_s, run.mark) for runs in reps for run in runs)
    return session.workload.records * len(reps) / ref_s


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(session: Session, setup_s: float, reps: list) -> dict:
    return {
        "setup_s": metric(setup_s, "s"),
        "records_per_s": metric(throughput(session, reps), "rec/s"),
        "peak_rss_mb": metric(statistics.median(max(x.rss_mb for x in r) for r in reps), "MB"),
    }


# --- per-layer metrics -------------------------------------------------------


def _ratio(numer: float, denom: float) -> float:
    return numer / denom if denom else 0.0


def per_layer_names() -> list:
    """Every per-layer metric with its unit, in report order."""
    names = []
    for fn in tracer.TRACED:
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    for stage in STAGES:
        names += [(f"cli.{stage}.wall_s", "s"), (f"cli.{stage}.cpu_s", "s"),
                  (f"cli.{stage}.peak_rss_mb", "MB"), (f"cli.{stage}.self_s", "s")]
    names.append(("cli.startup_s", "s"))
    names.append(("bench.calibration_s", "s"))
    names += [(name, "ratio") for name in RATIOS]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


RATIOS = (
    "corpus.filter_grounded.kept_ratio",
    "insertion.applied_ratio",
    "insertion.insert_llm.attempts_per_record",
    "quality.check.calls_per_record",
    "quality.fix.repaired_ratio",
    "quality.fix.discarded_ratio",
    "detect_eval.unparseable_ratio",
    "llm_client.cache_hit_ratio",
)


def _ratios(calls: dict, counters: dict) -> dict:
    # Records that reach the gate: rule-based outputs, and LLM replies for
    # records whose plan is not clean.
    gate_records = (calls["insertion.insert_rule_based"]
                    + counters.get("insertion.insert_llm.attempted_records", 0))
    cached = calls["llm_client.LlmClient.cached_complete"]
    return {
        "corpus.filter_grounded.kept_ratio": _ratio(
            counters.get("corpus.filter_grounded.kept", 0), calls["corpus.filter_grounded"]),
        "insertion.applied_ratio": _ratio(
            counters.get("insertion.applied", 0), counters.get("insertion.planned", 0)),
        "insertion.insert_llm.attempts_per_record": _ratio(
            counters.get("insertion.insert_llm.attempts", 0),
            counters.get("insertion.insert_llm.attempted_records", 0)),
        "quality.check.calls_per_record": _ratio(calls["quality.check"], gate_records),
        "quality.fix.repaired_ratio": _ratio(counters.get("quality.fix.repaired", 0), calls["quality.fix"]),
        "quality.fix.discarded_ratio": _ratio(counters.get("quality.fix.discarded", 0), calls["quality.fix"]),
        "detect_eval.unparseable_ratio": _ratio(
            counters.get("detect_eval.unparseable", 0), calls["detect_eval.parse_prediction"]),
        "llm_client.cache_hit_ratio": _ratio(cached - counters.get("llm_client.cache_misses", 0), cached),
    }


def traced_rep(out: Path, stages: int) -> dict:
    """Per-layer numbers of one traced repetition, summed over the span
    files of its stages."""
    calls = dict.fromkeys(tracer.TRACED, 0)
    self_s = dict.fromkeys(tracer.TRACED, 0.0)
    stage_self = {}
    counters: dict = {}
    for i in range(stages):
        reduced = tracer.reduce_spans(json.loads((out / f"spans-{i}.json").read_text()))
        for name, row in reduced["functions"].items():
            if name.startswith("cli."):
                stage_self[name] = row["self_s"]
            else:
                calls[name] += row["calls"]
                self_s[name] += row["self_s"]
        for key, value in reduced["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"calls": calls, "self_s": self_s, "stage_self": stage_self, "ratios": _ratios(calls, counters)}


def startup_s(spawner: Spawner, work: Path) -> float:
    cmd = [sys.executable, "-m", "fintag.cli", "--version"]
    return statistics.median(spawner.run("version", cmd, work).wall_s for _ in range(STARTUP_PROBES))


def per_layer(session: Session, plain: list, traced: list, startup: float) -> dict:
    workload = session.workload
    units = dict(per_layer_names())
    values = {}
    rows = session.layers or [traced_rep(workload.work, 0)]
    for fn in rows[0]["calls"]:
        values[f"{fn}.calls"] = statistics.median(r["calls"][fn] for r in rows)
        values[f"{fn}.self_s"] = statistics.median(r["self_s"][fn] for r in rows)
    for stage in STAGES:
        stage_runs = [x for runs in plain for x in runs if x.stage == stage]
        for field in ("wall_s", "cpu_s", "rss_mb"):
            name = f"cli.{stage}.{'peak_rss_mb' if field == 'rss_mb' else field}"
            values[name] = statistics.median(getattr(x, field) for x in stage_runs) if stage_runs else 0.0
        values[f"cli.{stage}.self_s"] = statistics.median(
            r["stage_self"].get(f"cli.{stage}", 0.0) for r in rows)
    values["cli.startup_s"] = startup
    values["bench.calibration_s"] = statistics.median(session.scale.samples)
    for name in RATIOS:
        values[name] = statistics.median(r["ratios"][name] for r in rows)
    values["trace.overhead_ratio"] = throughput(session, traced) / throughput(session, plain)
    if isinstance(workload, LlmReplay) and values["llm_client.LlmClient.complete.calls"]:
        session.fail("insert", "LlmClient.complete was called: the replay cache missed")
    return {name: metric(values[name], units[name]) for name, _ in per_layer_names()}


# --- entry point -------------------------------------------------------------


def run(args) -> dict:
    top = ROOT / ".bench_work"
    work = top / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spawner = Spawner()
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        session = Session(workload, spawner)
        if args.trace:
            workload.setup()
            plain = session.repeat(args.seconds / 2)
            traced = session.repeat(args.seconds / 2, traced=True)
            metrics = per_layer(session, plain, traced, startup_s(spawner, work))
        else:
            probe = WORKLOADS[args.workload](work / "probe", args.seed)
            setup_s, reps = measure(session, args.seconds, probe)
            metrics = end_to_end(session, setup_s, reps)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
        if not any(top.iterdir()):
            top.rmdir()
    for problem in session.problems:
        print(f"bench: {problem}", file=sys.stderr)
    return {"correct": session.failed == 0, "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fintag" / "__init__.py").is_file():
        print(f"bench: no fintag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
