"""Command-line interface: the pipeline as subcommands for batch use.

Exit codes: 0 success, 1 operational error, 2 usage error. All randomness
hangs off --seed, and every output artifact embeds the effective config
and toolkit version in a `_meta` header (JSONL) or `meta` key (JSON), so
identical inputs and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Each command imports the layers it runs inside its handler, so a stage
# process loads only those.
from . import FintagError, __version__


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    from .jsonl import outputs_together

    # FintagError covers ClientError and InsertionFailure.
    try:
        with outputs_together():  # a stage writes all its outputs or none
            return args.handler(args)
    except (OSError, ValueError, KeyError, FintagError) as exc:
        print(f"fintag: error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fintag",
        description="Financial error-tag toolkit: insertion, quality gate, evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"fintag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("insert", help="corrupt clean QA responses into tagged records")
    p.add_argument("--input", required=True, help="QA JSONL: id/documents/question/response")
    p.add_argument("--output", required=True, help="tagged-record JSONL to write")
    p.add_argument("--mode", choices=("rule", "llm"), default="rule")
    p.add_argument("--source", default="all", help="dataset label recorded per record")
    p.add_argument("--sources-out", help="optional JSON map of record id to source label")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="INI config file")
    p.add_argument("--exemplars", help="exemplar pool JSONL for llm mode")
    p.add_argument("--max-retries", type=int, default=2)
    p.add_argument("--jobs", type=int, default=4, help="worker parallelism for llm mode")
    p.add_argument("--no-ground-filter", action="store_true")
    p.set_defaults(handler=_cmd_insert)

    p = sub.add_parser("validate", help="run the quality check over records")
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="issue JSONL (default: stdout)")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("fix", help="repair fixable records, discard the rest")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--discarded", help="JSONL of discarded record ids and reasons")
    p.add_argument("--tally", help="JSON quality tally per provenance")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_fix)

    p = sub.add_parser("derive", help="render a passage form from tagged records")
    p.add_argument("--input", required=True)
    p.add_argument("--form", required=True, choices=("original", "erroneous", "target"))
    p.add_argument("--output", help="default: stdout")
    p.add_argument("--raw", action="store_true", help="input is one plain tagged passage, not JSONL")
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("split", help="deterministic train/validation split of a JSONL file")
    p.add_argument("--input", required=True)
    p.add_argument("--train-out", required=True)
    p.add_argument("--val-out", required=True)
    p.add_argument("--ratio", type=float, default=0.95)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("pairs", help="emit training pairs from records plus their QA source")
    p.add_argument("--records", required=True)
    p.add_argument("--qa", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--source", default="all")
    p.set_defaults(handler=_cmd_pairs)

    p = sub.add_parser("report", help="error-type distribution report")
    p.add_argument("--input", required=True, help="tagged-record JSONL")
    p.add_argument("--sources", help="JSON map of record id to source label")
    p.add_argument("--output", help="default: stdout")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("eval-detect", help="score predictions against gold pairs")
    p.add_argument("--gold", required=True, help="training-pair JSONL")
    p.add_argument("--pred", required=True, help="predictions JSONL: id/raw")
    p.add_argument("--label-set", choices=("default", "fava"), default="default")
    p.add_argument("--match-mode", choices=("overlap", "exact"), default="overlap")
    p.add_argument("--output", help="report JSON path (default: stdout)")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(handler=_cmd_eval_detect)

    p = sub.add_parser("eval-edit", help="FactScore-style editing evaluation")
    p.add_argument("--input", required=True, help="JSONL: id/edited/reference")
    p.add_argument("--judge", choices=("containment", "llm"), default="containment")
    p.add_argument("--profile", help="client profile name (llm judge)")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--output", help="default: stdout")
    p.set_defaults(handler=_cmd_eval_edit)

    return parser


# --- config ----------------------------------------------------------------


def _load_ini(path: str | None):
    import configparser

    cp = configparser.ConfigParser()
    if path:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    return cp


def _section_kwargs(path: str, section, cls, derived: str, extra: dict | None = None) -> dict:
    """`cls`'s keyword arguments from one INI section. A key names a field of
    `cls` other than `derived`, coerced by its default's type (text when the
    default is not a number), or a key of `extra`, which maps it to a type."""
    from dataclasses import fields

    types = {
        f.name: type(f.default) if isinstance(f.default, (int, float)) else str
        for f in fields(cls) if f.name != derived
    } | (extra or {})
    kwargs = {}
    for key, value in section.items():
        if key not in types:
            raise ValueError(f"{path}: [{section.name}] unknown key {key!r}")
        try:
            kwargs[key] = types[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}: [{section.name}] {key}: {exc}") from None
    return kwargs


def _inserter_config(cp, path: str | None):
    from .insertion import InserterConfig
    from .taxonomy import KINDS

    if not cp.has_section("inserter"):
        return InserterConfig()
    weight_keys = {f"weight.{row.kind.value}": row.kind for row in KINDS}
    kwargs = _section_kwargs(
        path, cp["inserter"], InserterConfig, "type_weights", dict.fromkeys(weight_keys, float)
    )
    weights = {kind: kwargs.pop(key) for key, kind in weight_keys.items() if key in kwargs}
    if weights:
        kwargs["type_weights"] = weights
    return InserterConfig(**kwargs)


def _client_profiles(cp, path: str | None) -> list:
    from .llm_client import ClientProfile

    unset = {"endpoint": "", "model": ""}  # fields with no default
    return [
        ClientProfile(
            name=section.split(":", 1)[1],
            **unset | _section_kwargs(path, cp[section], ClientProfile, "name"),
        )
        for section in cp.sections()
        if section.startswith("client:")
    ]


def _config_echo(config) -> dict:
    from dataclasses import asdict

    return asdict(config) | {"type_weights": {k.value: w for k, w in config.type_weights.items()}}


def _meta(command: str, **extra) -> dict:
    return {"tool": "fintag", "version": __version__, "command": command, **extra}


def _write_text(path: str | None, text: str) -> None:
    """Write `text` and a newline to `path`, or print it to stdout."""
    if path:
        from .jsonl import open_output

        with open_output(path) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_json(path: str | None, payload: dict) -> None:
    _write_text(path, json.dumps(payload, ensure_ascii=False, indent=2))


# --- commands --------------------------------------------------------------


def _cmd_insert(args) -> int:
    from .corpus import IngestStats, filter_grounded, unique_qa
    from .insertion import (
        InsertionFailure,
        insert_llm,
        insert_rule_based,
        load_exemplars,
        plan_errors,
    )
    from .quality import write_records

    cp = _load_ini(args.config)
    config = _inserter_config(cp, args.config)
    exemplars = load_exemplars(args.exemplars) if args.exemplars else None
    if args.mode == "llm":
        profiles = _client_profiles(cp, args.config)
        if not profiles:
            raise ValueError("llm mode needs at least one [client:...] config section")
        from .llm_client import LlmClient

        clients = [LlmClient(profile) for profile in profiles]
        # Every id is checked before the first model call is paid for.
        for _ in unique_qa(args.input, args.source):
            pass
    stats = IngestStats()
    kept = skips = failures = 0
    ids = []

    def grounded():
        """(index, QA record) for each record that passes the filter."""
        nonlocal kept
        for qa in unique_qa(args.input, args.source, stats):
            if args.no_ground_filter or filter_grounded(qa, stats=stats):
                kept += 1
                yield kept - 1, qa

    def rule_records():
        nonlocal skips
        for i, qa in grounded():
            plan = plan_errors(qa.response, config, seed=args.seed + i)
            result = insert_rule_based(
                qa.response, qa.reference, plan, seed=args.seed + i, record_id=qa.id
            )
            skips += len(result.skipped)
            yield result.record

    def run(item):
        i, qa = item
        plan = plan_errors(qa.response, config, seed=args.seed + i)
        client = clients[i % len(clients)]
        try:
            return insert_llm(
                qa.response,
                qa.reference,
                plan,
                client,
                max_retries=args.max_retries,
                exemplar_pool=exemplars,
                record_id=qa.id,
            )
        except InsertionFailure:
            return None

    def llm_records():
        nonlocal failures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            for record in _in_order(pool, run, grounded()):
                if record is None:
                    failures += 1
                else:
                    yield record

    def tracked(records):
        for record in records:
            ids.append(record.id)
            yield record

    records = rule_records() if args.mode == "rule" else llm_records()
    meta = _meta(
        "insert",
        seed=args.seed,
        mode=args.mode,
        source=args.source,
        config=_config_echo(config),
    )
    written = write_records(args.output, tracked(records) if args.sources_out else records, meta=meta)
    if args.sources_out:
        _write_json(args.sources_out, dict.fromkeys(ids, args.source))
    print(
        f"insert: read={stats.read} kept={kept} skipped_lines={stats.skipped} "
        f"records={written} site_skips={skips} failures={failures}",
        file=sys.stderr,
    )
    return 0


def _in_order(pool, fn, items, burst: int = 128):
    """`fn(item)` for each item, run in `pool` and yielded in input order.
    Items are submitted a burst at a time, the next burst while the last
    one's results are read, so at most two bursts are held. A window of
    four items in flight, refilled one item per result read, cost a warm
    `insert --mode llm` replay about 25% more CPU."""
    from itertools import islice

    items = iter(items)
    ahead = [pool.submit(fn, item) for item in islice(items, burst)]
    while ahead:
        current, ahead = ahead, [pool.submit(fn, item) for item in islice(items, burst)]
        for future in current:
            yield future.result()


def _cmd_validate(args) -> int:
    from .quality import check, read_records

    rows = []
    clean = 0
    for record, warnings in read_records(args.input):
        issues = check(record, warnings)
        if not issues:
            clean += 1
            continue
        rows.append(
            {
                "id": record.id,
                "issues": [
                    {
                        "kind": issue.kind.value,
                        "segment_index": issue.segment_index,
                        "detail": issue.detail,
                        "fixable": issue.fixable,
                    }
                    for issue in issues
                ],
            }
        )
    payload = {"meta": _meta("validate"), "clean": clean, "flagged": rows}
    _write_json(args.output, payload)
    return 0


def _cmd_fix(args) -> int:
    from .jsonl import write_jsonl
    from .quality import QualityTally, fix, read_records, write_records

    tally = QualityTally()
    discarded = []

    def fixed():
        for record, warnings in read_records(args.input):
            outcome = fix(record, warnings)
            tally.add(record.provenance or "unknown", outcome.issues, discarded=not outcome.fixed)
            if outcome.fixed:
                yield outcome.record
            else:
                discarded.append(
                    {"id": record.id, "reasons": [i.kind.value for i in outcome.reasons]}
                )

    meta = _meta("fix", seed=args.seed)
    kept = write_records(args.output, fixed(), meta=meta)
    if args.discarded:
        write_jsonl(args.discarded, discarded, meta=meta)
    if args.tally:
        _write_json(args.tally, {"meta": _meta("fix"), "tally": tally.to_json()})
    print(
        f"fix: kept={kept} discarded={len(discarded)}\n{tally.format_table()}",
        file=sys.stderr,
    )
    return 0


def _derive_text(doc, form: str) -> str:
    from .markup import derive_erroneous, derive_original, serialize, to_target_output

    if form == "original":
        return derive_original(doc)
    if form == "erroneous":
        return derive_erroneous(doc)[0]
    return serialize(to_target_output(doc))


def _cmd_derive(args) -> int:
    from .jsonl import write_jsonl
    from .markup import Form, parse
    from .quality import read_records

    if args.raw:
        text = Path(args.input).read_text(encoding="utf-8")
        if text.endswith("\n"):
            text = text[:-1]
        doc, warnings = parse(text, Form.TAGGED_PASSAGE)
        for w in warnings:
            print(f"warning: {w.message}", file=sys.stderr)
        _write_text(args.output, _derive_text(doc, args.form))
        return 0
    rows = (
        {"id": record.id, "text": _derive_text(record.doc, args.form)}
        for record, _ in read_records(args.input)
    )
    write_jsonl(args.output, rows, meta=_meta("derive", form=args.form))
    return 0


def _cmd_split(args) -> int:
    import os
    import stat
    from contextlib import nullcontext
    from functools import partial

    from .jsonl import line_at, read_jsonl, write_jsonl
    from .partition import split as split_records

    # Only each line's byte span is kept, and kept lines are read back
    # verbatim; a pipe cannot be read twice, so its lines are kept instead.
    regular = stat.S_ISREG(os.stat(args.input).st_mode)
    rows = [row for _, _, row in read_jsonl(args.input, spans=regular)]
    train, val = split_records(rows, ratio=args.ratio, seed=args.seed)
    meta = _meta("split", seed=args.seed, ratio=args.ratio)
    with open(args.input, "rb") if regular else nullcontext() as fh:
        line = partial(line_at, fh) if regular else str
        write_jsonl(args.train_out, map(line, train), meta)
        write_jsonl(args.val_out, map(line, val), meta)
    print(f"split: train={len(train)} val={len(val)}", file=sys.stderr)
    return 0


def _cmd_pairs(args) -> int:
    from .corpus import emit_training_pair, join_qa, write_pairs
    from .quality import check, read_records

    def gated():
        for record, warnings in read_records(args.records):
            if check(record, warnings):
                print(f"pairs: skipping {record.id}: fails quality gate", file=sys.stderr)
            else:
                yield record.id, record

    def pairs():
        for record, qa in join_qa(args.qa, gated(), args.source):
            if qa is None:
                print(f"pairs: skipping {record.id}: no QA source", file=sys.stderr)
            else:
                yield emit_training_pair(record, qa)

    count = write_pairs(args.output, pairs(), meta=_meta("pairs", source=args.source))
    print(f"pairs: wrote {count}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    from .corpus import distribution_report
    from .quality import read_records

    source_of = None
    if args.sources:
        try:
            source_of = json.loads(Path(args.sources).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.sources}: bad JSON ({exc.msg})") from None
        if not isinstance(source_of, dict) or not all(isinstance(v, str) for v in source_of.values()):
            raise ValueError(f"{args.sources}: expected a JSON object of record id to source label")
    report = distribution_report((record for record, _ in read_records(args.input)), source_of)
    if args.format == "json":
        _write_json(args.output, {"meta": _meta("report"), **report.to_json()})
    else:
        _write_text(args.output, report.format_table())
    return 0


def _cmd_eval_detect(args) -> int:
    from .detect_eval import evaluate_corpus, read_gold_documents, read_predictions
    from .taxonomy import DEFAULT_LABELS, FAVA_LABELS

    labels = FAVA_LABELS if args.label_set == "fava" else DEFAULT_LABELS
    gold = read_gold_documents(args.gold, labels)
    preds = read_predictions(args.pred)
    # Unpaired gold ids score as empty replies; unpaired predictions are ignored.
    unpredicted = [rid for rid in gold if rid not in preds]
    ungolded = [rid for rid in preds if rid not in gold]
    print(
        f"eval-detect: {_ids_with_examples(unpredicted, 'gold ids without a prediction')}; "
        f"{_ids_with_examples(ungolded, 'prediction ids without gold')}",
        file=sys.stderr,
    )
    report = evaluate_corpus(gold, preds, labels, args.match_mode)
    if args.format == "json":
        payload = {
            "meta": _meta(
                "eval-detect", label_set=args.label_set, match_mode=args.match_mode
            ),
            **report.to_json(),
        }
        _write_json(args.output, payload)
    else:
        _write_text(args.output, report.format_table())
    return 0


def _ids_with_examples(ids: list[str], what: str, limit: int = 5) -> str:
    text = f"{len(ids)} {what}"
    return f"{text} (e.g. {', '.join(ids[:limit])})" if ids else text


def _cmd_eval_edit(args) -> int:
    from .edit_eval import (
        containment_judge,
        llm_judge,
        read_editing_rows,
        score_editing,
        summarize_scores,
    )

    rows = read_editing_rows(args.input)
    if args.judge == "containment":
        judge = containment_judge
    else:
        cp = _load_ini(args.config)
        profiles = {p.name: p for p in _client_profiles(cp, args.config)}
        if args.profile not in profiles:
            raise ValueError(f"unknown client profile {args.profile!r}")
        from .llm_client import LlmClient

        judge = llm_judge(LlmClient(profiles[args.profile]))
    scored = [(str(row["id"]), score_editing(row["edited"], row["reference"], judge)) for row in rows]
    units = sum(fs.total for _, fs in scored)
    failed = sum(fs.failed for _, fs in scored)
    if failed and failed == units:
        raise ValueError(f"the {args.judge} judge failed on all {units} units")
    results, mean = summarize_scores(scored)
    payload = {
        "meta": _meta("eval-edit", judge=args.judge),
        "records": results,
        "mean_score": round(mean, 4),
        "mean_pct": round(100 * mean, 1),
    }
    _write_json(args.output, payload)
    # One table-style row: judge label, percentage score, judge failures.
    print(f"{args.judge:<16}{100 * mean:6.1f}  failed {failed}/{units} units", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
