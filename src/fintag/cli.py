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
from contextlib import ExitStack, closing, nullcontext
from functools import partial
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

    # FintagError covers ClientError, InsertionFailure and MissingExemplar.
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
    p.add_argument("--jobs", type=_at_least_one, default=4,
                   help="threads that call the model in llm mode; cache hits replay in "
                        "the stage's own thread")
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


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    defaults = cls._field_defaults
    types = {
        name: type(default) if isinstance(default := defaults.get(name), (int, float)) else str
        for name in cls._fields if name != derived
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
    return config._asdict() | {"type_weights": {k.value: w for k, w in config.type_weights.items()}}


def _meta(command: str, **extra) -> dict:
    return {"tool": "fintag", "version": __version__, "command": command, **extra}


def _write_text(path: str | None, text: str) -> None:
    """Write `text` and a newline to `path`, or to stdout when `path` is
    None or empty."""
    from .jsonl import open_output

    with open_output(path or None) as fh:
        fh.write(text + "\n")


def _write_json(path: str | None, payload: dict) -> None:
    _write_text(path, json.dumps(payload, ensure_ascii=False, indent=2))


# --- commands --------------------------------------------------------------


def _cmd_insert(args) -> int:
    from .corpus import IngestStats, filter_grounded, ingest
    from .insertion import InsertionFailure, insert_llm, insert_rule_based, load_exemplars, plan_errors
    from .jsonl import open_output, rereadable
    from .records import write_records

    cp = _load_ini(args.config)
    config = _inserter_config(cp, args.config)
    llm = args.mode == "llm"
    meta = _meta("insert", seed=args.seed, mode=args.mode, source=args.source,
                 config=_config_echo(config))
    stats = IngestStats()
    kept = skips = failures = 0
    with ExitStack() as held:
        source = args.input
        if llm:
            # A pool lacking a weighted kind fails here, before any model call.
            exemplars = load_exemplars(args.exemplars, config.type_weights) if args.exemplars else None
            profiles = _client_profiles(cp, args.config)
            if not profiles:
                raise ValueError("llm mode needs at least one [client:...] config section")
            source = held.enter_context(rereadable(args.input))
            from .llm_client import LlmClient

            clients = [held.enter_context(closing(LlmClient(profile))) for profile in profiles]
            replays = [_Replayed(c) if c.profile.cache_path else None for c in clients]
            pool = None

            def submit(item):
                """Run `item` in the pool, which starts at the first unit that
                must call the model."""
                nonlocal pool
                if pool is None:
                    # Every id is checked before the first model call is
                    # paid for; replayed units cost none, and a repeat
                    # among them stops the streaming pass itself.
                    for _ in ingest(source, args.source):
                        pass
                    from concurrent.futures import ThreadPoolExecutor

                    pool = ThreadPoolExecutor(max_workers=args.jobs)
                    # Shut down before the clients close, or a running
                    # unit's later hit would open a closed client's cache
                    # file again: a unit that raises ends the stage, and
                    # the units still queued are never called.
                    held.callback(pool.shutdown, cancel_futures=True)
                return pool.submit(insert_one, item)

        def insert_one(item, replay_only=False):
            """(record, site skips) for one grounded QA record; the record is
            None when the model's replies never pass the gate. With
            `replay_only`, a model call that the replay cache cannot answer
            raises `_Miss` before any transport call."""
            i, qa = item
            if llm:
                client = (replays if replay_only else clients)[i % len(clients)]
                if client is None:  # no cache to replay from
                    raise _Miss
            plan = plan_errors(qa.response, config, seed=args.seed + i)
            if not llm:
                result = insert_rule_based(
                    qa.response, qa.reference, plan, seed=args.seed + i, record_id=qa.id
                )
                return result.record, len(result.skipped)
            try:
                record = insert_llm(qa.response, qa.reference, plan, client,
                                    max_retries=args.max_retries, exemplar_pool=exemplars,
                                    record_id=qa.id)
            except InsertionFailure:
                record = None
            return record, 0

        def records():
            """The records in input order, counted in this thread."""
            nonlocal kept, skips, failures
            grounded = (qa for _, _, qa in ingest(source, args.source, stats)
                        if args.no_ground_filter or filter_grounded(qa))
            units = enumerate(grounded)
            done = (_in_order(partial(insert_one, replay_only=True), submit, units) if llm
                    else map(insert_one, units))
            for record, skipped in done:
                kept += 1
                skips += skipped
                if record is None:
                    failures += 1
                    continue
                yield record

        rows = records()
        if args.sources_out:
            rows = _listing_sources(rows, held.enter_context(open_output(args.sources_out)), args.source)
        written = write_records(args.output, rows, meta=meta)
    print(
        f"insert: read={stats.read} kept={kept} skipped_lines={stats.skipped} "
        f"records={written} site_skips={skips} failures={failures}",
        file=sys.stderr,
    )
    _print_skips("insert", stats)
    return 0


def _listing_sources(records, fh, source: str):
    """Pass `records` on, writing to `fh` the map of each record's id to
    `source` as it goes: the bytes of `json.dumps(map, ensure_ascii=False,
    indent=2)` and a newline. Record ids are unique, as `ingest` holds."""
    value = json.dumps(source, ensure_ascii=False)
    sep = "{\n  "
    for record in records:
        fh.write(f"{sep}{json.dumps(record.id, ensure_ascii=False)}: {value}")
        sep = ",\n  "
        yield record
    fh.write("{}\n" if sep == "{\n  " else "\n}\n")


def _print_skips(stage: str, stats) -> None:
    """The reasons of the first five lines `stats` counted as skipped, and
    the number of the rest."""
    for reason in stats.reasons:
        print(f"{stage}: skipped {reason}", file=sys.stderr)
    if stats.skipped > len(stats.reasons):
        print(f"{stage}: skipped {stats.skipped - len(stats.reasons)} more (not shown)", file=sys.stderr)


class _Miss(Exception):
    """A unit run against the replay cache only needs a model call."""


class _Replayed:
    """The replay-only side of a client: `call` answers from its cache, or
    raises `_Miss` where the client would call the model. Each lookup is a
    call of `cached_complete`, so a profile of it counts every lookup."""

    def __init__(self, client) -> None:
        self.name, self._client = client.name, client

    def call(self, request):
        reply = self._client.cached_complete(request, replay_only=True)
        if reply is None:
            raise _Miss
        return reply


def _in_order(inline, submit, items, burst: int = 128):
    """`inline(item)` for each item, yielded in input order. Each item runs
    first in this thread; one at which `inline` raises `_Miss` is handed
    whole to `submit`, which returns the future of running it again. Results
    behind a future wait for it: items are drawn until two bursts are held,
    then a burst is read before the next is drawn, so a pool has a burst of
    work queued while its results are read. An item's error surfaces in its
    turn, after those of the futures ahead of it, and no item is drawn
    after it."""
    from collections import deque

    held = deque()  # (future, None) or (None, result), in input order
    for item in items:
        try:
            result = inline(item)
        except _Miss:
            held.append((submit(item), None))
        except Exception:
            for future, _ in held:
                if future is not None:
                    future.result()
            raise
        else:
            if not held:
                yield result
                continue
            held.append((None, result))
        if len(held) == 2 * burst:
            for _ in range(burst):
                future, result = held.popleft()
                yield result if future is None else future.result()
    for future, result in held:
        yield result if future is None else future.result()


def _cmd_validate(args) -> int:
    from .quality import check
    from .records import read_records

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
    from .jsonl import jsonl_output
    from .quality import QualityTally, fix
    from .records import read_records, write_records

    tally = QualityTally()
    discarded = 0
    meta = _meta("fix", seed=args.seed)

    def fixed(discard):
        # Each discarded record's id and reasons are written as it is found.
        nonlocal discarded
        for record, warnings in read_records(args.input):
            outcome = fix(record, warnings)
            tally.add(record.provenance or "unknown", outcome.issues, discarded=not outcome.fixed)
            if outcome.fixed:
                yield outcome.record
                continue
            discarded += 1
            if discard is not None:
                discard({"id": record.id, "reasons": [i.kind.value for i in outcome.reasons]})

    with jsonl_output(args.discarded, meta) if args.discarded else nullcontext() as discard:
        kept = write_records(args.output, fixed(discard), meta=meta)
    if args.tally:
        _write_json(args.tally, {"meta": _meta("fix"), "tally": tally.to_json()})
    print(
        f"fix: kept={kept} discarded={discarded}\n{tally.format_table()}",
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
    from .records import read_records

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
    from .jsonl import line_at, read_jsonl, rereadable, write_jsonl
    from .partition import split as split_records

    # Only each line's byte span is kept, and kept lines are read back verbatim.
    with rereadable(args.input) as source, open(source, "rb") as fh:
        # A generator, so that a bad ratio is reported before any line is read.
        spans = (span for _, _, span in read_jsonl(source))
        train, val = split_records(spans, ratio=args.ratio, seed=args.seed)
        meta = _meta("split", seed=args.seed, ratio=args.ratio)
        write_jsonl(args.train_out, (line_at(fh, span) for span in train), meta)
        write_jsonl(args.val_out, (line_at(fh, span) for span in val), meta)
    print(f"split: train={len(train)} val={len(val)}", file=sys.stderr)
    return 0


def _cmd_pairs(args) -> int:
    from .corpus import IngestStats, emit_training_pair, join_qa, write_pairs
    from .quality import check
    from .records import read_records

    def gated():
        for record, warnings in read_records(args.records):
            if check(record, warnings):
                print(f"pairs: skipping {record.id}: fails quality gate", file=sys.stderr)
            else:
                yield record.id, record

    stats = IngestStats()

    def pairs():
        for record, qa in join_qa(args.qa, gated(), args.source, stats):
            if qa is None:
                print(f"pairs: skipping {record.id}: no QA source", file=sys.stderr)
            else:
                yield emit_training_pair(record, qa)

    count = write_pairs(args.output, pairs(), meta=_meta("pairs", source=args.source))
    skipped = f" skipped_lines={stats.skipped}" if stats.skipped else ""
    print(f"pairs: wrote {count}{skipped}", file=sys.stderr)
    _print_skips("pairs", stats)
    return 0


def _cmd_report(args) -> int:
    from .corpus import distribution_report
    from .records import read_records

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
    from itertools import islice

    from .detect_eval import Replies, evaluate_corpus, read_gold_documents, read_predictions
    from .jsonl import rereadable
    from .taxonomy import DEFAULT_LABELS, FAVA_LABELS

    labels = FAVA_LABELS if args.label_set == "fava" else DEFAULT_LABELS
    # Only each reply's byte span is kept; a reply is read back as its gold row comes.
    with rereadable(args.pred) as pred, open(pred, "rb") as fh:
        preds = read_predictions(pred)
        replies = Replies(preds, fh)
        report = evaluate_corpus(read_gold_documents(args.gold, labels), replies, labels, args.match_mode)
    # Unpaired gold ids score as empty replies; unpaired predictions, the
    # ids left in the index, are ignored.
    print(
        f"eval-detect: {_ids_with_examples(replies.missed, replies.first_missed, 'gold ids without a prediction')}; "
        f"{_ids_with_examples(len(preds), list(islice(preds, 5)), 'prediction ids without gold')}",
        file=sys.stderr,
    )
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


def _ids_with_examples(count: int, examples: list[str], what: str) -> str:
    text = f"{count} {what}"
    return f"{text} (e.g. {', '.join(examples)})" if count else text


def _cmd_eval_edit(args) -> int:
    from .edit_eval import containment_judge, llm_judge, read_editing_rows, score_corpus
    from .jsonl import open_output, rereadable

    with ExitStack() as held:
        source, judge = args.input, containment_judge
        if args.judge == "llm":
            if args.profile is None:
                raise ValueError("--judge llm needs --profile")
            profiles = {p.name: p for p in _client_profiles(_load_ini(args.config), args.config)}
            if args.profile not in profiles:
                defined = ", ".join(profiles) or "none"
                raise ValueError(f"unknown client profile {args.profile!r} (the config defines: {defined})")
            source = held.enter_context(rereadable(args.input))
            # Every row is checked before the first judge call is paid for.
            for _ in read_editing_rows(source):
                pass
            from .llm_client import LlmClient

            judge = llm_judge(held.enter_context(closing(LlmClient(profiles[args.profile]))))
        meta = _meta("eval-edit", judge=args.judge)
        fh = held.enter_context(open_output(args.output or None))
        # The bytes `_write_json` gives the payload, each record written as
        # it is scored.
        fh.write('{\n  "meta": ' + json.dumps(meta, ensure_ascii=False, indent=2).replace("\n", "\n  ")
                 + ',\n  "records": [')
        records = _RecordWriter(fh)
        _, mean, failed = score_corpus(read_editing_rows(source), judge, records)
        if failed and failed == records.units:
            raise ValueError(f"the {args.judge} judge failed on all {records.units} units")
        fh.write(("\n  ]" if records.count else "]")
                 + f',\n  "mean_score": {round(mean, 4)!r},\n  "mean_pct": {round(100 * mean, 1)!r}\n}}\n')
    if records.empty:
        print(f"eval-edit: {records.empty} rows have no sentence and score 0.0", file=sys.stderr)
    # One table-style row: judge label, percentage score, judge failures.
    print(f"{args.judge:<16}{100 * mean:6.1f}  failed {failed}/{records.units} units", file=sys.stderr)
    return 0


class _RecordWriter:
    """The `results` of `score_corpus` for `eval-edit`: each record is
    written to `fh` as it comes, as an element of the payload's "records"
    list laid out as `_write_json` lays it out; only counts are kept:
    records, units, and records with no unit."""

    def __init__(self, fh) -> None:
        self.fh, self.count, self.units, self.empty = fh, 0, 0, 0

    def append(self, record: dict) -> None:
        text = json.dumps(record, ensure_ascii=False, indent=2).replace("\n", "\n    ")
        self.fh.write((",\n    " if self.count else "\n    ") + text)
        self.count += 1
        self.units += record["total"]
        self.empty += not record["total"]


if __name__ == "__main__":
    sys.exit(main())
