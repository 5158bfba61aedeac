"""Seeded inputs for the benchmark: a financial QA corpus, model replies
for the detection scorer, and reply variants for the replayed LLM inserter.

Everything here is plain Python with no import of `fintag`, so the inputs
depend only on the seed and on this file, never on test fixtures or on the
code being measured. The same seed gives the same bytes.

Passage shapes start from the synthetic generator the unit tests use and
add three that it lacks: integers followed directly by a comma ("1,000, up
from 900,"), long passages whose plan reaches `max_errors`, and references
made of several documents including table rows. A share of responses is
not grounded in its evidence, so the grounding filter rejects some.

Where a share has no source in the repository it is an unverified
assumption, named as such at its definition and in README.md.
"""

from __future__ import annotations

import json
import random
import re

ENTITIES = (
    "Meridian Holdings", "Crestline Capital", "Harbor Financial",
    "Pacific Bancorp", "Summit Industrial", "Northbrook Partners",
    "Atlas Energy", "Beacon Insurance Group",
)
RELATIONS = ("increased", "decreased", "rose", "fell", "improved", "declined",
             "climbed", "dropped")
MONTHS = ("January", "February", "March", "April", "June", "July",
          "August", "September", "October", "November", "December")
QUARTERS = ("first", "second", "third", "fourth")

# InserterConfig's defaults: a plan has one error per TOKENS_PER_ERROR
# whitespace tokens, at most MAX_ERRORS. A long passage grows until its
# plan reaches MAX_ERRORS.
TOKENS_PER_ERROR = 60
MAX_ERRORS = 6

# Unverified assumptions; no corpus statistic in the repository gives
# these rates. One passage in LONG_EVERY is long and one record in
# UNGROUNDED_EVERY has evidence that misses a figure of its response: rare
# enough that passages of the unit tests' length stay the bulk of the
# work, frequent enough that every seed runs the max_errors clamp and the
# grounding filter's reject path. Fixed strides keep the work per record
# the same for every seed; the seed varies the content.
LONG_EVERY = 12
UNGROUNDED_EVERY = 10

EDITABLE = ("numerical", "temporal", "entity", "relation")
STATEMENTS = ("contradictory", "unverifiable")


def grounded(index: int) -> bool:
    """Whether make_corpus builds row `index` with evidence for every
    figure of its response."""
    return index % UNGROUNDED_EVERY != UNGROUNDED_EVERY - 1


def _amount(rng: random.Random) -> str:
    style = rng.randrange(3)
    if style == 0:
        return f"{rng.uniform(1, 999):.1f}"
    if style == 1:
        return f"{rng.randint(1000, 99999):,}"
    return f"{rng.uniform(0.5, 99):.2f}"


def _sentence(rng: random.Random, e1: str, e2: str, y1: int, y2: int, month: str) -> str:
    """One sentence, its shape drawn uniformly. Shapes 0 to 5 are the unit
    tests' generator pool. Shape 6 puts an integer directly before a
    comma, grouped and not, which that pool never does; it takes the same
    share as each of the others, an unverified assumption."""
    shape = rng.randrange(7)
    if shape == 0:
        return (f"Net income attributable to {e1} was ${_amount(rng)} million, "
                f"compared with ${_amount(rng)} million in {y2}.")
    if shape == 1:
        return (f"Operating expenses {rng.choice(RELATIONS)} by {rng.uniform(1, 40):.1f}% "
                f"during the {rng.choice(QUARTERS)} quarter of {y1}.")
    if shape == 2:
        return f"The total amount outstanding in {y1} was ${rng.randint(100, 9999):,} million."
    if shape == 3:
        return (f"{e2} holds cash and equivalents of ${_amount(rng)} million as of "
                f"{month} {rng.randint(1, 28)}, {y1}.")
    if shape == 4:
        return f"Gross margin {rng.choice(RELATIONS)} to {rng.uniform(10, 60):.1f}% in fiscal {y1}."
    if shape == 5:
        return f"Interest expense on the notes due {month} {y1} was ${_amount(rng)} million."
    return (f"Sales were {rng.randint(1000, 99999):,}, up from {rng.randint(100, 999)}, "
            f"in fiscal {y2}.")


def make_passage(rng: random.Random, long: bool = False) -> str:
    """A clean multi-sentence financial passage with sites for every error
    kind: entities, numbers, dates, years and relation verbs. A short one
    has 2 to 5 sentences after the first, as in the unit tests; a long one
    has enough tokens for a plan of MAX_ERRORS errors."""
    e1 = rng.choice(ENTITIES)
    e2 = rng.choice([e for e in ENTITIES if e != e1])
    y1 = rng.randint(2008, 2024)
    y2 = y1 - rng.randint(1, 4)
    month = rng.choice(MONTHS)
    sents = [
        f"In {month} {y1}, {e1} reported revenue of ${_amount(rng)} million, "
        f"which {rng.choice(RELATIONS)} from ${_amount(rng)} million in {y2}."
    ]
    if long:
        while sum(len(s.split()) for s in sents) < TOKENS_PER_ERROR * MAX_ERRORS:
            sents.append(_sentence(rng, e1, e2, y1, y2, month))
    else:
        sents.extend(_sentence(rng, e1, e2, y1, y2, month) for _ in range(rng.randint(2, 5)))
    parts = [sents[0]]
    for sent in sents[1:]:
        parts.append("\n" if rng.random() < 0.1 else " ")
        parts.append(sent)
    return "".join(parts)


_FIGURE_RE = re.compile(r"\d[\d,]*\.\d+")


def _table(rng: random.Random, y1: int) -> str:
    rows = ["| Fiscal year | Revenue ($M) | Net income ($M) | Margin |", "|---|---|---|---|"]
    for year in range(y1 - rng.randint(2, 5), y1 + 1):
        rows.append(
            f"| {year} | {rng.randint(1000, 99999):,} | {rng.uniform(1, 999):.1f} "
            f"| {rng.uniform(5, 60):.1f}% |"
        )
    return "\n".join(rows)


def make_documents(rng: random.Random, passage: str, supported: bool) -> list[str]:
    """Evidence for a passage: a narrative document, a table and the unit
    tests' entity note. An unsupported passage's narrative has one decimal
    figure changed."""
    narrative = passage
    if not supported:
        figures = list(_FIGURE_RE.finditer(passage))
        if figures:
            m = rng.choice(figures)
            narrative = passage[: m.start()] + m.group() + "1" + passage[m.end():]
    years = [int(y) for y in re.findall(r"\b20\d\d\b", passage)] or [2020]
    first, second = rng.sample(ENTITIES, 2)
    note = (f"{first} and {second} are referenced elsewhere in the same filing. "
            "Additional table rows omitted.")
    return [narrative, _table(rng, max(years)), note]


def make_corpus(seed: int, n: int) -> list[dict]:
    """`n` QA rows (id/documents/question/response) for one seed."""
    rng = random.Random(f"corpus:{seed}")
    rows = []
    for i in range(n):
        passage = make_passage(rng, long=i % LONG_EVERY == LONG_EVERY - 1)
        rows.append({
            "id": f"s{seed}-{i:05d}",
            "documents": make_documents(rng, passage, grounded(i)),
            "question": f"What did the filing report for fiscal {rng.randint(2008, 2024)}?",
            "response": passage,
        })
    return rows


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


# --- replies in target-output form (detection scoring) ----------------------

_TARGET_EDIT_RE = re.compile(
    r"<(numerical|temporal|entity|relation)><mark>(.*?)</mark><delete>(.*?)</delete></\1>", re.S
)
_TAGGED_EDIT_RE = re.compile(
    r"<(numerical|temporal|entity|relation)><delete>(.*?)</delete><mark>(.*?)</mark></\1>", re.S
)
_STATEMENT_RE = re.compile(r"<(contradictory|unverifiable)>(.*?)</\1>", re.S)


def _untag_target(m: re.Match) -> str:
    return m.group(3) if m.re is _TARGET_EDIT_RE else m.group(2)


def _target_tags(text: str) -> list[re.Match]:
    return list(_TARGET_EDIT_RE.finditer(text)) + list(_STATEMENT_RE.finditer(text))


def _swap_kind(text: str, m: re.Match, rng: random.Random) -> str:
    name = m.group(1)
    pool = EDITABLE if name in EDITABLE else STATEMENTS
    new = rng.choice([k for k in pool if k != name])
    inner = m.group()[len(name) + 2: -(len(name) + 3)]
    return text[: m.start()] + f"<{new}>{inner}</{new}>" + text[m.end():]


# The detector reply variants, in equal shares: an unverified assumption,
# since no source gives their frequency in real detector output.
PREDICTION_MIX = ("exact", "fenced", "enveloped", "kind_swap", "dropped_tag", "tag_free",
                  "malformed", "missing")


def make_prediction(target: str, rng: random.Random) -> str | None:
    """One simulated detector reply for a gold target, or None for a
    missing prediction. Variants fall back to an exact copy where the
    target has no tag to act on."""
    variant = rng.choice(PREDICTION_MIX)
    tags = _target_tags(target)
    if variant == "missing":
        return None
    if variant == "fenced":
        return "```\n" + target + "\n```"
    if variant == "enveloped":
        return json.dumps({"Edited": target}, ensure_ascii=False)
    if variant == "tag_free":
        return _STATEMENT_RE.sub(lambda m: m.group(2), _TARGET_EDIT_RE.sub(_untag_target, target))
    if not tags:
        return target
    m = rng.choice(tags)
    if variant == "kind_swap":
        return _swap_kind(target, m, rng)
    if variant == "dropped_tag":
        return target[: m.start()] + _untag_target(m) + target[m.end():]
    if variant == "malformed":
        cut = target.rfind("</", m.start(), m.end())
        return target[:cut] + target[cut:].replace(">", "", 1)
    return target


# Edited passages are the original or the erroneous rendering, half each
# (an unverified assumption), so the judge meets both supported and
# unsupported sentences.
EDIT_MIX = ("original", "erroneous")


def make_edit_row(row_id: str, original: str, erroneous: str, reference: str,
                  rng: random.Random) -> dict:
    """An `eval-edit` row whose reference is the QA evidence."""
    edited = {"original": original, "erroneous": erroneous}[rng.choice(EDIT_MIX)]
    return {"id": row_id, "edited": edited, "reference": reference}


# --- replies in tagged-passage form (replayed LLM insertion) ----------------

# First replies are plain or one of the four defects the gate repairs or
# retries on, in equal shares: an unverified assumption, since no source
# gives how often a real model's replies carry each defect.
STUB_MIX = ("plain", "fenced", "mistyped", "identical_span", "malformed")


def make_stub_reply(tagged: str, attempt: int, rng: random.Random) -> str:
    """A model reply carrying a tagged passage. The first attempt is
    sometimes fenced, mistyped, identical-span or malformed, so the gate's
    repair and retry paths run; retries are always well formed."""
    variant = "plain" if attempt else rng.choice(STUB_MIX)
    edits = list(_TAGGED_EDIT_RE.finditer(tagged))
    if variant == "fenced":
        return "```\n" + tagged + "\n```"
    if variant == "malformed":
        cut = tagged.find("</mark>")
        if cut >= 0:
            return tagged[:cut] + tagged[cut + len("</mark>"):]
    if edits and variant in ("mistyped", "identical_span"):
        m = rng.choice(edits)
        if variant == "mistyped":
            return _swap_kind(tagged, m, rng)
        name, original = m.group(1), m.group(2)
        same = f"<{name}><delete>{original}</delete><mark>{original}</mark></{name}>"
        return tagged[: m.start()] + same + tagged[m.end():]
    return tagged
