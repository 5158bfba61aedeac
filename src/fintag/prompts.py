"""Prompt templates shared by the corpus builder, the LLM inserter, and the
baseline evaluation path. The built-in few-shot exemplar pool, which
fills the insertion template's `{exemplars}` unless `insert --exemplars`
names a file, is `insertion.DEFAULT_EXEMPLARS`.

The detection template is the structured prompt wrapped around every
(reference, erroneous passage) pair, for training pairs and baseline
evaluation alike; replies are expected in a one-key JSON envelope
``{"Edited": ...}``, which `strip_reply_envelope` unwraps.
"""

from __future__ import annotations

import json
import re
from typing import Sequence

from .taxonomy import KINDS

_DEFINITION_BLOCK = "\n".join(f"{i}. {row.definition}" for i, row in enumerate(KINDS, start=1))

_WORKED_EXAMPLE = """\
Passage: Halcyon Systems' revenue reached $1.7 billion in Q3 2024, a 14% \
increase compared to the same quarter in 2022. The company posted a net \
income of $310 million, up from $280 million the year before. Halcyon \
credited the improvement to strong demand in its hardware division. \
<unverifiable>Insiders expect the division to be spun off within a year.\
</unverifiable>

Reference: In Q3 2024, Halcyon Systems reported revenue of $2.7 billion, a \
9% increase over the same quarter in 2023. Net income was $310 million, up \
from $280 million in the previous year. The company credited the growth to \
strong demand in its cloud services division.

Edited: Halcyon Systems' revenue reached <numerical><delete>$1.7</delete>\
<mark>$2.7</mark></numerical> billion in Q3 2024, a <numerical><delete>14%\
</delete><mark>9%</mark></numerical> increase compared to the same quarter \
in <temporal><delete>2022</delete><mark>2023</mark></temporal>. The company \
posted a net income of $310 million, up from $280 million the year before. \
Halcyon credited the improvement to strong demand in its <entity><delete>\
hardware division</delete><mark>cloud services division</mark></entity>. \
<unverifiable>Insiders expect the division to be spun off within a year.\
</unverifiable>"""

DETECTION_PROMPT_TEMPLATE = """\
Given a passage with factual errors, identify any <numerical>, <temporal>, \
<entity>, <relation>, <contradictory>, or <unverifiable> errors in the \
passage and add edits for <numerical>, <temporal>, <entity> and <relation> \
errors by inserting additional <mark></mark> or <delete></delete> tags to \
mark and delete. If there are no errors, return the passage with no tags. \
Any changes to the original passage should be marked in <> tags. Below are \
the error definitions followed by an example of what you need to follow.

Definitions:

{definitions}

Follow the given example exactly; your task is to create the edited \
completion with error tags <>:

{example}

Now detect errors and include edits in the following passage like done in \
the example above. Include error tags <> for anything you change in the \
original passage.

Passage: {passage}
Reference: {reference}

Return valid JSON in the following format:
{{Edited: paragraph with inserted errors}}"""


def build_detection_prompt(passage: str, reference: str) -> str:
    """The structured prompt pairing a reference with an erroneous passage."""
    return DETECTION_PROMPT_TEMPLATE.format(
        definitions=_DEFINITION_BLOCK, example=_WORKED_EXAMPLE,
        passage=passage, reference=reference,
    )


_PASSAGE_MARKER = "\nPassage: "
_REFERENCE_MARKER = "\nReference: "


def passage_of_prompt(prompt: str) -> str:
    """Extract the erroneous passage embedded in a detection prompt."""
    start = prompt.rfind(_PASSAGE_MARKER)
    if start < 0:
        raise ValueError("no passage slot found in prompt")
    start += len(_PASSAGE_MARKER)
    end = prompt.find(_REFERENCE_MARKER, start)
    if end < 0:
        raise ValueError("no reference slot found in prompt")
    return prompt[start:end]


INSERTION_SYSTEM_PROMPT = (
    "You corrupt factually correct financial passages by inserting tagged "
    "errors, for building error-detection training data. Follow the tagging "
    "grammar exactly and change nothing outside your tags."
)

INSERTION_PROMPT_TEMPLATE = """\
Insert exactly {count} factual error(s) into the passage below, of these \
types: {kinds}. Wrap each edited span as \
<type><delete>original text</delete><mark>erroneous text</mark></type> for \
numerical, temporal, entity and relation errors, and wrap each wholly \
inserted sentence as <contradictory>...</contradictory> or \
<unverifiable>...</unverifiable>. Apart from your tagged insertions, the \
passage must remain character-for-character unchanged. Do not nest tags.

Definitions:

{definitions}

Examples:

{exemplars}

Reference context:

{context}

Passage: {passage}

Return only the tagged passage."""


_FENCE_OPEN_RE = re.compile(r"^```[A-Za-z0-9_-]*[ \t]*\n?")
_FENCE_CLOSE_RE = re.compile(r"\n?```\s*$")


def strip_reply_envelope(raw: str, keys: Sequence[str] = ("Edited",)) -> str:
    """Unwrap a model reply: optional code fences, then an optional one-key
    JSON envelope ({"Edited": ...}); tolerates single-quoted and bare keys
    and unescaped content. When no envelope is recognized, returns the
    reply stripped of surrounding whitespace (and of its fences)."""
    s = raw.strip()
    if s.startswith("```"):
        s = _FENCE_CLOSE_RE.sub("", _FENCE_OPEN_RE.sub("", s)).strip()
    if s.startswith("{") and s.endswith("}"):
        try:
            obj = json.loads(s)
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict):
            for key in keys:
                if key in obj and isinstance(obj[key], str):
                    return obj[key]
        for key in keys:
            m = re.match(
                rf"^\{{\s*['\"]?{re.escape(key)}['\"]?\s*:\s*(.*?)\s*\}}$",
                s,
                re.DOTALL,
            )
            if m:
                inner = m.group(1)
                if len(inner) >= 2 and inner[0] in "'\"" and inner[-1] == inner[0]:
                    inner = inner[1:-1]
                return inner
    return s
