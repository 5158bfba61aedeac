"""The error taxonomy: each kind of error tag declared once.

FRED starts from a user-defined, domain-specific error taxonomy. This
module declares the six kinds the package inserts, gates and scores, one
`KindRow` each, and FAVA's label set (Mishra et al. 2024), which
`eval-detect --label-set fava` scores. The markup's tag names, the report's
row titles, the scorer's columns, the prompt definitions and the default
insertion weights are all derived from these declarations.

Two orders are kept, each written once:

* `ErrorType`'s member order, temporal first, is the order in which
  `build_insertion_prompt` lists the planned kinds; replay cache keys hash
  that prompt, so it must not move.
* `KINDS`'s row order, numerical first, is the display order: the
  detection prompt's definitions, the report's rows, the scorer's columns
  and the order in which `plan_errors` samples the default weights.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class ErrorType(Enum):
    """The six error kinds; each is also its tag's name."""

    TEMPORAL = "temporal"
    NUMERICAL = "numerical"
    ENTITY = "entity"
    RELATION = "relation"
    CONTRADICTORY = "contradictory"
    UNVERIFIABLE = "unverifiable"

    @property
    def row(self) -> KindRow:
        return _ROW_OF[self]


class KindRow(NamedTuple):
    """One kind of the taxonomy. An editable kind's tag wraps a
    ``<delete>``/``<mark>`` pair; any other kind's tag wraps a whole
    inserted statement. `default_weight` is the kind's target share of
    inserted errors, in percent."""

    kind: ErrorType
    editable: bool
    default_weight: float
    definition: str


KINDS = (
    KindRow(ErrorType.NUMERICAL, True, 20.0,
        "numerical errors (<numerical>): a wrong quantity, percentage, ratio, "
        "total or other numerical value, e.g. from a miscalculation, misread "
        "figure, bad rounding, or mixed-up units."),
    KindRow(ErrorType.TEMPORAL, True, 30.8,
        "temporal errors (<temporal>): a wrong date, year, quarter, fiscal "
        "period or event ordering, typically figures quoted from the wrong "
        "time period."),
    KindRow(ErrorType.ENTITY, True, 13.6,
        "entity errors (<entity>): a company, organization, location, product "
        "or financial instrument referenced incorrectly; usually a short noun "
        "phrase of 1-3 words."),
    KindRow(ErrorType.RELATION, True, 7.7,
        "relational errors (<relation>): a misstated relationship between "
        "entities or financial concepts (ownership, causality, comparison, "
        "direction of change); often a verb flipped to its opposite."),
    KindRow(ErrorType.CONTRADICTORY, False, 18.6,
        "contradictory sentence errors (<contradictory>): an entire sentence "
        "that conflicts with the given reference or with another part of the "
        "response and can be proven false from it."),
    KindRow(ErrorType.UNVERIFIABLE, False, 9.2,
        "unverifiable sentences (<unverifiable>): a sentence that cannot be "
        "confirmed or denied from the reference or any authoritative source; "
        "speculative, vague or invented content."),
)

_ROW_OF = {row.kind: row for row in KINDS}

# The labels `eval-detect` scores by default, in display order.
DEFAULT_LABELS = tuple(row.kind.value for row in KINDS)

# FAVA's labels in its column order. Four are kinds of this taxonomy; the
# other two are statement-level tags that `parse` knows only under this
# label set, as it knows any label that is no kind, and that never occur
# in documents this package emits.
FAVA_LABELS = (
    ErrorType.ENTITY.value, ErrorType.RELATION.value, ErrorType.CONTRADICTORY.value,
    "invented", "subjective", ErrorType.UNVERIFIABLE.value,
)
