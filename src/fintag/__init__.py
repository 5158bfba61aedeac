"""fintag: error-tag markup toolkit for financial QA.

Parses and renders the inline error-tag markup, synthesizes tagged
training data via controlled error insertion, enforces a four-criteria
quality gate, and scores detection and editing outputs with per-type
metrics.

Importing the package loads no submodule: each public name below is
imported from its home submodule on first use (PEP 562), so a process
pays only for the layers it touches.
"""

import importlib

__version__ = "0.1.0"


class FintagError(Exception):
    """Base of the package's own operational errors (`ClientError`,
    `InsertionFailure`, `MissingExemplar`), which a CLI stage reports with
    exit code 1."""


class Validated:
    """Mixin, placed before the `NamedTuple` base, of the value types whose
    constructor checks or canonicalizes their fields (`TaggedDocument`,
    `InsertionPlan`, `InserterConfig`, `FactScore`, `ClientProfile`), so
    that `_replace` and `_make` build through that constructor too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Tally:
    """Base of the package's mutable counters (`IngestStats`, `KindCounts`,
    `BinaryCounts`, `DetectionReport`): a repr and an equality over the
    `__slots__` of the class and its bases, in that order."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name for klass in reversed(cls.__mro__) for name in klass.__dict__.get("__slots__", ())
        )

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._fields)

    __hash__ = None


# Home submodule -> the public names it exports through the package.
_EXPORTS = {
    "taxonomy": ("ErrorType",),
    "markup": (
        "Edit", "Form", "ParseError", "ParseResult", "ParseWarning",
        "Segment", "Statement", "TaggedDocument", "TagSpan", "Text",
        "derive_erroneous", "derive_original", "parse", "serialize", "to_target_output",
    ),
    "records": ("TaggedRecord",),
    "quality": (
        "FixOutcome", "IssueKind", "QualityIssue", "QualityTally",
        "check", "classify_span_type", "fix",
    ),
    "insertion": (
        "InserterConfig", "InsertionFailure", "InsertionPlan", "InsertionResult",
        "InsertionSkip", "build_insertion_prompt", "insert_llm", "insert_rule_based",
        "plan_errors",
    ),
    "corpus": (
        "DistributionReport", "QARecord", "TrainingPair", "distribution_report",
        "emit_training_pair", "filter_grounded", "ingest",
    ),
    "partition": ("split",),
    "detect_eval": (
        "DetectionReport", "MatchSet", "align", "evaluate_corpus", "f1_from_pr",
        "parse_prediction", "score",
    ),
    "edit_eval": (
        "FactScore", "JudgeVerdict", "VerdictLabel", "containment_judge",
        "score_editing", "split_facts",
    ),
    "llm_client": (
        "ClientError", "ClientProfile", "CompletionReply", "CompletionRequest",
        "LlmClient",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"jsonl", "patterns", "prompts"}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
