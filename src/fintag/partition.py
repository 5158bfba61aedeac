"""The deterministic train/validation split. It imports only `random` and
`fractions`, so the `split` stage loads nothing else of the package but
the JSONL envelope."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable


def split(records: Iterable, ratio: float = 0.95, seed: int = 0) -> tuple[list, list]:
    """Deterministic shuffled split into (train, validation).

    The validation size is floor(n * (1 - ratio)), so the partition differs
    from the exact ratio by less than one record; disjoint and exhaustive.
    """
    if not 0 < ratio < 1:
        raise ValueError("ratio must be strictly between 0 and 1")
    items = list(records)
    rng = random.Random(f"split:{seed}")
    order = list(range(len(items)))
    rng.shuffle(order)
    n_val = int(Fraction(len(items)) * (1 - Fraction(str(ratio))))
    shuffled = [items[i] for i in order]
    cut = len(items) - n_val
    return shuffled[:cut], shuffled[cut:]
