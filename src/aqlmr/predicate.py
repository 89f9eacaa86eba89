"""Value predicates: conjunctions of comparisons against numeric constants.

A comparison is exact in the cells' type. numpy would round an int64 cell
and a float constant, or a float64 cell and an int constant float64 cannot
hold, to float64 first, so such a constant is first restated as a bound of
the cells' own type that keeps the same cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_ARRAY_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "=": np.equal,
    "<>": np.not_equal,
}
_INT64 = np.iinfo(np.int64)


def _in_type(op: str, constant: int | float, dtype: np.dtype) -> tuple[str, int | float] | bool:
    """``cell op constant`` for every cell of ``dtype``, as an (op, bound)
    that numpy compares exactly in that type, or as the one answer every
    cell gets."""
    if dtype.kind == "i":
        if isinstance(constant, float):
            if op in ("=", "<>") and not constant.is_integer():
                return op == "<>"
            # an integer is > c or <= c as it is for floor(c), and < c or
            # >= c as it is for ceil(c)
            constant = (math.floor if op in (">", "<=") else math.ceil)(constant)
        if not _INT64.min <= constant <= _INT64.max:  # above or below every cell
            return op in (("<", "<=", "<>") if constant > 0 else (">", ">=", "<>"))
        return op, constant
    if isinstance(constant, int) and float(constant) != constant:
        if op in ("=", "<>"):
            return op == "<>"
        # it lies strictly between two adjacent floats, so a float cell is
        # above it when above the lower one, below it when below the upper
        near = float(constant)
        below = near if near < constant else math.nextafter(near, -math.inf)
        above = near if near > constant else math.nextafter(near, math.inf)
        return (">", below) if op in (">", ">=") else ("<", above)
    return op, float(constant)


@dataclass(frozen=True)
class Comparison:
    attribute: str
    op: str
    constant: int | float

    def __post_init__(self) -> None:
        if self.op not in _ARRAY_OPS:
            raise ValueError(f"unknown comparator {self.op!r}")

    def mask(self, values: np.ndarray) -> np.ndarray:
        test = _in_type(self.op, self.constant, values.dtype)
        if isinstance(test, bool):
            return np.full(values.shape, test)
        return _ARRAY_OPS[test[0]](values, test[1])

    def render(self) -> str:
        return f"{self.attribute} {self.op} {self.constant!r}"


@dataclass(frozen=True)
class ValuePredicate:
    """AND of one or more comparisons, all against the same attribute."""

    conjuncts: tuple[Comparison, ...]

    def __post_init__(self) -> None:
        if not self.conjuncts:
            raise ValueError("a value predicate needs at least one comparison")

    def mask(self, values: np.ndarray) -> np.ndarray:
        out = self.conjuncts[0].mask(values)
        for c in self.conjuncts[1:]:
            out &= c.mask(values)
        return out

    def render(self) -> str:
        return " and ".join(c.render() for c in self.conjuncts)
