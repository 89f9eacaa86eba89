"""Value predicates: conjunctions of comparisons against numeric constants."""

from __future__ import annotations

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


@dataclass(frozen=True)
class Comparison:
    attribute: str
    op: str
    constant: int | float

    def __post_init__(self) -> None:
        if self.op not in _ARRAY_OPS:
            raise ValueError(f"unknown comparator {self.op!r}")

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
        out = _ARRAY_OPS[self.conjuncts[0].op](values, self.conjuncts[0].constant)
        for c in self.conjuncts[1:]:
            out &= _ARRAY_OPS[c.op](values, c.constant)
        return out

    def render(self) -> str:
        return " and ".join(c.render() for c in self.conjuncts)
