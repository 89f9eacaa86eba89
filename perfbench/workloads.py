"""The benchmark's workloads: array sizes, seeded data and seeded query lists.

Every query is built from structured parameters, so the same parameters give
both the query text the program parses and the arguments of the independent
numpy reference (``tests/oracles.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

AGGREGATES = ("sum", "avg", "min", "max", "count", "stddev", "median")
HOLISTIC = {"median"}  # planned naive by mode "auto"
SHAPES = ("grid", "sliding", "hierarchical", "circular")


@dataclass(frozen=True)
class QuerySpec:
    """One query over a 2-d array with dimensions x and y."""

    array: str
    agg: str
    kind: str  # grid | sliding | hierarchical | circular
    lo: tuple[int, int]
    hi: tuple[int, int]
    whole: bool = False  # query the whole array instead of a between box
    partitions: tuple[int, int] = (1, 1)
    preceding: tuple[int, int] = (0, 0)
    following: tuple[int, int] = (0, 0)
    stride: int = 1
    radius0: int = 0
    step: int = 1
    where: tuple[tuple[str, float], ...] = ()
    mode: str = "auto"
    workers: int = 1

    @property
    def text(self) -> str:
        if self.whole:
            source = self.array
        else:
            source = "between ({}, {}, {}, {}, {})".format(self.array, *self.lo, *self.hi)
        where = ""
        if self.where:
            where = " where " + " and ".join(f"val {op} {c!r}" for op, c in self.where)
        if self.kind == "grid":
            shape = "grid as (partition by x {}, y {})".format(*self.partitions)
        elif self.kind == "sliding":
            dims = ", ".join(
                f"{d} {p} preceding and {f} following"
                for d, p, f in zip("xy", self.preceding, self.following)
            )
            stride = f" stride {self.stride}" if self.stride != 1 else ""
            shape = f"fixed window as (partition by {dims}{stride})"
        else:
            shape = f"{self.kind} as (radius {self.radius0} step {self.step})"
        return f"select {self.agg}(val) from {source}{where} {shape}"

    @property
    def box_cells(self) -> int:
        return (self.hi[0] - self.lo[0] + 1) * (self.hi[1] - self.lo[1] + 1)

    def oracle_kwargs(self) -> dict:
        return {
            "kind": self.kind,
            "partitions": self.partitions,
            "preceding": self.preceding,
            "following": self.following,
            "stride": self.stride,
            "radius0": self.radius0,
            "step": self.step,
            "predicate": list(self.where) or None,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    array: str
    extent: int  # cells per side of the square float64 array
    chunk: int  # chunk side
    make_queries: Callable[["Workload", random.Random], list[QuerySpec]]
    # exact counters every run must reproduce (full-size workloads only)
    pins: dict[str, int] = field(default_factory=dict)

    def queries(self, seed: int) -> list[QuerySpec]:
        return self.make_queries(self, random.Random(f"{self.name}:{seed}"))

    def values(self, seed: int) -> np.ndarray:
        """The workload's cells: uniform floats in [0, 1) from the seed."""
        return np.random.default_rng(seed).random((self.extent, self.extent))

    def whole(self, **params) -> QuerySpec:
        top = self.extent - 1
        return QuerySpec(self.array, lo=(0, 0), hi=(top, top), whole=True, **params)


def _scan_grid(w: Workload, rng: random.Random) -> list[QuerySpec]:
    return [
        w.whole(
            agg="sum",
            kind="grid",
            partitions=(32, 32),
            where=((">=", 0.25), ("<", 0.75)),
            workers=2,
        )
    ]


def _window_overlap(w: Workload, rng: random.Random) -> list[QuerySpec]:
    return [
        w.whole(
            agg="avg",
            kind="sliding",
            preceding=(1, 1),
            following=(1, 1),
            mode="optimized",
        )
    ]


def _ring_median(w: Workload, rng: random.Random) -> list[QuerySpec]:
    return [w.whole(agg="median", kind="hierarchical", radius0=2, step=3)]


# Per-repeat parameters of the subbox_mix queries. Each (shape, aggregate,
# where) combination runs once with each entry, so the seed moves only box
# positions, the query order and the data, and the list's total work stays
# the same from seed to seed.
SUBBOX_SIDES = ((8, 32), (20, 20), (32, 16), (12, 24))
SUBBOX_GRIDS = ((2, 8), (4, 4), (8, 3), (5, 6))
SUBBOX_WINDOWS = (  # preceding, following, stride
    ((1, 1), (1, 1), 1),
    ((0, 2), (2, 0), 1),
    ((2, 1), (0, 1), 2),
    ((1, 0), (1, 2), 2),
)
SUBBOX_RINGS = ((0, 1), (1, 2), (2, 3), (3, 4))  # radius, step
SUBBOX_WHERES = ((0.25, 0.75), (0.1, 0.5), (0.4, 0.8), (0.0, 0.6))


def _subbox_mix(w: Workload, rng: random.Random) -> list[QuerySpec]:
    """Small between sub-boxes at seeded positions: every shape x aggregate
    x where combination once per entry of the SUBBOX_* tables, in seeded
    order."""
    out = []
    for kind in SHAPES:
        for agg in AGGREGATES:
            for filtered in (False, True):
                for r, sides in enumerate(SUBBOX_SIDES):
                    lo = tuple(rng.randint(0, w.extent - s) for s in sides)
                    hi = tuple(l + s - 1 for l, s in zip(lo, sides))
                    params: dict = {}
                    if kind == "grid":
                        params["partitions"] = SUBBOX_GRIDS[r]
                    elif kind == "sliding":
                        params["preceding"], params["following"], params["stride"] = (
                            SUBBOX_WINDOWS[r]
                        )
                    else:
                        params["radius0"], params["step"] = SUBBOX_RINGS[r]
                    if filtered:
                        low, high = SUBBOX_WHERES[r]
                        params["where"] = ((">=", low), ("<", high))
                    out.append(QuerySpec(w.array, agg=agg, kind=kind, lo=lo, hi=hi, **params))
    rng.shuffle(out)
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan_grid",
            "S",
            1024,
            64,
            _scan_grid,
            pins={"map_output_records": 1024, "bytes_shuffled": 24576, "bytes_read": 8388608},
        ),
        Workload(
            "window_overlap",
            "W",
            512,
            64,
            _window_overlap,
            pins={
                "map_output_records": 276676,
                "bytes_shuffled": 6640224,
                "bytes_read": 2097152,
            },
        ),
        Workload(
            "ring_median",
            "R",
            256,
            32,
            _ring_median,
            pins={
                "map_output_records": 975802,
                "bytes_shuffled": 15612832,
                "bytes_read": 524288,
            },
        ),
        Workload("subbox_mix", "M", 2048, 64, _subbox_mix),
    )
}
