"""Independent reference results for grouped aggregation.

Group membership and aggregate values are recomputed here from first
principles with numpy slicing and boolean masks. Nothing is shared with the
package's grouping, aggregation, or engine code, so these values can stand
as the expected side of equivalence checks.
"""

from itertools import product
from math import ceil

import numpy as np

_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "=": np.equal,
    "<>": np.not_equal,
}


def aggregate_direct(name: str, vals: np.ndarray):
    """Aggregate a flat value array with the obvious closed-form recipe.
    Integer sums and means use Python ints, which do not wrap at 2**63."""
    name = name.lower()
    if name == "count":
        return int(vals.size)
    if vals.size == 0:
        return None
    if name == "sum":
        return sum(vals.tolist()) if vals.dtype.kind == "i" else float(vals.sum())
    if name == "avg":
        return sum(vals.tolist()) / vals.size if vals.dtype.kind == "i" else float(vals.mean())
    if name == "min":
        v = vals.min()
        return int(v) if vals.dtype.kind == "i" else float(v)
    if name == "max":
        v = vals.max()
        return int(v) if vals.dtype.kind == "i" else float(v)
    if name == "stddev":
        return float(vals.astype(np.float64).std())
    if name == "geomean":
        return float(np.exp(np.log(vals.astype(np.float64)).mean()))
    if name == "median":
        return float(np.median(vals))
    raise ValueError(f"no oracle for aggregate {name!r}")


def apply_predicate(vals: np.ndarray, conjuncts) -> np.ndarray:
    """conjuncts: iterable of (op string, constant)."""
    keep = np.ones(vals.shape, dtype=bool)
    for op, const in conjuncts:
        keep &= _OPS[op](vals, const)
    return vals[keep]


def grid_groups(box_vals: np.ndarray, partitions) -> list[np.ndarray]:
    shape = box_vals.shape
    counts = [ceil(s / p) for s, p in zip(shape, partitions)]
    out = []
    for idx in product(*(range(n) for n in counts)):
        slicer = tuple(
            slice(i * p, min((i + 1) * p, s))
            for i, p, s in zip(idx, partitions, shape)
        )
        out.append(box_vals[slicer].ravel())
    return out


def sliding_groups(
    box_vals: np.ndarray, preceding, following, stride: int = 1
) -> list[np.ndarray]:
    shape = box_vals.shape
    counts = [(s - 1) // stride + 1 for s in shape]
    out = []
    for idx in product(*(range(n) for n in counts)):
        centers = [i * stride for i in idx]
        slicer = tuple(
            slice(max(0, c - p), min(s, c + f + 1))
            for c, p, f, s in zip(centers, preceding, following, shape)
        )
        out.append(box_vals[slicer].ravel())
    return out


def ring_groups(
    box_vals: np.ndarray, radius0: int, step: int, kind: str, mode: str | None = None
) -> list[np.ndarray]:
    if mode is None:
        mode = "nested" if kind == "hierarchical" else "disjoint"
    shape = box_vals.shape
    centroid = [(s - 1) // 2 for s in shape]
    offsets = np.meshgrid(
        *(np.arange(s, dtype=np.int64) - c for s, c in zip(shape, centroid)),
        indexing="ij",
    )
    if kind == "hierarchical":
        dist = np.maximum.reduce([np.abs(g) for g in offsets])
        inside_of = lambda r: dist <= r
    else:
        d2 = sum(g * g for g in offsets)
        inside_of = lambda r: d2 <= r * r
    r_in = min(min(c, s - 1 - c) for c, s in zip(centroid, shape))
    rings = 1 if radius0 >= r_in else ceil((r_in - radius0) / step) + 1
    out = []
    prev = None
    for k in range(rings):
        inside = inside_of(radius0 + k * step)
        if mode == "nested" or prev is None:
            mask = inside
        else:
            mask = inside & ~prev
        out.append(box_vals[mask].ravel())
        prev = inside
    return out


def group_value_lists(
    values: np.ndarray,
    box_lo,
    box_hi,
    kind: str,
    *,
    partitions=None,
    preceding=None,
    following=None,
    stride: int = 1,
    radius0: int = 0,
    step: int = 1,
    mode: str | None = None,
    predicate=None,
) -> list[np.ndarray]:
    """Per-group value arrays for a query over ``values`` (a full array whose
    dimensions start at index 0), ordered by group id."""
    box_vals = values[tuple(slice(l, h + 1) for l, h in zip(box_lo, box_hi))]
    if kind == "grid":
        groups = grid_groups(box_vals, partitions)
    elif kind == "sliding":
        groups = sliding_groups(box_vals, preceding, following, stride)
    elif kind in ("hierarchical", "circular"):
        groups = ring_groups(box_vals, radius0, step, kind, mode)
    else:
        raise ValueError(f"no oracle for kind {kind!r}")
    if predicate is not None:
        groups = [apply_predicate(g, predicate) for g in groups]
    return groups


def expected_results(agg: str, groups: list[np.ndarray]) -> list:
    """Expected engine output per group: a group no record reaches produces
    no output row at all, hence None even for count."""
    return [None if g.size == 0 else aggregate_direct(agg, g) for g in groups]


def naive_emission_count(groups: list[np.ndarray]) -> int:
    """Total (group, value) pairs a naive mapper emits: group sizes summed."""
    return sum(int(g.size) for g in groups)


def assert_close(actual, expected, rel=1e-9, context=""):
    if expected is None and actual is None:
        return
    assert expected is not None and actual is not None, (
        f"{context}: emptiness mismatch (engine {actual!r}, oracle {expected!r})"
    )
    tol = rel * max(abs(expected), abs(actual), 1.0)
    assert abs(actual - expected) <= tol, (
        f"{context}: engine {actual!r} vs oracle {expected!r} (tol {tol})"
    )
