"""Job planning: pick a map/reduce template for a query and parameterize it.

A plan is a resolved query and a mode, nothing more. Everything the engine
needs at run time follows from those two and is derived once per plan: the
template (grid, sliding, or ring geometry, each in naive or optimized
flavor), the group geometry, and where the splits come from. Optimized
templates combine summaries inside the mapper and shuffle one summary per
group per split; naive templates shuffle every (group, value) pair.
Holistic aggregators cannot be combined early, so asking for optimized mode
with one downgrades to naive with a warning.

Plans serialize to a parameter file of sorted ``key=value`` lines ("#" starts
a comment) and load back identically, so a translated query can be shipped to
and run by a separate process. A relative ``array.path`` is relative to the
file's own directory.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .aggregates import AggregatorRegistry
from .frontend.nodes import (
    CircularClause,
    GridClause,
    HierarchicalClause,
    QueryAst,
    ShapeClause,
    Source,
    WindowClause,
)
from .frontend.parser import ParseError, parse_comparison, parse_int
from .frontend.semantic import QueryObject, SemanticError, analyze
from .grouping import GridParams, GroupGeometry, SlidingParams, make_geometry
from .predicate import Comparison
from .storage import ArraySchema, BoundingBox, Catalog, DimSpec

TEMPLATES = {
    "grid_naive": "scan splits, emit (block id, value) per cell, reduce by fold",
    "grid_opt": "scan splits, fold per-block summaries in the mapper, reduce by merge",
    "sliding_naive": "scan splits, emit (window id, value) per covering window, reduce by fold",
    "sliding_opt": "scan splits, fold per-window summaries in the mapper, reduce by merge",
    "ring_naive": "scan splits, emit (ring id, value) per covering ring, reduce by fold",
    "ring_opt": "scan splits, fold per-ring summaries in the mapper, reduce by merge",
}

_FAMILY = {
    "grid": "grid",
    "sliding": "sliding",
    "hierarchical": "ring",
    "circular": "ring",
}


class PlanError(Exception):
    pass


class ConfigError(Exception):
    pass


class PlanDowngradeWarning(UserWarning):
    """Raised when an optimized plan request falls back to naive."""


@dataclass(frozen=True)
class SplitSpec:
    """Where map inputs come from: the data file, the scan box, the chunking."""

    data_path: Path | None
    box: BoundingBox
    chunk_shape: tuple[int, ...]


@dataclass(frozen=True)
class JobPlan:
    """A resolved query and the mode to run it in. The template, the group
    geometry and the split source are derived from those two, each once per
    plan, so ``replace(job, mode=...)`` derives them all again."""

    mode: str  # "naive" | "optimized"
    query: QueryObject

    @cached_property
    def template_id(self) -> str:
        return f"{_FAMILY[self.query.kind]}_{'opt' if self.mode == 'optimized' else 'naive'}"

    @cached_property
    def geometry(self) -> GroupGeometry:
        return make_geometry(self.query.kind, self.query.box, self.query.geometry)

    @cached_property
    def splits(self) -> SplitSpec:
        query = self.query
        return SplitSpec(query.data_path, query.box, query.array.chunk_shape)


def plan(query: QueryObject, mode_request: str = "auto") -> JobPlan:
    """Choose a template and mode for the query.

    mode_request "auto" picks optimized for algebraic aggregators and naive
    for holistic ones; "optimized" on a holistic aggregator warns and
    downgrades.
    """
    agg = query.agg
    if mode_request == "auto":
        mode = "optimized" if agg.algebraic else "naive"
    elif mode_request == "naive":
        mode = "naive"
    elif mode_request == "optimized":
        if agg.algebraic:
            mode = "optimized"
        else:
            warnings.warn(
                f"{agg.name} is holistic; a holistic aggregator cannot run "
                "optimized, planning naive instead",
                PlanDowngradeWarning,
                stacklevel=2,
            )
            mode = "naive"
    else:
        raise PlanError(f"unknown mode {mode_request!r} (expected auto, naive, or optimized)")
    return JobPlan(mode, query)


def render_plan(plan: JobPlan) -> str:
    """One-paragraph description of what the planned job will do."""
    lines = [
        f"template: {plan.template_id} ({TEMPLATES[plan.template_id]})",
        f"mode: {plan.mode}",
        f"groups: {plan.geometry.group_count}",
        f"splits over: {plan.splits.box} in chunks of "
        + "x".join(str(c) for c in plan.splits.chunk_shape),
    ]
    return "\n".join(lines)


# -- parameter file ---------------------------------------------------------

_CSV = ","


def _csv(values) -> str:
    return _CSV.join(str(v) for v in values)


def config_pairs(plan: JobPlan) -> dict[str, str]:
    """The plan as flat key=value pairs (pre-serialization form)."""
    query = plan.query
    schema = query.array
    pairs = {
        "template": plan.template_id,
        "mode": plan.mode,
        "aggregator": query.aggregator,
        "array": schema.name,
        "array.attribute": schema.attribute,
        "array.element_type": schema.element_type,
        "array.dims": _csv(
            f"{d.name}:{d.start}:{d.end}:{d.chunk}" for d in schema.dims
        ),
        "box.lo": _csv(query.box.lo),
        "box.hi": _csv(query.box.hi),
        "geometry.kind": query.kind,
    }
    if plan.splits.data_path is not None:
        pairs["array.path"] = str(plan.splits.data_path)
    params = query.geometry
    if isinstance(params, GridParams):
        for d, size in zip(schema.dims, params.partitions):
            pairs[f"geometry.partition.{d.name}"] = str(size)
    elif isinstance(params, SlidingParams):
        for d, p, f in zip(schema.dims, params.preceding, params.following):
            pairs[f"geometry.window.{d.name}"] = f"{p}:{f}"
        pairs["geometry.stride"] = str(params.stride)
    else:
        pairs["geometry.radius"] = str(params.radius0)
        pairs["geometry.step"] = str(params.step)
        pairs["geometry.mode"] = params.mode
    if query.predicate is not None:
        for i, cmp in enumerate(query.predicate.conjuncts):
            pairs[f"where.{i}"] = cmp.render()
    return pairs


def emit_param_config(plan: JobPlan, out_path: Path | str) -> Path:
    """Write the plan as sorted key=value lines; byte-identical for equal
    plans. A relative data path is written relative to the file's directory."""
    out_path = Path(out_path)
    pairs = config_pairs(plan)
    data_path = plan.splits.data_path
    if data_path is not None and not data_path.is_absolute():
        pairs["array.path"] = os.path.relpath(data_path, out_path.parent)
    lines = ["# map/reduce job parameters"]
    lines.extend(f"{k}={pairs[k]}" for k in sorted(pairs))
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def _require(pairs: dict[str, str], key: str) -> str:
    try:
        return pairs[key]
    except KeyError:
        raise ConfigError(f"missing config key {key!r}") from None


def _parse_int(text: str, key: str) -> int:
    try:
        return parse_int(text)
    except ParseError as exc:
        raise ConfigError(f"config key {key!r}: bad integer {text!r}: {exc}") from None


def _int(pairs: dict[str, str], key: str) -> int:
    return _parse_int(_require(pairs, key), key)


def _parse_dims(text: str) -> tuple[DimSpec, ...]:
    dims = []
    for item in text.split(_CSV):
        parts = item.split(":")
        if len(parts) != 4:
            raise ConfigError(f"bad dimension spec {item!r} (want name:start:end:chunk)")
        start, end, chunk = (_parse_int(v, "array.dims") for v in parts[1:])
        dims.append(DimSpec(parts[0], start, end, chunk))
    return tuple(dims)


def _parse_coords(pairs: dict[str, str], key: str, ndim: int) -> tuple[int, ...]:
    coords = tuple(_parse_int(v, key) for v in _require(pairs, key).split(_CSV))
    if len(coords) != ndim:
        raise ConfigError(f"config key {key!r}: expected {ndim} coordinates")
    return coords


def _parse_comparison(text: str) -> Comparison:
    try:
        return parse_comparison(text)
    except ParseError as exc:
        raise ConfigError(f"bad where condition {text!r}: {exc}") from None


def _parse_where(pairs: dict[str, str]) -> tuple[Comparison, ...] | None:
    keys = [k for k in pairs if k.startswith("where.")]
    for key in keys:
        if not key[len("where."):].isdecimal():
            raise ConfigError(f"bad where key {key!r} (want where.<index>)")
    keys.sort(key=lambda k: int(k[len("where."):]))
    return tuple(_parse_comparison(pairs[k]) for k in keys) or None


def _parse_window(pairs: dict[str, str], dim: str) -> tuple[str, int, int]:
    key = f"geometry.window.{dim}"
    text = _require(pairs, key)
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"bad window spec {text!r} (want preceding:following)")
    preceding, following = (_parse_int(v, key) for v in parts)
    return dim, preceding, following


def _shape_clause(pairs: dict[str, str], kind: str, schema: ArraySchema) -> ShapeClause:
    names = [d.name for d in schema.dims]
    if kind == "grid":
        return GridClause(tuple((n, _int(pairs, f"geometry.partition.{n}")) for n in names))
    if kind == "sliding":
        windows = tuple(_parse_window(pairs, n) for n in names)
        return WindowClause(windows, _int(pairs, "geometry.stride"))
    rings = {"hierarchical": HierarchicalClause, "circular": CircularClause}
    if kind not in rings:
        raise ConfigError(f"unknown geometry kind {kind!r}")
    return rings[kind](_int(pairs, "geometry.radius"), _int(pairs, "geometry.step"))


def load_param_config(
    path: Path | str,
    catalog: Catalog | None = None,
    registry: AggregatorRegistry | None = None,
) -> JobPlan:
    """Read a parameter file back into a plan.

    The file's keys are rebuilt into a query, its ``where.N`` values read by
    the query grammar, and checked by the same ``analyze`` and ``plan`` that
    handle query text. The file must then hold only keys that
    ``config_pairs`` writes for that plan, and agree with it on the keys the
    plan derives. Only what the format adds (its key lines, the catalog
    cross-check, the fixed mode, the workers count older files carry) is
    checked here. The file is self-contained; a catalog, when given,
    supplies the data path and cross-checks the schema. A relative
    ``array.path`` is read relative to the file's directory.
    """
    path = Path(path)
    pairs = _parse_pairs(path.read_text())

    try:
        schema = ArraySchema(
            name=_require(pairs, "array"),
            element_type=_require(pairs, "array.element_type"),
            attribute=_require(pairs, "array.attribute"),
            dims=_parse_dims(_require(pairs, "array.dims")),
        )
    except Exception as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad array schema in config: {exc}") from exc

    data_path = None
    if "array.path" in pairs:
        data_path = Path(os.path.normpath(os.path.join(path.parent, pairs["array.path"])))
    if catalog is not None:
        entry = catalog.get(schema.name)
        if entry is None:
            raise ConfigError(f"unknown array {schema.name!r} (not in catalog)")
        if entry.schema != schema:
            raise ConfigError(
                f"config schema for {schema.name!r} does not match the catalog"
            )
        if data_path is None:
            data_path = entry.data_path

    box = _parse_coords(pairs, "box.lo", schema.ndim) + _parse_coords(
        pairs, "box.hi", schema.ndim
    )
    ast = QueryAst(
        aggregate_name=_require(pairs, "aggregator"),
        aggregate_arg=schema.attribute,
        source=Source(schema.name, box),
        where=_parse_where(pairs),
        shape=_shape_clause(pairs, _require(pairs, "geometry.kind"), schema),
    )
    file_catalog = Catalog()
    file_catalog.register(schema, data_path)
    try:
        query = analyze(ast, file_catalog, registry)
    except SemanticError as exc:
        raise ConfigError(str(exc)) from exc
    mode = _require(pairs, "mode")
    if mode not in ("naive", "optimized"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "optimized" and not query.agg.algebraic:
        raise ConfigError(
            f"{query.aggregator} is holistic; a holistic aggregator cannot run optimized"
        )
    # older files carry a workers count; the engine is serial, so it is
    # checked and then ignored
    if "workers" in pairs and _int(pairs, "workers") < 1:
        raise ConfigError("workers must be >= 1")
    job = plan(query, mode)

    _check_keys(pairs, config_pairs(job))
    return job


# Written from the plan rather than read into the query; a file must agree.
_DERIVED_KEYS = ("template", "geometry.mode")


def _check_keys(pairs: dict[str, str], written: dict[str, str]) -> None:
    """Hold the file's keys to what ``config_pairs`` writes for its plan.

    ``where.N`` keys are exempt: each was read into the query, and their
    indices may be sparse. So is ``workers``, which older files carry.
    """
    for key in pairs:
        if key not in written and key != "workers" and not key.startswith("where."):
            raise ConfigError(f"unknown config key {key!r}")
    for key in _DERIVED_KEYS:
        if key in written and _require(pairs, key) != written[key]:
            raise ConfigError(
                f"config key {key!r} is {pairs[key]!r}, which does not match "
                f"the plan the file describes ({written[key]!r})"
            )
