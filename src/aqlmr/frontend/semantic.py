"""Semantic analysis: resolve a syntax tree against the catalog.

Produces a QueryObject with the resolved aggregator, the target schema, the
query box, a merged value predicate, and validated shape parameters. All
name and coordinate checks happen here so later stages can assume a
well-formed query.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..aggregates import AggregateError, Aggregator, AggregatorRegistry, default_registry
from ..grouping import (
    GridParams,
    RingParams,
    ShapeParams,
    SlidingParams,
    geometry_for,
)
from ..predicate import ValuePredicate
from ..storage import ArraySchema, BoundingBox, Catalog
from .nodes import (
    CircularClause,
    GridClause,
    HierarchicalClause,
    QueryAst,
    WindowClause,
)


class SemanticError(Exception):
    pass


@dataclass(frozen=True)
class QueryObject:
    """A query resolved once: its aggregator looked up in the registry it
    was analyzed with, its array in the catalog, its box, predicate and
    shape parameters checked. Planning and running read ``agg`` and look
    nothing up again."""

    agg: Aggregator
    kind: str  # grid | sliding | hierarchical | circular
    array: ArraySchema
    box: BoundingBox
    predicate: ValuePredicate | None
    geometry: ShapeParams
    data_path: object = None  # pathlib.Path when the catalog knows the file

    @property
    def aggregator(self) -> str:
        """The aggregator's canonical name."""
        return self.agg.name


def _resolve_box(ast: QueryAst, schema: ArraySchema) -> BoundingBox:
    if ast.source.between is None:
        return schema.whole_box()
    coords = ast.source.between
    if len(coords) != 2 * schema.ndim:
        raise SemanticError(
            f"between on {schema.name!r} needs {2 * schema.ndim} coordinates, "
            f"got {len(coords)}"
        )
    lo = coords[: schema.ndim]
    hi = coords[schema.ndim :]
    for d, l, h in zip(schema.dims, lo, hi):
        if l > h:
            raise SemanticError(f"dimension {d.name!r}: low corner {l} > high corner {h}")
        if l < d.start or h > d.end:
            raise SemanticError(
                f"dimension {d.name!r}: box [{l}, {h}] is index outside physical "
                f"layout [{d.start}, {d.end}]"
            )
    return BoundingBox(lo, hi)


def _check_attribute(name: str, role: str, schema: ArraySchema) -> None:
    if name != schema.attribute:
        raise SemanticError(
            f"{role} references {name!r} but array {schema.name!r} "
            f"stores attribute {schema.attribute!r}"
        )


def _by_dimension(items, schema: ArraySchema, invalid, problem: str) -> list[tuple]:
    """Resolve ``(dimension name, *values)`` items to one value tuple per
    schema dimension, in schema order; ``invalid(*values)`` flags bad values."""
    found: dict[str, tuple] = {}
    for dim_name, *values in items:
        if dim_name in found:
            raise SemanticError(f"dimension {dim_name!r} partitioned twice")
        if not any(d.name == dim_name for d in schema.dims):
            raise SemanticError(
                f"unknown dimension {dim_name!r} in partition (array has "
                f"{', '.join(d.name for d in schema.dims)})"
            )
        if invalid(*values):
            raise SemanticError(f"dimension {dim_name!r}: {problem}")
        found[dim_name] = tuple(values)
    missing = [d.name for d in schema.dims if d.name not in found]
    if missing:
        raise SemanticError(f"partition missing dimensions: {', '.join(missing)}")
    return [found[d.name] for d in schema.dims]


def _grid_params(shape: GridClause, schema: ArraySchema) -> GridParams:
    sizes = _by_dimension(
        shape.partitions, schema, lambda size: size < 1, "partition size must be >= 1"
    )
    return GridParams(tuple(size for (size,) in sizes))


def _sliding_params(shape: WindowClause, schema: ArraySchema) -> SlidingParams:
    spans = _by_dimension(
        shape.windows,
        schema,
        lambda preceding, following: preceding < 0 or following < 0,
        "preceding and following must be >= 0",
    )
    stride = 1 if shape.stride is None else shape.stride
    if stride < 1:
        raise SemanticError("stride must be >= 1")
    preceding, following = zip(*spans)
    return SlidingParams(preceding=preceding, following=following, stride=stride)


def _ring_params(shape: HierarchicalClause | CircularClause) -> RingParams:
    if shape.radius < 0:
        raise SemanticError("radius must be >= 0")
    if shape.step < 1:
        raise SemanticError("step must be >= 1")
    mode = "nested" if isinstance(shape, HierarchicalClause) else "disjoint"
    return RingParams(shape.radius, shape.step, mode)


def analyze(
    ast: QueryAst, catalog: Catalog, registry: AggregatorRegistry | None = None
) -> QueryObject:
    try:
        agg = (registry or default_registry()).get(ast.aggregate_name)
    except AggregateError as exc:
        raise SemanticError(str(exc)) from None
    entry = catalog.get(ast.source.name)
    if entry is None:
        raise SemanticError(f"unknown array {ast.source.name!r}")
    schema = entry.schema
    _check_attribute(ast.aggregate_arg, "aggregate argument", schema)
    box = _resolve_box(ast, schema)
    predicate = None
    if ast.where:
        for cmp in ast.where:
            _check_attribute(cmp.attribute, "where clause", schema)
        predicate = ValuePredicate(ast.where)
    shape = ast.shape
    if isinstance(shape, GridClause):
        kind, params = "grid", _grid_params(shape, schema)
    elif isinstance(shape, WindowClause):
        kind, params = "sliding", _sliding_params(shape, schema)
    elif isinstance(shape, HierarchicalClause):
        kind, params = "hierarchical", _ring_params(shape)
    else:
        kind, params = "circular", _ring_params(shape)
    return QueryObject(
        agg=agg,
        kind=kind,
        array=schema,
        box=box,
        predicate=predicate,
        geometry=params,
        data_path=entry.data_path,
    )


def explain(query: QueryObject) -> str:
    """Deterministic multi-line description of the resolved query."""
    geom = geometry_for(query)
    lines = [
        f"aggregate: {query.aggregator}",
        f"array: {query.array.name} ({query.array.element_type}, "
        + "x".join(str(e) for e in query.array.extents)
        + ")",
        f"box: {query.box}",
        f"kind: {query.kind}",
    ]
    params = query.geometry
    dim_names = [d.name for d in query.array.dims]
    if isinstance(params, GridParams):
        for name, size in zip(dim_names, params.partitions):
            lines.append(f"partition {name}: {size}")
    elif isinstance(params, SlidingParams):
        for name, p, f in zip(dim_names, params.preceding, params.following):
            lines.append(f"window {name}: {p} preceding, {f} following")
        lines.append(f"stride: {params.stride}")
    else:
        lines.append(f"radius: {params.radius0}")
        lines.append(f"step: {params.step}")
        lines.append(f"mode: {params.mode}")
        lines.append(f"centroid: ({','.join(str(c) for c in geom.centroid)})")
    if query.predicate is not None:
        lines.append(f"where: {query.predicate.render()}")
    lines.append(f"groups: {geom.group_count}")
    return "\n".join(lines)
