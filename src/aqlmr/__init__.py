"""Structural aggregation queries over dense arrays, compiled to map/reduce
jobs and executed on an embedded engine.

Typical flow: load a Catalog from a data directory, parse and analyze a query,
plan it, and run the plan:

    catalog = Catalog.load_dir("data")
    query = analyze(parse("select avg(val) from A grid as (partition by x 4, y 4)"), catalog)
    result = run_job(plan(query))
"""

from .aggregates import (
    AggregateDataError,
    AggregateDomainError,
    AggregateError,
    AggregatorRegistry,
    AggSummary,
    Aggregator,
    Summaries,
    default_registry,
    register_aggregator,
)
from .engine import Counters, EngineError, JobResult, run_job
from .frontend import (
    ParseError,
    QueryAst,
    QueryObject,
    SemanticError,
    analyze,
    explain,
    parse,
    render,
)
from .grouping import (
    GridParams,
    GroupGeometry,
    RingParams,
    SlidingParams,
    build_membership,
    geometry_for,
    group_extent,
    groups_of,
    make_geometry,
)
from .planner import (
    ConfigError,
    JobPlan,
    PlanDowngradeWarning,
    PlanError,
    emit_param_config,
    load_param_config,
    plan,
)
from .predicate import Comparison, ValuePredicate
from .storage import (
    ArraySchema,
    ArraySplit,
    BoundingBox,
    Catalog,
    DimSpec,
    StoreError,
    compute_splits,
    generate_array,
    load_schema,
    meta_path_for,
    read_split,
    save_schema,
    write_array,
)

__version__ = "0.1.0"

__all__ = [
    "AggSummary",
    "AggregateDataError",
    "AggregateDomainError",
    "AggregateError",
    "Aggregator",
    "AggregatorRegistry",
    "ArraySchema",
    "ArraySplit",
    "BoundingBox",
    "Catalog",
    "Comparison",
    "ConfigError",
    "Counters",
    "DimSpec",
    "EngineError",
    "GridParams",
    "GroupGeometry",
    "JobPlan",
    "JobResult",
    "ParseError",
    "PlanDowngradeWarning",
    "PlanError",
    "QueryAst",
    "QueryObject",
    "RingParams",
    "SemanticError",
    "SlidingParams",
    "StoreError",
    "Summaries",
    "ValuePredicate",
    "analyze",
    "build_membership",
    "compute_splits",
    "default_registry",
    "emit_param_config",
    "explain",
    "generate_array",
    "geometry_for",
    "group_extent",
    "groups_of",
    "load_param_config",
    "load_schema",
    "make_geometry",
    "meta_path_for",
    "parse",
    "plan",
    "read_split",
    "register_aggregator",
    "render",
    "run_job",
    "save_schema",
    "write_array",
]
