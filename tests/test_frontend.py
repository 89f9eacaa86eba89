import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqlmr import (
    Comparison,
    GridParams,
    ParseError,
    RingParams,
    SemanticError,
    SlidingParams,
    analyze,
    explain,
    parse,
    render,
)
from aqlmr.frontend.lexer import KEYWORDS, LexError, tokenize
from aqlmr.frontend.parser import parse_comparison
from aqlmr.frontend.nodes import (
    CircularClause,
    GridClause,
    HierarchicalClause,
    QueryAst,
    Source,
    WindowClause,
)

from corpus import ALL_QUERIES, BENCHMARK_QUERIES


class TestLexer:
    def test_numbers(self):
        kinds = [(t.kind, t.value) for t in tokenize("12 -3 4.5 -0.25 1e3 2.5E-2")][:-1]
        assert kinds == [
            ("int", 12),
            ("int", -3),
            ("float", 4.5),
            ("float", -0.25),
            ("float", 1e3),
            ("float", 2.5e-2),
        ]

    @pytest.mark.parametrize("text", ["1e400", "-2.5e999"])
    def test_float_overflow_rejected(self, text):
        with pytest.raises(LexError, match="out of range"):
            tokenize(text)

    @pytest.mark.parametrize(
        "text", ["1" + "0" * 400, "-" + "9" * 5001], ids=["401-digits", "5001-digits"]
    )
    def test_int_overflow_rejected(self, text):
        # a double cannot hold them, and the second is past int()'s digit limit
        with pytest.raises(LexError, match="out of range"):
            tokenize(text)

    def test_long_ints_within_range_read(self):
        largest = 2**1024 - 2**970 - 1  # the largest int a double rounds to finite
        assert tokenize("0" * 5000 + "12")[0].value == 12
        assert tokenize(f"-{largest}")[0].value == -largest

    def test_keywords_fold_case_idents_do_not(self):
        toks = tokenize("SELECT Val FROM")
        assert (toks[0].kind, toks[0].text) == ("keyword", "select")
        assert (toks[1].kind, toks[1].text) == ("ident", "Val")

    def test_operators(self):
        ops = [t.text for t in tokenize("< <= > >= = <>")][:-1]
        assert ops == ["<", "<=", ">", ">=", "=", "<>"]

    def test_position_reported(self):
        with pytest.raises(ParseError, match="line 2, column 8"):
            parse("select avg(val)\nfrom A @ grid as (partition by x 2)")


class TestParser:
    @pytest.mark.parametrize("text", ALL_QUERIES)
    def test_corpus_parses_and_round_trips(self, text):
        ast = parse(text)
        assert parse(render(ast)) == ast

    def test_grid_shape(self):
        ast = parse("select avg(Val) from L1 grid as (partition by x 512 y 512)")
        assert ast.aggregate_name == "avg"
        assert ast.aggregate_arg == "Val"
        assert ast.source == Source("L1")
        assert ast.shape == GridClause((("x", 512), ("y", 512)))

    def test_between_splits_corners(self):
        ast = parse(
            "select avg(Val) from between (L2, 0, 0, 16383, 32767)"
            " grid as (partition by x 512, y 512)"
        )
        assert ast.source == Source("L2", (0, 0, 16383, 32767))

    def test_window_shape_with_stride(self):
        ast = parse(
            "select sum(v) from A fixed window as"
            " (partition by x 2 preceding and 1 following,"
            " y 0 preceding and 3 following stride 4)"
        )
        assert ast.shape == WindowClause((("x", 2, 1), ("y", 0, 3)), 4)

    def test_ring_shapes(self):
        h = parse("select sum(v) from A hierarchical as (radius 2 step 3)").shape
        c = parse("select sum(v) from A circular as (radius 2 step 3)").shape
        assert h == HierarchicalClause(2, 3)
        assert c == CircularClause(2, 3)

    def test_where_conjunction(self):
        ast = parse(
            "select avg(v) from A where v > 0.5 and v <= 100 and v <> 7"
            " grid as (partition by x 2)"
        )
        assert ast.where == (
            Comparison("v", ">", 0.5),
            Comparison("v", "<=", 100),
            Comparison("v", "<>", 7),
        )

    def test_parse_comparison(self):
        assert parse_comparison("val >= -2.5") == Comparison("val", ">=", -2.5)
        assert parse_comparison(" v<>7 ") == Comparison("v", "<>", 7)

    @pytest.mark.parametrize(
        "text", ["", "val", "val > ", "val > 3 and val < 4", "val > 3 3", "3 > val", "val ! 3"]
    )
    def test_parse_comparison_rejects(self, text):
        with pytest.raises(ParseError):
            parse_comparison(text)

    def test_missing_shape_clause(self):
        with pytest.raises(ParseError, match="missing shape clause"):
            parse("select avg(val) from A")
        with pytest.raises(ParseError, match="missing shape clause"):
            parse("select avg(val) from A where val > 1")

    @pytest.mark.parametrize(
        "text",
        [
            "avg(val) from A grid as (partition by x 2)",  # no select
            "select avg val from A grid as (partition by x 2)",  # no parens
            "select avg(val) from grid as (partition by x 2)",  # no source
            "select avg(val) from between (A) grid as (partition by x 2)",  # no coords
            "select avg(val) from between (A, 1, 2, 3) grid as (partition by x 2)",  # odd coords
            "select avg(val) from A grid as (partition by x 2.5)",  # float size
            "select avg(val) from A grid as (partition by x 2",  # unterminated
            "select avg(val) from A grid as (partition by )",  # empty partition
            "select avg(val) from A fixed window as (partition by x 1 preceding 1 following)",  # missing and
            "select avg(val) from A hierarchical as (radius 1)",  # missing step
            "select avg(val) from A where val grid as (partition by x 2)",  # no comparison
            "select avg(val) from A where val ! 3 grid as (partition by x 2)",  # bad char
            "select avg(val) from A grid as (partition by x 2) trailing",  # junk after
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse(text)


_name = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,7}", fullmatch=True).filter(
    lambda s: s.lower() not in KEYWORDS
)
_number = st.one_of(
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
_comparison = st.builds(
    Comparison,
    _name,
    st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]),
    _number,
)


@st.composite
def _query_ast(draw):
    ndim = draw(st.integers(1, 3))
    dim_names = draw(
        st.lists(_name, min_size=ndim, max_size=ndim, unique_by=str.lower)
    )
    source_name = draw(_name)
    if draw(st.booleans()):
        coords = draw(
            st.lists(
                st.integers(-1000, 10**6), min_size=2 * ndim, max_size=2 * ndim
            )
        )
        source = Source(source_name, tuple(coords))
    else:
        source = Source(source_name)
    where = draw(
        st.one_of(
            st.none(),
            st.lists(_comparison, min_size=1, max_size=3).map(tuple),
        )
    )
    shape_kind = draw(st.sampled_from(["grid", "window", "hier", "circ"]))
    if shape_kind == "grid":
        sizes = draw(st.lists(st.integers(1, 999), min_size=ndim, max_size=ndim))
        shape = GridClause(tuple(zip(dim_names, sizes)))
    elif shape_kind == "window":
        spans = draw(
            st.lists(
                st.tuples(st.integers(0, 99), st.integers(0, 99)),
                min_size=ndim,
                max_size=ndim,
            )
        )
        stride = draw(st.one_of(st.none(), st.integers(1, 99)))
        shape = WindowClause(
            tuple((n, p, f) for n, (p, f) in zip(dim_names, spans)), stride
        )
    else:
        cls = HierarchicalClause if shape_kind == "hier" else CircularClause
        shape = cls(draw(st.integers(0, 99)), draw(st.integers(1, 99)))
    return QueryAst(draw(_name), draw(_name), source, where, shape)


@settings(max_examples=150, deadline=None)
@given(_query_ast())
def test_render_parse_round_trip(ast):
    assert parse(render(ast)) == ast


@pytest.fixture
def catalog(array_factory):
    built = array_factory(name="A", extents=(8, 8), chunks=(4, 4))
    return built.catalog


class TestSemantic:
    def test_resolves_defaults(self, catalog):
        q = analyze(parse("select AVG(val) from A grid as (partition by y 2, x 4)"), catalog)
        assert q.aggregator == "avg"  # canonical lower-case name
        assert q.kind == "grid"
        assert q.box.lo == (0, 0) and q.box.hi == (7, 7)
        # partition sizes reordered to dimension order
        assert q.geometry == GridParams((4, 2))
        assert q.predicate is None

    def test_between_box(self, catalog):
        q = analyze(
            parse("select avg(val) from between (A, 1, 2, 5, 6) grid as (partition by x 2, y 2)"),
            catalog,
        )
        assert (q.box.lo, q.box.hi) == ((1, 2), (5, 6))

    def test_window_defaults_stride_one(self, catalog):
        q = analyze(
            parse(
                "select avg(val) from A fixed window as"
                " (partition by x 1 preceding and 1 following,"
                " y 2 preceding and 0 following)"
            ),
            catalog,
        )
        assert q.kind == "sliding"
        assert q.geometry == SlidingParams((1, 2), (1, 0), 1)

    def test_ring_modes(self, catalog):
        h = analyze(parse("select avg(val) from A hierarchical as (radius 1 step 2)"), catalog)
        c = analyze(parse("select avg(val) from A circular as (radius 1 step 2)"), catalog)
        assert h.kind == "hierarchical" and h.geometry == RingParams(1, 2, "nested")
        assert c.kind == "circular" and c.geometry == RingParams(1, 2, "disjoint")

    def test_where_becomes_predicate(self, catalog):
        q = analyze(
            parse("select avg(val) from A where val > 1 and val < 9 grid as (partition by x 2, y 2)"),
            catalog,
        )
        assert q.predicate is not None
        assert q.predicate.mask(np.array([5.0, 0.0])).tolist() == [True, False]

    def test_unknown_array(self, catalog):
        with pytest.raises(SemanticError, match="unknown array"):
            analyze(parse("select avg(val) from Z grid as (partition by x 2)"), catalog)

    def test_unknown_aggregate(self, catalog):
        with pytest.raises(SemanticError, match="unknown aggregate"):
            analyze(parse("select frobnicate(val) from A grid as (partition by x 2, y 2)"), catalog)

    def test_attribute_mismatch(self, catalog):
        with pytest.raises(SemanticError, match="attribute"):
            analyze(parse("select avg(temp) from A grid as (partition by x 2, y 2)"), catalog)
        with pytest.raises(SemanticError, match="attribute"):
            analyze(
                parse("select avg(val) from A where temp > 1 grid as (partition by x 2, y 2)"),
                catalog,
            )

    def test_box_outside_layout(self, catalog):
        with pytest.raises(SemanticError, match="index outside physical layout"):
            analyze(
                parse("select avg(val) from between (A, 0, 0, 8, 7) grid as (partition by x 2, y 2)"),
                catalog,
            )

    def test_between_dimension_count(self, catalog):
        with pytest.raises(SemanticError, match="coordinates"):
            analyze(
                parse("select avg(val) from between (A, 0, 7) grid as (partition by x 2, y 2)"),
                catalog,
            )

    def test_inverted_box(self, catalog):
        with pytest.raises(SemanticError, match="low corner"):
            analyze(
                parse("select avg(val) from between (A, 5, 0, 2, 7) grid as (partition by x 2, y 2)"),
                catalog,
            )

    @pytest.mark.parametrize(
        "text,match",
        [
            ("select avg(val) from A grid as (partition by x 2)", "missing"),
            ("select avg(val) from A grid as (partition by x 2, x 2)", "twice"),
            ("select avg(val) from A grid as (partition by x 2, y 2, q 2)", "unknown dimension"),
            ("select avg(val) from A grid as (partition by x 0, y 2)", ">= 1"),
            (
                "select avg(val) from A fixed window as (partition by x 1 preceding and 1 following)",
                "missing",
            ),
            (
                "select avg(val) from A fixed window as (partition by x -1 preceding and 1 following, y 1 preceding and 1 following)",
                ">= 0",
            ),
            (
                "select avg(val) from A fixed window as (partition by x 1 preceding and 1 following, y 1 preceding and 1 following stride 0)",
                "stride",
            ),
            ("select avg(val) from A hierarchical as (radius -1 step 1)", "radius"),
            ("select avg(val) from A circular as (radius 1 step 0)", "step"),
        ],
    )
    def test_bad_shape_parameters(self, catalog, text, match):
        with pytest.raises(SemanticError, match=match):
            analyze(parse(text), catalog)


class TestExplain:
    def test_grid(self, catalog):
        text = explain(
            analyze(parse("select avg(val) from A grid as (partition by x 4, y 4)"), catalog)
        )
        assert "kind: grid" in text
        assert "groups: 4" in text

    def test_sliding_stride(self, catalog):
        text = explain(
            analyze(
                parse(
                    "select avg(val) from A fixed window as"
                    " (partition by x 1 preceding and 1 following,"
                    " y 1 preceding and 1 following)"
                ),
                catalog,
            )
        )
        assert "kind: sliding" in text
        assert "stride: 1" in text

    def test_circular(self, catalog):
        text = explain(
            analyze(parse("select avg(val) from A circular as (radius 1 step 1)"), catalog)
        )
        assert "kind: circular" in text
        assert "mode: disjoint" in text
        assert "centroid: (3,3)" in text

    def test_where_shown(self, catalog):
        text = explain(
            analyze(
                parse("select avg(val) from A where val > 0.5 grid as (partition by x 4, y 4)"),
                catalog,
            )
        )
        assert "where: val > 0.5" in text


def test_benchmark_queries_analyze(tmp_path):
    # catalog mirroring the benchmark arrays at full size; metadata only,
    # geometry math never touches the data file
    from aqlmr import ArraySchema, Catalog, DimSpec
    from aqlmr.grouping import geometry_for

    catalog = Catalog()
    for name in ("L1", "L2"):
        catalog.register(
            ArraySchema(
                name,
                "float64",
                "Val",
                (DimSpec("x", 0, 32767, 512), DimSpec("y", 0, 32767, 512)),
            )
        )
    q = analyze(parse(BENCHMARK_QUERIES[0]), catalog)
    assert geometry_for(q).group_count == 64 * 64
    q = analyze(parse(BENCHMARK_QUERIES[1]), catalog)
    assert geometry_for(q).group_count == 32 * 64
