import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqlmr import (
    ArraySchema,
    BoundingBox,
    Catalog,
    DimSpec,
    StoreError,
    ValuePredicate,
    Comparison,
    compute_splits,
    generate_array,
    load_schema,
    read_split,
    save_schema,
)
from aqlmr.engine import Counters


def dims2(ex, ey, cx, cy):
    return (DimSpec("x", 0, ex - 1, cx), DimSpec("y", 0, ey - 1, cy))


class TestSchema:
    def test_basic_properties(self):
        s = ArraySchema("A", "float64", "val", dims2(8, 6, 4, 3))
        assert s.ndim == 2
        assert s.extents == (8, 6)
        assert s.chunk_shape == (4, 3)
        assert s.cell_count == 48
        assert s.nbytes == 384
        assert s.whole_box() == BoundingBox((0, 0), (7, 5))
        assert s.strides() == (6, 1)

    def test_nonzero_start(self):
        s = ArraySchema(
            "B", "int64", "v", (DimSpec("x", 10, 19, 5), DimSpec("y", 100, 103, 2))
        )
        assert s.extents == (10, 4)

    def test_chunk_exceeds_extent(self):
        with pytest.raises(StoreError, match="chunk exceeds extent"):
            ArraySchema("A", "float64", "val", (DimSpec("x", 0, 3, 5),))

    @pytest.mark.parametrize(
        "dims",
        [
            (DimSpec("x", 5, 2, 1),),  # start > end
            (DimSpec("x", 0, 3, 0),),  # chunk < 1
            (DimSpec("x", 0, 3, 2), DimSpec("x", 0, 3, 2)),  # duplicate name
        ],
    )
    def test_bad_dims(self, dims):
        with pytest.raises(StoreError):
            ArraySchema("A", "float64", "val", dims)

    def test_bad_element_type(self):
        with pytest.raises(StoreError, match="element type"):
            ArraySchema("A", "float32", "val", dims2(4, 4, 2, 2))

    def test_metadata_round_trip(self, tmp_path):
        s = ArraySchema("A", "int64", "val", dims2(8, 6, 4, 3))
        path = save_schema(s, tmp_path / "A.meta.json")
        assert load_schema(path) == s

    def test_missing_metadata(self, tmp_path):
        with pytest.raises(StoreError, match="not found"):
            load_schema(tmp_path / "nope.meta.json")

    def test_malformed_metadata(self, tmp_path):
        p = tmp_path / "bad.meta.json"
        p.write_text("{not json")
        with pytest.raises(StoreError, match="malformed"):
            load_schema(p)
        p.write_text(json.dumps({"name": "A"}))
        with pytest.raises(StoreError, match="malformed"):
            load_schema(p)

    @pytest.mark.parametrize(
        "field,value",
        [("end", 7.9), ("end", "1_5"), ("start", "+0"), ("chunk", 4.5), ("chunk", True)],
    )
    def test_dimension_fields_must_be_json_integers(self, tmp_path, field, value):
        dim = {"name": "x", "start": 0, "end": 15, "chunk": 4, field: value}
        doc = {"name": "A", "element_type": "float64", "attribute": "val", "dims": [dim]}
        p = tmp_path / "A.meta.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(StoreError, match=f"malformed metadata .*'{field}'"):
            load_schema(p)

    def test_rejects_non_row_major(self, tmp_path):
        p = tmp_path / "col.meta.json"
        p.write_text(
            json.dumps(
                {
                    "name": "A",
                    "element_type": "float64",
                    "attribute": "val",
                    "order": "column-major",
                    "dims": [{"name": "x", "start": 0, "end": 3, "chunk": 2}],
                }
            )
        )
        with pytest.raises(StoreError, match="order"):
            load_schema(p)


class TestBoundingBox:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BoundingBox((3,), (2,))

    def test_intersect(self):
        a = BoundingBox((0, 0), (5, 5))
        b = BoundingBox((3, 4), (9, 9))
        assert a.intersect(b) == BoundingBox((3, 4), (5, 5))
        assert a.intersect(BoundingBox((6, 0), (7, 5))) is None

    def test_contains_and_count(self):
        b = BoundingBox((1, 2), (3, 4))
        assert b.cell_count == 9
        assert b.contains((2, 3))
        assert not b.contains((0, 3))


class TestGenerate:
    def test_ramp_values(self, array_factory):
        built = array_factory(extents=(4, 3), chunks=(2, 3), fill="ramp")
        assert built.values.ravel().tolist() == list(range(12))

    def test_constant(self, array_factory):
        built = array_factory(extents=(3, 3), chunks=(3, 3), fill="constant:2.5")
        assert np.all(built.values == 2.5)

    def test_uniform_seeded(self, tmp_path):
        s = ArraySchema("A", "float64", "val", dims2(4, 4, 2, 2))
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        generate_array(s, "uniform", a, seed=7)
        generate_array(s, "uniform", b, seed=7)
        assert a.read_bytes() == b.read_bytes()
        generate_array(s, "uniform", b, seed=8)
        assert a.read_bytes() != b.read_bytes()

    def test_uniform_int(self, array_factory):
        built = array_factory(element_type="int64", fill="uniform", seed=3)
        assert built.values.dtype == np.dtype("<i8")
        assert np.all((built.values >= 0) & (built.values < 1000))

    def test_unknown_fill(self, tmp_path):
        s = ArraySchema("A", "float64", "val", dims2(2, 2, 2, 2))
        with pytest.raises(StoreError, match="unknown fill"):
            generate_array(s, "waves", tmp_path / "x.bin")


class TestCatalog:
    def test_load_dir(self, array_factory):
        built = array_factory(name="L1")
        entry = built.catalog.get("L1")
        assert entry is not None
        assert entry.schema == built.schema
        assert entry.data_path == built.data_path
        assert built.catalog.get("L2") is None

    def test_duplicate_register(self):
        s = ArraySchema("A", "float64", "val", dims2(2, 2, 2, 2))
        c = Catalog()
        c.register(s)
        with pytest.raises(StoreError, match="already registered"):
            c.register(s)


class TestSplits:
    def test_split_ids_row_major_over_chunk_grid(self):
        s = ArraySchema("A", "float64", "val", dims2(8, 8, 4, 4))
        splits = compute_splits(s, s.whole_box())
        assert [sp.split_id for sp in splits] == [0, 1, 2, 3]
        assert splits[1].region == BoundingBox((0, 4), (3, 7))
        assert splits[2].region == BoundingBox((4, 0), (7, 3))

    def test_box_clips_regions_and_keeps_grid_ids(self):
        s = ArraySchema("A", "float64", "val", dims2(8, 8, 4, 4))
        box = BoundingBox((2, 5), (6, 7))
        splits = compute_splits(s, box)
        assert [sp.split_id for sp in splits] == [1, 3]
        assert splits[0].region == BoundingBox((2, 5), (3, 7))
        assert splits[1].region == BoundingBox((4, 5), (6, 7))

    def test_regions_partition_the_box(self):
        s = ArraySchema("A", "float64", "val", dims2(10, 7, 4, 3))
        box = BoundingBox((1, 1), (8, 6))
        splits = compute_splits(s, box)
        seen = set()
        for sp in splits:
            for x in range(sp.region.lo[0], sp.region.hi[0] + 1):
                for y in range(sp.region.lo[1], sp.region.hi[1] + 1):
                    assert (x, y) not in seen
                    seen.add((x, y))
        assert len(seen) == box.cell_count

    def test_out_of_bounds_box(self):
        s = ArraySchema("A", "float64", "val", dims2(8, 8, 4, 4))
        with pytest.raises(StoreError, match="out of bounds"):
            compute_splits(s, BoundingBox((0, 0), (8, 7)))
        with pytest.raises(StoreError, match="out of bounds"):
            compute_splits(s, BoundingBox((-1, 0), (3, 3)))

    def test_1d_and_3d(self):
        s1 = ArraySchema("A", "float64", "val", (DimSpec("x", 0, 9, 4),))
        assert [sp.split_id for sp in compute_splits(s1, s1.whole_box())] == [0, 1, 2]
        s3 = ArraySchema(
            "B",
            "float64",
            "val",
            (DimSpec("x", 0, 3, 2), DimSpec("y", 0, 3, 2), DimSpec("z", 0, 3, 2)),
        )
        splits = compute_splits(s3, s3.whole_box())
        assert len(splits) == 8
        assert all(sp.region.cell_count == 8 for sp in splits)


class TestReadSplit:
    def test_values_and_row_major_order(self, array_factory):
        built = array_factory(extents=(6, 6), chunks=(4, 4), fill="ramp")
        box = BoundingBox((1, 2), (4, 5))
        records = []
        for sp in compute_splits(built.schema, box, built.data_path):
            records.extend(read_split(sp))
        for coord, value in records:
            assert value == built.values[coord]
        # each split yields its region in row-major order
        sp = compute_splits(built.schema, box, built.data_path)[0]
        coords = [r.coord for r in read_split(sp)]
        assert coords == sorted(coords)

    def test_counters_and_predicate_independence(self, array_factory):
        built = array_factory(extents=(8, 8), chunks=(4, 4), fill="ramp")
        splits = compute_splits(built.schema, built.schema.whole_box(), built.data_path)
        plain = Counters()
        for sp in splits:
            list(read_split(sp, None, plain))
        assert plain.bytes_read == built.schema.nbytes
        assert plain.map_input_records == 64

        pred = ValuePredicate((Comparison("val", ">=", 32),))
        filtered = Counters()
        kept = []
        for sp in splits:
            kept.extend(read_split(sp, pred, filtered))
        assert filtered.bytes_read == plain.bytes_read  # filtering reads the same bytes
        assert filtered.map_input_records == 32
        assert all(v >= 32 for _, v in kept)

    def test_conjunction_predicate(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(4, 4), fill="ramp")
        pred = ValuePredicate(
            (Comparison("val", ">", 3), Comparison("val", "<>", 10))
        )
        sp = compute_splits(built.schema, built.schema.whole_box(), built.data_path)[0]
        got = sorted(v for _, v in read_split(sp, pred))
        assert got == [v for v in range(4, 16) if v != 10]

    def test_int64_values_stay_exact(self, array_factory):
        big = 2**60 + 3  # beyond float64's exact integer range
        built = array_factory(
            element_type="int64",
            extents=(2, 2),
            chunks=(2, 2),
            values=np.array([[big, 1], [2, 3]], dtype=np.int64),
        )
        sp = compute_splits(built.schema, built.schema.whole_box(), built.data_path)[0]
        values = [v for _, v in read_split(sp)]
        assert values[0] == big and isinstance(values[0], int)

    def test_short_file(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(4, 4))
        built.data_path.write_bytes(built.data_path.read_bytes()[:-8])
        sp = compute_splits(built.schema, built.schema.whole_box(), built.data_path)[0]
        with pytest.raises(StoreError, match="does not match metadata"):
            list(read_split(sp))

    def test_split_without_data_path(self):
        s = ArraySchema("A", "float64", "val", dims2(4, 4, 2, 2))
        sp = compute_splits(s, s.whole_box())[0]
        with pytest.raises(StoreError, match="array 'A' has no data file"):
            list(read_split(sp))

    def test_too_long_file(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(4, 4))
        built.data_path.write_bytes(built.data_path.read_bytes() + bytes(8))
        sp = compute_splits(built.schema, built.schema.whole_box(), built.data_path)[0]
        with pytest.raises(StoreError, match="does not match metadata"):
            list(read_split(sp))

    def test_file_shrinking_after_size_check(self, array_factory, monkeypatch):
        # the size check passes, then a row segment comes back short
        built = array_factory(extents=(4, 4), chunks=(2, 4))
        built.data_path.write_bytes(built.data_path.read_bytes()[:-8])
        real_fstat = os.fstat

        def stale_fstat(fd):
            return os.stat_result(
                real_fstat(fd)[:6] + (built.schema.nbytes,) + real_fstat(fd)[7:]
            )

        monkeypatch.setattr(os, "fstat", stale_fstat)
        first, last = compute_splits(built.schema, built.schema.whole_box(), built.data_path)
        assert len(list(read_split(first))) == 8
        with pytest.raises(StoreError, match="short read .* does not match metadata"):
            list(read_split(last))

    def test_missing_data_file_names_the_array(self, array_factory):
        built = array_factory(extents=(4, 4), chunks=(4, 4))
        built.data_path.unlink()
        sp = compute_splits(built.schema, built.schema.whole_box(), built.data_path)[0]
        with pytest.raises(StoreError, match="array 'A': cannot open its data file"):
            read_split(sp)


def _numpy_records(values, origin, region, predicate):
    """A region's (coord, value) pairs in row-major order, by numpy slicing of
    ``values``, whose first cell has coordinates ``origin``."""
    view = values[
        tuple(slice(l - o, h - o + 1) for l, h, o in zip(region.lo, region.hi, origin))
    ]
    keep = np.ones(view.shape, bool) if predicate is None else predicate.mask(view)
    return [
        (tuple(l + i for l, i in zip(region.lo, idx)), view[idx].item())
        for idx in np.ndindex(view.shape)
        if keep[idx]
    ]


def test_split_math_matches_numpy_reads(array_factory):
    # every split's records must reproduce the numpy view of the same region
    built = array_factory(extents=(9, 5), chunks=(4, 2), fill="uniform", seed=11)
    box = BoundingBox((2, 1), (8, 4))
    counters = Counters()
    records = []
    for sp in compute_splits(built.schema, box, built.data_path):
        got = [tuple(r) for r in read_split(sp, None, counters)]
        assert got == _numpy_records(built.values, (0, 0), sp.region, None)
        records.extend(got)
    assert len(records) == box.cell_count
    assert counters.bytes_read == box.cell_count * 8
    assert counters.map_input_records == box.cell_count


_OPS = ("<", "<=", ">", ">=", "=", "<>")


@st.composite
def _block_case(draw):
    """A 1-3-d schema with nonzero starts and ragged chunks, a box in it, its
    values (float64, or int64 near +-2^62) and an optional two-term where."""
    ndim = draw(st.integers(1, 3))
    dims = []
    for name in "xyz"[:ndim]:
        start = draw(st.integers(-6, 6))
        extent = draw(st.integers(1, 7))
        chunk = draw(st.integers(1, extent))
        dims.append(DimSpec(name, start, start + extent - 1, chunk))
    element_type = draw(st.sampled_from(["float64", "int64"]))
    schema = ArraySchema("P", element_type, "val", tuple(dims))
    lo, hi = [], []
    for d in dims:
        a = draw(st.integers(d.start, d.end))
        b = draw(st.integers(d.start, d.end))
        lo.append(min(a, b))
        hi.append(max(a, b))
    n = schema.cell_count
    if element_type == "float64":
        cells = st.floats(-1e12, 1e12, allow_nan=False)
    else:
        cells = st.integers(-(2**62) - 1000, -(2**62) + 1000) | st.integers(
            2**62 - 1000, 2**62 + 1000
        )
    values = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=schema.dtype)
    predicate = None
    if draw(st.booleans()):
        constants = st.sampled_from(values.tolist())
        predicate = ValuePredicate(
            tuple(
                Comparison("val", draw(st.sampled_from(_OPS)), draw(constants))
                for _ in range(2)
            )
        )
    return schema, BoundingBox(tuple(lo), tuple(hi)), values.reshape(schema.extents), predicate


@settings(max_examples=150, deadline=None)
@given(_block_case())
def test_block_read_matches_numpy(tmp_path_factory, case):
    schema, box, values, predicate = case
    path = tmp_path_factory.mktemp("block") / "P.bin"
    path.write_bytes(values.tobytes())
    origin = tuple(d.start for d in schema.dims)
    counters = Counters()
    got = []
    for sp in compute_splits(schema, box, path):
        got.extend(tuple(r) for r in read_split(sp, predicate, counters))
    # splits in order, each row-major: the box's cells grouped by chunk
    expect = [
        record
        for sp in compute_splits(schema, box)
        for record in _numpy_records(values, origin, sp.region, predicate)
    ]
    assert got == expect
    assert sorted(got) == sorted(_numpy_records(values, origin, box, predicate))
    assert [tuple(map(type, c)) for c, _ in got] == [(int,) * schema.ndim] * len(got)
    assert [type(v) for _, v in got] == [type(v) for _, v in expect]
    assert counters.bytes_read == box.cell_count * 8
    assert counters.map_input_records == len(expect)
