import json
import os
import tracemalloc
from contextlib import closing
from dataclasses import replace
from itertools import product
from unittest import mock

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
    write_array,
)
from aqlmr import storage
from aqlmr.engine import Counters
from aqlmr.storage import read_bands


def split_blocks(splits, predicate=None, counters=None):
    """(split, block, mask) of each split in split order, as run_job reads
    them: the bands of read_bands, each cut by Band.blocks and dropped
    before the next is read."""
    with closing(read_bands(splits, predicate, counters)) as bands:
        for band in bands:
            blocks = band.blocks()
            del band  # the blocks hold the band until its last block is cut
            yield from blocks


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

    @pytest.mark.parametrize("element_type", ["float64", "int64"])
    @pytest.mark.parametrize("fill", ["ramp", "uniform", "constant:-2.5", "constant"])
    def test_file_bytes_are_the_values_bytes(self, tmp_path, element_type, fill):
        """The file holds the fill's values cast to the element type, row
        major: what a copy through tobytes() held. int64 cells refuse a
        fractional constant, which the cast would truncate."""
        s = ArraySchema("A", element_type, "val", dims2(5, 3, 2, 2))
        n = s.cell_count
        if fill == "constant:-2.5" and element_type == "int64":
            with pytest.raises(StoreError, match="bad constant fill"):
                generate_array(s, fill, tmp_path / "a.bin")
            assert not (tmp_path / "a.bin").exists()
            return
        if fill == "ramp":
            values = np.arange(n)
        elif fill == "uniform":
            rng = np.random.default_rng(4)
            values = rng.random(n) if element_type == "float64" else rng.integers(0, 1000, n)
        else:
            values = np.full(n, -2.5 if ":" in fill else 0.0)
        path = generate_array(s, fill, tmp_path / "a.bin", seed=4)
        assert path.read_bytes() == np.asarray(values).astype(s.dtype).tobytes()

    @pytest.mark.parametrize("element_type", ["float64", "int64"])
    def test_write_array_bytes_in_row_major_order(self, tmp_path, element_type):
        s = ArraySchema("A", element_type, "val", dims2(3, 4, 2, 2))
        rng = np.random.default_rng(5)
        ints = rng.integers(-(2**62), 2**62, (4, 3))
        for values in (ints, ints.T, (ints / 7).T, ints.T.ravel().tolist()):
            path = write_array(s, values, tmp_path / "a.bin")
            expected = np.asarray(values).reshape(3, 4).astype(s.dtype).tobytes()
            assert path.read_bytes() == expected

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


def _splits_by_chunk_box(schema, box):
    """(split id, region) of every split, built chunk by chunk: each chunk's
    box intersected with the query box."""
    counts = [-(-d.extent // d.chunk) for d in schema.dims]
    spans = [
        range((lo - d.start) // d.chunk, (hi - d.start) // d.chunk + 1)
        for d, lo, hi in zip(schema.dims, box.lo, box.hi)
    ]
    out = []
    for chunk_idx in product(*spans):
        split_id = 0
        for i, n in zip(chunk_idx, counts):
            split_id = split_id * n + i
        chunk_lo = tuple(d.start + i * d.chunk for d, i in zip(schema.dims, chunk_idx))
        chunk_hi = tuple(min(l + d.chunk - 1, d.end) for d, l in zip(schema.dims, chunk_lo))
        out.append((split_id, box.intersect(BoundingBox(chunk_lo, chunk_hi))))
    return out


@st.composite
def _split_case(draw):
    """A 1-3-d schema with nonzero starts and ragged chunks, and a box in it."""
    dims, lo, hi = [], [], []
    for name in "xyz"[: draw(st.integers(1, 3))]:
        start = draw(st.integers(-20, 20))
        extent = draw(st.integers(1, 30))
        dims.append(DimSpec(name, start, start + extent - 1, draw(st.integers(1, extent))))
        a, b = sorted(draw(st.integers(start, start + extent - 1)) for _ in range(2))
        lo.append(a)
        hi.append(b)
    return ArraySchema("P", "float64", "val", tuple(dims)), BoundingBox(tuple(lo), tuple(hi))


@settings(max_examples=300, deadline=None)
@given(_split_case())
def test_splits_match_the_chunk_box_construction(case):
    schema, box = case
    splits = compute_splits(schema, box, "P.bin")
    assert [(sp.split_id, sp.region) for sp in splits] == _splits_by_chunk_box(schema, box)
    assert all(sp.schema is schema and str(sp.data_path) == "P.bin" for sp in splits)


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


def _box_cells(schema, box):
    """The file's cell indices inside ``box``, as a set."""
    index = np.arange(schema.cell_count).reshape(schema.extents)
    origin = tuple(d.start for d in schema.dims)
    return set(
        index[tuple(slice(l - o, h - o + 1) for l, h, o in zip(box.lo, box.hi, origin))]
        .ravel()
        .tolist()
    )


@st.composite
def _band_case(draw):
    """A 1-3-d schema with nonzero starts and ragged chunks; a box that may
    cut chunks in its leading dimensions and spans the array whole from a
    drawn dimension on; the box's splits, some of them, or any list of the box's
    and the whole array's splits; float64 or int64 values; an optional
    where; a band cap from one cell to the default; and a cap on merged
    reads."""
    ndim = draw(st.integers(1, 3))
    dims = []
    for name in "xyz"[:ndim]:
        start = draw(st.integers(-6, 6))
        extent = draw(st.integers(1, 9))
        chunk = draw(st.integers(1, extent))
        dims.append(DimSpec(name, start, start + extent - 1, chunk))
    element_type = draw(st.sampled_from(["float64", "int64"]))
    schema = ArraySchema("P", element_type, "val", tuple(dims))
    full = draw(st.integers(0, ndim))
    lo, hi = [], []
    for i, d in enumerate(dims):
        if i >= full:
            lo.append(d.start)
            hi.append(d.end)
        else:
            a, b = draw(st.integers(d.start, d.end)), draw(st.integers(d.start, d.end))
            lo.append(min(a, b))
            hi.append(max(a, b))
    splits = compute_splits(schema, BoundingBox(tuple(lo), tuple(hi)))
    pick = draw(st.integers(0, 5))
    if pick == 0:  # some of them, in order
        chosen = draw(st.lists(st.booleans(), min_size=len(splits), max_size=len(splits)))
        splits = [sp for sp, c in zip(splits, chosen) if c] or splits[-1:]
    elif pick == 1:  # any splits of the array, in any order
        pool = splits + compute_splits(schema, schema.whole_box())
        splits = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    n = schema.cell_count
    if element_type == "float64":
        cells = st.floats(allow_nan=False)
    else:
        cells = st.integers(-(2**63), 2**63 - 1)
    values = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=schema.dtype)
    predicate = None
    if draw(st.booleans()):
        predicate = ValuePredicate(
            (Comparison("val", draw(st.sampled_from(_OPS)), draw(st.sampled_from(values.tolist()))),)
        )
    band_bytes = draw(st.sampled_from([8, 16, 24, 64, 200, storage.BAND_BYTES]))
    run_bytes = draw(st.sampled_from([8, 40, storage._RUN_BYTES]))
    return schema, splits, values.reshape(schema.extents), predicate, band_bytes, run_bytes


@settings(max_examples=300, deadline=None)
@given(_band_case())
def test_band_reads_match_numpy(tmp_path_factory, case):
    schema, splits, values, predicate, band_bytes, run_bytes = case
    path = tmp_path_factory.mktemp("band") / "P.bin"
    path.write_bytes(values.tobytes())
    splits = [replace(sp, data_path=path) for sp in splits]
    origin = tuple(d.start for d in schema.dims)
    reads = []
    real_preadv = os.preadv

    def recording_preadv(fd, buffers, offset):
        n = real_preadv(fd, buffers, offset)
        reads.append((offset, n))
        return n

    counters = Counters()
    with mock.patch.object(storage, "BAND_BYTES", band_bytes), mock.patch.object(
        storage, "_RUN_BYTES", run_bytes
    ), mock.patch.object(os, "preadv", recording_preadv):
        got = list(split_blocks(splits, predicate, counters))
        bands = list(storage._bands(splits))
    assert [sp for sp, _, _ in got] == splits
    kept = 0
    for sp, block, keep in got:
        expect = values[
            tuple(slice(l - o, h - o + 1) for l, h, o in zip(sp.region.lo, sp.region.hi, origin))
        ]
        assert block.dtype == schema.dtype and block.flags.c_contiguous
        assert block.shape == expect.shape and block.tobytes() == expect.tobytes()
        if predicate is None:
            assert keep is None
            kept += block.size
        else:
            assert np.array_equal(keep, predicate.mask(expect))
            kept += int(np.count_nonzero(keep))
    assert counters.bytes_read == sum(sp.region.cell_count for sp in splits) * 8
    assert counters.map_input_records == kept
    # bands: runs of the splits in order, capped unless alone
    assert [sp for band in bands for sp in band] == splits
    for band in bands:
        assert len(band) == 1 or sum(sp.region.cell_count for sp in band) * 8 <= band_bytes
    # each split's bytes are read once, and no byte outside the splits
    read_cells = [c for offset, n in reads for c in range(offset // 8, (offset + n) // 8)]
    assert all(offset % 8 == 0 and n % 8 == 0 for offset, n in reads)
    assert sorted(read_cells) == sorted(c for sp in splits for c in _box_cells(schema, sp.region))
    # one read per run of a band's cells that lie next to each other in the
    # file, so a band that spans every trailing extent is one read; a read
    # past the cap is cut into whole rows
    runs = 0
    for band in bands:
        cells = sorted(c for sp in band for c in _box_cells(schema, sp.region))
        runs += 1 + sum(b != a + 1 for a, b in zip(cells, cells[1:]))
    if run_bytes == storage._RUN_BYTES:
        assert len(reads) == runs
    else:
        assert len(reads) >= runs
        widest = max(band[-1].region.hi[-1] - band[0].region.lo[-1] + 1 for band in bands)
        assert all(n <= max(run_bytes, widest * 8) for _, n in reads)


def test_splits_of_other_rows_make_their_own_bands(array_factory):
    # side by side along y, but b spans more rows than a, and c fewer than b
    built = array_factory(extents=(4, 6), chunks=(4, 2), fill="ramp")
    schema, path = built.schema, built.data_path
    a, b, c = (
        compute_splits(schema, BoundingBox(lo, hi), path)[0]
        for lo, hi in (((0, 0), (1, 1)), ((0, 2), (3, 3)), ((2, 4), (3, 5)))
    )
    assert [len(band) for band in storage._bands([a, b, c])] == [1, 1, 1]
    blocks = [block for _, block, _ in split_blocks([a, b, c])]
    assert [block.tolist() for block in blocks] == [
        built.values[0:2, 0:2].tolist(),
        built.values[0:4, 2:4].tolist(),
        built.values[2:4, 4:6].tolist(),
    ]


def test_band_reader_holds_one_band(tmp_path):
    # 512 x 4096 float64 in 64 x 64 chunks: 64 splits of 32 KiB side by side
    # in each row band, so every band is cut by the cap
    schema = ArraySchema("A", "float64", "val", dims2(512, 4096, 64, 64))
    path = tmp_path / "A.bin"
    generate_array(schema, "uniform", path, seed=1)
    splits = compute_splits(schema, schema.whole_box(), path)
    block_bytes = 64 * 64 * 8
    assert storage.BAND_BYTES >= 4 * block_bytes
    tracemalloc.start()
    try:
        for _ in split_blocks(splits):  # fills the interpreter's caches
            pass
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        n = 0
        for _, block, keep in split_blocks(splits):
            n += block.size
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert n == schema.cell_count
    # the band, the block the loop holds and the next one, cut from the band
    assert peak <= storage.BAND_BYTES + 2 * block_bytes + 16 * 1024, peak


def test_band_reader_opens_and_checks_the_file_once(array_factory, monkeypatch):
    built = array_factory(extents=(8, 12), chunks=(2, 3), fill="uniform")
    splits = compute_splits(built.schema, built.schema.whole_box(), built.data_path)
    checks = []
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: checks.append(fd) or real_fstat(fd))
    blocks = [block for _, block, _ in split_blocks(splits)]
    assert len(checks) == 1 and len(blocks) == len(splits) == 16
