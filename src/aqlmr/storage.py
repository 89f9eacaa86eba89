"""Dense n-dimensional array files with sidecar metadata and chunk-aligned splits.

An array lives as two files: ``<name>.bin`` holding raw little-endian cells in
row-major order with no header, and ``<name>.meta.json`` describing the schema.
Chunking is logical: it determines split boundaries and byte ranges, not the
physical layout. A split covers one chunk clipped to the query box, so a scan
over a box never reads bytes outside the chunks that box touches, and value
filtering is applied while rows stream out of the file rather than in a second
pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from math import prod
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .predicate import ValuePredicate

if TYPE_CHECKING:
    from .engine import Counters

ELEMENT_DTYPES = {"float64": "<f8", "int64": "<i8"}
ELEMENT_SIZE = 8  # both supported element types are 8 bytes wide


class StoreError(Exception):
    """Bad metadata, a box outside the layout, or a data file that does not match."""


@dataclass(frozen=True)
class DimSpec:
    name: str
    start: int
    end: int  # inclusive
    chunk: int

    @property
    def extent(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class ArraySchema:
    name: str
    element_type: str
    attribute: str
    dims: tuple[DimSpec, ...]

    def __post_init__(self) -> None:
        if self.element_type not in ELEMENT_DTYPES:
            raise StoreError(f"unsupported element type {self.element_type!r}")
        if not self.dims:
            raise StoreError(f"array {self.name!r} needs at least one dimension")
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise StoreError(f"array {self.name!r} has duplicate dimension names")
        for d in self.dims:
            if d.start > d.end:
                raise StoreError(f"dimension {d.name!r}: start {d.start} > end {d.end}")
            if d.chunk < 1:
                raise StoreError(f"dimension {d.name!r}: chunk must be >= 1")
            if d.chunk > d.extent:
                raise StoreError(
                    f"dimension {d.name!r}: chunk exceeds extent ({d.chunk} > {d.extent})"
                )

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(d.extent for d in self.dims)

    @property
    def chunk_shape(self) -> tuple[int, ...]:
        return tuple(d.chunk for d in self.dims)

    @property
    def cell_count(self) -> int:
        return prod(self.extents)

    @property
    def nbytes(self) -> int:
        return self.cell_count * ELEMENT_SIZE

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(ELEMENT_DTYPES[self.element_type])

    def whole_box(self) -> "BoundingBox":
        return BoundingBox(
            tuple(d.start for d in self.dims), tuple(d.end for d in self.dims)
        )

    def strides(self) -> tuple[int, ...]:
        # row-major cell strides
        out = [1] * self.ndim
        for i in range(self.ndim - 2, -1, -1):
            out[i] = out[i + 1] * self.dims[i + 1].extent
        return tuple(out)

    def linear_index(self, coord: tuple[int, ...]) -> int:
        strides = self.strides()
        return sum((c - d.start) * s for c, d, s in zip(coord, self.dims, strides))


@dataclass(frozen=True)
class BoundingBox:
    """Inclusive coordinate box; lo and hi are per-dimension corners."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same dimensionality")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty box: lo {self.lo} exceeds hi {self.hi}")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def cell_count(self) -> int:
        return prod(self.shape)

    def contains(self, coord: tuple[int, ...]) -> bool:
        return all(l <= c <= h for c, l, h in zip(coord, self.lo, self.hi))

    def intersect(self, other: "BoundingBox") -> "BoundingBox | None":
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return BoundingBox(lo, hi)

    def __str__(self) -> str:
        return "({})-({})".format(
            ",".join(map(str, self.lo)), ",".join(map(str, self.hi))
        )


class CellRecord(NamedTuple):
    coord: tuple[int, ...]
    value: float | int


@dataclass(frozen=True)
class ArraySplit:
    """One map-task input: a chunk clipped to the query box.

    byte_ranges lists (offset, length) file ranges, one per covered row
    segment, in row-major order; together they cover exactly the region's
    cells.
    """

    split_id: int
    region: BoundingBox
    byte_ranges: tuple[tuple[int, int], ...]
    schema: ArraySchema
    data_path: Path | None


def meta_path_for(directory: Path | str, name: str) -> Path:
    return Path(directory) / f"{name}.meta.json"


def data_path_for(meta_path: Path | str) -> Path:
    meta_path = Path(meta_path)
    name = meta_path.name.removesuffix(".meta.json")
    return meta_path.with_name(f"{name}.bin")


def load_schema(metadata_path: Path | str) -> ArraySchema:
    path = Path(metadata_path)
    if not path.exists():
        raise StoreError(f"metadata file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise StoreError(f"malformed metadata {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise StoreError(f"malformed metadata {path}: expected a JSON object")
    order = doc.get("order", "row-major")
    if order != "row-major":
        raise StoreError(f"malformed metadata {path}: unsupported order {order!r}")
    try:
        dims = tuple(
            DimSpec(str(d["name"]), int(d["start"]), int(d["end"]), int(d["chunk"]))
            for d in doc["dims"]
        )
        return ArraySchema(
            name=str(doc["name"]),
            element_type=str(doc["element_type"]),
            attribute=str(doc["attribute"]),
            dims=dims,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed metadata {path}: missing or bad field ({exc})") from exc


def save_schema(schema: ArraySchema, metadata_path: Path | str) -> Path:
    path = Path(metadata_path)
    doc = {
        "name": schema.name,
        "element_type": schema.element_type,
        "attribute": schema.attribute,
        "order": "row-major",
        "dims": [
            {"name": d.name, "start": d.start, "end": d.end, "chunk": d.chunk}
            for d in schema.dims
        ],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


@dataclass(frozen=True)
class CatalogEntry:
    schema: ArraySchema
    data_path: Path | None


class Catalog:
    """Registered arrays, resolvable by name during semantic analysis."""

    def __init__(self) -> None:
        self._entries: dict[str, CatalogEntry] = {}

    def register(self, schema: ArraySchema, data_path: Path | str | None = None) -> CatalogEntry:
        if schema.name in self._entries:
            raise StoreError(f"array {schema.name!r} is already registered")
        entry = CatalogEntry(schema, Path(data_path) if data_path is not None else None)
        self._entries[schema.name] = entry
        return entry

    def get(self, name: str) -> CatalogEntry | None:
        return self._entries.get(name)

    @classmethod
    def load_dir(cls, directory: Path | str) -> "Catalog":
        catalog = cls()
        for meta in sorted(Path(directory).glob("*.meta.json")):
            schema = load_schema(meta)
            catalog.register(schema, data_path_for(meta))
        return catalog


def generate_array(
    schema: ArraySchema, fill: str, out_path: Path | str, *, seed: int = 0
) -> Path:
    """Write a dense data file for ``schema``.

    fill is one of "ramp" (cell at row-major index i gets value i),
    "uniform" (deterministic for a given seed; floats in [0, 1), ints in
    [0, 1000)), or "constant:<c>".
    """
    n = schema.cell_count
    if fill == "ramp":
        values = np.arange(n)
    elif fill == "uniform":
        rng = np.random.default_rng(seed)
        if schema.element_type == "float64":
            values = rng.random(n)
        else:
            values = rng.integers(0, 1000, n)
    elif fill == "constant" or fill.startswith("constant:"):
        _, _, text = fill.partition(":")
        try:
            c = float(text) if text else 0.0
        except ValueError:
            raise StoreError(f"bad constant fill {fill!r}")
        values = np.full(n, c)
    else:
        raise StoreError(f"unknown fill {fill!r} (expected ramp, uniform, or constant:<c>)")
    out_path = Path(out_path)
    out_path.write_bytes(np.asarray(values).astype(schema.dtype).tobytes())
    return out_path


def write_array(schema: ArraySchema, values: np.ndarray, out_path: Path | str) -> Path:
    """Write arbitrary cell values (shaped to the schema's extents or flat)."""
    arr = np.asarray(values).reshape(schema.extents)
    out_path = Path(out_path)
    out_path.write_bytes(arr.astype(schema.dtype).tobytes())
    return out_path


def _chunk_counts(schema: ArraySchema) -> tuple[int, ...]:
    return tuple(-(-d.extent // d.chunk) for d in schema.dims)


def _row_starts(region: BoundingBox) -> Iterator[tuple[int, ...]]:
    """Row-major iteration over all-but-last-dimension coordinates of a region."""
    outer = [range(l, h + 1) for l, h in zip(region.lo[:-1], region.hi[:-1])]
    return product(*outer)


def _region_byte_ranges(schema: ArraySchema, region: BoundingBox) -> tuple[tuple[int, int], ...]:
    row_cells = region.hi[-1] - region.lo[-1] + 1
    length = row_cells * ELEMENT_SIZE
    last_lo = region.lo[-1]
    ranges = []
    for outer in _row_starts(region):
        offset = schema.linear_index(outer + (last_lo,)) * ELEMENT_SIZE
        ranges.append((offset, length))
    return tuple(ranges)


def compute_splits(
    schema: ArraySchema, box: BoundingBox, data_path: Path | str | None = None
) -> list[ArraySplit]:
    """One split per logical chunk intersecting the box, ordered by row-major
    chunk index over the full chunk grid."""
    whole = schema.whole_box()
    if box.ndim != schema.ndim or box.intersect(whole) != box:
        raise StoreError(f"box {box} out of bounds for array {schema.name!r}")
    counts = _chunk_counts(schema)
    # per-dimension range of chunk indices the box touches
    idx_ranges = []
    for d, lo, hi in zip(schema.dims, box.lo, box.hi):
        idx_ranges.append(range((lo - d.start) // d.chunk, (hi - d.start) // d.chunk + 1))
    path = Path(data_path) if data_path is not None else None
    splits = []
    for chunk_idx in product(*idx_ranges):
        split_id = 0
        for i, n in zip(chunk_idx, counts):
            split_id = split_id * n + i
        chunk_lo = tuple(d.start + i * d.chunk for d, i in zip(schema.dims, chunk_idx))
        chunk_hi = tuple(
            min(l + d.chunk - 1, d.end) for d, l in zip(schema.dims, chunk_lo)
        )
        region = box.intersect(BoundingBox(chunk_lo, chunk_hi))
        assert region is not None  # chunk_idx ranges guarantee overlap
        splits.append(
            ArraySplit(
                split_id=split_id,
                region=region,
                byte_ranges=_region_byte_ranges(schema, region),
                schema=schema,
                data_path=path,
            )
        )
    return splits


def read_split(
    split: ArraySplit,
    predicate: ValuePredicate | None = None,
    counters: "Counters | None" = None,
) -> Iterator[CellRecord]:
    """Stream the split's cells in row-major order, filtered by the predicate.

    bytes_read counts every byte of the split's ranges regardless of the
    predicate; map_input_records counts only the yielded cells.
    """
    if split.data_path is None:
        raise StoreError(f"split {split.split_id} has no data file")
    dtype = split.schema.dtype
    region = split.region
    last_lo = region.lo[-1]
    with open(split.data_path, "rb") as f:
        for outer, (offset, length) in zip(_row_starts(region), split.byte_ranges):
            f.seek(offset)
            buf = f.read(length)
            if len(buf) != length:
                raise StoreError(
                    f"short read at offset {offset} in {split.data_path}: "
                    "data file does not match metadata"
                )
            row = np.frombuffer(buf, dtype=dtype)
            if counters is not None:
                counters.add("bytes_read", length)
            if predicate is None:
                idxs = range(row.size)
                vals = row.tolist()
            else:
                keep = predicate.mask(row)
                idxs = np.nonzero(keep)[0].tolist()
                vals = row[keep].tolist()
            if counters is not None:
                counters.add("map_input_records", len(vals))
            for i, v in zip(idxs, vals):
                yield CellRecord(outer + (last_lo + i,), v)
