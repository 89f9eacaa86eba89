"""Dense n-dimensional array files with sidecar metadata and chunk-aligned splits.

An array lives as two files: ``<name>.bin`` holding raw little-endian cells in
row-major order with no header, and ``<name>.meta.json`` describing the schema.
Chunking is logical: it determines split boundaries, not the physical layout.
A split is one chunk clipped to the query box, and reading it fills one n-d
block with exactly the region's cells, one row segment at a time, so a scan
never reads bytes outside its box. The value filter is applied to the whole
block at once. Each read checks the data file's size against the metadata.
read_block returns the block and the filter's mask, for the engine;
read_split yields the kept cells one record at a time.
"""

from __future__ import annotations

import json
import os
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
    """One map-task input: a chunk clipped to the query box."""

    split_id: int
    region: BoundingBox
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
            DimSpec(str(d["name"]), *(_json_int(d, key, path) for key in ("start", "end", "chunk")))
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


def _json_int(dim: dict, key: str, path: Path) -> int:
    """A dimension field, which must be a JSON integer: 7.9, "1_5" or true
    would otherwise load as some other bound than the file was written for."""
    value = dim[key]
    if type(value) is not int:
        raise StoreError(
            f"malformed metadata {path}: dimension field {key!r} must be an integer, "
            f"got {value!r}"
        )
    return value


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
                schema=schema,
                data_path=path,
            )
        )
    return splits


def _read_block(split: ArraySplit) -> np.ndarray:
    """The split's region as an n-d array, read one row segment at a time."""
    schema, region = split.schema, split.region
    if split.data_path is None:
        raise StoreError(f"array {schema.name!r} has no data file")
    block = np.empty(region.shape, schema.dtype)
    rows = block.reshape(-1, region.shape[-1])
    # file offset of each row segment: the region's first cell plus the
    # row's position along the outer dimensions' strides
    strides = schema.strides()
    first = sum((l - d.start) * s for l, d, s in zip(region.lo, schema.dims, strides))
    outer = np.ix_(*(np.arange(n) * s for n, s in zip(region.shape[:-1], strides[:-1])))
    offsets = ((first + sum(outer, np.zeros((), np.int64))) * ELEMENT_SIZE).ravel()
    # one positioned read per row, not np.memmap: a file cut short during
    # the read must raise StoreError, where a memory map would die of SIGBUS
    try:
        f = open(split.data_path, "rb", buffering=0)
    except OSError as exc:
        raise StoreError(f"array {schema.name!r}: cannot open its data file: {exc}") from exc
    with f:
        fd = f.fileno()
        size = os.fstat(fd).st_size
        if size != schema.nbytes:
            raise StoreError(
                f"{split.data_path} holds {size} bytes where {schema.nbytes} are "
                "expected: data file does not match metadata"
            )
        for row, offset in zip(rows, offsets.tolist()):
            if os.preadv(fd, [row], offset) != row.nbytes:
                raise StoreError(
                    f"short read at offset {offset} in {split.data_path}: "
                    "data file does not match metadata"
                )
    return block


def read_block(
    split: ArraySplit,
    predicate: ValuePredicate | None = None,
    counters: "Counters | None" = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The split's region as an n-d array, and the predicate's mask over it
    (None without a predicate).

    bytes_read counts every byte of the region regardless of the predicate;
    map_input_records counts only the cells the mask keeps.
    """
    block = _read_block(split)
    keep = None if predicate is None else predicate.mask(block)
    if counters is not None:
        counters.add("bytes_read", block.nbytes)
        counters.add("map_input_records", block.size if keep is None else int(np.count_nonzero(keep)))
    return block, keep


def read_split(
    split: ArraySplit,
    predicate: ValuePredicate | None = None,
    counters: "Counters | None" = None,
) -> Iterator[CellRecord]:
    """The split's cells that pass the predicate, in row-major order, with
    counters as read_block keeps them. The region is read whole before this
    returns."""
    block, keep = read_block(split, predicate, counters)
    region = split.region
    if keep is None:
        coords = product(*(range(l, h + 1) for l, h in zip(region.lo, region.hi)))
        values = block.ravel().tolist()
    else:
        coords = zip(*((i + l).tolist() for i, l in zip(np.nonzero(keep), region.lo)))
        values = block[keep].tolist()
    return map(CellRecord, coords, values)
