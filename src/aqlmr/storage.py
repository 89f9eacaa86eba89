"""Dense n-dimensional array files with sidecar metadata and chunk-aligned splits.

An array lives as two files: ``<name>.bin`` holding raw little-endian cells in
row-major order with no header, and ``<name>.meta.json`` describing the schema.
Chunking is logical: it determines split boundaries, not the physical layout.
A split is one chunk clipped to the query box, and reading it fills one n-d
block with exactly the region's cells, so a scan never reads bytes outside
its box. A job's splits are read in bands: consecutive splits side by side
along the last dimension, up to BAND_BYTES of the box's rows, each band with
one positioned read per run of rows that lie next to each other in the file.
The data file is opened and its size checked against the metadata once per
job, and every read checks that it got all its bytes. The value filter is
applied to each band at once. read_bands yields each band with the
filter's mask over it, and Band.blocks cuts each split's block and mask from
it, for the engine; read_block reads one split as a band of its own;
read_split yields the kept cells one record at a time.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import closing
from dataclasses import dataclass
from itertools import product
from math import prod
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

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
        # from a list: tuple() over a generator allocates a larger tuple and
        # shrinks it, moving a block between the interpreter's free lists on
        # every call, which memory tracing counts as growth
        return tuple([h - l + 1 for l, h in zip(self.lo, self.hi)])

    @property
    def cell_count(self) -> int:
        return prod(self.shape)

    def _check_ndim(self, what: str, ndim: int) -> None:
        if ndim != self.ndim:
            raise ValueError(f"a {what} of {ndim} dimensions against a box of {self.ndim}")

    def contains(self, coord: tuple[int, ...]) -> bool:
        self._check_ndim("coordinate", len(coord))
        return all(l <= c <= h for c, l, h in zip(coord, self.lo, self.hi))

    def intersect(self, other: "BoundingBox") -> "BoundingBox | None":
        self._check_ndim("box", other.ndim)
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
        if not Path(directory).is_dir():
            raise StoreError(f"data directory not found: {directory}")
        catalog = cls()
        for meta in sorted(Path(directory).glob("*.meta.json")):
            schema = load_schema(meta)
            catalog.register(schema, data_path_for(meta))
        return catalog


def generate_array(
    schema: ArraySchema, fill: str, out_path: Path | str, *, seed: int = 0
) -> Path:
    """Write a dense data file for ``schema``, making its directory once the
    fill has been checked and built (a refused fill leaves nothing behind).

    fill is one of "ramp" (cell at row-major index i gets value i),
    "uniform" (deterministic for a given seed; floats in [0, 1), ints in
    [0, 1000)), or "constant:<c>".
    """
    if schema.nbytes > sys.maxsize:
        raise StoreError(f"array {schema.name!r} is too large to generate ({schema.nbytes} bytes)")
    n = schema.cell_count
    dtype = schema.dtype
    try:  # one array of the file's size, written as it is
        if fill == "ramp":
            values = np.arange(n, dtype=dtype)
        elif fill == "uniform":
            rng = np.random.default_rng(seed)
            if schema.element_type == "float64":
                values = rng.random(n)
            else:
                values = rng.integers(0, 1000, n)
        elif fill == "constant" or fill.startswith("constant:"):
            values = np.full(n, _fill_constant(fill, schema.element_type), dtype)
        else:
            raise StoreError(f"unknown fill {fill!r} (expected ramp, uniform, or constant:<c>)")
        values = values.astype(dtype, copy=False)
    except MemoryError:
        raise StoreError(f"not enough memory to generate array {schema.name!r}") from None
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    values.tofile(out_path)
    return out_path


def _fill_constant(fill: str, element_type: str) -> int | float:
    """The C of a "constant:C" fill (0 when absent), a number as query text
    writes one; an int64 array takes only a whole number within int64."""
    from .frontend.parser import ParseError, parse_number  # the frontend imports this module

    _, _, text = fill.partition(":")
    try:
        c = parse_number(text) if text else 0
    except ParseError:
        raise StoreError(f"bad constant fill {fill!r}") from None
    if element_type == "float64":
        return float(c)
    if c != int(c) or not -(2**63) <= c < 2**63:
        raise StoreError(f"bad constant fill {fill!r} (int64 cells need an integer within int64)")
    return int(c)


def write_array(schema: ArraySchema, values: np.ndarray, out_path: Path | str) -> Path:
    """Write arbitrary cell values (shaped to the schema's extents or flat)."""
    arr = np.asarray(values).reshape(schema.extents)
    out_path = Path(out_path)
    arr.astype(schema.dtype, copy=False).tofile(out_path)  # in C order, whatever arr's layout
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
    # per dimension, (chunk index, low, high) of every chunk the box touches,
    # clipped to the box
    axes = [
        [
            (i, max(lo, d.start + i * d.chunk), min(hi, d.start + (i + 1) * d.chunk - 1))
            for i in range((lo - d.start) // d.chunk, (hi - d.start) // d.chunk + 1)
        ]
        for d, lo, hi in zip(schema.dims, box.lo, box.hi)
    ]
    path = Path(data_path) if data_path is not None else None
    splits = []
    for chunks in product(*axes):
        chunk_idx, lo, hi = zip(*chunks)
        split_id = 0
        for i, n in zip(chunk_idx, counts):
            split_id = split_id * n + i
        splits.append(ArraySplit(split_id, BoundingBox(lo, hi), schema, path))
    return splits


BAND_BYTES = 512 * 1024  # most bytes of the box's rows one band holds
_RUN_BYTES = 1 << 30  # largest merged read; Linux reads at most ~2 GiB at once


def _bands(splits: Sequence[ArraySplit]) -> Iterator[list[ArraySplit]]:
    """Runs of consecutive splits whose regions share every dimension but the
    last and sit side by side along it, each run at most BAND_BYTES of cells
    or one split."""
    band: list[ArraySplit] = []
    for split in splits:
        if band:
            first, last, region = band[0].region, band[-1].region, split.region
            rows = first.cell_count // first.shape[-1]
            if not (
                region.lo[:-1] == first.lo[:-1]
                and region.hi[:-1] == first.hi[:-1]
                and region.lo[-1] == last.hi[-1] + 1
                and rows * (region.hi[-1] - first.lo[-1] + 1) * ELEMENT_SIZE <= BAND_BYTES
            ):
                yield band
                band = []
        band.append(split)
    if band:
        yield band


def _read_box(fd: int, path: Path, schema: ArraySchema, box: BoundingBox) -> np.ndarray:
    """The box as an n-d array, one positioned read per run of rows that lie
    next to each other in the file."""
    shape = box.shape
    block = np.empty(shape, schema.dtype)
    # a run spans dimension k and every later one, which the box covers whole
    k = schema.ndim - 1
    while (
        k > 0
        and shape[k] == schema.dims[k].extent
        and prod(shape[k - 1 :]) * ELEMENT_SIZE <= _RUN_BYTES
    ):
        k -= 1
    runs = block.reshape(-1, prod(shape[k:]))
    # file offset of each run: the box's first cell plus the run's position
    # along the outer dimensions' strides
    strides = schema.strides()
    first = sum((l - d.start) * s for l, d, s in zip(box.lo, schema.dims, strides))
    outer = np.ix_(*(np.arange(n) * s for n, s in zip(shape[:k], strides[:k])))
    offsets = ((first + sum(outer, np.zeros((), np.int64))) * ELEMENT_SIZE).ravel()
    # positioned reads, not np.memmap: a file cut short during the read must
    # raise StoreError, where a memory map would die of SIGBUS
    for run, offset in zip(runs, offsets.tolist()):
        if os.preadv(fd, [run], offset) != run.nbytes:
            raise StoreError(
                f"short read at offset {offset} in {path}: "
                "data file does not match metadata"
            )
    return block


@dataclass
class Band:
    """Splits side by side along the last dimension (see _bands), read as
    one n-d array, and the predicate's mask over it (None without one)."""

    splits: list[ArraySplit]
    data: np.ndarray
    keep: np.ndarray | None

    def blocks(self) -> Iterator[tuple[ArraySplit, np.ndarray, np.ndarray | None]]:
        """Each split with its block and mask, in split order: contiguous
        copies of their slices of the band (the band itself for a band of
        one split)."""
        if len(self.splits) == 1:
            yield self.splits[0], self.data, self.keep
            return
        first = self.splits[0].region.lo[-1]
        for split in self.splits:
            a = split.region.lo[-1] - first
            at = (..., slice(a, a + split.region.shape[-1]))
            yield split, self.data[at].copy(), None if self.keep is None else self.keep[at].copy()


def read_bands(
    splits: Sequence[ArraySplit],
    predicate: ValuePredicate | None = None,
    counters: "Counters | None" = None,
) -> Iterator[Band]:
    """The splits' bands (see _bands) in split order, each read with one
    positioned read per run of adjacent rows and masked by the predicate at
    once.

    The splits are those of one array, as compute_splits makes them. The
    data file is opened, and its size checked against the metadata, before
    the first read; only one band is held at once, provided the caller
    drops each band before asking for the next. Close the iterator to close
    the file before it is exhausted.

    bytes_read counts every byte of the region regardless of the predicate;
    map_input_records counts only the cells the mask keeps.
    """
    schema, path = splits[0].schema, splits[0].data_path
    if path is None:
        raise StoreError(f"array {schema.name!r} has no data file")
    try:
        f = open(path, "rb", buffering=0)
    except OSError as exc:
        raise StoreError(f"array {schema.name!r}: cannot open its data file: {exc}") from exc
    with f:
        fd = f.fileno()
        size = os.fstat(fd).st_size
        if size != schema.nbytes:
            raise StoreError(
                f"{path} holds {size} bytes where {schema.nbytes} are "
                "expected: data file does not match metadata"
            )
        for band in _bands(splits):
            data = _read_box(fd, path, schema, BoundingBox(band[0].region.lo, band[-1].region.hi))
            keep = None if predicate is None else predicate.mask(data)
            if counters is not None:
                counters.add("bytes_read", data.nbytes)
                counters.add(
                    "map_input_records", data.size if keep is None else int(np.count_nonzero(keep))
                )
            yield Band(band, data, keep)
            del data, keep  # before the next band is read


def read_block(
    split: ArraySplit,
    predicate: ValuePredicate | None = None,
    counters: "Counters | None" = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One split's block and mask, read as the band of that split alone
    (see read_bands), with its counters."""
    with closing(read_bands([split], predicate, counters)) as bands:
        band = next(bands)
        return band.data, band.keep


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
