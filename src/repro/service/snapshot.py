"""Index snapshots: serialise a built index, restore it without rebuilding.

The paper's experiments (and any real serving deployment) pay an index's
construction cost -- up to O(n^2) distance computations for AESA, full PSA
scans for EPT* -- once, then answer many queries.  Before this module every
process start repeated that cost.  A snapshot captures a built
:class:`~repro.core.index.MetricIndex` (its tables, tree nodes, page
stores, dataset and distance) so a later process restores it and serves
queries immediately, with **zero** build-time distance computations.

File format v4::

    MAGIC (8 bytes) | header length (4 bytes, big-endian) | header JSON
    | pad to 4096 | array regions (each 4096-aligned, little-endian)
    | pickle payload

Every large numeric array in the index graph -- the dataset's vector
table, LAESA/EPT distance tables, page-store images -- is lifted out of
the pickle into a flat dtype-tagged **region** after the header
(``header["regions"]`` records dtype, shape, offset, nbytes per region);
the pickle payload references regions by number via pickle's
persistent-id hooks.  :func:`load_index` restores each region as a
``numpy.memmap`` (copy-on-write, so the restored index stays mutable
without ever writing the file): restore cost is the small pickle skeleton,
not the vector table -- near-instant start, lazy paging, and N replicas
mapping one snapshot share its OS page cache.  Page stores cooperate via
:meth:`~repro.storage.pager.PageStore._snapshot_state`, so CPT / external
page files become one region each and pages fault in on first read.

The JSON header carries the format version, the index class, and basic
provenance, so incompatible snapshots fail fast with a clear error instead
of unpickling garbage.  Every index upholds the snapshot contract
documented on :meth:`MetricIndex.prepare_snapshot` (picklable state,
buffered pages flushed), and :class:`~repro.core.counters.CostCounters`
drops its lock on pickling.  Format 6 is format 2's bytes, the number
marking that every object and page is in today's layout, and it is the one
layout check: :func:`load_index` reads format 6 alone, with one plain
unpickler, and refuses any other with a :class:`SnapshotError` naming
``repro migrate`` (:mod:`.migrate`, the one reader of older formats and
layouts), as it refuses a pickle naming code this build no longer has.  No
index class recognises a state of its own that a layout
change retired: such a change bumps the number and registers a converter
in :mod:`.migrate`.

Round-trip equality contract (asserted by ``tests/test_service.py`` for
every index family): for any queries, the restored index returns answers
identical to the original's, and restoring performs no distance
computations or page writes beyond reading the file.

Multi-index deployments compose this format rather than extend it: an
:class:`~repro.service.catalog.IndexCatalog` saves one ``.snap`` per
member plus a ``{stem}.catalog.json`` manifest naming them (the same
idiom as the cluster layer's shard manifests), and the cluster layer's
``save_split`` writes per-shard ``.snap`` files behind a
``.cluster.json`` manifest.  The members of a catalog share one dataset,
and its objects are written once: the primary's file holds the dataset,
and every later member's pickle names it by a second kind of persistent
reference, ``("catalog-dataset", manifest name)``, which only the
catalog's loader resolves -- :func:`load_index` of such a member file
alone is a :class:`SnapshotError` naming its manifest.
"""

from __future__ import annotations

import io
import json
import os
import pickle
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from ..core.counters import CostCounters
from ..core.index import MetricIndex
from ..core.metric_space import MetricSpace
from ..storage.pager import PageStore, Pager, _rebuild_page_store

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotInfo",
    "save_index",
    "load_index",
    "snapshot_info",
    "iter_components",
]

SNAPSHOT_MAGIC = b"REPROSNP"
SNAPSHOT_FORMAT_VERSION = 6
# the formats a header may name: all but the current only ``repro migrate`` reads
_KNOWN_FORMATS = (1, 2, 3, 4, 5, SNAPSHOT_FORMAT_VERSION)

# regions start and stay on this boundary: mmap offsets must be multiples
# of the allocation granularity (4096 on every platform we run on), and
# page alignment is what lets replicas share clean page-cache pages
_REGION_ALIGN = 4096
# arrays smaller than this stay inline in the pickle -- a region entry,
# its alignment slack, and an mmap each cost more than they save
_MIN_REGION_BYTES = 4096

# the persistent reference a catalog member's pickle names its dataset by
_DATASET_REF = "catalog-dataset"

# dtype kinds that may live in regions: bool, (un)signed ints, floats,
# complex -- anything bit-copyable; object/str arrays stay in the pickle
_REGION_KINDS = frozenset("biufc")


def _align_up(n: int) -> int:
    return (n + _REGION_ALIGN - 1) // _REGION_ALIGN * _REGION_ALIGN


class SnapshotError(RuntimeError):
    """Raised for malformed, truncated, or incompatible snapshot files."""


@dataclass(frozen=True)
class SnapshotInfo:
    """The parsed header of a snapshot file."""

    format_version: int
    index_name: str
    index_class: str
    n_objects: int
    distance_name: str
    dataset_name: str
    payload_bytes: int
    region_bytes: int = 0
    n_regions: int = 0

    def row(self) -> dict:
        return {
            "Index": self.index_name,
            "Class": self.index_class,
            "Objects": self.n_objects,
            "Distance": self.distance_name,
            "Dataset": self.dataset_name,
            "Payload": self.payload_bytes,
            "Regions": self.n_regions,
            "RegionBytes": self.region_bytes,
            "Format": self.format_version,
        }


# exact types that can neither be nor hold a component: checked before a
# child reaches the walk's stack, because BKT / FQT leaves keep their ids in
# plain lists, one int per object.  (MVPT / VPT nodes and leaves are all
# slotted: they hold no space and no pager, so the walk yields the root and
# opens nothing below it.)  Exact types only, so an instance
# of a ``repro`` subclass of one of these would still be walked and yielded.
_ATOMS = frozenset(
    (int, float, bool, str, bytes, type(None))
    + (np.ndarray, np.memmap, np.float64, np.int64)
)


def iter_components(index: MetricIndex):
    """Yield every repro component object reachable from an index.

    Walks the attribute graph (dicts, lists, tuples, and ``repro``-defined
    objects) once, cycle-safe.  The snapshot and service layers use it to
    find all :class:`MetricSpace` and :class:`Pager` instances regardless
    of index shape -- tables keep a mapping, CPT nests an M-tree with its
    own pager, ``ShardedIndex`` holds a list of inner indexes.
    """
    seen: set[int] = set()
    stack: list[object] = [index]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            children = obj
        elif isinstance(obj, dict):
            children = obj.values()
        else:
            module = getattr(type(obj), "__module__", "") or ""
            if not module.startswith("repro"):
                continue
            yield obj
            state = getattr(obj, "__dict__", None)
            if not state:
                continue
            children = state.values()
        stack.extend(child for child in children if type(child) not in _ATOMS)


def _pagers_of(index: MetricIndex) -> list[Pager]:
    return [c for c in iter_components(index) if isinstance(c, Pager)]


def rebind_counters(index: MetricIndex, counters: CostCounters) -> None:
    """Point every space and page store in the index at one counter object.

    After restore this hands the whole graph a fresh accumulator (so
    serving stats start at zero); the service layer also uses it to share
    one counter across several hosted indexes.  One walk of the graph
    rebinds spaces and pagers as it meets them.

    A :class:`~repro.core.sharded.ShardedIndex` in per-shard-counters mode
    is rebound structurally: the parent gets ``counters`` and each shard
    subtree gets its own fresh private accumulator.  Collapsing them onto
    one object would make every shard call count twice -- once through the
    shared object, once through the merged delta.
    """
    from ..core.sharded import ShardedIndex

    if isinstance(index, ShardedIndex) and index.per_shard_counters:
        index.space.counters = counters
        for shard in index.shards:
            rebind_counters(shard, CostCounters())
        return
    for component in iter_components(index):
        if isinstance(component, MetricSpace):
            component.counters = counters
        elif isinstance(component, Pager):
            component.store.counters = counters


class _SnapshotPickler(pickle.Pickler):
    """Pickler that lifts large numeric arrays out into file regions.

    ``persistent_id`` intercepts every eligible ndarray (numeric dtype,
    >= ``_MIN_REGION_BYTES``), appends its on-disk form (little-endian,
    C-contiguous) to :attr:`regions`, and emits an ``("ndarray-region",
    i)`` reference into the pickle stream.  Repeated references to one
    array object collapse to one region (pickle checks persistent ids
    before its memo), so shared tables stay shared after restore.

    ``reducer_override`` sends :class:`PageStore` through its packed
    region form -- the flat uint8 page image then gets caught by
    ``persistent_id`` like any other array.

    ``shared`` is a catalog member's ``(dataset, manifest name)``: that
    dataset object is not written, only a ``("catalog-dataset", manifest
    name)`` reference the catalog's loader resolves to its primary's.
    """

    def __init__(self, file, shared=None):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.regions: list[np.ndarray] = []
        self._region_by_id: dict[int, int] = {}
        # a fresh object stands in for no dataset: no object of the graph is it
        self._shared, self._manifest = shared or (object(), None)

    def persistent_id(self, obj):
        if obj is self._shared:
            return (_DATASET_REF, self._manifest)
        if (
            isinstance(obj, np.ndarray)
            and obj.dtype.kind in _REGION_KINDS
            and obj.nbytes >= _MIN_REGION_BYTES
        ):
            idx = self._region_by_id.get(id(obj))
            if idx is None:
                idx = len(self.regions)
                self.regions.append(
                    np.ascontiguousarray(obj, dtype=obj.dtype.newbyteorder("<"))
                )
                self._region_by_id[id(obj)] = idx
            return ("ndarray-region", idx)
        return None

    def reducer_override(self, obj):
        if type(obj) is PageStore:
            directory, empty, packed = obj._snapshot_state()
            return (
                _rebuild_page_store,
                (obj.page_size, obj._next_id, directory, empty, packed),
            )
        return NotImplemented


class _SnapshotUnpickler(pickle.Unpickler):
    """Unpickler resolving region references to copy-on-write memmaps.

    ``mode="c"`` maps the file privately: reads fault pages straight from
    the OS page cache (shared across every process mapping the same
    snapshot), writes copy the touched page in memory -- the restored
    index stays fully mutable and the file is never modified.
    """

    def __init__(
        self, file, path: Path, table: list[dict], regions_start: int, dataset=None
    ):
        super().__init__(file)
        self._path = path
        self._table = table
        self._regions_start = regions_start
        self._dataset = dataset
        self._loaded: dict[int, np.ndarray] = {}

    def find_class(self, module, name):
        try:
            return super().find_class(module, name)
        except (AttributeError, ImportError):  # a layout the code has retired
            raise SnapshotError(
                f"{self._path} holds {module}.{name}, which this build reads "
                f"only through `repro migrate {self._path} NEW`"
            ) from None

    def persistent_load(self, pid):
        try:
            kind, idx = pid
        except (TypeError, ValueError):
            raise SnapshotError(f"{self._path} has an unknown reference {pid!r}")
        if kind == _DATASET_REF:
            if self._dataset is None:
                raise SnapshotError(
                    f"{self._path} is a catalog member whose objects live in "
                    f"the catalog's primary; load it through its manifest "
                    f"{self._path.parent / str(idx)}"
                )
            return self._dataset
        if kind != "ndarray-region" or not 0 <= idx < len(self._table):
            raise SnapshotError(
                f"{self._path} references region {pid!r} outside its region table"
            )
        arr = self._loaded.get(idx)
        if arr is None:
            entry = self._table[idx]
            arr = np.memmap(
                self._path,
                dtype=np.dtype(entry["dtype"]),
                mode="c",
                offset=self._regions_start + entry["offset"],
                shape=tuple(entry["shape"]),
            )
            self._loaded[idx] = arr
        return arr


def save_index(index: MetricIndex, path) -> SnapshotInfo:
    """Serialise a built index to ``path``; returns the written header.

    Calls the index's :meth:`~repro.core.index.MetricIndex.prepare_snapshot`
    hook, then flushes every reachable pager (belt and braces: an index
    that forgets the hook still snapshots a consistent page store), then
    writes the versioned header, the array regions, and the pickle of the
    remaining index graph.
    """
    return _save(index, path)


def _save(index: MetricIndex, path, shared=None) -> SnapshotInfo:
    """:func:`save_index`; a catalog member passes ``shared``, the
    ``(dataset, manifest name)`` its pickle references (see
    :class:`_SnapshotPickler`)."""
    index.prepare_snapshot()
    for pager in _pagers_of(index):
        pager.prepare_snapshot()
    buffer = io.BytesIO()
    pickler = _SnapshotPickler(buffer, shared)
    pickler.dump(index)
    payload = buffer.getvalue()
    regions = pickler.regions
    table = []
    offset = 0
    for arr in regions:
        offset = _align_up(offset)
        table.append(
            {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": int(arr.nbytes),
            }
        )
        offset += arr.nbytes
    regions_span = _align_up(offset)
    space = index.space
    header = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "index_name": index.name,
        "index_class": f"{type(index).__module__}.{type(index).__qualname__}",
        "n_objects": len(space),
        "distance_name": space.distance.name,
        "dataset_name": space.dataset.name,
        "payload_bytes": len(payload),
        "region_bytes": sum(int(arr.nbytes) for arr in regions),
        "n_regions": len(regions),
        "regions": table,
        "regions_span": regions_span,
    }
    header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # written beside ``path`` and renamed over it: a region may be mapped
    # from the file it replaces (an index saved back over its snapshot),
    # and truncating that file would pull the pages from under the write
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with open(partial, "wb") as fh:
            fh.write(SNAPSHOT_MAGIC)
            fh.write(len(header_blob).to_bytes(4, "big"))
            fh.write(header_blob)
            written = fh.tell()
            fh.write(b"\x00" * (_align_up(written) - written))
            base = fh.tell()
            for arr, entry in zip(regions, table):
                pad = (base + entry["offset"]) - fh.tell()
                if pad:
                    fh.write(b"\x00" * pad)
                fh.write(memoryview(arr).cast("B"))
            pad = (base + regions_span) - fh.tell()
            if pad:
                fh.write(b"\x00" * pad)
            fh.write(payload)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
    return _info_of(header, path)


def _read_header(fh, path: Path) -> tuple[SnapshotInfo, dict, int]:
    """Parse the prefix; returns (info, raw header, prefix byte length)."""
    magic = fh.read(len(SNAPSHOT_MAGIC))
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path} is not a repro snapshot (bad magic)")
    length_bytes = fh.read(4)
    if len(length_bytes) != 4:
        raise SnapshotError(f"{path} is truncated (no header length)")
    header_len = int.from_bytes(length_bytes, "big")
    header_blob = fh.read(header_len)
    try:
        header = json.loads(header_blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path} has a corrupt header: {exc}") from None
    info = _info_of(header, path)
    if info.format_version not in _KNOWN_FORMATS:
        raise SnapshotError(
            f"{path} uses snapshot format {info.format_version}; this build "
            f"reads format {SNAPSHOT_FORMAT_VERSION}"
        )
    prefix_len = len(SNAPSHOT_MAGIC) + 4 + header_len
    return info, header, prefix_len


def _info_of(header, path: Path) -> SnapshotInfo:
    """The header's :class:`SnapshotInfo`: a :class:`SnapshotError` unless
    the header is an object holding each field (but those with a default)
    with its type, and no count or size is negative."""
    if not isinstance(header, dict):
        raise SnapshotError(f"{path} has a corrupt header: not a JSON object")
    known = {}
    for field in fields(SnapshotInfo):
        value = known[field.name] = header.get(field.name, field.default)
        want = int if field.type == "int" else str
        if type(value) is not want or want is int and value < 0:
            shown = "missing" if value is MISSING else f"{value!r}"
            raise SnapshotError(f"{path} has a corrupt header: {field.name} is {shown}")
    return SnapshotInfo(**known)


def _validated_regions(header: dict, path: Path, file_size: int, prefix_len: int):
    """Check the region table against the file; returns (table, start, span).

    Every failure mode -- nonsense offsets, dtype/shape/nbytes mismatch,
    regions poking past the file -- raises :class:`SnapshotError` before
    any mmap or unpickle happens.
    """
    table = header.get("regions", [])
    if not isinstance(table, list):
        raise SnapshotError(f"{path} has a corrupt region table")
    regions_start = _align_up(prefix_len)
    try:
        regions_span = int(header["regions_span"])
    except (KeyError, TypeError, ValueError):
        raise SnapshotError(f"{path} header is missing its region span") from None
    for i, entry in enumerate(table):
        try:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(s) for s in entry["shape"])
            offset = int(entry["offset"])
            nbytes = int(entry["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"{path} has a corrupt region table entry {i}: {exc}"
            ) from None
        if dtype.kind not in _REGION_KINDS:
            raise SnapshotError(
                f"{path} region {i} has non-numeric dtype {dtype}"
            )
        if any(s < 0 for s in shape) or nbytes != dtype.itemsize * int(
            np.prod(shape, dtype=np.int64)
        ):
            raise SnapshotError(
                f"{path} region {i} is corrupt: {nbytes} bytes does not match "
                f"shape {shape} x {dtype}"
            )
        if offset < 0 or offset + nbytes > regions_span:
            raise SnapshotError(
                f"{path} region {i} lies outside the declared region span"
            )
        if regions_start + offset + nbytes > file_size:
            raise SnapshotError(
                f"{path} is truncated inside memmap region {i} "
                f"(need {regions_start + offset + nbytes} bytes, file has {file_size})"
            )
    return table, regions_start, regions_span


def snapshot_info(path) -> SnapshotInfo:
    """Parse and validate a snapshot's header without loading the payload."""
    path = Path(path)
    with open(path, "rb") as fh:
        info, _, _ = _read_header(fh, path)
    return info


def _unpickle(
    path, unpickler=_SnapshotUnpickler, formats=(SNAPSHOT_FORMAT_VERSION,), dataset=None
):
    """The index a snapshot of one of ``formats`` holds, through
    ``unpickler`` (a :class:`_SnapshotUnpickler` class); any other format
    is a :class:`SnapshotError` naming ``repro migrate``.  Format 1 has no
    regions, its payload following the header; later formats have the
    region table checked before anything is mapped or unpickled.
    ``dataset`` is what a catalog member's dataset reference resolves to."""
    path = Path(path)
    with open(path, "rb") as fh:
        info, header, prefix_len = _read_header(fh, path)
        if info.format_version not in formats:
            raise SnapshotError(
                f"{path} is snapshot format {info.format_version}, which this "
                f"build reads only through `repro migrate {path} NEW`"
            )
        file_size = fh.seek(0, 2)
        if info.format_version == 1:
            table, regions_start, payload_start = [], 0, prefix_len
        else:
            table, regions_start, span = _validated_regions(header, path, file_size, prefix_len)
            payload_start = regions_start + span
        if payload_start + info.payload_bytes > file_size:
            raise SnapshotError(f"{path} is truncated (payload short)")
        fh.seek(payload_start)
        payload = io.BytesIO(fh.read(info.payload_bytes))
    try:
        index = unpickler(payload, path, table, regions_start, dataset).load()
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(f"{path} payload failed to unpickle: {exc}") from exc
    if not isinstance(index, MetricIndex):
        raise SnapshotError(f"{path} payload is a {type(index).__name__}, not a MetricIndex")
    return index


def load_index(path, counters: CostCounters | None = None) -> MetricIndex:
    """Restore an index from a snapshot file.

    The restored index is handed ``counters`` (or a fresh zeroed
    :class:`CostCounters`) across all of its spaces and page stores, so
    serving measurements start clean.  No distance computations happen:
    the tables, trees, and page stores come back exactly as saved -- the
    heavy arrays as copy-on-write memmaps, so the restore cost is the
    pickle skeleton, not the vector table.  A file of an older format is
    a :class:`SnapshotError` that names ``repro migrate``, and a catalog
    member saved without its objects one that names its manifest.
    """
    index = _unpickle(path)
    rebind_counters(index, counters if counters is not None else CostCounters())
    return index
