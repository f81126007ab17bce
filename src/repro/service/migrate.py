"""``repro migrate OLD NEW``: the one reader of retired snapshot layouts.

:func:`~repro.service.snapshot.load_index` reads format 6, today's layout,
only; :func:`migrate` also reads formats 1 to 5, converts every object and
page eagerly and saves the index again (a current file's pages come back
byte for byte).  A class whose pickled state changed shape loads
as a *stand-in* that becomes the real class, its state converted by the
function registered for it below.  No counted distance is computed: an
MVPT / VPT whose codes were cells of one frame a level has them made again
in its path bands from each object's path distances, which the conversion
takes once through the metric itself.  A row-major LAESA / CPT / EPT /
EPT* table goes into a column store (:mod:`repro.tables.store`), and a
store of ``float32`` / ``float64`` cells (format 5 and before) has them
coded on a grid read off them, as a build codes, its slack the cells' own
plus the grid's (:func:`_gridded`); a cascade's choices are kept.  An
SPB-tree's uniform grid (an ``eps``, later a ``Frame``) becomes the
:class:`~repro.core.quantise.Marks` of the same cells, edge for edge, and
its leaves keep their cells (decoded from their keys where a leaf had
none) and drop their keys, so its marks, cells and answers stay as
written.  Smaller shapes: a RAF locator of two ``int64`` arrays narrows to
``int32`` pages and the narrowest slots (its ``int64`` id pages stay, read
by their own kinds), and a RAF that filled its pages to a fraction of the
page drops that fraction (its pages stay as written, later ones fill the
page); FQA row ids pickled as ``intp`` become ``int32``; a
pivot mapping pickled with its ``n x l`` table keeps the table's extent
and drops it, and a LAESA / CPT table drops the extent it kept; a B+-tree
pickled before values were typed keeps the capacities it was built with,
its values held to ``int64``, one pickled before cell trees is keyed, and
leaves of key / value lists (values once ``(object id, RAF pointer)``
pairs) become columns.
"""

from __future__ import annotations

import io
from types import SimpleNamespace

import numpy as np

from .. import (
    BKT, CPT, DEPT, EPT, FQA, FQT, LAESA, MVPT, VPT, EPTStar, MIndex, MIndexStar, SPBTree,
)
from ..btree.bptree import BPlusTree, InternalNode, LeafNode, _leaf_from, _stacked
from ..core.counters import CostCounters
from ..core.mapping import PivotMapping
from ..core.quantise import Frame, Grid, Marks, cell_slack
from ..external.omni import OmniBPlusTree, OmniRTree, OmniSequentialFile
from ..mtree.mtree import MNode, MTree
from ..storage.pager import PageStore
from ..storage.raf import RafPage, RandomAccessFile
from ..tables.store import ColumnStore, PivotTable, coded
from .catalog import IndexCatalog, _member_snapshots, is_catalog_manifest
from .snapshot import _KNOWN_FORMATS, _SnapshotUnpickler, _unpickle
from .snapshot import iter_components, rebind_counters, save_index

__all__ = ["migrate"]

# names an old pickle holds that the code has deleted: the SPB-tree's B+-tree
# ``Augmentation`` and the method it held (dropped with it), the RAF's
# ``RecordPointer`` and the M-tree's entries (read by their owners' conversion)
_DELETED = [
    ("repro.btree.bptree", "Augmentation"),
    ("repro.external.spbtree", "SPBTree._merge_summaries"),
    ("repro.storage.raf", "RecordPointer"),
    ("repro.mtree.mtree", "MLeafEntry"),
    ("repro.mtree.mtree", "MRoutingEntry"),
]


def _retired_leaf(kinds, packed, cells, next_page) -> LeafNode:
    """A leaf as pickled: of (id, RAF page, RAF slot) values, with its ids
    alone; with cells beside its keys (an SPB-tree's), with its cells and
    ids alone, its tree computing the keys."""
    kinds, packed = kinds[:2], packed[:2]
    if cells is not None and len(kinds) == 2:
        kinds, packed = kinds[1:], packed[1:]
    return _leaf_from(kinds, packed, cells, next_page)


# what a pickled (module, name) loads as where that differs from today: a
# deleted name as a namespace, a bound method as None once deleted, a leaf
# as :func:`_retired_leaf` reads it, and the stand-ins :func:`_converts`
# registers
_RETIRED = dict.fromkeys(_DELETED, SimpleNamespace) | {
    ("builtins", "getattr"): lambda obj, name: getattr(obj, name, None),
    ("repro.btree.bptree", "_leaf_from"): _retired_leaf,
}


def _converts(*classes):
    """Register ``convert(state) -> state`` for ``classes``: a stand-in's
    converted state goes to the class's own ``__setstate__`` or, without
    one, attribute by attribute (slots or ``__dict__``)."""

    def register(convert):
        for cls in classes:

            def restore(self, state, cls=cls):
                self.__class__ = cls
                state = convert(state)
                if hasattr(cls, "__setstate__"):
                    return cls.__setstate__(self, state)
                for name, value in state.items():
                    object.__setattr__(self, name, value)

            stand_in = type(cls.__name__, (cls,), {"__slots__": (), "__setstate__": restore})
            _RETIRED[cls.__module__, cls.__qualname__] = stand_in
        return convert

    return register


@_converts(PageStore)
def _page_store(state):
    # format 1 pickled the store whole, before pages could lie in a region
    return {"_lazy": {}, "_region": None, **state}


@_converts(BPlusTree)
def _bplustree(state):
    # pickled before cell trees (keyed) or before values were typed (int64)
    state.setdefault("keys_of", None)
    state.setdefault("_value_kind", "i")
    if "augmentation" in state:
        # leaves were key / value lists: capacities are re-derived by the
        # next insert, and an SPB-tree (the one augmented tree) gets its
        # cells and boxes in the page pass
        if state.pop("augmentation") is not None:
            state["_uncelled"] = True
        state["_leaf_capacity"] = state["_internal_capacity"] = None
    return state


@_converts(LeafNode)
def _leaf(state):
    # the dataclass of key and value lists; of a tuple value, an (object id,
    # RAF pointer) pair, the id stays
    values = [v[0] if type(v) is tuple else v for v in state["values"]]
    return {"columns": [list(state["keys"]), values], "cells": None, "next_page": state["next_page"]}


@_converts(InternalNode)
def _internal(state):
    # the dataclass with a summary a child: boxes come in the page pass
    return {"separators": state["separators"], "children": state["children"], "lows": None, "highs": None}


@_converts(MNode)
def _mnode(state):
    # a list of entry objects; a subtree that held no vector when its entry
    # was made has the empty box: it contains nothing, and grows on insert
    rows = [e.__dict__ for e in state["entries"]]
    objs, dists = [row["obj"] for row in rows], [row["parent_dist"] for row in rows]
    if state["is_leaf"]:
        vecs = [row["vec"] for row in rows] if rows and rows[0]["vec"] is not None else None
        node = MNode(True, objs, dists, ids=[row["object_id"] for row in rows], vecs=vecs)
    else:
        radii, pages = [row["radius"] for row in rows], [row["child_page"] for row in rows]
        node = MNode(False, objs, dists, radii=radii, child_pages=pages)
        l = next((len(row["mbb_lows"]) for row in rows if row["mbb_lows"] is not None), None)
        if l is not None:
            for side, empty in (("lows", np.inf), ("highs", -np.inf)):
                boxes = [row[f"mbb_{side}"] for row in rows]
                setattr(node, side, np.array([np.full(l, empty) if b is None else b for b in boxes], np.float64))
    return {name: getattr(node, name) for name in MNode.__slots__}


@_converts(MTree)
def _mtree(state):
    # trees pickled before the option went said it up front
    if "track_vectors" in state:
        state["carries_vectors"] = state.pop("track_vectors")
    return state


def _node_state(node, state) -> None:
    node.__dict__.update(state if isinstance(state, dict) else zip(node.fields, state))


class _OldNode:
    """A tree node as pickled before trees were preorder columns: its
    attributes, from a dict or from a tuple of ``fields``."""

    fields, is_leaf = ("level", "lows", "highs", "children"), False
    __setstate__ = _node_state


class _OldLeaf(_OldNode):
    # FQT and BKT leaves, and MVPT's before they carried codes, hold ids
    # alone: depth 0, so the leaf is verified whole
    fields, is_leaf, codes, depth = ("ids", "codes", "depth"), True, b"", 0


_RETIRED.update(
    {
        ("repro.trees.mvpt", "_MvptLeaf"): _OldLeaf,
        ("repro.trees.mvpt", "_MvptNode"): _OldNode,
        ("repro.trees.fqt", "_FqtLeaf"): _OldLeaf,
        ("repro.trees.fqt", "_FqtNode"): _OldNode,
        ("repro.trees.bkt", "_BktLeaf"): _OldLeaf,
        ("repro.trees.bkt", "_BktNode"): _OldNode,
    }
)


def _flattened(root) -> tuple:
    """A tree of node objects as the five preorder columns of
    :mod:`repro.trees.common`: per node its fanout (0 for a leaf) and key
    (a level or pivot id; a leaf's depth); each internal node's lows then
    highs; each leaf's size; the leaves' ids and codes back to back."""
    rows, bounds, sizes, ids, codes = [], [], [], [], []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            rows += (0, node.depth)
            sizes.append(len(node.ids))
            ids.extend(node.ids)
            codes.append(bytes(node.codes))
        else:
            # a BKT node's key is its pivot's id, -1 once tombstoned
            key = node.pivot_id if hasattr(node, "pivot_id") else node.level
            rows += (len(node.children), key)
            bounds += (*node.lows, *node.highs)
            stack.extend(reversed(node.children))
    return (
        np.array(rows, dtype=np.intc).reshape(-1, 2),
        np.array(bounds, dtype=np.float64),
        np.array(sizes, dtype=np.intc),
        np.array(ids, dtype=np.intc),
        np.frombuffer(b"".join(codes), dtype=np.uint8),
    )


@_converts(MVPT, VPT)
def _mvpt(state):
    # codes were cells of one frame a level (none before leaves carried
    # codes); they are made again within each object's path bands
    frames = state.pop("_frames", ())
    state = _fqt(state)
    state["_stretched"] = {}
    if frames and state["root"] is not None:
        state["root"] = _band_coded(state)
    return state


def _band_coded(state) -> tuple:
    """The columns of ``state``'s tree with every leaf object's codes made
    within the bands of its path, from its distances to the path's pivots:
    computed once, here, through the metric itself (a conversion, not a
    query, so no counter sees them)."""
    tree = MVPT.__new__(MVPT)
    tree.__setstate__(dict(state))
    space = tree.space
    rows, at, child = tree._rows.tolist(), tree._at.tolist(), tree._child.tolist()
    paths = {}  # leaf rank -> (depth, path)
    stack = [(0, ())]
    while stack:
        node, path = stack.pop()
        (fan, key), first = rows[node], at[node]
        if not fan:
            paths[first] = key, path
        for j in range(fan):
            stack.append((child[first + j], path + ((2 * first + j, 2 * first + fan + j),)))
    codes = []
    for rank in range(len(tree._sizes)):
        depth, path = paths[rank]
        ids = tree._ids[tree._id_at[rank] : tree._id_at[rank + 1]]
        if depth and len(ids):
            objects = space.dataset.gather(ids)
            dists = np.column_stack(
                [
                    space.distance.one_to_many(space.dataset[tree.pivot_ids[level]], objects)
                    for level in range(depth)
                ]
            )
            frame, _, _ = tree._code_bands(np.array(path[:depth], dtype=np.intp))
            codes.append(frame.encode(dists).reshape(-1))
    codes = np.concatenate(codes) if codes else np.empty(0, dtype=np.uint8)
    return (tree._rows, tree._bounds, tree._sizes, tree._ids, codes)


@_converts(FQT, BKT)
def _fqt(state):
    if state["root"] is not None and type(state["root"]) is not tuple:
        state["root"] = _flattened(state["root"])  # node objects
    return state


@_converts(FQA)
def _fqa(state):
    # row ids pickled as ``intp`` take the ``int32`` a build makes
    state["_row_ids"] = np.asarray(state["_row_ids"], dtype=np.int32)
    if "_width" in state:  # uint32 buckets of one width; past 255 is the open top cell
        buckets = state["_signatures"]
        frame = Frame(0.0, state.pop("_width"), state["space"].is_discrete)
        state["_frames"] = (frame,) * buckets.shape[1]
        state["_signatures"] = np.minimum(buckets, 255).astype(np.uint8)
    return state


def _gridded(cells, slack: float) -> tuple[np.ndarray, Grid]:
    """``l x n`` cells that read within ``slack`` of their distances, as
    codes and their grid: a cell's code decodes within the grid's own slack
    of it, so the two add (0 while both are exact)."""
    codes, grid = coded(cells)
    if slack:
        grid = Grid(grid.step, slack + cell_slack(grid.step))
    return codes, grid


@_converts(ColumnStore)
def _column_store(state):
    if "grid" not in state:  # float32 / float64 cells under a slack
        cells, grid = _gridded(state.pop("cells"), state.pop("slack", 0.0))
        state.update(cells=cells, grid=grid)
    return state


@_converts(LAESA, CPT)
def _laesa(state):
    old = state["mapping"]
    if isinstance(old, PivotTable):
        return state
    # the row-major ``matrix`` the mapping's stand-in below keeps: float64
    # cells (and intp ids) before they were float32 under the mapping's
    # slack; pickled while the table was kept twice, ``_rows`` is the live
    # copy (the matrix went stale)
    rows = state.pop("_rows", old.__dict__.pop("matrix"))
    cells, grid = _gridded(np.asarray(rows).T, old.__dict__.pop("slack", 0.0))
    state["mapping"] = mapping = PivotTable.__new__(PivotTable)
    mapping.__dict__.update(vars(old), table=ColumnStore(cells, state.pop("_row_ids"), grid))
    return state


@_converts(PivotTable)
def _pivot_table(state):
    # a LAESA / CPT table pickled while it kept an extent, which it never reads
    state.pop("low", None)
    state.pop("high", None)
    return state


@_converts(EPT, EPTStar)
def _ept(state):
    if "table" not in state:  # row-major pivot distances and slot map
        state["table"] = ColumnStore(
            np.asarray(state.pop("_pivot_dist")).T,
            state.pop("_row_ids"),
            slots=np.ascontiguousarray(np.asarray(state.pop("_pivot_idx")).T, dtype=np.int32),
        )
    return state


@_converts(RandomAccessFile)
def _raf(state):
    # pages were filled to a fraction of the page size, the slack an
    # in-place update of a record could grow into; today's fill the page
    state.pop("fill_factor", None)
    records = state.pop("_open_records", None)
    if records is not None:  # the open page as a record list
        state["_open_page"] = RafPage.from_records(records) if records else None
        state["_open_bytes"] = state["_open_page"].payload_bytes() if records else 0
    pages = state.get("_pages")
    if pages is not None and pages.dtype != np.int32:
        # a locator of two int64 arrays (page -1: none) narrowed as a write makes it
        state["_pages"] = pages.astype(np.int32)
        slot_dtype = np.min_scalar_type(state["pager"].page_size)
        state["_slots"] = np.where(pages >= 0, state["_slots"], 0).astype(slot_dtype)
    return state


@_converts(DEPT, MIndex, MIndexStar, OmniSequentialFile, OmniBPlusTree, OmniRTree, SPBTree)
def _located(state):
    # an index that kept an ``{id: RecordPointer}`` map before its RAF
    # located records: the map goes into that RAF's locator
    pointers = state.pop("_pointers", None)
    if pointers is not None:
        ids = np.fromiter(pointers, np.int64, len(pointers))
        where = np.array([(p.page_id, p.slot) for p in pointers.values()], np.int64)
        state["raf"]._locate(ids, *where.reshape(-1, 2).T)
        state["raf"]._count = len(ids)
    if "eps" in state:  # an SPB-tree pickled before its grid was a Frame
        state["frame"] = Frame(0.0, state.pop("eps"), state["space"].is_discrete, 1 << state["bits"])
    if "frame" in state:  # an SPB-tree on a uniform grid: the same cells as marks
        state["marks"] = Marks.of_frame(state.pop("frame"), state["mapping"].n_pivots)
        state.pop("bits", None)  # the marks' cell count says it
    if "marks" in state and state["btree"].keys_of is None:
        # an SPB-tree whose leaves kept keys: the page pass drops them, and
        # the next insert sizes the narrower rows
        tree = state["btree"]
        tree.keys_of = state["curve"].encode_many
        tree._leaf_capacity = tree._internal_capacity = None
    return state


class _MigrationUnpickler(_SnapshotUnpickler):
    """The snapshot unpickler, :data:`_RETIRED` before its names."""

    def find_class(self, module, name):
        return _RETIRED.get((module, name)) or super().find_class(module, name)


def _migrate_pages(index, path) -> None:
    """Read every page with the migrating unpickler and write it back, a RAF
    record list as a :class:`RafPage`; an uncelled SPB-tree's pages first,
    by a walk that gives its leaves cells in place of their keys and its
    internal nodes boxes."""
    components = list(iter_components(index))
    blobs = {}  # (store, page id) -> the page as stored
    for store in components:
        if isinstance(store, PageStore):
            directory, _, packed = store._snapshot_state()
            blobs.update({(store, i): packed[o : o + n] for i, (o, n) in directory.items()})

    def read(store, page_id):
        node = _MigrationUnpickler(io.BytesIO(blobs.pop((store, page_id))), path, [], 0).load()
        return RafPage.from_records(node) if type(node) is list else node

    def boxed(spb, page_id):
        node = read(spb.pager.store, page_id)
        if node.is_leaf:
            node.cells = spb.cells_of(node.keys)
            node.columns = node.columns[1:]
        else:
            node.lows, node.highs = _stacked([boxed(spb, child) for child in node.children])
        spb.pager.store.write(page_id, node)
        return node.box()

    for spb in components:
        if isinstance(spb, SPBTree) and spb.btree.__dict__.pop("_uncelled", False):
            boxed(spb, spb.btree.root_page)
    for store, page_id in list(blobs):
        store.write(page_id, read(store, page_id))


def _converted(path, dataset=None):
    """The index the snapshot ``path`` holds, in today's layout, its
    counters started with the conversion (no counted distance, the page
    pass's reads and writes); ``dataset`` is what a catalog member's
    dataset reference resolves to."""
    index = _unpickle(path, _MigrationUnpickler, _KNOWN_FORMATS, dataset)
    for mapping in iter_components(index):
        if type(mapping) is PivotMapping:
            # a mapping pickled with its n x l table (kept until here for
            # ``_laesa``) keeps the table's extent; one with neither starts
            # from an empty one
            state = vars(mapping)
            table = state.pop("matrix", np.empty((0, mapping.n_pivots)))
            state.setdefault("low", table.min(axis=0, initial=np.inf))
            state.setdefault("high", table.max(axis=0, initial=-np.inf))
    rebind_counters(index, CostCounters())
    _migrate_pages(index, path)
    for dept in iter_components(index):
        if isinstance(dept, DEPT) and "_row_page" not in vars(dept):
            # pickled before live rows were tracked per page: inserts only
            # ever appended pages, so an id's last row is its live one, or
            # its retired one (the page's complement) when it is deleted
            rows = {i: page for page in dept._table_pages for i in dept.pager.read(page)[0]}
            dept._row_page = {i: page if i in dept.raf else ~page for i, page in rows.items()}
    return index


def migrate(old, new):
    """Convert the snapshot ``old`` (format 1 to 6, any layout the
    index classes have had) to format 6 and today's layout at ``new``,
    which may be ``old``; returns the index, its counters started with the
    conversion.  A catalog manifest ``old`` converts member by member, its
    later members' dataset references resolved to its first member's
    objects, and saves as :meth:`IndexCatalog.save` does (``new`` named
    ``*.catalog.json``); the catalog is returned."""
    if not is_catalog_manifest(old):
        index = _converted(old)
        save_index(index, new)
        return index
    catalog, dataset = IndexCatalog(), None
    for member_id, snapshot in _member_snapshots(old):
        index = _converted(snapshot, dataset)
        catalog.register(index, index_id=member_id, counters=index.space.counters)
        if dataset is None:
            dataset = index.space.dataset
    catalog.save(new)
    return catalog
