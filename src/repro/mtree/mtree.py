"""Paged M-tree (Ciaccia, Patella, Zezula, VLDB 1997).

The disk-resident metric tree the paper uses twice: CPT clusters its objects
with an M-tree (Section 3.3), and the PM-tree is an M-tree whose entries are
augmented with pivot information (Section 5.1).

A node (:class:`MNode`) is columnar, one array per entry field, like the
B+-tree node of the storage literature: children are referenced by page id
only.

* a **leaf** holds object ids, parent distances and the objects (the M-tree
  embeds data in the tree, which is why CPT/PM-tree storage is the largest in
  Table 4);
* a **routing node** holds parent distances, covering radii, child page ids
  and the routing objects.

A tree whose entries carry mapped pivot vectors I(o) (the PM-tree) adds one
``e x l`` column: ``vecs`` on leaves, the subtree MBBs ``lows`` / ``highs``
on routing nodes.  The first insert decides whether a tree carries them.

There is one body per query type, and every user of the tree runs it:
:meth:`MTree.range_search` (one descent for a batch of queries with active
query subsets; a single query is a batch of one) and :meth:`MTree.knn_search`
(the paged indexes' :func:`~repro.core.queries.best_first_walk`, a leaf
verified in node order).  A node's pruning tests run as arrays over its
entries -- the parent-distance prefilter, and, where the node has vector
columns and the caller mapped its queries, Lemma 1 on ``vecs`` or on the
MBBs -- so the PM-tree is this tree with a pivot filter, not a second walk.

Distance computations flow through the shared counted
:class:`~repro.core.metric_space.MetricSpace`; node I/O through the shared
:class:`~repro.storage.pager.Pager`.  Insertion uses the classic
min-enlargement descent and an mM_RAD-style sampled promotion split.  Deletes
are directory-assisted and lazy (covering radii are not shrunk -- still
correct, radii stay conservative), as in production M-tree implementations.
"""

from __future__ import annotations

import itertools
import pickle
from typing import Iterator

import numpy as np

from ..core.metric_space import MetricSpace
from ..core.pivot_filter import lower_bound_many_queries
from ..core.queries import Neighbor, best_first_walk
from ..storage.pager import Pager

__all__ = ["MTree", "MNode"]

# the array columns of a node and their dtypes; a column a node does not
# use is None (ids / vecs on routing nodes, radii / child_pages / lows /
# highs on leaves, the vector columns of a tree without pivots)
_COLUMNS = ("ids", "parent_dists", "radii", "child_pages", "vecs", "lows", "highs")
_DTYPES = (np.int64, np.float64, np.float64, np.int64, np.float64, np.float64, np.float64)


def _packed_objects(objs):
    """The objects as a node pickles them: same-shaped numeric arrays as one
    raw block (one ndarray pickle each costs ~100 B and a slow unpickle),
    anything else as the list itself."""
    first = objs[0] if objs else None
    if not isinstance(first, np.ndarray) or first.dtype.kind not in "biuf" or not first.ndim:
        return objs
    shape, dtype = first.shape, first.dtype
    if not all(type(o) is np.ndarray and o.shape == shape and o.dtype == dtype for o in objs):
        return objs
    return dtype.str, shape, b"".join(o.tobytes() for o in objs)


def _node_from(is_leaf, objs, packed) -> "MNode":
    node = MNode.__new__(MNode)
    node.is_leaf = is_leaf
    if type(objs) is tuple:
        dtype, shape, raw = objs
        objs = list(np.frombuffer(bytearray(raw), dtype=dtype).reshape(-1, *shape))
    node.objs = objs
    for name, dtype, column in zip(_COLUMNS, _DTYPES, packed):
        if column is not None:
            shape, raw = column
            # a bytearray keeps the column writable for in-place updates
            column = np.frombuffer(bytearray(raw), dtype=dtype).reshape(-1, *shape)
        setattr(node, name, column)
    return node


class MNode:
    """One M-tree page: a column per entry field (module docstring).

    Pickles each column as raw bytes, not as an ndarray (whose pickle costs
    ~100 B of header), and the objects as one list (or one raw block, see
    :func:`_packed_objects`).
    """

    __slots__ = ("is_leaf", "objs") + _COLUMNS

    def __init__(self, is_leaf: bool, objs=(), parent_dists=(), **columns):
        self.is_leaf = is_leaf
        self.objs = list(objs)
        columns["parent_dists"] = parent_dists
        for name, dtype in zip(_COLUMNS, _DTYPES):
            column = columns.pop(name, None)
            setattr(self, name, None if column is None else np.asarray(column, dtype))

    def __reduce__(self):
        packed = tuple(
            None if column is None else (column.shape[1:], column.tobytes())
            for column in map(self.__getattribute__, _COLUMNS)
        )
        return _node_from, (self.is_leaf, _packed_objects(self.objs), packed)

    def __len__(self) -> int:
        return len(self.objs)

    def columns(self) -> dict[str, np.ndarray]:
        """The array columns this node uses, by name."""
        return {
            name: column
            for name in _COLUMNS
            if (column := getattr(self, name)) is not None
        }

    def boxes(self):
        """``(lows, highs)`` of the entries in pivot space (a leaf entry's
        box is its point), or None when the node has no vector columns."""
        if self.is_leaf:
            return None if self.vecs is None else (self.vecs, self.vecs)
        return None if self.lows is None else (self.lows, self.highs)

    def select(self, positions) -> "MNode":
        """A node of the same kind holding the entries at ``positions``."""
        positions = np.asarray(positions, dtype=np.intp)
        node = MNode(self.is_leaf, [self.objs[i] for i in positions])
        for name, column in self.columns().items():
            setattr(node, name, column[positions])
        return node

    def splice(self, start: int, stop: int, other: "MNode | None" = None) -> None:
        """Replace entries ``[start:stop]`` by ``other``'s (or by none)."""
        for name, column in self.columns().items():
            parts = [column[:start], column[stop:]]
            if other is not None:
                parts.insert(1, getattr(other, name))
            setattr(self, name, np.concatenate(parts))
        self.objs[start:stop] = [] if other is None else other.objs


class MTree:
    """See module docstring.

    Args:
        space: counted metric space (supplies the distance function).
        pager: counted page store for nodes.
        seed: RNG seed for sampled split promotion.

    The node capacity is derived from the page size at the first insert
    (:meth:`_ensure_capacity`); whether entries carry vectors, from the
    first insert's ``vec``.
    """

    def __init__(self, space: MetricSpace, pager: Pager, seed: int = 0):
        self.space = space
        self.pager = pager
        self.capacity: int | None = None
        self.carries_vectors: bool | None = None
        self._rng = np.random.default_rng(seed)
        self.root_page = pager.allocate()
        pager.write(self.root_page, MNode(is_leaf=True, ids=()))
        self.height = 1
        self._size = 0
        # object directory: id -> leaf page (maintained across splits);
        # real deployments keep an equivalent id index beside the tree.
        self.leaf_of: dict[int, int] = {}

    def __len__(self) -> int:
        return self._size

    # -- node IO helpers ------------------------------------------------------

    def read_node(self, page_id: int) -> MNode:
        return self.pager.read(page_id)

    def _write(self, page_id: int, node: MNode) -> None:
        self.pager.write(page_id, node)

    def _ensure_capacity(self, object_id: int, obj, vec) -> None:
        if self.capacity is None:
            # sized by what one leaf entry pickled to when nodes were lists
            # of entry dataclasses: the plain tuple plus 78 B of dataclass
            # framing, so capacities (and tree shapes) stay what they were
            per_entry = 78 + len(
                pickle.dumps((object_id, obj, 0.0, vec), protocol=pickle.HIGHEST_PROTOCOL)
            )
            self.capacity = max(4, (self.pager.page_size - 64) // max(16, per_entry))

    # -- insertion ------------------------------------------------------------

    def insert(self, object_id: int, obj, vec: np.ndarray | None = None) -> None:
        """Insert one object; ``vec`` = I(o) in a tree whose entries carry it.

        The first insert decides whether they do; after it, an insert that
        gives a vector to a tree without them, or none to a tree with them,
        is refused before any page is touched.
        """
        if self.carries_vectors is None:
            self.carries_vectors = vec is not None
        elif self.carries_vectors != (vec is not None):
            raise ValueError(
                "this tree's entries carry mapped vectors: pass vec"
                if self.carries_vectors
                else "this tree's entries carry no mapped vector"
            )
        self._ensure_capacity(object_id, obj, vec)
        path = self._descend(obj)
        leaf_page, leaf, parent_obj = path[-1]
        parent_dist = self.space.d(obj, parent_obj) if parent_obj is not None else 0.0
        entry = MNode(True, [obj], [parent_dist], ids=[object_id])
        if vec is not None:
            entry.vecs = np.asarray(vec, dtype=np.float64).reshape(1, -1)
            if leaf.vecs is None:  # an empty leaf: the tree's first entry
                leaf.vecs = entry.vecs[:0]
        leaf.splice(len(leaf), len(leaf), entry)
        self.leaf_of[object_id] = leaf_page
        self._size += 1
        self._write(leaf_page, leaf)
        if vec is not None:
            self._grow_path_boxes(path, entry.vecs[0])
        if len(leaf) > self.capacity:
            self._split(path)

    def _descend(self, obj):
        """Choose-subtree descent; returns [(page, node, parent_routing_obj)].

        At each internal node the child whose ball already contains the
        object (minimal distance) is preferred; otherwise the child with the
        least radius enlargement, whose radius is then grown (classic M-tree
        policy).  Every candidate distance is a counted computation.
        """
        path = []
        page_id = self.root_page
        parent_obj = None
        node = self.read_node(page_id)
        while True:
            path.append((page_id, node, parent_obj))
            if node.is_leaf:
                return path
            dists = self.space.d_many(obj, node.objs)
            inside = np.flatnonzero(dists <= node.radii)
            if inside.size:
                best = int(inside[np.argmin(dists[inside])])
            else:
                best = int(np.argmin(dists - node.radii))
                node.radii[best] = dists[best]
                self._write(page_id, node)
            parent_obj = node.objs[best]
            page_id = int(node.child_pages[best])
            node = self.read_node(page_id)

    def _grow_path_boxes(self, path, vec) -> None:
        """Grow the MBBs along the descent path after an insert."""
        for (page_id, node, _parent), (child_page, _, _) in zip(path, path[1:]):
            at = int(np.flatnonzero(node.child_pages == child_page)[0])
            lows = np.minimum(node.lows[at], vec)
            highs = np.maximum(node.highs[at], vec)
            if not (np.array_equal(lows, node.lows[at]) and np.array_equal(highs, node.highs[at])):
                node.lows[at], node.highs[at] = lows, highs
                self._write(page_id, node)

    # -- split ------------------------------------------------------------------

    def _split(self, path) -> None:
        """Split the overflowing tail node of ``path``, propagating upward."""
        level = len(path) - 1
        while level >= 0:
            page_id, node, _parent = path[level]
            if len(node) <= self.capacity:
                return
            (obj1, left, radius1), (obj2, right, radius2) = self._promote_and_partition(node)
            right_page = self.pager.allocate()
            self._write(page_id, left)
            self._write(right_page, right)
            self._reindex_leaf(page_id, left)
            self._reindex_leaf(right_page, right)
            pair = self._routing_pair(
                (obj1, radius1, page_id, left), (obj2, radius2, right_page, right)
            )
            if level == 0:
                self.root_page = self.pager.allocate()
                self._write(self.root_page, pair)
                self.height += 1
                return
            parent_page, parent, grand_obj = path[level - 1]
            if grand_obj is not None:
                pair.parent_dists = np.array([self.space.d(o, grand_obj) for o in pair.objs])
            at = int(np.flatnonzero(parent.child_pages == page_id)[0])
            parent.splice(at, at + 1, pair)
            self._write(parent_page, parent)
            level -= 1

    def _promote_and_partition(self, node: MNode):
        """Sampled mM_RAD promotion + generalized-hyperplane partition.

        Returns two ``(promoted object, node of its group, covering radius)``
        triples; each group's parent distances are to its promoted object.
        """
        n = len(node)
        pair_candidates: set[tuple[int, int]] = set()
        max_pairs = min(8, n * (n - 1) // 2)
        while len(pair_candidates) < max_pairs:
            i, j = self._rng.integers(0, n, size=2)
            if i != j:
                pair_candidates.add((min(int(i), int(j)), max(int(i), int(j))))
        best = None
        for i, j in pair_candidates:
            split = self._evaluate_partition(node, i, j)
            score = max(split[0][2], split[1][2])  # the larger covering radius
            if best is None or score < best[0]:
                best = (score, split)
        result = []
        for promoted, assignment, radius in best[1]:
            group = node.select([k for k, _ in assignment])
            group.parent_dists = np.array([dist for _, dist in assignment], dtype=np.float64)
            result.append((node.objs[promoted], group, radius))
        return result

    def _evaluate_partition(self, node: MNode, i: int, j: int):
        """Hyperplane partition for promoted pair (i, j), without mutation.

        Returns two triples (promoted_index, [(entry_index, dist)], radius).
        """
        obj1, obj2 = node.objs[i], node.objs[j]
        radii = [0.0] * len(node) if node.is_leaf else node.radii.tolist()
        group1: list[tuple[int, float]] = []
        group2: list[tuple[int, float]] = []
        radius1 = radius2 = 0.0
        for k, obj in enumerate(node.objs):
            d1 = 0.0 if k == i else self.space.d(obj, obj1)
            d2 = 0.0 if k == j else self.space.d(obj, obj2)
            if d1 <= d2:
                group1.append((k, d1))
                radius1 = max(radius1, d1 + radii[k])
            else:
                group2.append((k, d2))
                radius2 = max(radius2, d2 + radii[k])
        return (i, group1, radius1), (j, group2, radius2)

    def _routing_pair(self, *halves) -> MNode:
        """The two routing entries over a split's halves (parent dists 0)."""
        objs, radii, pages, boxes = [], [], [], []
        for obj, radius, child_page, child in halves:
            objs.append(obj)
            radii.append(radius)
            pages.append(child_page)
            if self.carries_vectors:
                lows, highs = child.boxes()
                l = lows.shape[1]
                # an empty half has the empty box: it prunes, and grows on insert
                boxes.append(
                    (lows.min(axis=0), highs.max(axis=0))
                    if len(child)
                    else (np.full(l, np.inf), np.full(l, -np.inf))
                )
        pair = MNode(False, objs, [0.0, 0.0], radii=radii, child_pages=pages)
        if boxes:
            pair.lows = np.array([b[0] for b in boxes])
            pair.highs = np.array([b[1] for b in boxes])
        return pair

    def _reindex_leaf(self, page_id: int, node: MNode) -> None:
        if node.is_leaf:
            self.leaf_of.update(dict.fromkeys(node.ids.tolist(), page_id))

    # -- deletion -----------------------------------------------------------------

    def delete(self, object_id: int) -> bool:
        """Directory-assisted lazy delete (radii stay conservative)."""
        leaf_page = self.leaf_of.pop(object_id, None)
        if leaf_page is None:
            return False
        node = self.read_node(leaf_page)
        at = int(np.flatnonzero(node.ids == object_id)[0])
        node.splice(at, at + 1)
        self._write(leaf_page, node)
        self._size -= 1
        return True

    # -- object fetch (CPT) ----------------------------------------------------------

    def fetch_object(self, object_id: int):
        """Load one object from its leaf page (counted page access)."""
        leaf_page = self.leaf_of.get(object_id)
        if leaf_page is None:
            raise KeyError(f"object {object_id} is not in the tree")
        node = self.read_node(leaf_page)
        at = np.flatnonzero(node.ids == object_id)
        if not at.size:
            raise KeyError(f"object {object_id} missing from its leaf page")
        return node.objs[at[0]]

    def fetch_objects_many(self, object_ids) -> list:
        """Load a batch of objects with one read per distinct leaf page.

        Candidates are grouped by the leaf holding them: the page is read
        once (a cold ``page_read`` or a ``buffer_hit``) and every resident
        candidate is served from that single read; the avoided re-reads are
        counted as ``grouped_hits`` by :meth:`~repro.storage.pager.Pager.
        read_many`.  This is what turns CPT's fetch-bound batch
        verification into per-leaf scans instead of one random page access
        per candidate.  Objects come back in input order.
        """
        object_ids = list(object_ids)
        leaf_pages = []
        for object_id in object_ids:
            leaf_page = self.leaf_of.get(object_id)
            if leaf_page is None:
                raise KeyError(f"object {object_id} is not in the tree")
            leaf_pages.append(leaf_page)
        by_id = {}
        for node in self.pager.read_many(leaf_pages).values():
            by_id.update(zip(node.ids.tolist(), node.objs))
        try:
            return [by_id[object_id] for object_id in object_ids]
        except KeyError as exc:
            raise KeyError(f"object {exc.args[0]} missing from its leaf page") from None

    # -- queries ------------------------------------------------------------------------

    def range_search(self, queries, radius: float, query_vectors=None) -> list[list[int]]:
        """MRQ for a batch: one descent with active query subsets.

        A frontier item carries the queries that reached the node and their
        distances to its routing object.  Each node read builds one
        ``q x e`` keep mask -- the parent-distance prefilter, then Lemma 1
        against ``vecs`` (leaves) or the MBBs (routing nodes) when the node
        has them and ``query_vectors`` (``q x l``, I(q) per query) is given
        -- and makes one counted ``d_many`` per query over the entries it
        kept: exactly the computations a one-query descent makes, with each
        page read once per batch.  Answers come back sorted.
        """
        queries = list(queries)
        results: list[list[int]] = [[] for _ in queries]
        if not queries:
            return results
        if query_vectors is not None:
            query_vectors = np.asarray(query_vectors, dtype=np.float64)
        stack = [(self.root_page, np.arange(len(queries)), None)]
        while stack:
            page_id, active, d_parent = stack.pop()
            node = self.read_node(page_id)
            if not len(node):
                continue
            reach = radius if node.is_leaf else radius + node.radii
            if d_parent is None:
                keep = np.ones((active.size, len(node)), dtype=bool)
            else:
                keep = np.abs(d_parent[:, None] - node.parent_dists) <= reach
            if query_vectors is not None and node.vecs is not None:
                keep &= lower_bound_many_queries(query_vectors[active], node.vecs) <= radius
            elif query_vectors is not None and node.lows is not None:
                boxes = lower_bound_many_queries(query_vectors[active], node.lows, node.highs)
                keep &= boxes <= radius
            reached: dict[int, tuple[list, list]] = {}
            for qi, row in zip(active.tolist(), keep):
                cols = np.flatnonzero(row)
                if not cols.size:
                    continue
                d = self.space.d_many(queries[qi], [node.objs[c] for c in cols])
                if node.is_leaf:
                    results[qi].extend(node.ids[cols[d <= radius]].tolist())
                    continue
                hit = d <= reach[cols]  # Lemma 2
                for c, dist in zip(cols[hit].tolist(), d[hit].tolist()):
                    who, dists = reached.setdefault(c, ([], []))
                    who.append(qi)
                    dists.append(dist)
            for c in sorted(reached):
                who, dists = reached[c]
                stack.append((int(node.child_pages[c]), np.array(who), np.array(dists)))
        return [sorted(r) for r in results]

    def knn_search(self, query_obj, k: int, query_vector=None) -> list[Neighbor]:
        """MkNNQ, :func:`~repro.core.queries.best_first_walk` over nodes by
        the larger of the ball and box bounds.

        A node's parent-distance gaps and (with ``query_vector`` = I(q) and
        vector columns) its Lemma 1 / MBB bounds are computed as arrays when
        the node is read; its entries are then considered in node order
        against the live heap radius -- a leaf's verified there (Ciaccia's
        algorithm) when the heap admits its bound and id -- so a distance
        is computed exactly when an entry-at-a-time walk would compute it.
        """
        qvec = None if query_vector is None else np.asarray(query_vector, dtype=np.float64)[None]

        def expand(item, _bound, heap):
            page_id, d_parent = item
            node = self.read_node(page_id)
            n = len(node)
            if not n:
                return (), (), False
            gaps = [0.0] * n if d_parent is None else np.abs(d_parent - node.parent_dists).tolist()
            if node.is_leaf:
                lower = [0.0] * n
                if qvec is not None and node.vecs is not None:
                    lower = lower_bound_many_queries(qvec, node.vecs)[0].tolist()
                for object_id, obj, gap, low in zip(node.ids.tolist(), node.objs, gaps, lower):
                    if heap.admits(max(gap, low), object_id):
                        heap.consider(object_id, self.space.d(query_obj, obj))
                return (), (), False
            boxes = [0.0] * n
            if qvec is not None and node.lows is not None:
                boxes = lower_bound_many_queries(qvec, node.lows, node.highs)[0].tolist()
            children, bounds = [], []
            entries = zip(node.child_pages.tolist(), node.objs, node.radii.tolist(), gaps, boxes)
            for child_page, obj, radius, gap, box in entries:
                r = heap.radius
                if gap <= r + radius and box <= r:
                    d = self.space.d(query_obj, obj)
                    children.append((child_page, d))
                    bounds.append(max(0.0, d - radius, box))
            return children, bounds, False

        return best_first_walk(k, (self.root_page, None), expand, None)

    # -- iteration / diagnostics ----------------------------------------------------------

    def iter_leaves(self) -> Iterator[tuple[int, MNode]]:
        """Yield (page_id, leaf node) for every leaf."""
        stack = [self.root_page]
        while stack:
            page_id = stack.pop()
            node = self.read_node(page_id)
            if node.is_leaf:
                yield page_id, node
            else:
                stack.extend(node.child_pages.tolist())

    def check_invariants(self) -> None:
        count = self._check_node(self.root_page, None, None)
        assert count == self._size, "size counter out of sync"
        assert len(self.leaf_of) == self._size, "directory out of sync"

    def _check_node(self, page_id: int, parent_ball, parent_box) -> int:
        node = self.read_node(page_id)
        n = len(node)
        for name, column in node.columns().items():
            assert len(column) == n, f"column {name} has {len(column)} rows, node {n}"
        kind = ("ids",) if node.is_leaf else ("radii", "child_pages")
        assert all(getattr(node, name) is not None for name in kind), "missing column"
        assert not (self.carries_vectors and n) or node.boxes(), "entries without vectors"
        if parent_ball is not None:
            parent_obj, radius = parent_ball
            slack = 0.0 if node.is_leaf else node.radii
            d = np.array([self.space.distance(o, parent_obj) for o in node.objs])  # uncounted
            assert np.all(d - 1e-9 <= radius + slack), "entry outside the parent's ball"
            assert np.allclose(d, node.parent_dists, rtol=0, atol=1e-9), "stale parent distance"
        if parent_box is not None and n:
            lows, highs = node.boxes()
            assert np.all(lows >= parent_box[0]) and np.all(highs <= parent_box[1]), (
                "entries outside the parent's MBB"
            )
        if node.is_leaf:
            assert all(self.leaf_of.get(i) == page_id for i in node.ids.tolist()), (
                "leaf ids disagree with the directory"
            )
            return n
        boxes = zip(node.lows, node.highs) if node.lows is not None else itertools.repeat(None)
        return sum(
            self._check_node(child, (obj, radius), box)
            for child, obj, radius, box in zip(
                node.child_pages.tolist(), node.objs, node.radii.tolist(), boxes
            )
        )
