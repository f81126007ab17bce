"""IndexCatalog: several hosted indexes over one dataset, answering as one.

The paper's central empirical finding is that no single pivot-based
structure dominates -- the cheapest of the 19 evaluated indexes flips with
dataset, radius, and k.  A serving stack that hardwires one index per
service can never exploit that.  The catalog is the first of the three
layers that fix it (catalog -> planner -> executor):

* it holds **named members** -- built :class:`~repro.core.index.MetricIndex`
  instances over the *same* dataset, each with its own private
  :class:`~repro.core.counters.CostCounters` so the planner can attribute
  every batch's measured cost to exactly the member that ran it;
* the members hold **one dataset**: ``register`` binds every member's
  space to the primary's :class:`~repro.core.dataset.Dataset` object -- a
  member over an equal copy (same length, distance, dtype and shape, then
  the same objects) is rebound to it, anything else is refused -- so the
  objects are resident once, and an insert the primary appends is the
  object every other member registers under the same id;
* **mutations fan out** to every member (same object, same id), so all
  members keep answering every query identically -- which is what lets the
  planner route any query to any member and lets one result-cache
  namespace serve them all.  A member that refuses its part is a
  :class:`CatalogError`, raised after the members that had applied the
  mutation undo it;
* the whole catalog **snapshots as one unit**: ``save`` writes one
  ``{stem}.member{i:02d}.snap`` per member plus a ``{stem}.catalog.json``
  manifest (the same idiom as the cluster layer's shard manifests), and
  ``load`` restores every member with zero distance computations.  The
  objects are written once, in the primary's file; every later member's
  file references them (see :mod:`repro.service.snapshot`) and loads only
  through its manifest.  A plain ``.snap`` file *is* a catalog of one:
  ``load`` and ``reload`` read either form, and a one-member ``save`` to a
  path not named ``*.catalog.json`` writes the plain file.

Members must be built on *separate* :class:`~repro.core.metric_space.
MetricSpace` instances over that one dataset: counters live on the space,
and per-member cost attribution -- the planner's entire input -- is
impossible when two members share one accumulator.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.counters import CostCounters
from ..core.dataset import Dataset
from ..core.index import MetricIndex
from ..core.metric_space import MetricSpace
from .snapshot import (
    SnapshotInfo,
    _save,
    _unpickle,
    iter_components,
    load_index,
    rebind_counters,
    save_index,
    snapshot_info,
)

__all__ = [
    "CATALOG_MANIFEST_KIND",
    "CatalogError",
    "CatalogMember",
    "IndexCatalog",
    "is_catalog_manifest",
    "load_catalog_manifest",
    "manifest_stem",
    "read_manifest",
]

CATALOG_MANIFEST_KIND = "repro-catalog"


class CatalogError(RuntimeError):
    """Raised for invalid catalog membership, manifests, or divergent fan-out."""


@dataclass
class CatalogMember:
    """One hosted index plus the private counters its work is billed to."""

    index_id: str
    index: MetricIndex
    counters: CostCounters


def manifest_stem(path: Path, suffix: str) -> Path:
    """Naming stem: ``color{suffix}`` and ``color.snap`` -> ``color``."""
    if path.name.endswith(suffix):
        return path.with_name(path.name[: -len(suffix)])
    return path.with_suffix("") if path.suffix else path


def is_catalog_manifest(path) -> bool:
    """True when ``path`` is a readable catalog manifest (cheap peek)."""
    path = Path(path)
    if not path.name.endswith(".json"):
        return False
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return False
    return isinstance(manifest, dict) and manifest.get("kind") == CATALOG_MANIFEST_KIND


def read_manifest(
    path, kind: str, entries: str, entry: str, empty: str, error=CatalogError
) -> dict:
    """Parse and validate a snapshot-set manifest of ``kind``.

    The one reader behind both manifest kinds: a catalog's ``members`` and
    a cluster's ``shards`` list ``{"snapshot": file, ...}`` ``entry``
    records naming files beside the manifest; the paths come back
    absolute.  Every defect raises ``error``, the kind's own type, and an
    empty list is reported as naming no ``empty``.
    """
    path = Path(path)
    noun = kind.removeprefix("repro-")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise error(f"cannot read {noun} manifest {path}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("kind") != kind:
        raise error(f"{path} is not a repro {noun} manifest")
    listed = manifest.get(entries)
    if not isinstance(listed, list) or not listed:
        raise error(f"{path} names no {empty}")
    for item in listed:
        snap = path.parent / item["snapshot"]
        if not snap.exists():
            raise error(f"{path} names missing {entry} snapshot {snap}")
        item["snapshot"] = str(snap)
    return manifest


def load_catalog_manifest(path) -> dict:
    """Parse and validate a catalog manifest; member paths come back absolute."""
    manifest = read_manifest(
        path, CATALOG_MANIFEST_KIND, "members", "member", "catalog members"
    )
    ids = [entry.get("id") for entry in manifest["members"]]
    if not all(isinstance(i, str) and i for i in ids) or len(set(ids)) != len(ids):
        raise CatalogError(f"{path} has a missing or duplicate member id")
    return manifest


def _member_snapshots(path) -> list[tuple[str | None, str]]:
    """``(member id, snapshot path)`` pairs behind one path: a manifest's
    entries, or the path itself (id left to the index's name)."""
    if is_catalog_manifest(path):
        return [
            (entry["id"], entry["snapshot"])
            for entry in load_catalog_manifest(path)["members"]
        ]
    return [(None, path)]


def _same_objects(a: Dataset, b: Dataset) -> bool:
    """True when two datasets hold equal objects under one distance: the
    length, the distance's name and the layout (dtype and shape) first,
    then the objects themselves."""
    if a is b:
        return True
    if (len(a), a.distance.name, a.is_vector) != (len(b), b.distance.name, b.is_vector):
        return False
    x, y = a.objects, b.objects
    if a.is_vector:
        return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
    return x == y


def _bind_dataset(index: MetricIndex, dataset: Dataset) -> None:
    """Point every space of ``index`` over its own dataset at ``dataset``
    (spaces over other data -- a sharded index's parts -- keep theirs)."""
    own = index.space.dataset
    for component in iter_components(index):
        if isinstance(component, MetricSpace) and component.dataset is own:
            component.dataset = dataset
            component.distance = dataset.distance


def _undone(applied, undo, message: str, then=None) -> CatalogError:
    """The :class:`CatalogError` of a fan-out a member refused, once
    ``undo`` has run on the members in ``applied`` (latest first) and then
    ``then()``, when given, if no member was left stuck; one it failed on is
    named, as it no longer matches the rest."""
    stuck = []
    for m in reversed(applied):
        try:
            undo(m.index)
        except Exception as exc:
            stuck.append(f"{m.index_id!r} ({exc})")
    if stuck:
        message += f"; undoing it failed on {', '.join(stuck)}"
    elif then is not None:
        then()
    return CatalogError(message)


class IndexCatalog:
    """Named hosted indexes over one dataset, kept answer-equivalent.

    Register members with :meth:`register`; the first member is the
    *primary* (the service uses its space for payload decoding and its
    distance for cache invalidation balls).  All query traffic goes
    through the members directly (``catalog.get(id).range_query_many``
    ...); the catalog itself only manages membership, fan-out mutation,
    and whole-catalog snapshots.
    """

    def __init__(self):
        self._members: "OrderedDict[str, CatalogMember]" = OrderedDict()
        self._lock = threading.Lock()

    # -- membership ----------------------------------------------------------

    def register(
        self,
        index: MetricIndex,
        index_id: str | None = None,
        counters: CostCounters | None = None,
    ) -> str:
        """Add a built index as a member; returns its id.

        The id defaults to the index's paper name (pass something unique
        to host two instances of one family).  The index is rebound to
        ``counters`` (a fresh private accumulator when omitted) so its
        cost is attributable separately from every other member's --
        which is why members must not share a ``MetricSpace`` -- and to
        the catalog's dataset, the primary's: a member over an equal copy
        leaves the copy behind, one over other objects is refused.
        """
        member_id = index_id if index_id is not None else index.name
        counters = counters if counters is not None else CostCounters()
        with self._lock:
            if member_id in self._members:
                raise CatalogError(f"catalog already has a member {member_id!r}")
            for other in self._members.values():
                if other.index.space is index.space:
                    raise CatalogError(
                        f"member {member_id!r} shares a MetricSpace with "
                        f"{other.index_id!r}; build each member on its own "
                        "space so costs attribute per member"
                    )
            if self._members:
                primary = self.primary
                ours, theirs = primary.index.space.dataset, index.space.dataset
                if not _same_objects(ours, theirs):
                    raise CatalogError(
                        f"member {member_id!r} hosts a different dataset than "
                        f"{primary.index_id!r} ({theirs!r} vs {ours!r}); "
                        "catalog members must answer every query identically"
                    )
                _bind_dataset(index, ours)
            rebind_counters(index, counters)
            self._members[member_id] = CatalogMember(member_id, index, counters)
        return member_id

    def remove(self, index_id: str) -> None:
        with self._lock:
            if index_id not in self._members:
                raise CatalogError(f"catalog has no member {index_id!r}")
            if len(self._members) == 1:
                raise CatalogError("cannot remove the catalog's last member")
            del self._members[index_id]

    def member(self, index_id: str) -> CatalogMember:
        try:
            return self._members[index_id]
        except KeyError:
            raise CatalogError(f"catalog has no member {index_id!r}") from None

    def get(self, index_id: str) -> MetricIndex:
        return self.member(index_id).index

    def ids(self) -> list[str]:
        return list(self._members)

    def members(self) -> list[CatalogMember]:
        return list(self._members.values())

    @property
    def primary(self) -> CatalogMember:
        if not self._members:
            raise CatalogError("catalog has no members")
        return next(iter(self._members.values()))

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, index_id: str) -> bool:
        return index_id in self._members

    def __iter__(self):
        return iter(self._members.values())

    # -- fan-out mutation ----------------------------------------------------

    def insert(self, obj, object_id: int | None = None) -> int:
        """Insert into every member, forcing one shared object id.

        The primary assigns (or validates) the id -- appending ``obj`` to
        the one dataset when ``object_id`` is None -- and every other
        member registers that slot explicitly, so all members keep
        answering identically.  A member that cannot insert is a
        :class:`CatalogError` naming the divergence, raised after the
        members that had inserted delete the id again -- and, when the
        primary had appended the object, the dataset drops that last slot,
        so the next insert without an id gets the same id.
        """
        members = self.members()
        dataset = members[0].index.space.dataset
        new_id = members[0].index.insert(obj, object_id=object_id)
        for i, m in enumerate(members[1:], 1):
            try:
                got = m.index.insert(obj, object_id=new_id)
                if got != new_id:
                    m.index.delete(got)
                    raise CatalogError(f"it assigned id {got}")
            except Exception as exc:
                raise _undone(
                    members[:i],
                    lambda index: index.delete(new_id),
                    f"insert fan-out diverged: member {m.index_id!r} failed "
                    f"after {members[0].index_id!r} inserted id {new_id} ({exc})",
                    then=None if object_id is not None else lambda: dataset.drop_last(new_id),
                ) from exc
        return new_id

    def delete(self, object_id: int) -> None:
        """Delete one object from every member.  A member that cannot is a
        :class:`CatalogError`, raised after the members that had deleted
        insert ``dataset[object_id]`` back under its id."""
        members = self.members()
        members[0].index.delete(object_id)
        for i, m in enumerate(members[1:], 1):
            try:
                m.index.delete(object_id)
            except Exception as exc:
                obj = members[0].index.space.dataset[object_id]
                raise _undone(
                    members[:i],
                    lambda index: index.insert(obj, object_id=object_id),
                    f"delete fan-out diverged: member {m.index_id!r} failed "
                    f"after {members[0].index_id!r} deleted id {object_id} ({exc})",
                ) from exc

    # -- snapshots -----------------------------------------------------------

    def save(self, path) -> Path:
        """Snapshot every member; returns the path :meth:`load` takes.

        Writes ``{stem}.member{i:02d}.snap`` per member and a
        ``{stem}.catalog.json`` manifest naming them in order.  The
        primary's file holds the dataset; every later member's references
        it, so the objects are on disk once.  A catalog of one saved to a
        path not named ``*.catalog.json`` is written as the plain snapshot
        at exactly that path -- the format that holds one index.
        """
        path = Path(path)
        members = self.members()
        if len(members) == 1 and not path.name.endswith(".catalog.json"):
            save_index(members[0].index, path)
            return path
        stem = manifest_stem(path, ".catalog.json")
        stem.parent.mkdir(parents=True, exist_ok=True)
        manifest_path = stem.parent / f"{stem.name}.catalog.json"
        shared = (members[0].index.space.dataset, manifest_path.name)
        entries = []
        for i, m in enumerate(members):
            part = stem.parent / f"{stem.name}.member{i:02d}.snap"
            info = _save(m.index, part, shared if i else None)
            entries.append(
                {
                    "id": m.index_id,
                    "snapshot": part.name,
                    "index": info.index_name,
                    "objects": info.n_objects,
                }
            )
        space = members[0].index.space
        manifest = {
            "kind": CATALOG_MANIFEST_KIND,
            "dataset": space.dataset.name,
            "distance": space.dataset.distance.name,
            "n_objects": len(space),
            "members": entries,
        }
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        return manifest_path

    @classmethod
    def load(cls, *paths) -> "IndexCatalog":
        """Restore a catalog from disk -- zero compdists.

        Each path is a catalog manifest (its members keep their ids) or a
        plain snapshot (a member named after its index's paper name);
        several paths concatenate.  Ids that collide are deduplicated
        with ``#2``, ``#3``, ... so two snapshots of one family can be
        hosted side by side.  A manifest's later members resolve their
        dataset reference to its first member's restored dataset; members
        that each hold their own copy -- plain files, manifests written
        before the objects were saved once -- share one by
        :meth:`register`.
        """
        catalog = cls()
        for path in paths:
            dataset = None
            for member_id, snapshot in _member_snapshots(path):
                counters = CostCounters()
                index = _unpickle(snapshot, dataset=dataset)
                rebind_counters(index, counters)
                base = member_id if member_id is not None else index.name
                member_id, suffix = base, 2
                while member_id in catalog:
                    member_id = f"{base}#{suffix}"
                    suffix += 1
                catalog.register(index, index_id=member_id, counters=counters)
                if dataset is None:
                    dataset = index.space.dataset
        return catalog

    def reload(self, path) -> SnapshotInfo:
        """Hot-swap the hosted indexes for ones restored from ``path``.

        Everything restores before the swap (the catalog keeps answering
        from the old members until the new ones are fully ready).  A
        plain snapshot restores *into* the one member of a one-member
        catalog: its id and its counters stay, so requests already
        grouped under that id resolve against the new index and serving
        stats accumulate across the swap.  A manifest replaces the whole
        membership in a single dict assignment; member counters restart
        fresh (the planner keeps its table cells for the ids that
        persist, and explores a new id in each row on its next query
        there).  Returns the plain snapshot's header, or a
        :class:`~repro.service.snapshot.SnapshotInfo` describing the
        restored primary.

        A member whose data lives in other processes rolls the snapshot
        out to them itself (:meth:`~repro.core.index.MetricIndex.reload`);
        it is then the only member, and ``path`` may also be a list, one
        snapshot per backend.
        """
        members = self.members()
        if len(members) == 1:
            rolled = members[0].index.reload(path)
            if rolled is not None:
                return rolled
        if not isinstance(path, (str, os.PathLike)):
            raise CatalogError(f"{path!r} is not a snapshot path")
        if not is_catalog_manifest(path):
            if len(members) != 1:
                raise CatalogError(
                    f"{path} is not a catalog manifest; a catalog of "
                    f"{len(members)} members reloads from the manifest its "
                    "save() wrote"
                )
            info = snapshot_info(path)  # validate the header before restoring
            only = members[0]
            only.index = load_index(path, counters=only.counters)
            return info
        fresh = IndexCatalog.load(path)
        with self._lock:
            self._members = fresh._members
        space = self.primary.index.space
        return SnapshotInfo(
            format_version=0,
            index_name=" + ".join(self.ids()),
            index_class="IndexCatalog",
            n_objects=len(space),
            distance_name=space.dataset.distance.name,
            dataset_name=space.dataset.name,
            payload_bytes=0,
        )

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Per-member cost counters (id -> index name + compdists/PA)."""
        out = {}
        for m in self.members():
            snap = m.counters.snapshot()
            out[m.index_id] = {
                "index": m.index.name,
                "distance_computations": snap.distance_computations,
                "page_accesses": snap.page_accesses,
                "prune_stages": {
                    "prefix": snap.prune_prefix,
                    "refine": snap.prune_refine,
                    "validated": snap.prune_validated,
                    "ptolemaic": snap.prune_ptolemaic,
                },
            }
        return out
