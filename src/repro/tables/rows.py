"""Row maintenance shared by the pivot-table family.

Every table keeps ``_row_ids`` (``int32``) beside one or more parallel
per-row arrays (the distance table, EPT's pivot references, FQA's
signatures).  The id
lookup, the validation of a caller-chosen id and the array surgery live
here once, so an insert that would corrupt a table is refused the same way
everywhere.
"""

from __future__ import annotations

import numpy as np

from ..core.index import NotIndexed, claim_object_id

__all__ = ["claim_row_id", "append_row", "remove_row", "restore_rows"]


def claim_row_id(index, obj, object_id: int | None) -> int:
    """The id a new row goes under, before any distance is computed
    (:func:`~repro.core.index.claim_object_id` against ``_row_ids``)."""
    return claim_object_id(
        index.space, obj, object_id, lambda i: bool((index._row_ids == i).any())
    )


def append_row(index, object_id: int, **columns) -> None:
    """Append ``object_id`` and its row of each named per-row array; every
    array keeps its dtype (row ids are ``int32``)."""
    ids = index._row_ids
    index._row_ids = np.concatenate([ids, np.asarray([object_id], dtype=ids.dtype)])
    for name, row in columns.items():
        table = getattr(index, name)
        row = np.asarray(row, dtype=table.dtype).reshape(1, -1)
        setattr(index, name, np.concatenate([table, row]))


def remove_row(index, object_id: int, *columns: str) -> None:
    """Drop ``object_id``'s row from ``_row_ids`` and each named array."""
    positions = np.flatnonzero(index._row_ids == object_id)
    if positions.size == 0:
        raise NotIndexed(f"object {object_id} is not in the table")
    for name in ("_row_ids", *columns):
        setattr(index, name, np.delete(getattr(index, name), positions[0], axis=0))


def restore_rows(index, state: dict) -> None:
    """Restore a pickled table's ``state`` with ``int32`` row ids: a table
    pickled while they were ``intp`` loads in the layout a build makes."""
    state["_row_ids"] = np.asarray(state["_row_ids"], dtype=np.int32)
    index.__dict__.update(state)
