"""Space-filling curves: bijectivity, locality, bounds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sfc import HilbertCurve, ZOrderCurve

# (bits, dims): the smallest curve, one axis, the SPB-tree default, a key of
# exactly 64 bits, the 72-bit keys of the Fig. 18 sweep (l = 9), wide axes;
# then coordinates past one byte (the interleave's tables go byte by byte):
# two bytes at the 63-bit edge, two whole bytes, three bytes at the edge
KERNEL_SHAPES = [(1, 1), (8, 1), (8, 5), (8, 8), (8, 9), (32, 3), (9, 7), (16, 3), (21, 3)]


def _key_dtype(curve):
    """The array form's key dtype: int64 up to 63 bits, Python ints past."""
    return np.dtype(np.int64) if curve.bits * curve.dims <= 63 else np.dtype(object)


@pytest.mark.parametrize("curve_cls", [HilbertCurve, ZOrderCurve])
class TestCurveCommon:
    def test_full_bijection_small(self, curve_cls):
        curve = curve_cls(bits=3, dims=2)
        seen = set()
        for key in range(64):
            coords = curve.decode(key)
            assert curve.encode(coords) == key
            seen.add(coords)
        assert len(seen) == 64

    def test_out_of_range_coordinate(self, curve_cls):
        curve = curve_cls(bits=4, dims=2)
        with pytest.raises(ValueError):
            curve.encode((16, 0))
        with pytest.raises(ValueError):
            curve.encode((-1, 0))

    def test_out_of_range_key(self, curve_cls):
        curve = curve_cls(bits=2, dims=2)
        with pytest.raises(ValueError):
            curve.decode(16)
        with pytest.raises(ValueError):
            curve.decode(-1)

    def test_dimension_mismatch(self, curve_cls):
        curve = curve_cls(bits=4, dims=3)
        with pytest.raises(ValueError):
            curve.encode((1, 2))

    def test_invalid_parameters(self, curve_cls):
        with pytest.raises(ValueError):
            curve_cls(bits=0, dims=2)
        with pytest.raises(ValueError):
            curve_cls(bits=4, dims=0)

    def test_encode_many(self, curve_cls):
        curve = curve_cls(bits=4, dims=2)
        coords = np.array([[0, 0], [3, 7], [15, 15]])
        keys = curve.encode_many(coords)
        assert keys.dtype == np.int64
        assert keys.tolist() == [curve.encode(row) for row in coords]

    @pytest.mark.parametrize("bits,dims", KERNEL_SHAPES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_array_form_equals_scalar_form(self, curve_cls, bits, dims, data):
        """The array kernels are held to the scalar references, both ways."""
        curve = curve_cls(bits=bits, dims=dims)
        rows = data.draw(
            st.lists(
                st.lists(
                    st.integers(0, curve.max_coordinate), min_size=dims, max_size=dims
                ),
                min_size=1,
                max_size=40,
            )
        )
        keys = curve.encode_many(np.asarray(rows, dtype=np.int64))
        assert keys.dtype == _key_dtype(curve) and keys.shape == (len(rows),)
        assert keys.tolist() == [curve.encode(row) for row in rows]
        # pickled into leaves, compared by bisect: never numpy scalars
        assert all(type(key) is int for key in keys.tolist())
        # the narrowest input a coordinate fits gives the same keys
        narrow = np.asarray(rows, dtype=np.min_scalar_type(curve.max_coordinate))
        assert curve.encode_many(narrow).tolist() == keys.tolist()
        for given in (keys, keys.tolist()):
            cells = curve.decode_many(given)
            assert cells.shape == (len(rows), dims)
            assert cells.dtype == np.int64
            assert [tuple(row) for row in cells.tolist()] == [
                curve.decode(k) for k in keys.tolist()
            ]
            assert cells.tolist() == rows

    @pytest.mark.parametrize("bits,dims", KERNEL_SHAPES)
    def test_array_form_on_extreme_cells_and_keys(self, curve_cls, bits, dims):
        curve = curve_cls(bits=bits, dims=dims)
        top = curve.max_coordinate
        rows = [[0] * dims, [top] * dims, [top] + [0] * (dims - 1), [0] * (dims - 1) + [top]]
        assert curve.encode_many(rows).tolist() == [curve.encode(row) for row in rows]
        keys = [0, 1, curve.max_key // 2, curve.max_key - 1, curve.max_key]
        cells = curve.decode_many(keys)
        assert [tuple(row) for row in cells.tolist()] == [curve.decode(k) for k in keys]
        assert curve.encode_many(cells).tolist() == keys
        assert curve.decode_many(np.asarray(keys, dtype=_key_dtype(curve))).tolist() == (
            cells.tolist()
        )

    def test_array_form_empty_input(self, curve_cls):
        for dims in (5, 9):  # int64 keys, and keys past 63 bits
            curve = curve_cls(bits=8, dims=dims)
            for empty in ([], np.zeros((0, dims), dtype=np.int64)):
                keys = curve.encode_many(empty)
                assert keys.shape == (0,) and keys.dtype == _key_dtype(curve)
            for empty in ([], np.zeros(0, dtype=np.int64)):
                assert curve.decode_many(empty).shape == (0, dims)

    def test_array_form_rejects_what_the_scalar_form_rejects(self, curve_cls):
        curve = curve_cls(bits=4, dims=3)
        for bad_row in ([16, 0, 0], [0, -1, 0]):
            with pytest.raises(ValueError, match="out of range"):
                curve.encode(bad_row)
            with pytest.raises(ValueError, match="out of range"):
                curve.encode_many([[1, 2, 3], bad_row])
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            curve.encode((1, 2))
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            curve.encode_many([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            curve.encode_many([1, 2, 3])  # one row is still a matrix
        for bad_key in (-1, curve.max_key + 1):
            with pytest.raises(ValueError, match="out of range"):
                curve.decode(bad_key)
            with pytest.raises(ValueError, match="out of range"):
                curve.decode_many([0, bad_key])

    def test_encode_many_leaves_its_input_alone(self, curve_cls):
        curve = curve_cls(bits=8, dims=5)
        cells = np.arange(50, dtype=np.int64).reshape(10, 5)
        before = cells.copy()
        curve.encode_many(cells)
        assert (cells == before).all()

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_random(self, curve_cls, data):
        bits = data.draw(st.integers(1, 8))
        dims = data.draw(st.integers(1, 4))
        curve = curve_cls(bits=bits, dims=dims)
        key = data.draw(st.integers(0, curve.max_key))
        assert curve.encode(curve.decode(key)) == key


class TestHilbertLocality:
    def test_adjacent_keys_are_adjacent_cells(self):
        """Consecutive Hilbert keys differ by exactly one grid step."""
        curve = HilbertCurve(bits=4, dims=2)
        prev = np.asarray(curve.decode(0))
        for key in range(1, 256):
            cur = np.asarray(curve.decode(key))
            assert np.abs(cur - prev).sum() == 1
            prev = cur

    def test_hilbert_beats_zorder_on_mean_jump(self):
        """The SPB-tree's reason for Hilbert: smaller neighbour jumps."""
        h = HilbertCurve(bits=4, dims=2)
        z = ZOrderCurve(bits=4, dims=2)

        def mean_jump(curve):
            coords = [np.asarray(curve.decode(k)) for k in range(256)]
            return np.mean(
                [np.abs(coords[i + 1] - coords[i]).sum() for i in range(255)]
            )

        assert mean_jump(h) < mean_jump(z)

    def test_corner_cases(self):
        curve = HilbertCurve(bits=5, dims=3)
        assert curve.decode(0) is not None
        assert curve.encode(curve.decode(curve.max_key)) == curve.max_key


def test_one_interleave_serves_both_curves():
    """Z-order is the Hilbert curve's last step, and nothing else."""
    from repro.sfc.curve import deinterleave, interleave

    hilbert = HilbertCurve(bits=6, dims=3)
    zorder = ZOrderCurve(bits=6, dims=3)
    for cell in [(0, 0, 0), (1, 2, 3), (63, 0, 17), (63, 63, 63)]:
        assert zorder.encode(cell) == interleave(list(cell), 6)
        transposed = hilbert._axes_to_transpose(list(cell))
        assert hilbert.encode(cell) == interleave(transposed, 6)
        assert tuple(deinterleave(zorder.encode(cell), 6, 3)) == cell


def test_spbtree_build_keys_are_the_scalar_keys():
    """The SPB-tree's bulk construction (LA, 5 HFI pivots, the default
    8-bit grid) encodes its grid cells with the array form; every key it
    files an object under is the scalar ``encode`` of that object's cell."""
    from repro import CostCounters, MetricSpace, PivotMapping, SPBTree, make_la, select_pivots

    dataset = make_la(20000, seed=1)
    pivots = select_pivots(MetricSpace(dataset), 5, strategy="hfi", seed=0)
    index = SPBTree.build(MetricSpace(dataset, CostCounters()), pivots)
    cells = index.frame.encode(PivotMapping(MetricSpace(dataset), pivots).matrix)
    assert cells.dtype == np.uint8
    keys = index.curve.encode_many(cells)
    assert keys.dtype == np.int64
    scalar = [index.curve.encode(cell) for cell in cells.tolist()]
    assert keys.tolist() == scalar
    filed = dict((object_id, key) for key, object_id in index.btree.items())
    assert len(filed) == len(dataset)
    assert all(filed[object_id] == key for object_id, key in enumerate(scalar))
