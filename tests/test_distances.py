"""Distance functions: exactness, vectorised agreement, metric axioms."""

from __future__ import annotations

import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distances import _BLOCK_ELEMENTS, _COLUMN_DIMS
from repro import (
    BKT,
    LAESA,
    MVPT,
    DiscreteMetricAdapter,
    EditDistance,
    HammingDistance,
    L1,
    L2,
    LInf,
    LPDistance,
    MetricSpace,
    QuadraticFormDistance,
    brute_force_knn,
    brute_force_range,
    make_words,
    select_pivots,
)

VECTORS = st.lists(
    st.floats(min_value=-1000, max_value=1000, allow_nan=False), min_size=1, max_size=6
)
WORDS = st.text(alphabet="abcdefg", max_size=12)
# sequences the edit-distance kernel must take: runs of one character, code
# points outside the BMP, and tuples / lists of ints
SEQUENCES = st.one_of(
    st.text(alphabet="ab", max_size=20),
    st.text(alphabet="abc\u00e9\U0001f600\U0001f4a9", max_size=12),
    st.lists(st.integers(0, 3), max_size=10),
    st.lists(st.integers(0, 3), max_size=10).map(tuple),
)


def reference_levenshtein(a, b) -> int:
    """The classic O(|a| * |b|) dynamic program with a two-row table: the
    implementation ``EditDistance`` had before its bit-parallel kernel, kept
    as the reference every entry point is checked against."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def _random_words(rng: random.Random, count: int, max_len: int, alphabet: str = "abcd"):
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


class TestLPDistance:
    def test_l2_pythagoras(self):
        assert L2([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_l1_manhattan(self):
        assert L1([1, 2], [4, 6]) == pytest.approx(7.0)

    def test_linf_chebyshev(self):
        assert LInf([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_general_p(self):
        d = LPDistance(3)
        assert d([0], [2]) == pytest.approx(2.0)
        assert d([0, 0], [1, 1]) == pytest.approx(2 ** (1 / 3))

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            LPDistance(0.5)

    def test_inf_string_accepted(self):
        assert math.isinf(LPDistance("inf").p)

    @pytest.mark.parametrize("dist", [L1, L2, LInf, LPDistance(3)])
    def test_one_to_many_matches_scalar(self, dist):
        rng = np.random.default_rng(0)
        q = rng.uniform(-5, 5, size=4)
        mat = rng.uniform(-5, 5, size=(20, 4))
        batch = dist.one_to_many(q, mat)
        scalar = [dist(q, row) for row in mat]
        assert np.allclose(batch, scalar)

    @pytest.mark.parametrize("dist", [L1, L2, LInf])
    def test_pairwise_matches_scalar(self, dist):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-5, 5, size=(5, 3))
        ys = rng.uniform(-5, 5, size=(7, 3))
        mat = dist.pairwise(xs, ys)
        for i in range(5):
            for j in range(7):
                assert mat[i, j] == pytest.approx(dist(xs[i], ys[j]))

    @given(a=VECTORS, b=VECTORS, c=VECTORS)
    @settings(max_examples=100, deadline=None)
    def test_metric_axioms_l2(self, a, b, c):
        size = min(len(a), len(b), len(c))
        a, b, c = a[:size], b[:size], c[:size]
        dab, dba = L2(a, b), L2(b, a)
        assert dab == pytest.approx(dba)  # symmetry
        assert dab >= 0  # non-negativity
        assert L2(a, a) == pytest.approx(0.0)  # identity
        assert L2(a, c) <= dab + L2(b, c) + 1e-7  # triangle inequality


def _unblocked_column(dist: LPDistance, q, objects) -> np.ndarray:
    """``LPDistance.one_to_many`` as it was before it walked blocks: the whole
    ``n x dim`` difference at once."""
    diff = np.abs(np.asarray(objects, dtype=np.float64) - np.asarray(q, dtype=np.float64))
    if np.isinf(dist.p):
        return diff.max(axis=1)
    if dist.p == 1:
        return diff.sum(axis=1)
    if dist.p == 2:
        return np.sqrt((diff * diff).sum(axis=1))
    return (diff**dist.p).sum(axis=1) ** (1.0 / dist.p)


class TestBlockedLPKernel:
    """The cache-blocked ``one_to_many`` / ``pairwise`` return the floats the
    whole-array forms returned: every count and digest downstream rests on it."""

    DISTS = [L1, L2, LPDistance(3), LInf]

    @staticmethod
    def _block_rows(dim: int) -> int:
        return max(1, _BLOCK_ELEMENTS // dim)

    @pytest.mark.parametrize("dim", [1, 2, 282])
    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
    def test_blocked_equals_unblocked_around_the_block_size(self, dist, dim):
        rng = np.random.default_rng(dim)
        block = self._block_rows(dim)
        q = rng.normal(scale=100.0, size=dim)
        for n in (0, 1, block - 1, block, block + 1, 3 * block + 7):
            mat = rng.normal(scale=100.0, size=(n, dim))
            got = dist.one_to_many(q, mat)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert np.array_equal(got, _unblocked_column(dist, q, mat)), (n, dim)

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
    def test_layouts_and_dtypes(self, dist):
        """Strided rows, reversed columns, float32 and integer input above
        and below one block; a column-major matrix too, where the whole-array
        form summed a row in another order than it does for row-major input
        (and so than ``__call__``)."""
        rng = np.random.default_rng(7)
        dim = 282
        q = rng.normal(scale=100.0, size=dim)
        for n in (40, 3 * self._block_rows(dim) + 7):
            mat = rng.normal(scale=100.0, size=(2 * n, dim))
            for view in (
                mat[::2],
                mat[:n, ::-1],
                mat[:n].astype(np.float32),
                (mat[:n] * 10).astype(np.int64),
                [list(row) for row in mat[:5]],
            ):
                assert np.array_equal(
                    dist.one_to_many(q, view), _unblocked_column(dist, q, view)
                )
            fortran = np.asfortranarray(mat[:n])
            assert np.array_equal(
                dist.one_to_many(q, fortran), dist.one_to_many(q, mat[:n])
            )

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
    def test_one_dimensional_input_is_one_object(self, dist):
        rng = np.random.default_rng(8)
        q, obj = rng.normal(size=282), rng.normal(size=282)
        assert np.array_equal(dist.one_to_many(q, obj), [dist(q, obj)])

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
    @pytest.mark.parametrize("shape", [(3, 50), (50, 3), (16, 16), (1, 400), (400, 1), (0, 4), (4, 0)])
    def test_pairwise_is_stacked_columns_is_call(self, dist, shape):
        rng = np.random.default_rng(9)
        dim = 282
        xs = rng.normal(scale=100.0, size=(shape[0], dim))
        ys = rng.normal(scale=100.0, size=(shape[1], dim))
        got = dist.pairwise(xs, ys)
        assert got.shape == shape and got.dtype == np.float64 and got.flags.c_contiguous
        for x, row in zip(xs, got):
            assert np.array_equal(row, dist.one_to_many(x, ys))
            scalar = [dist(x, y) for y in ys]
            # p = 3 takes its root through Python's float pow in ``__call__``
            assert np.array_equal(row, scalar) if dist.p != 3 else np.allclose(row, scalar)

    def test_pairwise_rows_span_several_blocks(self):
        rng = np.random.default_rng(10)
        xs, ys = rng.normal(size=(3, 282)), rng.normal(size=(400, 282))
        assert ys.shape[0] > 3 * self._block_rows(282)
        want = np.stack([_unblocked_column(L1, x, ys) for x in xs])
        assert np.array_equal(L1.pairwise(xs, ys), want)
        assert np.array_equal(L1.pairwise(ys, xs), want.T)

    @pytest.mark.parametrize("dim", range(10))
    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
    def test_column_path_is_call_is_a_pairwise_row(self, dist, dim):
        """Below ``_COLUMN_DIMS`` = 8 coordinates ``one_to_many`` sums a
        coordinate at a time, from 8 on it reduces rows: on both sides of the
        switch, for every layout and dtype, each float is ``__call__``'s and
        a ``pairwise`` row's, bit for bit -- zero coordinates included, where
        every distance is 0 (L_inf's row maximum used to raise there)."""
        assert _COLUMN_DIMS == 8
        rng = np.random.default_rng(100 + dim)
        q = rng.normal(scale=100.0, size=dim)
        for n in (0, 1, 10, self._block_rows(max(dim, 1)) + 1):
            mat = rng.normal(scale=100.0, size=(2 * n, dim))
            # __call__ on every row of a small batch, on a sample of a large one
            sample = np.unique(np.r_[0:10, n - 10 : n, rng.integers(0, max(n, 1), 100)])
            sample = sample[(sample >= 0) & (sample < n)]
            for view in (
                mat[:n],
                np.asfortranarray(mat[:n]),
                mat[::2],
                mat[:n].astype(np.float32),
                (mat[:n] * 10).astype(np.int64),
                mat[:n].tolist(),
            ):
                got = dist.one_to_many(q, view)
                assert got.dtype == np.float64 and got.shape == (n,), (n, dim)
                rows = np.asarray(view, dtype=np.float64).reshape(n, dim)
                want = [dist(q, rows[i]) for i in sample]
                assert np.array_equal(got[sample], want), (n, dim)
                assert np.array_equal(dist.pairwise([q], view)[0], got), (n, dim)
                if not dim:
                    assert not got.any()

    @pytest.mark.parametrize("dist", [L1, L2, LInf], ids=lambda d: d.name)
    def test_no_temporary_larger_than_one_block(self, dist):
        """A 20 000 x 282 column (the Color table's) allocates the block
        buffer and the result, not two 45 MB differences."""
        rng = np.random.default_rng(11)
        mat = rng.random((20_000, 282))
        q = mat[3].copy()
        dist.one_to_many(q, mat[:500])  # warm
        tracemalloc.start()
        try:
            column = dist.one_to_many(q, mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert column.shape == (20_000,)
        assert peak < 3 * 8 * _BLOCK_ELEMENTS + column.nbytes  # < 1 MB; unblocked: 90 MB


class TestEditDistance:
    def setup_method(self):
        self.d = EditDistance()

    def test_paper_example(self):
        # MRQ("defoliate", 1) = {"defoliates", "defoliated"} in Section 2.1
        assert self.d("defoliate", "defoliates") == 1
        assert self.d("defoliate", "defoliated") == 1
        assert self.d("defoliate", "defoliation") == 3  # e -> ion
        assert self.d("defoliate", "citrate") == 6

    def test_empty_strings(self):
        assert self.d("", "") == 0
        assert self.d("", "abc") == 3
        assert self.d("abc", "") == 3

    def test_is_discrete(self):
        assert self.d.is_discrete

    @given(a=WORDS, b=WORDS)
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_bounds(self, a, b):
        dab = self.d(a, b)
        assert dab == self.d(b, a)
        assert dab <= max(len(a), len(b))
        assert dab >= abs(len(a) - len(b))
        assert dab.is_integer()

    @given(a=WORDS, b=WORDS, c=WORDS)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert self.d(a, c) <= self.d(a, b) + self.d(b, c)

    def test_one_to_many(self):
        words = ["cat", "cart", "dog", ""]
        out = self.d.one_to_many("cat", words)
        assert out.tolist() == [0.0, 1.0, 3.0, 3.0]

    # -- the bit-parallel kernel against the dynamic program ----------------

    @given(a=SEQUENCES, b=SEQUENCES)
    @settings(max_examples=300, deadline=None)
    def test_call_matches_reference(self, a, b):
        got = self.d(a, b)
        assert isinstance(got, float)
        assert got == reference_levenshtein(a, b)
        assert self.d(a, a) == 0.0

    @given(q=SEQUENCES, objects=st.lists(SEQUENCES, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_one_to_many_matches_reference(self, q, objects):
        # up to 40 objects: both sides of the scalar/lane crossover; drawn
        # lists hold empty sequences and duplicates often
        objects = objects + objects[:3]
        out = self.d.one_to_many(q, objects)
        assert out.dtype == np.float64 and out.shape == (len(objects),)
        assert out.tolist() == [reference_levenshtein(q, o) for o in objects]

    @given(xs=st.lists(SEQUENCES, max_size=16), ys=st.lists(SEQUENCES, max_size=16))
    @settings(max_examples=150, deadline=None)
    def test_pairwise_matches_reference(self, xs, ys):
        mat = self.d.pairwise(xs, ys)
        assert mat.dtype == np.float64 and mat.shape == (len(xs), len(ys))
        assert mat.tolist() == [[reference_levenshtein(x, y) for y in ys] for x in xs]
        assert np.array_equal(mat, self.d.pairwise(ys, xs).T)

    @pytest.mark.parametrize("m", [6, 7, 8, 14, 15, 16, 63, 64, 65, 300])
    def test_lane_width_steps(self, m):
        # a lane is 8 * ceil((m + 1) / 8) bits: 7 -> 8 and 15 -> 16 change
        # its byte count, 63..65 cross a machine word, and with m = 300 a
        # distance exceeds 255 and is read back from two bytes
        rng = random.Random(m)
        pattern = "".join(rng.choice("abcd") for _ in range(m))
        texts = _random_words(rng, 14, m + 3) + [pattern, "", pattern[:-1]]
        want = [reference_levenshtein(pattern, t) for t in texts]
        assert self.d.one_to_many(pattern, texts).tolist() == want
        assert self.d.pairwise(texts[-3:], [pattern] * 20).tolist() == [[w] * 20 for w in want[-3:]]
        assert [self.d(pattern, t) for t in texts] == want

    def test_long_text_widens_short_pattern_lanes(self):
        # m = 3 needs 4 bits of state, but a distance of 297 needs 9: the
        # longest text, not the pattern, sets the lane width here
        texts = ["abc", "b" * 300, ""] * 5
        assert self.d.one_to_many("abc", texts).tolist() == [0.0, 299.0, 3.0] * 5

    def test_batch_sizes_around_crossover_and_chunk(self):
        from repro.core import distances

        rng = random.Random(5)
        words = _random_words(rng, 2 * distances._LANE_CHUNK + 3, 9) + ["c" * 40]
        want = [reference_levenshtein("abcabcd", w) for w in words]
        sizes = [0, 1, distances._SCALAR_BELOW - 1, distances._SCALAR_BELOW]
        sizes += [distances._SCALAR_BELOW + 1, distances._LANE_CHUNK - 1]
        sizes += [distances._LANE_CHUNK, distances._LANE_CHUNK + 1, len(words)]
        for size in sizes:
            batch = words[-size:] if size else []
            assert self.d.one_to_many("abcabcd", batch).tolist() == want[len(words) - size :]

    @given(q=WORDS, objects=st.lists(WORDS, min_size=12, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_small_chunks(self, q, objects):
        # chunks of 5 lanes: chunk boundaries and mixes of lengths inside a
        # chunk that the full-size constant would need hundreds of words for
        from repro.core import distances

        chunk, distances._LANE_CHUNK = distances._LANE_CHUNK, 5
        try:
            out = self.d.one_to_many(q, objects)
        finally:
            distances._LANE_CHUNK = chunk
        assert out.tolist() == [reference_levenshtein(q, o) for o in objects]

    @pytest.mark.parametrize("container", [list, tuple, np.array])
    def test_batch_containers(self, container):
        words = ["kitten", "sitting", "", "kitten", "mitten"] * 4
        out = self.d.one_to_many("kitten", container(words))
        assert out.dtype == np.float64 and out.shape == (20,)
        assert out.tolist() == [0.0, 3.0, 6.0, 0.0, 1.0] * 4
        mat = self.d.pairwise(container(words[:3]), container(words))
        assert mat.dtype == np.float64 and mat.shape == (3, 20)
        assert mat[0].tolist() == out.tolist()
        codes = container([[1, 2, 3], [1, 3, 3], [2, 2, 2]] * 5)
        assert self.d.one_to_many((1, 2, 3), codes).tolist() == [0.0, 1.0, 2.0] * 5

    def test_shared_instance_across_threads(self):
        # the service calls one EditDistance() from many threads: the kernel
        # must keep nothing on it
        rng = random.Random(9)
        words = _random_words(rng, 300, 12)
        queries = _random_words(rng, 8, 12)
        want = [[reference_levenshtein(q, w) for w in words] for q in queries]
        got = [None] * len(queries)

        def work(slot):
            for _ in range(5):
                got[slot] = self.d.one_to_many(queries[slot], words).tolist()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == want


class TestEditDistanceCostContract:
    """Pivots and compdists on strings, as the two-row dynamic program left
    them (literals recorded at the commit before the bit-parallel kernel).

    HFI picks pivots by ``argmax`` over ratios of integer distances, where
    ties are common, and every index prunes on exact values: a kernel that
    returned 2.0000000001 once would move a pivot or a count, and nothing
    else in the suite would say so.
    """

    PIVOTS = [244, 274, 550, 169]
    # index -> (build, 10 x MRQ(r=2), 10 x MkNNQ(k=10)) distance computations.
    # The MVPT query counts were re-based on purpose (1547 -> 1025 and
    # 5406 -> 4718) when its leaves gained one-byte path-distance codes and
    # Lemma 1 ran on them before verification; the build count is the
    # two-row program's, as are the BKT and LAESA rows.  The MkNNQ count
    # fell again (4718 -> 4700) when objects were verified in the order of
    # their own bounds.  LAESA's MkNNQ count was the paper's storage-order
    # scan (4869) until ``knn_query`` became the one-query view of the
    # best-first batch body (4683).  Every MkNNQ count fell (MVPT 4700,
    # BKT 5237, LAESA 4683) when candidates tied with the radius and an id
    # above the k-th answer's stopped being verified.
    COMPDISTS = {
        "MVPT": (1759, 1025, 4354),
        "BKT": (1534, 1789, 4973),
        "LAESA": (2400, 813, 4330),
    }

    def test_pivots_answers_and_counts(self):
        dataset = make_words(600, seed=7)
        queries = make_words(20, seed=8).objects
        space = MetricSpace(dataset)
        pivots = select_pivots(space, 4, "hfi")
        assert pivots == self.PIVOTS
        # 37 704 while hf computed its first focus's row twice
        assert space.counters.distance_computations == 37192
        builders = {
            "MVPT": lambda s: MVPT.build(s, pivots),
            "BKT": BKT.build,
            "LAESA": lambda s: LAESA.build(s, pivots),
        }
        oracle = MetricSpace(dataset)
        for name, build in builders.items():
            space = MetricSpace(dataset)
            index = build(space)
            counts = [space.counters.distance_computations]
            for q in queries[:10]:
                assert index.range_query(q, 2.0) == brute_force_range(oracle, q, 2.0), name
            counts.append(space.counters.distance_computations)
            for q in queries[10:]:
                assert index.knn_query(q, 10) == brute_force_knn(oracle, q, 10), name
            counts.append(space.counters.distance_computations)
            got = (counts[0], counts[1] - counts[0], counts[2] - counts[1])
            assert got == self.COMPDISTS[name], name


class TestHammingDistance:
    def test_basic(self):
        d = HammingDistance()
        assert d("karolin", "kathrin") == 3
        assert d([1, 0, 1], [0, 0, 1]) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            HammingDistance()("ab", "abc")

    def test_vectorised(self):
        d = HammingDistance()
        mat = np.array([[1, 0], [1, 1], [0, 0]])
        assert d.one_to_many(np.array([1, 0]), mat).tolist() == [0.0, 1.0, 1.0]

    def test_pairwise_matches_scalar(self):
        d = HammingDistance()
        rng = np.random.default_rng(5)
        xs = rng.integers(0, 2, size=(4, 6))
        ys = rng.integers(0, 2, size=(7, 6))
        mat = d.pairwise(xs, ys)
        for i in range(4):
            for j in range(7):
                assert mat[i, j] == d(xs[i], ys[j])

    def test_pairwise_strings_fall_back(self):
        d = HammingDistance()
        xs = ["abc", "abd"]
        ys = ["abc", "xbc", "abd"]
        mat = d.pairwise(xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert mat[i, j] == d(x, y)


class TestQuadraticForm:
    def test_identity_matrix_is_l2(self):
        d = QuadraticFormDistance(np.eye(3))
        assert d([0, 0, 0], [1, 2, 2]) == pytest.approx(3.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QuadraticFormDistance(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            QuadraticFormDistance(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_one_to_many(self):
        rng = np.random.default_rng(2)
        basis = rng.normal(size=(3, 3))
        matrix = basis @ basis.T + 3 * np.eye(3)
        d = QuadraticFormDistance(matrix)
        q = rng.normal(size=3)
        mat = rng.normal(size=(10, 3))
        assert np.allclose(d.one_to_many(q, mat), [d(q, row) for row in mat])

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(6)
        basis = rng.normal(size=(3, 3))
        matrix = basis @ basis.T + 3 * np.eye(3)
        d = QuadraticFormDistance(matrix)
        xs = rng.normal(size=(5, 3))
        ys = rng.normal(size=(8, 3))
        mat = d.pairwise(xs, ys)
        for i in range(5):
            for j in range(8):
                # bitwise, not approx: the batch query layer requires all
                # entry points of a distance to agree exactly
                assert mat[i, j] == d(xs[i], ys[j])

    def test_entry_points_agree_bitwise(self):
        rng = np.random.default_rng(7)
        basis = rng.normal(size=(4, 4))
        d = QuadraticFormDistance(basis @ basis.T + 2 * np.eye(4))
        q = rng.normal(size=4)
        objects = rng.normal(size=(20, 4))
        batch = d.one_to_many(q, objects)
        assert np.array_equal(batch, [d(q, o) for o in objects])
        # a singleton batch must equal the same row of a large batch
        assert d.one_to_many(q, objects[11:12])[0] == batch[11]

    def test_pairwise_zero_diagonal(self):
        d = QuadraticFormDistance(np.eye(2))
        xs = np.array([[1.0, 2.0], [3.0, 4.0]])
        mat = d.pairwise(xs, xs)
        assert np.array_equal(np.diag(mat), [0.0, 0.0])


class TestDiscreteAdapter:
    def test_ceils(self):
        d = DiscreteMetricAdapter(L2)
        assert d([0, 0], [1, 1]) == 2.0  # ceil(1.414)
        assert d.is_discrete

    def test_preserves_triangle(self):
        d = DiscreteMetricAdapter(L2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = rng.uniform(0, 10, size=(3, 2))
            assert d(a, c) <= d(a, b) + d(b, c)

    def test_batch_matches_scalar(self):
        d = DiscreteMetricAdapter(L2)
        rng = np.random.default_rng(4)
        q = rng.uniform(0, 10, size=3)
        mat = rng.uniform(0, 10, size=(8, 3))
        assert np.array_equal(d.one_to_many(q, mat), [d(q, r) for r in mat])
