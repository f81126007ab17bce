"""Datasets: containers plus the four workload families of the paper.

The paper evaluates on LA (2-d geographic points, L2), Words (English words,
edit distance), Color (282-d MPEG-7 image features, L1), and Synthetic (20-d
integer vectors, 5 random dimensions + 15 linear combinations, L-infinity).
The real LA/Words/Color files are not redistributable here, so each generator
synthesises data with the same *structure* (dimensionality, intrinsic
dimensionality, distance domain, clusteredness); each generator's docstring
carries its part of the substitution argument.

A :class:`Dataset` owns raw objects addressed by dense integer ids -- every
index in the library stores ids and fetches raw objects through the dataset
(or through the simulated disk for external indexes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .distances import (
    DiscreteMetricAdapter,
    EditDistance,
    L1,
    L2,
    LInf,
    MetricDistance,
)

__all__ = [
    "Dataset",
    "DatasetStats",
    "make_la",
    "make_words",
    "make_color",
    "make_synthetic",
    "make_uniform",
    "dataset_statistics",
    "DATASET_FACTORIES",
    "save_dataset",
    "load_dataset",
]


class Dataset:
    """An ordered collection of raw metric objects with a paired distance.

    Args:
        objects: the raw objects.  Numeric vector data may be passed as a 2-d
            numpy array (kept as-is, enabling vectorised distance kernels);
            anything else is stored as a list.
        distance: the metric the paper pairs with this data.
        name: label used in benchmark reports.

    A vector dataset's :meth:`add` writes into spare rows past the live
    ones: the first add copies the given array into one an eighth larger,
    later adds grow it by an eighth when it is full.  ``objects``, ``len``,
    :meth:`nbytes` and pickling see only the live rows.
    """

    # a vector dataset's rows once an add has grown it, spare ones
    # included; ``_objects`` is then a view of its first live rows, and the
    # array handed to the constructor is never written
    _buffer: np.ndarray | None = None

    def __init__(self, objects, distance: MetricDistance, name: str = "dataset"):
        if isinstance(objects, np.ndarray):
            self._objects = objects
            self._is_vector = True
        else:
            self._objects = list(objects)
            self._is_vector = False
        self.distance = distance
        self.name = name

    @property
    def is_vector(self) -> bool:
        """True when objects are rows of a numpy matrix."""
        return self._is_vector

    @property
    def objects(self):
        """The raw object container (numpy matrix or list)."""
        return self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def __getitem__(self, object_id: int):
        return self._objects[object_id]

    def __iter__(self) -> Iterator:
        return iter(self._objects)

    def ids(self) -> range:
        return range(len(self._objects))

    def subset(self, ids: Sequence[int]) -> "Dataset":
        """A new dataset holding the given ids (re-numbered densely)."""
        if self._is_vector:
            objs = self._objects[np.asarray(ids, dtype=np.intp)]
        else:
            objs = [self._objects[i] for i in ids]
        return Dataset(objs, self.distance, name=f"{self.name}[{len(ids)}]")

    def gather(self, ids: Sequence[int]):
        """Raw objects for a batch of ids, preserving vector layout."""
        if self._is_vector:
            return self._objects[np.asarray(ids, dtype=np.intp)]
        return [self._objects[i] for i in ids]

    def __getstate__(self):
        state = dict(vars(self))
        state.pop("_buffer", None)  # ``_objects`` is what is live
        return state

    def add(self, obj) -> int:
        """Append a new object, returning its id (amortised O(1): a vector
        dataset grows its rows by an eighth when they are full)."""
        if self._is_vector:
            row = np.asarray(obj, dtype=self._objects.dtype).reshape(-1)
            n, dims = self._objects.shape
            if row.shape[0] != dims:
                raise ValueError(f"object has {row.shape[0]} dims, dataset has {dims}")
            if self._buffer is None or n == self._buffer.shape[0]:
                grown = np.empty((n + max(1, n // 8), dims), dtype=self._objects.dtype)
                grown[:n] = self._objects
                self._buffer = grown
            self._buffer[n] = row
            self._objects = self._buffer[: n + 1]
        else:
            self._objects.append(obj)
        return len(self._objects) - 1

    def drop_last(self, object_id: int) -> None:
        """The inverse of :meth:`add`: drop ``object_id``, which must be the
        last slot (an id that an insert appended and no index holds)."""
        if object_id != len(self._objects) - 1:
            raise ValueError(
                f"only the last slot ({len(self._objects) - 1}) can be dropped, not {object_id}"
            )
        if self._is_vector:
            self._objects = self._objects[:-1]
        else:
            self._objects.pop()

    def object_nbytes(self, object_id: int) -> int:
        """Approximate serialised size of one object, for storage accounting."""
        obj = self._objects[object_id]
        if self._is_vector:
            return int(self._objects.dtype.itemsize * self._objects.shape[1])
        if isinstance(obj, str):
            return len(obj.encode("utf-8"))
        if isinstance(obj, (list, tuple, np.ndarray)):
            return 8 * len(obj)
        return 8

    def nbytes(self) -> int:
        """:meth:`object_nbytes` summed over every object."""
        if self._is_vector:
            return int(self._objects.nbytes)
        return sum(map(self.object_nbytes, range(len(self._objects))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dataset(name={self.name!r}, n={len(self)}, distance={self.distance.name})"


@dataclass
class DatasetStats:
    """The columns of the paper's Table 2 for one dataset."""

    name: str
    cardinality: int
    dim: str
    intrinsic_dim: float
    max_distance: float
    distance_name: str

    def row(self) -> dict:
        return {
            "Dataset": self.name,
            "Cardinality": self.cardinality,
            "Dim.": self.dim,
            "Int. Dim.": round(self.intrinsic_dim, 1),
            "MaxD": round(self.max_distance, 1),
            "Dis. Measure": self.distance_name,
        }


def dataset_statistics(
    dataset: Dataset, sample_pairs: int = 20_000, seed: int = 7
) -> DatasetStats:
    """Compute Table 2 statistics.

    The intrinsic dimensionality follows the paper: ``mu^2 / (2 sigma^2)``
    where mu and sigma^2 are the mean and variance of pairwise distances
    (estimated on a random pair sample).  MaxD is the maximum sampled
    distance, rounded up to a friendly bound.
    """
    rng = np.random.default_rng(seed)
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least two objects to compute statistics")
    left = rng.integers(0, n, size=sample_pairs)
    right = rng.integers(0, n, size=sample_pairs)
    keep = left != right
    left, right = left[keep], right[keep]
    d = dataset.distance
    if dataset.is_vector:
        dists = np.array(
            [d(dataset[i], dataset[j]) for i, j in zip(left, right)], dtype=np.float64
        )
    else:
        dists = np.array(
            [d(dataset[int(i)], dataset[int(j)]) for i, j in zip(left, right)],
            dtype=np.float64,
        )
    mean = float(dists.mean())
    var = float(dists.var())
    intrinsic = mean * mean / (2 * var) if var > 0 else float("inf")
    if dataset.is_vector:
        dim = str(dataset.objects.shape[1])
    else:
        lengths = [len(o) for o in dataset.objects]
        dim = f"{min(lengths)}~{max(lengths)}"
    return DatasetStats(
        name=dataset.name,
        cardinality=n,
        dim=dim,
        intrinsic_dim=intrinsic,
        max_distance=float(dists.max()),
        distance_name=d.name,
    )


# ---------------------------------------------------------------------------
# Workload generators
# ---------------------------------------------------------------------------


def make_la(n: int = 10_000, seed: int = 42) -> Dataset:
    """LA substitute: clustered 2-d points in [0, 10000]^2 under L2.

    Geographic location data is strongly clustered (city blocks, suburbs);
    we emulate that with a mixture of anisotropic Gaussians plus a uniform
    background, then clip to the paper's domain ([0, 10000] per dimension).
    """
    rng = np.random.default_rng(seed)
    n_clusters = max(8, int(math.sqrt(n)))
    centers = rng.uniform(200, 9800, size=(n_clusters, 2))
    background = max(1, n // 10)
    clustered = n - background
    counts = rng.multinomial(clustered, np.full(n_clusters, 1.0 / n_clusters))
    parts = []
    for center, count in zip(centers, counts):
        if count == 0:
            continue
        scales = rng.uniform(80, 300, size=2)
        theta = rng.uniform(0, math.pi)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        pts = rng.normal(0.0, 1.0, size=(count, 2)) * scales
        parts.append(pts @ rot.T + center)
    parts.append(rng.uniform(0, 10_000, size=(background, 2)))
    points = np.clip(np.concatenate(parts), 0, 10_000)
    rng.shuffle(points)
    return Dataset(points[:n], L2, name="LA")


_WORD_STEMS = (
    "de fo li ate con struc tion al ly re but ter ing ed es er est ness "
    "ment anti dis pro ex im un der over sub inter trans port ship ful "
    "ous ish ize ance ence hood dom ward wise graph phone photo tele "
    "micro macro bio geo hydro auto mono multi poly semi cardi neuro "
    "ologist ism ist ity ive ate able ible tion sion cy ry ty"
).split()

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def make_words(n: int = 10_000, seed: int = 42) -> Dataset:
    """Words substitute: pseudo-English words under edit distance.

    The Moby word list contains morphologically related families (the paper's
    example: defoliates / defoliation / defoliating / defoliated), which is
    what makes edit distance clustered and the intrinsic dimension tiny.  We
    generate families around random stem compositions, then derive members by
    suffixing and small edits.  Distances are integers in a small range,
    matching the discrete domain BKT/FQT require.
    """
    rng = np.random.default_rng(seed)
    words: list[str] = []
    seen: set[str] = set()
    suffixes = ["", "s", "ed", "ing", "ion", "er", "ers", "est", "ly", "ness"]

    def emit(word: str) -> None:
        word = word[:34]
        if word and word not in seen:
            seen.add(word)
            words.append(word)

    while len(words) < n:
        kind = rng.random()
        if kind < 0.35:
            # short everyday words: broad length spread keeps the distance
            # variance high (the Moby list's intrinsic dim is only 1.2)
            length = int(rng.integers(2, 8))
            emit("".join(_ALPHABET[int(c)] for c in rng.integers(0, 26, size=length)))
        elif kind < 0.55:
            # long compounds (proper nouns, hyphen-less compound words)
            stem = "".join(
                rng.choice(_WORD_STEMS) for _ in range(int(rng.integers(4, 9)))
            )
            emit(stem)
        else:
            # morphological family around one stem (defoliate / defoliates / ...)
            stem = "".join(
                rng.choice(_WORD_STEMS) for _ in range(int(rng.integers(2, 4)))
            )
            for _ in range(int(rng.integers(1, 7))):
                word = stem + suffixes[int(rng.integers(0, len(suffixes)))]
                if rng.random() < 0.3 and len(word) > 3:
                    pos = int(rng.integers(0, len(word)))
                    letter = _ALPHABET[int(rng.integers(0, 26))]
                    word = word[:pos] + letter + word[pos + 1 :]
                emit(word)
                if len(words) == n:
                    break
    return Dataset(words, EditDistance(), name="Words")


def make_color(n: int = 10_000, dim: int = 282, latent_dim: int = 7, seed: int = 42) -> Dataset:
    """Color substitute: high-dimensional vectors with low intrinsic dim, L1.

    MPEG-7 features are 282-dimensional but concentrate near a much
    lower-dimensional manifold (the paper measures intrinsic dimension 6.5).
    We sample a ``latent_dim``-dimensional latent mixture and embed it
    linearly into ``dim`` dimensions with mild noise, scaling to the paper's
    [-255, 255] domain.
    """
    rng = np.random.default_rng(seed)
    n_clusters = 12
    centers = rng.normal(0.0, 1.0, size=(n_clusters, latent_dim))
    assign = rng.integers(0, n_clusters, size=n)
    latent = centers[assign] + rng.normal(0.0, 0.35, size=(n, latent_dim))
    embed = rng.normal(0.0, 1.0, size=(latent_dim, dim)) / math.sqrt(latent_dim)
    data = latent @ embed + rng.normal(0.0, 0.02, size=(n, dim))
    scale = 255.0 / max(1e-9, np.abs(data).max())
    data = np.clip(data * scale, -255, 255)
    return Dataset(data, L1, name="Color")


def make_synthetic(n: int = 10_000, dim: int = 20, independent: int = 5, seed: int = 42) -> Dataset:
    """The paper's Synthetic recipe, verbatim (Section 6.1).

    Five dimension values are generated randomly; the remaining dimensions
    are linear combinations of the previous ones.  Each dimension is mapped
    to [0, 10000] and values are integers so the L-infinity distances are
    discrete (required to exercise BKT and FQT).
    """
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 10_000, size=(n, independent))
    columns = [base[:, i] for i in range(independent)]
    for _ in range(dim - independent):
        k = int(rng.integers(2, independent + 1))
        picks = rng.choice(len(columns), size=k, replace=False)
        weights = rng.uniform(-1.0, 1.0, size=k)
        combo = sum(w * columns[p] for w, p in zip(weights, picks))
        lo, hi = combo.min(), combo.max()
        if hi - lo < 1e-9:
            combo = rng.uniform(0, 10_000, size=n)
        else:
            combo = (combo - lo) / (hi - lo) * 10_000
        columns.append(combo)
    data = np.rint(np.stack(columns, axis=1)).astype(np.float64)
    # integer coordinates make the L-infinity distances integers, which is
    # exactly why the paper's Synthetic dataset can exercise BKT and FQT
    distance = DiscreteMetricAdapter(LInf)
    distance.name = "Linf"
    return Dataset(data, distance, name="Synthetic")


def make_uniform(n: int = 1000, dim: int = 4, seed: int = 0) -> Dataset:
    """Plain uniform vectors (testing convenience, not in the paper)."""
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(0, 1000, size=(n, dim)), L2, name="Uniform")


DATASET_FACTORIES = {
    "LA": make_la,
    "Words": make_words,
    "Color": make_color,
    "Synthetic": make_synthetic,
}


def save_dataset(dataset: Dataset, path) -> None:
    """Persist a dataset to disk (.npz for vectors, .txt for strings).

    The distance function is recorded by name and reconstructed on load, so
    only the built-in metrics (Table 2's L1/L2/Linf and edit distance) are
    supported; custom metrics should be re-attached by the caller.
    """
    import pathlib

    path = pathlib.Path(path)
    if dataset.is_vector:
        np.savez_compressed(
            path,
            objects=dataset.objects,
            name=np.asarray(dataset.name),
            distance=np.asarray(dataset.distance.name),
        )
    else:
        header = f"# name={dataset.name} distance={dataset.distance.name}\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header)
            for word in dataset.objects:
                fh.write(word + "\n")


def load_dataset(path) -> Dataset:
    """Load a dataset written by :func:`save_dataset`."""
    import pathlib

    path = pathlib.Path(path)
    distances = {
        "L1": L1,
        "L2": L2,
        "Linf": LInf,
        "edit": EditDistance(),
    }
    if path.suffix == ".npz":
        blob = np.load(path, allow_pickle=False)
        name = str(blob["name"])
        distance_name = str(blob["distance"])
        distance = distances[distance_name]
        if distance_name == "Linf":
            data = blob["objects"]
            if np.array_equal(data, np.rint(data)):
                distance = DiscreteMetricAdapter(LInf)
                distance.name = "Linf"
        return Dataset(blob["objects"], distance, name=name)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        words = [line.rstrip("\n") for line in fh if line.strip()]
    fields = dict(
        part.split("=", 1) for part in header.lstrip("# ").split() if "=" in part
    )
    distance = distances[fields.get("distance", "edit")]
    return Dataset(words, distance, name=fields.get("name", "dataset"))
