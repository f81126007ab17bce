"""Pivot selection strategies.

The paper stresses (Section 1) that query performance "depends highly on the
pivots used", so its study fixes one strategy -- HFI, the HF-based
incremental selection from the SPB-tree paper [12] -- for every index except
EPT/EPT* (per-object pivots) and BKT (random per-subtree pivots).

Implemented strategies:

* :func:`random_pivots` -- uniform sample (baseline).
* :func:`max_variance_pivots` -- greedy maximisation of distance variance.
* :func:`hf` -- Hull of Foci (Omni-family [17]): finds near-outliers close to
  the convex-hull vertices of the dataset.
* :func:`hfi` -- HF candidates + incremental selection maximising the mean
  *precision* of the pivot lower bound, i.e. E[ max_i |d(a,p_i)-d(b,p_i)|
  / d(a,b) ] over sampled pairs -- the paper's common strategy.
* :func:`psa` -- Algorithm 1 (EPT*): per-object incremental selection from an
  HF candidate set (lives here so EPT* shares the machinery).
"""

from __future__ import annotations

import numpy as np

from .metric_space import MetricSpace

__all__ = [
    "random_pivots",
    "max_variance_pivots",
    "hf",
    "hfi",
    "psa",
    "psa_greedy",
    "select_pivots",
]


def random_pivots(space: MetricSpace, n_pivots: int, seed: int = 0) -> list[int]:
    """Uniformly random distinct pivots."""
    n = len(space)
    if n_pivots > n:
        raise ValueError(f"cannot select {n_pivots} pivots from {n} objects")
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.choice(n, size=n_pivots, replace=False)]


def max_variance_pivots(
    space: MetricSpace, n_pivots: int, sample_size: int = 256, seed: int = 0
) -> list[int]:
    """Greedy pivots maximising the variance of distances to a sample.

    High-variance pivots separate objects well, a classic heuristic from
    Bustos et al. [9].
    """
    rng = np.random.default_rng(seed)
    n = len(space)
    if n_pivots > n:
        raise ValueError(f"cannot select {n_pivots} pivots from {n} objects")
    sample_ids = rng.choice(n, size=min(sample_size, n), replace=False)
    candidates = rng.choice(n, size=min(4 * sample_size, n), replace=False)
    chosen: list[int] = []
    for candidate in candidates:
        if len(chosen) == n_pivots:
            break
        if int(candidate) not in chosen:
            chosen.append(int(candidate))
    # score candidates by variance, keep the best n_pivots
    scores = []
    for candidate in candidates:
        dists = space.d_ids(space.dataset[int(candidate)], list(sample_ids))
        scores.append((float(np.var(dists)), int(candidate)))
    scores.sort(reverse=True)
    result: list[int] = []
    for _, candidate in scores:
        if candidate not in result:
            result.append(candidate)
        if len(result) == n_pivots:
            break
    return result


def hf(
    space: MetricSpace,
    n_foci: int,
    sample_size: int = 512,
    seed: int = 0,
) -> list[int]:
    """Hull of Foci algorithm (Omni-family [17]).

    Picks objects near the hull of the dataset: start from the object
    farthest from a random seed, take its farthest partner as the second
    focus, then repeatedly add the object whose distances to the chosen foci
    best match the initial "edge" (the first inter-focus distance), i.e.
    minimise sum_i |d(cand, f_i) - edge|.  Works on a sample for scalability.
    """
    rng = np.random.default_rng(seed)
    n = len(space)
    if n_foci > n:
        raise ValueError(f"cannot select {n_foci} foci from {n} objects")
    sample_ids = [int(i) for i in rng.choice(n, size=min(sample_size, n), replace=False)]
    sample_objs = space.dataset.gather(sample_ids)

    seed_obj = space.dataset[sample_ids[0]]
    dists = space.d_many(seed_obj, sample_objs)
    f1 = sample_ids[int(np.argmax(dists))]
    dists = space.d_many(space.dataset[f1], sample_objs)
    f2 = sample_ids[int(np.argmax(dists))]
    edge = float(dists[sample_ids.index(f2)])
    foci = [f1]
    if n_foci >= 2 and f2 != f1:
        foci.append(f2)

    # f1's row is ``dists``, in hand: only the foci after it are computed
    errors = np.abs(dists - edge)
    for focus in foci[1:]:
        errors += np.abs(space.d_many(space.dataset[focus], sample_objs) - edge)
    chosen = set(foci)
    while len(foci) < n_foci:
        order = np.argsort(errors)
        next_focus = None
        for idx in order:
            if sample_ids[idx] not in chosen:
                next_focus = sample_ids[idx]
                break
        if next_focus is None:
            # sample exhausted; fall back to random unseen objects
            remaining = [i for i in range(n) if i not in chosen]
            next_focus = int(rng.choice(remaining))
        foci.append(next_focus)
        chosen.add(next_focus)
        errors += np.abs(space.d_many(space.dataset[next_focus], sample_objs) - edge)
    return foci


def hfi(
    space: MetricSpace,
    n_pivots: int,
    candidate_scale: int = 40,
    sample_pairs: int = 200,
    seed: int = 0,
) -> list[int]:
    """HF-based incremental pivot selection (SPB-tree [12]).

    Candidates come from :func:`hf` (``candidate_scale`` outliers); pivots are
    then chosen greedily to maximise the similarity between the metric space
    and the mapped vector space, measured as the mean ratio of the pivot
    lower bound to the true distance over a sample of object pairs.
    """
    rng = np.random.default_rng(seed)
    n = len(space)
    n_candidates = min(max(candidate_scale, n_pivots), n)
    candidates = hf(space, n_candidates, seed=seed)

    pair_left = rng.integers(0, n, size=sample_pairs)
    pair_right = rng.integers(0, n, size=sample_pairs)
    keep = pair_left != pair_right
    pair_left = [int(i) for i in pair_left[keep]]
    pair_right = [int(i) for i in pair_right[keep]]
    true_d = np.array(
        [space.d_between_ids(i, j) for i, j in zip(pair_left, pair_right)],
        dtype=np.float64,
    )
    positive = true_d > 0
    # |pairs| x |candidates| matrix of |d(a,p) - d(b,p)|
    left_mat = space.pairwise_ids(pair_left, candidates)
    right_mat = space.pairwise_ids(pair_right, candidates)
    gaps = np.abs(left_mat - right_mat)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(positive[:, None], gaps / np.maximum(true_d[:, None], 1e-12), 0.0)

    chosen: list[int] = []
    chosen_cols: list[int] = []
    current = np.zeros(ratios.shape[0], dtype=np.float64)
    while len(chosen) < n_pivots and ratios.shape[0]:
        if len(chosen_cols) == len(candidates):
            break
        # one |candidates| x |pairs| reduction scores every candidate at
        # once; the candidates-major layout keeps each row's summation
        # order (and hence the chosen pivots) bit-identical to the scalar
        # per-column loop, and argmax keeps its first-best tie-breaking
        scores = np.maximum(current[None, :], ratios.T).mean(axis=1)
        if chosen_cols:
            scores[chosen_cols] = -np.inf
        best_col = int(np.argmax(scores))
        chosen_cols.append(best_col)
        chosen.append(candidates[best_col])
        current = np.maximum(current, ratios[:, best_col])
    if len(chosen) < n_pivots:
        extra = [i for i in range(n) if i not in chosen]
        rng.shuffle(extra)
        chosen.extend(extra[: n_pivots - len(chosen)])
    return chosen


def psa(
    space: MetricSpace,
    n_pivots_per_object: int,
    candidate_scale: int = 40,
    sample_size: int = 64,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Pivot Selecting Algorithm (Algorithm 1) -- per-object pivots for EPT*.

    For each object o the algorithm greedily picks, from an HF candidate set
    CP, the pivots maximising E[ D(q,o) / d(q,o) ] where
    D(q,o) = max_i |d(q,p_i) - d(o,p_i)| and queries q are approximated by a
    random sample S (the paper samples O).  This is deliberately expensive --
    Table 4 reports EPT* as the costliest build -- but vectorised here over
    the candidate axis.

    Returns:
        (pivot_index_matrix, pivot_dist_matrix, candidate_ids): two
        ``n x l`` matrices giving, per object, the chosen candidate indices
        (into ``candidate_ids``) and the pre-computed distances.
    """
    rng = np.random.default_rng(seed)
    n = len(space)
    l = n_pivots_per_object
    n_candidates = min(max(candidate_scale, l), n)
    candidates = hf(space, n_candidates, seed=seed)
    sample_ids = [int(i) for i in rng.choice(n, size=min(sample_size, n), replace=False)]

    # cand_obj[c, o] = d(p_c, o); cand_sample[c, s] = d(p_c, q_s)
    cand_obj = space.pairwise_ids(candidates, list(range(n)))
    cand_sample = cand_obj[:, sample_ids]
    # sample_obj[s, o] = d(q_s, o): the denominator of the target ratio
    sample_obj = space.pairwise_ids(sample_ids, list(range(n)))
    denom = np.maximum(sample_obj, 1e-12)

    pivot_idx = np.zeros((n, l), dtype=np.int32)
    pivot_dist = np.zeros((n, l), dtype=np.float64)
    for o in range(n):
        # gaps[c, s] = |d(q_s, p_c) - d(o, p_c)|
        gaps = np.abs(cand_sample - cand_obj[:, o : o + 1])
        used = psa_greedy(gaps / denom[:, o][None, :], l)
        pivot_idx[o] = used
        pivot_dist[o] = cand_obj[used, o]
    return pivot_idx, pivot_dist, candidates


def psa_greedy(ratios: np.ndarray, count: int) -> list[int]:
    """PSA's greedy pick: ``count`` distinct rows of the ``|CP| x |S|``
    ratio matrix D(q_s, o) / d(q_s, o), one at a time, each the candidate
    whose ratios raise the mean of the running per-sample maximum most.

    The one copy of the step that :func:`psa`, ``EPTStar.insert`` and
    ``DEPT.build`` run; returns candidate row indices in pick order.
    """
    current = np.zeros(ratios.shape[1], dtype=np.float64)
    used: list[int] = []
    for _ in range(count):
        scores = np.maximum(current[None, :], ratios).mean(axis=1)
        if used:
            scores[used] = -1.0
        best = int(np.argmax(scores))
        used.append(best)
        current = np.maximum(current, ratios[best])
    return used


_STRATEGIES = {
    "random": random_pivots,
    "max_variance": max_variance_pivots,
    "hf": hf,
    "hfi": hfi,
}


def select_pivots(
    space: MetricSpace, n_pivots: int, strategy: str = "hfi", seed: int = 0, **kwargs
) -> list[int]:
    """Select pivots by strategy name (``random | max_variance | hf | hfi``)."""
    try:
        fn = _STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown pivot strategy {strategy!r}; choose from {sorted(_STRATEGIES)}"
        ) from None
    return fn(space, n_pivots, seed=seed, **kwargs)
