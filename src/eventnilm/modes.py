"""Appliance mode and state extraction from filtered training signals.

Operating modes are learned in two phases. Bottom-up Ward-linkage
agglomeration first reduces the samples to ``k`` clusters, always merging the
pair whose merge cost

    delta(A, B) = n_A * n_B / (n_A + n_B) * (m_A - m_B)^2

is globally minimal. A distance-based sweep then walks the cluster centroids
from highest to lowest, absorbing any neighbour closer than a fixed fraction
of the current root centroid; the surviving clusters' [min, max] envelopes
become the appliance's states. The sweep exists because cost-based stopping
underweights small clusters: an infrequent mode would be lumped into a wide
neighbouring state purely because it holds few samples.

For 1-D data the globally cheapest Ward merge is always between clusters
adjacent in centroid order (for sorted centroids ci < cj < ck, assuming both
adjacent merges cost at least the straddling one leads to 0 >= 2*ni*nk), so
agglomeration runs on sorted samples and looks only at adjacent-pair costs.
Ward linkage is also reducible: a merged cluster is never cheaper to join
than the cheaper of its two parts was. So rounds that merge every
reciprocal-nearest adjacent pair at once build the same dendrogram as merging
the cheapest pair one at a time (D. Muellner, "Modern hierarchical,
agglomerative clustering algorithms", arXiv:1109.2378, 2011). The rounds run
in numpy down to one cluster, and the dendrogram is then cut at ``k``. The
path is exact at every input size: no value is rounded.

Exactly equal samples merge first, at zero cost (adjacent slices of sorted
data share a centroid only if all their values are equal), so the rounds
start from one cluster per distinct value. With fewer distinct values than
``k``, they start from one cluster per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MIN_CLUSTERS, RunConfig
from .errors import InsufficientDataError
from .signals import PowerSignal

OFF_MODE = "off"


@dataclass(frozen=True)
class Cluster:
    """Summary statistics of a multiset of power samples."""

    centroid: float
    min: float
    max: float
    size: int

    @classmethod
    def of(cls, members) -> "Cluster":
        arr = np.asarray(members, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("a cluster needs at least one member")
        return cls(
            centroid=float(arr.mean()),
            min=float(arr.min()),
            max=float(arr.max()),
            size=int(arr.size),
        )


@dataclass(frozen=True)
class State:
    """One operating mode's power interval."""

    mode: str
    low: float
    high: float
    centroid: float
    size: int = 0


@dataclass(frozen=True)
class StateSet:
    """Disjoint power intervals, one per mode, sorted by centroid ascending."""

    states: tuple[State, ...]

    def __post_init__(self):
        if not self.states:
            raise ValueError("a state set needs at least one state")
        offs = [s for s in self.states if s.mode == OFF_MODE]
        if len(offs) != 1:
            raise ValueError("exactly one state must be the OFF state")
        if offs[0].centroid != min(s.centroid for s in self.states):
            raise ValueError("the OFF state must have the lowest centroid")

    @property
    def off_state(self) -> State:
        return next(s for s in self.states if s.mode == OFF_MODE)

    @property
    def non_off(self) -> tuple[State, ...]:
        return tuple(s for s in self.states if s.mode != OFF_MODE)

    def mode_ids(self) -> list[str]:
        return [s.mode for s in self.states]

    def nearest_indices(self, watts: np.ndarray) -> np.ndarray:
        """Index into ``states`` of the nearest state to each value.

        The distance to an interval is 0 inside it. Ties go to the smaller
        centroid, then to the earlier state: ``argmin`` over the states in
        stable centroid order keeps the first of equal distances.
        """
        order = np.argsort([s.centroid for s in self.states], kind="stable")
        low = np.array([self.states[i].low for i in order])
        high = np.array([self.states[i].high for i in order])
        w = np.asarray(watts, dtype=np.float64)[:, None]
        distance = np.where(w < low, low - w, np.where(w > high, w - high, 0.0))
        return order[np.argmin(distance, axis=1)]


def ward_merge_cost(a: Cluster, b: Cluster) -> float:
    """Increase in within-cluster sum of squares if a and b were merged."""
    return _cost(a.size, a.centroid, b.size, b.centroid)


def _cost(na: int, ca: float, nb: int, cb: float) -> float:
    return (na * nb) / (na + nb) * (ca - cb) ** 2


def lw_cluster(samples, k: int) -> list[Cluster]:
    """Agglomerate samples bottom-up until exactly ``k`` clusters remain.

    The result is the greedy one: every sample starts as its own cluster and
    at each stage the globally cheapest pair merges, cost ties breaking
    toward the pair with the smaller centroids, which makes it deterministic.
    """
    data = np.sort(np.asarray(samples, dtype=np.float64))
    n = data.size
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise InsufficientDataError(f"cannot form {k} clusters from {n} samples")
    if not np.isfinite(data).all():
        raise ValueError("samples must be finite")

    values, counts = np.unique(data, return_counts=True)
    if values.size < k:
        values, counts = data, np.ones(n, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))  # value i -> data slice

    # Live clusters in value order: member count, member sum (for exact
    # weighted centroids) and first value. Each round merges every pair that
    # is cheaper than its left neighbour pair and no dearer than its right
    # one; in a run of equal costs that opens below its left neighbour, that
    # is every other pair from the run's start. Each merge records its cost
    # and left centroid on the gap between the two clusters' values.
    m = values.size
    size = counts.astype(np.float64)
    total = values * counts
    first = np.arange(m)
    height, left_centroid = np.empty(m - 1), np.empty(m - 1)
    while size.size > 1:
        centroid = total / size
        cost = _cost(size[:-1], centroid[:-1], size[1:], centroid[1:])
        pair = np.arange(cost.size)
        opens = np.concatenate(([True], cost[1:] != cost[:-1]))
        run_start = np.maximum.accumulate(np.where(opens, pair, 0))
        below_left = np.concatenate(([True], cost[1:] < cost[:-1]))
        not_above_right = np.concatenate((cost[:-1] <= cost[1:], [True]))
        merge = pair[
            below_left[run_start] & ((pair - run_start) % 2 == 0) & not_above_right
        ]
        gap = first[merge + 1] - 1
        height[gap], left_centroid[gap] = cost[merge], centroid[merge]
        size[merge] += size[merge + 1]
        total[merge] += total[merge + 1]
        keep = np.ones(size.size, dtype=bool)
        keep[merge + 1] = False
        size, total, first = size[keep], total[keep], first[keep]

    # The greedy run stops k - 1 merges short of one cluster: the gaps it
    # never merges carry the largest (cost, left centroid, gap) keys. The
    # sort is stable, so equal keys stay in gap order.
    order = np.lexsort((left_centroid, height))
    cuts = np.sort(order[m - k :]) + 1
    bounds = starts[np.concatenate(([0], cuts, [m]))]
    return [Cluster.of(data[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _merge_clusters(a: Cluster, b: Cluster) -> Cluster:
    return Cluster(
        centroid=(a.centroid * a.size + b.centroid * b.size) / (a.size + b.size),
        min=min(a.min, b.min),
        max=max(a.max, b.max),
        size=a.size + b.size,
    )


def distance_merge(
    clusters: list[Cluster], merge_ratio: float = RunConfig.merge_ratio
) -> list[Cluster]:
    """Absorb clusters whose centroids sit close under the current root.

    Centroids are walked in descending order. While the next centroid is
    within ``merge_ratio`` of the root's centroid, the clusters merge and the
    merged cluster (weighted centroid, envelope bounds) stays root; otherwise
    the root is final and the next cluster takes over as root.
    """
    if not clusters:
        raise ValueError("no clusters to merge")
    ordered = sorted(clusters, key=lambda c: c.centroid, reverse=True)
    finished = []
    root = ordered[0]
    for cand in ordered[1:]:
        if root.centroid - cand.centroid < merge_ratio * root.centroid:
            root = _merge_clusters(root, cand)
        else:
            finished.append(root)
            root = cand
    finished.append(root)
    finished.reverse()
    return finished


def mode_name(level_index: int) -> str:
    """The mode of an appliance's ``level_index``-th power level counted up
    from OFF (0): "off", then "on1", "on2", ..."""
    return OFF_MODE if level_index == 0 else f"on{level_index}"


def states_from_clusters(
    clusters: list[Cluster], off_threshold: float = RunConfig.off_threshold
) -> StateSet:
    """Tag merged clusters as states; split the OFF mode off by its level.

    The lowest-centroid cluster becomes OFF when it sits under
    ``off_threshold`` watts; otherwise the appliance was never observed off
    and a zero-width OFF state at 0 W is added.
    """
    ordered = sorted(clusters, key=lambda c: c.centroid)
    states = []
    if ordered[0].centroid < off_threshold:
        off, rest = ordered[0], ordered[1:]
        states.append(
            State(OFF_MODE, low=off.min, high=off.max, centroid=off.centroid, size=off.size)
        )
    else:
        rest = ordered
        states.append(State(OFF_MODE, low=0.0, high=0.0, centroid=0.0, size=0))
    for i, c in enumerate(rest, 1):
        states.append(State(mode_name(i), low=c.min, high=c.max, centroid=c.centroid, size=c.size))
    return StateSet(states=tuple(states))


def extract_states(
    filtered_signal: PowerSignal,
    k: int = RunConfig.k_clusters,
    merge_ratio: float = RunConfig.merge_ratio,
    off_threshold: float = RunConfig.off_threshold,
) -> StateSet:
    """Learn an appliance's states from its filtered training signal."""
    if k < MIN_CLUSTERS:
        raise ValueError(f"k must be at least {MIN_CLUSTERS}, got {k}")
    n = len(filtered_signal)
    clusters = lw_cluster(filtered_signal.values, min(k, n))
    merged = distance_merge(clusters, merge_ratio=merge_ratio)
    return states_from_clusters(merged, off_threshold=off_threshold)
