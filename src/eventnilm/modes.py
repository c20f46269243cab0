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
agglomeration runs on sorted samples with a heap of adjacent-pair costs in
O(n log n) instead of touching all pairs.

Exactly equal samples merge first, at zero cost (adjacent slices of sorted
data share a centroid only if all their values are equal), so the heap starts
from one cluster per distinct value: a few thousand on a mostly-OFF filtered
channel instead of ~90k samples. With fewer distinct values than ``k``, it
falls back to one cluster per sample.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .signals import PowerSignal

OFF_MODE = "off"

# extract_states guards: below 10 clusters the linkage phase would already be
# doing the distance sweep's job. Above the sample limit, values are rounded to
# the quantum before clustering, the only lossy path: a 1 Hz channel keeps too
# many distinct values (a synthetic refrigerator: ~55k in 3 days, ~139k in 7).
MIN_CLUSTERS = 10
DEDUPE_SAMPLE_LIMIT = 1_000_000
DEDUPE_QUANTUM_W = 1.0


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

    def contains(self, watts: float) -> bool:
        return self.low <= watts <= self.high


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

    def get(self, mode: str) -> State:
        for s in self.states:
            if s.mode == mode:
                return s
        raise KeyError(mode)

    def nearest(self, watts: float) -> State:
        """State containing the value, else the closest interval."""
        return self.states[int(self.nearest_indices(np.array([watts]))[0])]

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

    Every sample starts as its own cluster; at each stage the globally
    cheapest pair merges. Cost ties break toward the pair with the smaller
    centroids, which makes the result deterministic.
    """
    data = np.sort(np.asarray(samples, dtype=np.float64))
    n = data.size
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise InsufficientDataError(f"cannot form {k} clusters from {n} samples")

    if n > DEDUPE_SAMPLE_LIMIT:
        data = np.round(data / DEDUPE_QUANTUM_W) * DEDUPE_QUANTUM_W
    values, counts = np.unique(data, return_counts=True)
    if values.size < k:
        if n > DEDUPE_SAMPLE_LIMIT:
            raise InsufficientDataError(
                f"deduplication left {values.size} distinct values, fewer than k={k}"
            )
        values, counts = data, np.ones(n, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))  # value i -> data slice

    # Cluster i spans values i .. right[i] - 1; only neighbours can merge, so
    # a lazy-deletion heap over adjacent pairs suffices. A merge bumps both
    # versions, staling every pending entry of either cluster.
    m = values.size
    size = counts.astype(np.float64).tolist()
    total = (values * counts).tolist()  # member sums, for exact weighted centroids
    left = list(range(-1, m - 1))  # neighbour links; -1 / m = none
    right = list(range(1, m + 1))
    version = [0] * m

    def pair_entry(i, j):
        ci, cj = total[i] / size[i], total[j] / size[j]
        return (_cost(size[i], ci, size[j], cj), ci, cj, i, j, version[i], version[j])

    heap = [pair_entry(i, i + 1) for i in range(m - 1)]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    for _ in range(m - k):
        while True:
            _, _, _, i, j, vi, vj = pop(heap)
            if version[i] == vi and version[j] == vj:
                break
        # merge j into i (i is the lower neighbour)
        size[i] += size[j]
        total[i] += total[j]
        version[i] += 1
        version[j] += 1
        r = right[i] = right[j]
        if r < m:
            left[r] = i
            push(heap, pair_entry(i, r))
        if left[i] >= 0:
            push(heap, pair_entry(left[i], i))

    out, i = [], 0
    while i < m:
        out.append(Cluster.of(data[starts[i] : starts[right[i]]]))
        i = right[i]
    out.sort(key=lambda c: c.centroid)
    return out


def _merge_clusters(a: Cluster, b: Cluster) -> Cluster:
    return Cluster(
        centroid=(a.centroid * a.size + b.centroid * b.size) / (a.size + b.size),
        min=min(a.min, b.min),
        max=max(a.max, b.max),
        size=a.size + b.size,
    )


def distance_merge(clusters: list[Cluster], merge_ratio: float = 0.15) -> list[Cluster]:
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


def _mode_names(count: int) -> list[str]:
    return [f"on{i}" for i in range(1, count + 1)]


def states_from_clusters(
    clusters: list[Cluster], off_threshold: float = 5.0
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
    for name, c in zip(_mode_names(len(rest)), rest):
        states.append(State(name, low=c.min, high=c.max, centroid=c.centroid, size=c.size))
    return StateSet(states=tuple(states))


def extract_states(
    filtered_signal: PowerSignal,
    k: int = MIN_CLUSTERS,
    merge_ratio: float = 0.15,
    off_threshold: float = 5.0,
) -> StateSet:
    """Learn an appliance's states from its filtered training signal."""
    if k < MIN_CLUSTERS:
        raise ValueError(f"k must be at least {MIN_CLUSTERS}, got {k}")
    n = len(filtered_signal)
    clusters = lw_cluster(filtered_signal.values, min(k, n))
    merged = distance_merge(clusters, merge_ratio=merge_ratio)
    return states_from_clusters(merged, off_threshold=off_threshold)
