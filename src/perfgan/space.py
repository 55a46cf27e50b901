"""Discrete 6-dimensional board-configuration space.

A configuration assigns one level to each of six ordered dimensions
(big-cluster CPU count, frequency, utilization; same for the little
cluster).  At the system-under-test boundary and in test records an
input is a tuple of level indices; inside the search it is its rank,
its lexicographic position, which the sampler, snap and encoder take
and return.  The continuous encoding maps each index onto an evenly
spaced grid in [-1, 1] so network outputs can be snapped back onto it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Collection, Iterator, Sequence

import numpy as np

# A test input is a tuple of six level indices, one per dimension.
TestInput = tuple[int, ...]

NUM_DIMENSIONS = 6

DIMENSION_ROLES = (
    "big_cpus",
    "big_freq",
    "big_util",
    "little_cpus",
    "little_freq",
    "little_util",
)


@dataclass(frozen=True)
class Dimension:
    """One configuration axis: a name and its ordered physical levels."""

    name: str
    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.levels) == 0:
            raise ValueError(f"dimension {self.name!r}: levels must be nonempty")
        if not self.levels[0] >= 0:
            raise ValueError(f"dimension {self.name!r}: levels must be nonnegative")
        for lo, hi in zip(self.levels, self.levels[1:]):
            if not lo < hi:
                raise ValueError(
                    f"dimension {self.name!r}: levels must be strictly increasing"
                )


@dataclass(frozen=True)
class InputSpace:
    """Cartesian product of exactly six dimensions, in cluster order.

    Positional convention: dims[0:3] are the big cluster's CPU count,
    frequency and utilization; dims[3:6] the little cluster's.
    """

    dims: tuple[Dimension, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != NUM_DIMENSIONS:
            raise ValueError(f"input space needs exactly {NUM_DIMENSIONS} dimensions")

    # cached in the instance __dict__, which equality and hashing ignore
    @functools.cached_property
    def level_counts(self) -> tuple[int, ...]:
        return tuple(len(d.levels) for d in self.dims)

    def validate_input(self, test_input: TestInput) -> None:
        if len(test_input) != NUM_DIMENSIONS:
            raise ValueError(f"input must have {NUM_DIMENSIONS} indices")
        for j, (idx, dim) in enumerate(zip(test_input, self.dims)):
            if not 0 <= idx < len(dim.levels):
                raise ValueError(
                    f"index {idx} out of range for dimension {j} ({dim.name!r})"
                )

    def physical_values(self, test_input: TestInput) -> tuple[float, ...]:
        """Map level indices to the physical level values."""
        self.validate_input(test_input)
        return tuple(d.levels[i] for d, i in zip(self.dims, test_input))


def default_space() -> InputSpace:
    """Synthetic big.LITTLE configuration grid (665,000 points).

    0-4 CPUs per cluster, 100 MHz frequency steps (big: 200-2000 MHz,
    little: 200-1500 MHz), ten utilization levels from 10% to 100%.
    """
    utilization = tuple((i + 1) / 10 for i in range(10))
    return InputSpace(
        dims=(
            Dimension("big_cpus", tuple(float(n) for n in range(5))),
            Dimension("big_freq", tuple(float(f) for f in range(200, 2001, 100))),
            Dimension("big_util", utilization),
            Dimension("little_cpus", tuple(float(n) for n in range(5))),
            Dimension("little_freq", tuple(float(f) for f in range(200, 1501, 100))),
            Dimension("little_util", utilization),
        )
    )


def cardinality(space: InputSpace) -> int:
    """Number of distinct configurations in the space."""
    return math.prod(space.level_counts)


def normalize_batch(space: InputSpace, ranks: Sequence[int] | np.ndarray) -> np.ndarray:
    """Encode grid inputs, given by rank, as rows in [-1, 1]^6; returns (k, 6).

    `ranks` is a list or a 1-D integer array (not a set or a generator).
    Component j is -1 + 2*index/(L-1) for an L-level dimension; a
    single-level dimension encodes as 0.  Raises ValueError on a rank
    outside [0, cardinality).
    """
    r = np.asarray(ranks, dtype=np.int64)
    if r.ndim != 1:
        raise ValueError(f"ranks must be one-dimensional, got shape {r.shape}")
    total = cardinality(space)
    bad = (r < 0) | (r >= total)
    if bad.any():
        raise ValueError(f"rank {r[bad][0]} out of range [0, {total})")
    idx = np.stack(np.unravel_index(r, space.level_counts), axis=1)
    counts = np.asarray(space.level_counts, dtype=np.int64)
    denom = np.maximum(counts - 1, 1).astype(np.float64)
    out = -1.0 + 2.0 * idx / denom
    out[:, counts == 1] = 0.0
    return out


def snap(space: InputSpace, vectors: np.ndarray) -> np.ndarray:
    """Map rows of continuous vectors (k, 6) to the ranks of their nearest inputs.

    Component j of a row becomes ceil(x - 0.5) with
    x = (v + 1) * (L - 1) / 2 for an L-level dimension, clipped to
    [0, L - 1]: the nearest level, exact midpoints resolving to the lower
    index; a single-level dimension snaps to 0.  Returns the int64 ranks
    of those index rows.  Raises ValueError on a row that is not six wide
    or on a non-finite component.
    """
    vec = np.asarray(vectors, dtype=np.float64)
    if vec.ndim != 2 or vec.shape[1] != NUM_DIMENSIONS:
        raise ValueError(f"vectors must be (k, {NUM_DIMENSIONS}), got {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("vectors must be finite")
    top = np.asarray(space.level_counts, dtype=np.float64) - 1.0
    idx = np.clip(np.ceil((vec + 1.0) * top / 2.0 - 0.5), 0.0, top)
    return np.ravel_multi_index(idx.astype(np.int64).T, space.level_counts)


def rank(space: InputSpace, test_input: TestInput) -> int:
    """Lexicographic position of an input within :func:`enumerate_inputs`,
    numpy's C order.  Raises ValueError on an input that is not six
    indices wide or has an index out of range."""
    return int(np.ravel_multi_index(test_input, space.level_counts))


def unrank(space: InputSpace, r: int) -> TestInput:
    """Inverse of :func:`rank`, as Python ints.  Raises ValueError on a
    rank outside [0, cardinality)."""
    return tuple(map(int, np.unravel_index(r, space.level_counts)))


def enumerate_inputs(space: InputSpace) -> Iterator[TestInput]:
    """Yield every input exactly once, lexicographic by level indices."""
    return itertools.product(*(range(c) for c in space.level_counts))


def sample_uniform(
    space: InputSpace,
    exclude: Collection[int],
    k: int,
    rng: np.random.Generator,
) -> list[int]:
    """Draw k distinct ranks uniformly, without replacement, outside `exclude`.

    `exclude` must hold ranks of this space.  Raises ValueError when
    fewer than k inputs remain.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    total = cardinality(space)
    available = total - len(exclude)
    if k > available:
        raise ValueError(
            f"cannot sample {k} inputs: only {available} of {total} remain"
        )

    if k > available // 4:
        # dense request: materialize the remaining pool and choose exactly
        pool = np.arange(total, dtype=np.int64)
        if exclude:
            mask = np.ones(total, dtype=bool)
            mask[list(exclude)] = False
            pool = pool[mask]
        return rng.choice(pool, size=k, replace=False).tolist()

    # sparse request: batched rejection sampling stays exactly uniform.
    # `picked` is an insertion-ordered set of the non-excluded draws, first
    # occurrences in draw order; the batch that reaches k is cut to k
    picked: dict[int, None] = {}
    while len(picked) < k:
        need = k - len(picked)
        draw = rng.integers(0, total, size=need + max(16, need // 4)).tolist()
        picked.update(dict.fromkeys(r for r in draw if r not in exclude))
    return list(picked)[:k]
