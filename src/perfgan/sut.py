"""System under test: a deterministic synthetic power model.

Stands in for a benchmark running on a big.LITTLE board.  Each cluster
contributes dynamic power proportional to active CPUs x utilization x
(frequency/max frequency)^3, on top of a constant idle draw; the cube
follows dynamic-power scaling, where supply voltage rises with frequency.

The threshold p_m declares a configuration a positive test when its
power meets it; fitness compresses power onto [0, 1] as min(1, power/p_m).
The space is exhaustively enumerable, so the exact positive set comes
from a brute-force oracle whose grid is `measure` at every input, bit
for bit, and `gain` can be calibrated to a requested positive fraction.
Before gain the model is an outer sum of big- and little-cluster terms
and power is monotone in it: the oracle count and calibration count
suffixes of the sorted little terms and never build the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from .space import InputSpace, TestInput, cardinality


class SutInterface(Protocol):
    """Anything that can deterministically measure a configuration's power."""

    def measure(self, space: InputSpace, test_input: TestInput) -> float: ...


@dataclass(frozen=True)
class FitnessSpec:
    """Power threshold defining a positive test."""

    p_m: float = 6.0

    def __post_init__(self) -> None:
        if not self.p_m > 0:
            raise ValueError("p_m must be positive")


@dataclass(frozen=True)
class SyntheticSut:
    """Closed-form power model over the 6-D configuration grid."""

    p_idle: float = 0.5
    kappa_big: float = 1.0
    kappa_little: float = 0.15
    gain: float = 1.0

    def __post_init__(self) -> None:
        for field in ("p_idle", "kappa_big", "kappa_little", "gain"):
            if not getattr(self, field) > 0:
                raise ValueError(f"{field} must be positive")

    def measure(self, space: InputSpace, test_input: TestInput) -> float:
        """Power in watts for one configuration."""
        return self._power(space, space.physical_values(test_input))

    def peak_power(self, space: InputSpace) -> float:
        """The maximum power, at every dimension's top level; ValueError unless finite."""
        power = self._power(space, tuple(d.levels[-1] for d in space.dims))
        if not math.isfinite(power):
            raise ValueError(f"power at the top level of every dimension is {power!r}")
        return power

    def power_grid(self, space: InputSpace) -> np.ndarray:
        """Power for every configuration, flat in enumeration order: `measure`
        at every input, bit for bit."""
        big, little = self._terms(space)
        return self._scale(np.add.outer(big, little).reshape(-1))

    def _power(self, space: InputSpace, values: tuple[float, ...]) -> float:
        n_b, f_b, u_b, n_l, f_l, u_l = values
        c_b = _freq_ratio_cubed(f_b, space.dims[1].levels[-1])
        c_l = _freq_ratio_cubed(f_l, space.dims[4].levels[-1])
        return self._scale(
            _cluster(self.kappa_big, n_b, c_b, u_b) + _cluster(self.kappa_little, n_l, c_l, u_l)
        )

    def _terms(self, space: InputSpace) -> tuple[np.ndarray, np.ndarray]:
        """The big- and little-cluster terms before gain, flat in rank order: the input
        of rank i * little.size + j has big[i] + little[j], summed as `_power` sums."""
        n_b, f_b, u_b, n_l, f_l, u_l = (d.levels for d in space.dims)
        c_b = [_freq_ratio_cubed(f, f_b[-1]) for f in f_b]
        c_l = [_freq_ratio_cubed(f, f_l[-1]) for f in f_l]
        big = _cluster(self.kappa_big, *np.ix_(n_b, c_b, u_b)).reshape(-1)
        little = _cluster(self.kappa_little, *np.ix_(n_l, c_l, u_l)).reshape(-1)
        return big, little

    def _scale(self, dynamic):
        """gain * dynamic + p_idle: a float, or an array scaled in place."""
        dynamic *= self.gain
        dynamic += self.p_idle
        return dynamic


def _cluster(kappa, n, c, u):
    """One cluster's power before gain, ((kappa*n)*u)*c with c = (f/f_max)^3:
    on one input's floats, or on np.ix_ level arrays, which round alike."""
    return kappa * n * u * c


def _freq_ratio_cubed(f: float, f_max: float) -> float:
    # Python's pow on every path: numpy's may round differently (SIMD)
    if f_max <= 0:
        return 0.0
    return (f / f_max) ** 3


def fitness(spec: FitnessSpec, power: float) -> float:
    """min(1, power/p_m); exactly 1 marks a positive test."""
    if not 0 <= power < math.inf:
        raise ValueError(f"power must be finite and nonnegative, got {power!r}")
    return min(1.0, power / spec.p_m)


def _count(big: np.ndarray, little: np.ndarray, meets, guess: float) -> int:
    """Pairs (i, j) whose rounded sum big[i] + little[j] `meets`, a monotone predicate:
    with `little` sorted, each big term's hits are a suffix, found by steps from guess - big."""
    little = little[: np.searchsorted(little, np.nan)]  # a nan sum meets nothing
    k = np.searchsorted(little, guess - big)
    while (step := (k > 0) & meets(big + little[k - 1])).any():
        k -= step
    while (step := (k < little.size) & ~meets(big + little.take(k, mode="clip"))).any():
        k += step
    return int(big.size * little.size - k.sum())


def oracle_positive_set(
    sut: SyntheticSut, space: InputSpace, spec: FitnessSpec
) -> set[TestInput]:
    """Exact positive set {i : power(i) >= p_m} by exhaustive evaluation."""
    ranks = np.flatnonzero(sut.power_grid(space) >= spec.p_m)
    return set(zip(*(idx.tolist() for idx in np.unravel_index(ranks, space.level_counts))))


def oracle_positive_count(sut: SyntheticSut, space: InputSpace, spec: FitnessSpec) -> int:
    """Number of configurations whose power meets the threshold."""
    big, little = sut._terms(space)
    guess = (spec.p_m - sut.p_idle) / sut.gain
    return _count(big, np.sort(little), lambda dynamic: sut._scale(dynamic) >= spec.p_m, guess)


def positive_density(sut: SyntheticSut, space: InputSpace, spec: FitnessSpec) -> float:
    """Fraction of the space whose power meets the threshold."""
    return oracle_positive_count(sut, space, spec) / cardinality(space)


def calibrate_gain(
    sut: SyntheticSut,
    space: InputSpace,
    spec: FitnessSpec,
    target_density: float,
) -> SyntheticSut:
    """Scale `gain` so roughly `target_density` of the space is positive.

    Picks gain so the power of the want-th hottest configuration lands
    exactly on p_m, where want = round(density * N) with Python's `round`
    (halves go to the even neighbour), and at least 1.  Grid quantization
    (ties between equal dynamic terms) keeps the achieved density
    approximate; it must land within [0.5x, 2x] of the target.  Every
    fault is a ValueError that names it: a density outside (0, 1), a
    threshold not above idle power, a flat space, a peak power past
    float range, or an achieved density outside that band.
    """
    if not 0 < target_density < 1:
        raise ValueError("target_density must lie in (0, 1)")
    headroom = spec.p_m - sut.p_idle
    if headroom <= 0:
        raise ValueError(f"threshold {spec.p_m} not above idle power {sut.p_idle}")
    want = max(1, round(target_density * cardinality(space)))
    big, little = sut._terms(space)
    little.sort()
    # kth, the want-th largest dynamic term, is the largest v that at least
    # want terms meet: bisect over the bit patterns of non-negative doubles,
    # which sort as their values do
    lo, hi = 0, int(np.float64(big[-1] + little[-1]).view(np.int64)) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = float(np.int64(mid).view(np.float64))
        if _count(big, little, lambda dynamic: dynamic >= v, v) >= want:
            lo = mid
        else:
            hi = mid
    kth = float(np.int64(lo).view(np.float64))
    if kth <= 0:
        raise ValueError("space has too little dynamic-power variation")
    calibrated = replace(sut, gain=headroom / kth)
    calibrated.peak_power(space)  # ValueError if the gain takes it past float range
    achieved = positive_density(calibrated, space, spec)
    if not 0.5 * target_density <= achieved <= 2.0 * target_density:
        raise ValueError(
            f"achieved density {achieved:.5f} outside "
            f"[{0.5 * target_density:.5f}, {2.0 * target_density:.5f}]"
        )
    return calibrated
