"""System under test: a deterministic synthetic power model.

Stands in for a benchmark running on a big.LITTLE board.  Each cluster
contributes dynamic power proportional to active CPUs x utilization x
(frequency/max frequency)^3, on top of a constant idle draw.  The cubic
frequency term follows the usual dynamic-power scaling where supply
voltage rises with clock frequency.

The threshold p_m declares a configuration a positive test when its
power meets it; fitness compresses power onto [0, 1] as min(1, power/p_m).
Because the space is exhaustively enumerable, the exact positive set is
available as a brute-force oracle, and the model's `gain` can be
calibrated so positives make up a requested fraction of the space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from .space import InputSpace, TestInput, cardinality, unrank


class SutInterface(Protocol):
    """Anything that can deterministically measure a configuration's power."""

    def measure(self, space: InputSpace, test_input: TestInput) -> float: ...


class CalibrationError(RuntimeError):
    """Requested positive density cannot be realized on this space."""


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
        n_b, f_b, u_b, n_l, f_l, u_l = space.physical_values(test_input)
        f_b_max = space.dims[1].levels[-1]
        f_l_max = space.dims[4].levels[-1]
        big = self.kappa_big * n_b * u_b * _freq_ratio_cubed(f_b, f_b_max)
        little = self.kappa_little * n_l * u_l * _freq_ratio_cubed(f_l, f_l_max)
        return self.p_idle + self.gain * (big + little)

    def power_grid(self, space: InputSpace) -> np.ndarray:
        """Power for every configuration, flat in enumeration order; the
        one grid is scaled in place."""
        grid = _dynamic_grid(space, self.kappa_big, self.kappa_little)
        grid *= self.gain
        grid += self.p_idle
        return grid


def _freq_ratio_cubed(f: float, f_max: float) -> float:
    if f_max <= 0:
        return 0.0
    return (f / f_max) ** 3


def _dynamic_grid(space: InputSpace, kappa_big: float, kappa_little: float) -> np.ndarray:
    """Dynamic power term (gain excluded) for the whole space, flat C-order."""
    n_b, f_b, u_b, n_l, f_l, u_l = (np.asarray(d.levels) for d in space.dims)
    c_b = np.array([_freq_ratio_cubed(f, f_b[-1]) for f in f_b])
    c_l = np.array([_freq_ratio_cubed(f, f_l[-1]) for f in f_l])
    big = kappa_big * np.einsum("i,j,k->ijk", n_b, c_b, u_b)
    little = kappa_little * np.einsum("i,j,k->ijk", n_l, c_l, u_l)
    total = (
        big[:, :, :, None, None, None] + little[None, None, None, :, :, :]
    )
    return total.reshape(-1)


def fitness(spec: FitnessSpec, power: float) -> float:
    """min(1, power/p_m); exactly 1 marks a positive test."""
    if not 0 <= power < math.inf:
        raise ValueError(f"power must be finite and nonnegative, got {power!r}")
    return min(1.0, power / spec.p_m)


def oracle_positive_set(
    sut: SyntheticSut, space: InputSpace, spec: FitnessSpec
) -> set[TestInput]:
    """Exact positive set {i : power(i) >= p_m} by exhaustive evaluation."""
    powers = sut.power_grid(space)
    return {unrank(space, int(r)) for r in np.flatnonzero(powers >= spec.p_m)}


def oracle_positive_count(sut: SyntheticSut, space: InputSpace, spec: FitnessSpec) -> int:
    """Number of configurations whose power meets the threshold."""
    return int(np.count_nonzero(sut.power_grid(space) >= spec.p_m))


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

    Picks gain so the power of the ceil(density * N)-th hottest
    configuration lands exactly on p_m.  Grid quantization (ties between
    equal dynamic terms) keeps the achieved density approximate; it must
    land within [0.5x, 2x] of the target or calibration fails.
    """
    if not 0 < target_density < 1:
        raise ValueError("target_density must lie in (0, 1)")
    headroom = spec.p_m - sut.p_idle
    if headroom <= 0:
        raise CalibrationError(
            f"threshold {spec.p_m} not above idle power {sut.p_idle}"
        )
    # one grid: partitioned in place, then scaled in place into the powers
    # (power_grid's order) to count the achieved density
    dynamic = _dynamic_grid(space, sut.kappa_big, sut.kappa_little)
    n = dynamic.size
    want = max(1, round(target_density * n))
    dynamic.partition(n - want)
    kth = float(dynamic[n - want])
    if kth <= 0:
        raise CalibrationError("space has too little dynamic-power variation")
    calibrated = replace(sut, gain=headroom / kth)
    dynamic *= calibrated.gain
    dynamic += calibrated.p_idle
    achieved = np.count_nonzero(dynamic >= spec.p_m) / n
    if not 0.5 * target_density <= achieved <= 2.0 * target_density:
        raise CalibrationError(
            f"achieved density {achieved:.5f} outside "
            f"[{0.5 * target_density:.5f}, {2.0 * target_density:.5f}]"
        )
    return calibrated

