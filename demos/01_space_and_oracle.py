"""The configuration grid, the synthetic power model, and the oracle.

Walks through the 6-dimensional board-configuration space, its [-1, 1]
encoding, the closed-form power model that stands in for real hardware,
and the exhaustive-search oracle that makes every suite-quality claim
checkable.
"""

import numpy as np

from perfgan import (
    FitnessSpec,
    SyntheticSut,
    calibrate_gain,
    cardinality,
    default_space,
    fitness,
    normalize_batch,
    oracle_positive_set,
    positive_density,
    snap,
)
from perfgan.space import rank, unrank

space = default_space()
print("Dimensions:")
for dim in space.dims:
    print(f"  {dim.name:12s} {len(dim.levels):3d} levels "
          f"({dim.levels[0]:g} .. {dim.levels[-1]:g})")
print(f"Cardinality: {cardinality(space):,} configurations\n")

# A test input is a tuple of level indices; inside the search it is its
# rank, its position in lexicographic order.  Normalization puts each
# coordinate on an even grid in [-1, 1]; snapping inverts it for any
# continuous vector, which is how network outputs become grid inputs.
example = (4, 18, 9, 0, 0, 0)  # big cluster flat out, little cluster off
vec = normalize_batch(space, [rank(space, example)])[0]
print(f"encoding of {example} = {np.round(vec, 3)}")
(snapped,) = snap(space, [vec + 0.04]).tolist()
print(f"snap of a perturbed vector: {unrank(space, snapped)}\n")

# Power rises with active CPUs, utilization, and the cube of the
# frequency ratio; the threshold p_m = 6 W defines a positive test.
sut = SyntheticSut()  # gain=1: too cold, hardly anything is positive
spec = FitnessSpec(p_m=6.0)
print(f"power at {example} with gain=1: {sut.measure(space, example):.2f} W")
print(f"uncalibrated positive density: {positive_density(sut, space, spec):.5f}")

# Calibration scales the dynamic term so roughly 1% of the space is
# positive, which is the regime the search algorithms are evaluated in.
calibrated = calibrate_gain(sut, space, spec, target_density=0.01)
density = positive_density(calibrated, space, spec)
positives = oracle_positive_set(calibrated, space, spec)
print(f"\ncalibrated gain: {calibrated.gain!r}")
print(f"achieved density: {density:.5f} ({len(positives):,} positive tests)")

hottest = calibrated.measure(space, (4, 18, 9, 4, 13, 9))
print(f"hottest configuration: {hottest:.2f} W -> fitness "
      f"{fitness(spec, hottest):.2f}")
coldest = calibrated.measure(space, (0, 0, 0, 0, 0, 0))
print(f"coldest configuration: {coldest:.2f} W -> fitness "
      f"{fitness(spec, coldest):.3f}")
