"""Synthetic power model, fitness mapping, oracle and calibration."""

import tracemalloc

import numpy as np
import pytest

from perfgan.space import (
    Dimension,
    InputSpace,
    cardinality,
    default_space,
    enumerate_inputs,
)
from perfgan.sut import (
    CalibrationError,
    FitnessSpec,
    SyntheticSut,
    calibrate_gain,
    _dynamic_grid,
    fitness,
    oracle_positive_count,
    oracle_positive_set,
    positive_density,
)


def toy_space():
    """2 x 1 x 1 x 2 x 1 x 1 space: both clusters either off or fully on."""
    return InputSpace(
        dims=(
            Dimension("big_cpus", (0.0, 4.0)),
            Dimension("big_freq", (1000.0,)),
            Dimension("big_util", (1.0,)),
            Dimension("little_cpus", (0.0, 4.0)),
            Dimension("little_freq", (800.0,)),
            Dimension("little_util", (1.0,)),
        )
    )


class TestMeasure:
    def test_idle_power_when_no_cpus(self):
        sut = SyntheticSut(gain=3.0)
        space = default_space()
        # zero CPUs in both clusters: only the idle term remains
        t = (0, 5, 3, 0, 2, 9)
        assert sut.measure(space, t) == 0.5

    def test_big_cluster_flat_out(self):
        sut = SyntheticSut(gain=1.0)
        space = default_space()
        # 4 big CPUs, top frequency, full utilization, little cluster off
        t = (4, 18, 9, 0, 0, 0)
        assert sut.measure(space, t) == pytest.approx(4.5, abs=1e-12)

    def test_monotone_in_every_dimension(self):
        sut = SyntheticSut(gain=2.0)
        space = toy_space()
        for t in enumerate_inputs(space):
            base = sut.measure(space, t)
            for j, count in enumerate(space.level_counts):
                if t[j] + 1 < count:
                    bumped = t[:j] + (t[j] + 1,) + t[j + 1 :]
                    assert sut.measure(space, bumped) >= base

    def test_grid_matches_scalar_measure_exhaustively(self):
        sut = SyntheticSut(gain=1.7)
        space = toy_space()
        grid = sut.power_grid(space)
        for i, t in enumerate(enumerate_inputs(space)):
            assert grid[i] == pytest.approx(sut.measure(space, t), abs=1e-12)

    def test_grid_matches_scalar_measure_sampled_on_default(self):
        sut = SyntheticSut(gain=2.0046654031199886)
        space = default_space()
        grid = sut.power_grid(space)
        rng = np.random.default_rng(0)
        from perfgan.space import unrank

        for r in rng.integers(0, cardinality(space), size=200):
            t = unrank(space, int(r))
            assert grid[int(r)] == pytest.approx(sut.measure(space, t), abs=1e-12)

    def test_grid_is_idle_plus_gain_times_dynamic_bit_for_bit(self):
        sut = SyntheticSut(p_idle=0.7, kappa_little=0.2, gain=2.0046654031199886)
        space = default_space()
        want = sut.p_idle + sut.gain * _dynamic_grid(space, sut.kappa_big, sut.kappa_little)
        assert sut.power_grid(space).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "call",
        [
            lambda sut, space: calibrate_gain(sut, space, FitnessSpec(), 0.01),
            lambda sut, space: oracle_positive_count(sut, space, FitnessSpec()),
            lambda sut, space: sut.power_grid(space),
        ],
        ids=["calibrate_gain", "oracle_positive_count", "power_grid"],
    )
    def test_builds_one_full_grid(self, call):
        # peak traced memory, in multiples of one float64 grid of the space
        sut, space = SyntheticSut(), default_space()
        call(sut, space)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            call(sut, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * cardinality(space)

    def test_constants_must_be_positive(self):
        with pytest.raises(ValueError):
            SyntheticSut(p_idle=0.0)
        with pytest.raises(ValueError):
            SyntheticSut(gain=-1.0)


class TestFitness:
    def test_threshold_power_is_positive(self):
        assert fitness(FitnessSpec(p_m=6.0), 6.0) == 1.0

    def test_linear_region(self):
        assert fitness(FitnessSpec(p_m=6.0), 3.0) == 0.5

    def test_capped_above_threshold(self):
        assert fitness(FitnessSpec(p_m=6.0), 9.0) == 1.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            fitness(FitnessSpec(), -0.1)
        # a broken measurement must not become a positive test
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=repr(bad)):
                fitness(FitnessSpec(), bad)


class TestOracle:
    def test_unreachable_threshold_empty_set(self):
        sut = SyntheticSut(gain=1.0)
        space = toy_space()
        assert oracle_positive_set(sut, space, FitnessSpec(p_m=100.0)) == set()

    def test_threshold_below_idle_selects_everything(self):
        sut = SyntheticSut(gain=1.0)
        space = toy_space()
        got = oracle_positive_set(sut, space, FitnessSpec(p_m=0.25))
        assert got == set(enumerate_inputs(space))

    def test_toy_space_by_hand(self):
        # power = 0.5 + 2*(4*u_b*1 + 0.15*4*u_l*1) per active cluster:
        #   (0,0): 0.5      (0,1): 0.5 + 1.2 = 1.7
        #   (1,0): 0.5 + 8  (1,1): 0.5 + 8 + 1.2 = 9.7
        sut = SyntheticSut(gain=2.0)
        space = toy_space()
        got = oracle_positive_set(sut, space, FitnessSpec(p_m=6.0))
        assert got == {(1, 0, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0)}

    def test_fitness_one_iff_in_positive_set(self):
        sut = SyntheticSut(gain=2.0)
        space = toy_space()
        spec = FitnessSpec(p_m=6.0)
        positives = oracle_positive_set(sut, space, spec)
        for t in enumerate_inputs(space):
            f = fitness(spec, sut.measure(space, t))
            assert (f == 1.0) == (t in positives)


class TestCalibration:
    def test_default_space_hits_band(self):
        sut = SyntheticSut()
        space = default_space()
        spec = FitnessSpec()
        cal = calibrate_gain(sut, space, spec, 0.01)
        density = positive_density(cal, space, spec)
        assert 0.005 <= density <= 0.02

    def test_precomputed_default_gain_still_valid(self):
        # the gain shipped in configs/default.json
        sut = SyntheticSut(gain=2.0046654031199886)
        density = positive_density(sut, default_space(), FitnessSpec())
        assert 0.005 <= density <= 0.02

    def test_deterministic(self):
        a = calibrate_gain(SyntheticSut(), default_space(), FitnessSpec(), 0.01)
        b = calibrate_gain(SyntheticSut(), default_space(), FitnessSpec(), 0.01)
        assert a.gain == b.gain

    def test_doubling_gain_never_shrinks_positive_set(self):
        space = default_space()
        spec = FitnessSpec()
        for gain in (0.5, 1.0, 2.0, 4.0):
            low = positive_density(SyntheticSut(gain=gain), space, spec)
            high = positive_density(SyntheticSut(gain=2 * gain), space, spec)
            assert high >= low

    def test_threshold_at_maximum_keeps_a_point(self):
        space = default_space()
        spec = FitnessSpec()
        cal = calibrate_gain(SyntheticSut(), space, spec, 1.5e-6)  # ~1 point
        assert len(oracle_positive_set(cal, space, spec)) >= 1

    def test_degenerate_space_fails(self):
        space = InputSpace(
            dims=(
                Dimension("big_cpus", (0.0,)),
                Dimension("big_freq", (1000.0,)),
                Dimension("big_util", (0.5,)),
                Dimension("little_cpus", (0.0,)),
                Dimension("little_freq", (800.0,)),
                Dimension("little_util", (0.5,)),
            )
        )
        with pytest.raises(CalibrationError):
            calibrate_gain(SyntheticSut(), space, FitnessSpec(), 0.01)

    def test_threshold_below_idle_fails(self):
        with pytest.raises(CalibrationError):
            calibrate_gain(
                SyntheticSut(p_idle=2.0), default_space(), FitnessSpec(p_m=1.0), 0.01
            )

    def test_target_density_validated(self):
        with pytest.raises(ValueError):
            calibrate_gain(SyntheticSut(), default_space(), FitnessSpec(), 0.0)

