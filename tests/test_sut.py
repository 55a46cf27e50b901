"""Synthetic power model, fitness mapping, oracle and calibration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfgan.space import (
    DIMENSION_ROLES,
    Dimension,
    InputSpace,
    cardinality,
    default_space,
    enumerate_inputs,
    unrank,
)
from perfgan.sut import (
    FitnessSpec,
    SyntheticSut,
    calibrate_gain,
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

    def test_peak_power_is_the_top_input_and_the_maximum(self):
        sut = SyntheticSut(gain=2.0046654031199886)
        space = default_space()
        top = tuple(n - 1 for n in space.level_counts)
        assert sut.peak_power(space) == sut.measure(space, top)
        assert sut.peak_power(space) == sut.power_grid(space).max()

    def test_grid_matches_scalar_measure_exhaustively(self):
        sut = SyntheticSut(gain=1.7)
        space = toy_space()
        grid = sut.power_grid(space)
        for i, t in enumerate(enumerate_inputs(space)):
            assert grid[i] == sut.measure(space, t)

    def test_grid_matches_scalar_measure_sampled_on_default(self):
        sut = SyntheticSut(gain=2.0046654031199886)
        space = default_space()
        grid = sut.power_grid(space)
        rng = np.random.default_rng(0)
        for r in rng.integers(0, cardinality(space), size=200):
            assert grid[int(r)] == sut.measure(space, unrank(space, int(r)))

    def test_grid_is_measure_bit_for_bit_at_other_constants(self):
        sut = SyntheticSut(p_idle=0.7, kappa_little=0.2, gain=2.0046654031199886)
        space = default_space()
        grid = sut.power_grid(space)
        ranks = np.random.default_rng(1).integers(0, cardinality(space), size=2000)
        got = [grid[int(r)] for r in ranks]
        assert got == [sut.measure(space, unrank(space, int(r))) for r in ranks]

    def test_grid_stays_finite_where_the_peak_is(self):
        # kappa small enough that a different multiplication order
        # overflows: (1e155 * 1e155) is inf, (1e-10 * 1e155) * 1e155 is not
        dims = list(default_space().dims)
        dims[0] = Dimension("big_cpus", (0.0, 1e155))
        dims[2] = Dimension("big_util", (0.1, 1e155))
        space = InputSpace(dims=tuple(dims))
        sut = SyntheticSut(kappa_big=1e-10, gain=2.0046654031199886)
        grid = sut.power_grid(space)
        assert np.isfinite(grid).all()
        assert grid.max() == sut.peak_power(space)

    @pytest.mark.parametrize(
        "call, grids",
        [
            pytest.param(
                lambda sut, space: calibrate_gain(sut, space, FitnessSpec(), 0.01), 0.02,
                id="calibrate_gain",
            ),
            pytest.param(
                lambda sut, space: oracle_positive_count(sut, space, FitnessSpec()), 0.02,
                id="oracle_positive_count",
            ),
            pytest.param(lambda sut, space: sut.power_grid(space), 1.5, id="power_grid"),
        ],
    )
    def test_builds_one_full_grid(self, call, grids):
        # peak traced memory, in multiples of one float64 grid of the space:
        # only power_grid holds a grid, its result; counting and calibration
        # hold the cluster terms and one value per big-cluster term
        sut, space = SyntheticSut(), default_space()
        call(sut, space)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            call(sut, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grids * 8 * cardinality(space)

    def test_constants_must_be_positive(self):
        with pytest.raises(ValueError):
            SyntheticSut(p_idle=0.0)
        with pytest.raises(ValueError):
            SyntheticSut(gain=-1.0)


class TestFitness:
    @pytest.mark.parametrize("p_m", [0.0, -6.0, math.nan])
    def test_threshold_must_be_positive(self, p_m):
        with pytest.raises(ValueError, match="^p_m must be positive$"):
            FitnessSpec(p_m=p_m)

    def test_threshold_power_is_positive(self):
        assert fitness(FitnessSpec(p_m=6.0), 6.0) == 1.0

    def test_linear_region(self):
        assert fitness(FitnessSpec(p_m=6.0), 3.0) == 0.5

    def test_capped_above_threshold(self):
        assert fitness(FitnessSpec(p_m=6.0), 9.0) == 1.0

    def test_zero_power_is_a_valid_measurement(self):
        assert fitness(FitnessSpec(p_m=6.0), 0.0) == 0.0

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_count_leaves_out_nan_powers(self):
        # an overflowed little-cluster term times a zero frequency ratio is
        # nan, which meets no threshold, and sorting puts it after every
        # other term, inside each big term's suffix
        space = InputSpace(
            dims=toy_space().dims[:3]
            + (
                Dimension("little_cpus", (1.0, 1e200)),
                Dimension("little_freq", (0.0, 800.0)),
                Dimension("little_util", (0.5, 1e200)),
            )
        )
        sut, spec = SyntheticSut(gain=1.0), FitnessSpec(p_m=1.0)
        grid = sut.power_grid(space)
        assert np.isnan(grid).any()
        assert oracle_positive_count(sut, space, spec) == np.count_nonzero(grid >= spec.p_m)

    def test_fitness_one_iff_in_positive_set(self):
        sut = SyntheticSut(gain=2.0)
        space = toy_space()
        spec = FitnessSpec(p_m=6.0)
        positives = oracle_positive_set(sut, space, spec)
        for t in enumerate_inputs(space):
            f = fitness(spec, sut.measure(space, t))
            assert (f == 1.0) == (t in positives)


def big_cpus_space(levels):
    """Only big_cpus varies, so every input's dynamic power is distinct."""
    return InputSpace(
        dims=(
            Dimension("big_cpus", levels),
            Dimension("big_freq", (1000.0,)),
            Dimension("big_util", (0.5,)),
            Dimension("little_cpus", (0.0,)),
            Dimension("little_freq", (800.0,)),
            Dimension("little_util", (0.5,)),
        )
    )


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
        with pytest.raises(ValueError, match="^space has too little dynamic-power variation$"):
            calibrate_gain(SyntheticSut(), space, FitnessSpec(), 0.01)

    @pytest.mark.parametrize(
        "levels, density",
        [
            # the kth term is subnormal: headroom / kth is inf, and inf * 0 is nan
            pytest.param((0.0, 2.225073858507203e-309), 0.5, id="infinite_gain"),
            # the gain is finite, but the hottest input's power overflows
            pytest.param((0.0, 1e-300, 1e10), 0.6, id="infinite_peak"),
        ],
    )
    def test_gain_that_overflows_the_peak_fails(self, levels, density):
        with pytest.raises(ValueError, match="top level of every dimension is inf"):
            calibrate_gain(SyntheticSut(), big_cpus_space(levels), FitnessSpec(), density)

    def test_threshold_below_idle_fails(self):
        with pytest.raises(ValueError, match=r"^threshold 1\.0 not above idle power 2\.0$"):
            calibrate_gain(
                SyntheticSut(p_idle=2.0), default_space(), FitnessSpec(p_m=1.0), 0.01
            )

    def test_density_above_twice_the_target_fails(self):
        # two inputs: 0.2 * 2 rounds to no input, so the hotter one alone
        # is positive, and 1/2 lies above 2 * 0.2
        with pytest.raises(ValueError, match=r"density 0\.50000 outside"):
            calibrate_gain(SyntheticSut(), big_cpus_space((1.0, 2.0)), FitnessSpec(), 0.2)

    @pytest.mark.parametrize("density, positives", [(0.34, 3), (0.37, 4), (0.4, 4)])
    def test_positive_count_is_the_rounded_product(self, density, positives):
        # ten distinct powers: density * 10 rounds to the positives;
        # 3.7 rounds up, where truncation would keep 3
        space = big_cpus_space(tuple(float(n) for n in range(1, 11)))
        cal = calibrate_gain(SyntheticSut(), space, FitnessSpec(), density)
        assert len(oracle_positive_set(cal, space, FitnessSpec())) == positives

    def test_target_density_validated(self):
        with pytest.raises(ValueError):
            calibrate_gain(SyntheticSut(), default_space(), FitnessSpec(), 0.0)


# a level is a multiple of 1/8, so that equal dynamic terms tie exactly,
# or any float in range, so that sums round
level = st.one_of(st.integers(0, 64).map(lambda k: k / 8), st.floats(0.0, 16.0))


@st.composite
def power_case(draw):
    """A small space (single-level dimensions included), SUT constants,
    a threshold and a target density, sometimes (k + 1/2) / N, where the
    rounding rule of `want` decides."""
    space = InputSpace(
        dims=tuple(
            Dimension(role, tuple(sorted(draw(st.lists(level, min_size=1, max_size=4, unique=True)))))
            for role in DIMENSION_ROLES
        )
    )
    sut = SyntheticSut(
        p_idle=draw(st.floats(0.01, 4.0)),
        kappa_big=draw(st.floats(0.01, 4.0)),
        kappa_little=draw(st.floats(0.01, 4.0)),
        gain=draw(st.floats(0.1, 8.0)),
    )
    n = cardinality(space)
    density = draw(
        st.one_of(st.floats(0.001, 0.999), st.integers(0, n - 1).map(lambda k: (k + 0.5) / n))
    )
    return sut, space, FitnessSpec(p_m=draw(st.floats(0.01, 60.0))), density


def reference_dynamic_grid(sut, space):
    """The power model before gain at every input, flat in rank order,
    built as one np.ix_ broadcast over all six dimensions."""

    def cubes(freqs):
        return [(f / freqs[-1]) ** 3 if freqs[-1] > 0 else 0.0 for f in freqs]

    n_b, f_b, u_b, n_l, f_l, u_l = (d.levels for d in space.dims)
    n_b, c_b, u_b, n_l, c_l, u_l = np.ix_(n_b, cubes(f_b), u_b, n_l, cubes(f_l), u_l)
    return (sut.kappa_big * n_b * u_b * c_b + sut.kappa_little * n_l * u_l * c_l).reshape(-1)


def reference_gain(sut, space, spec, density):
    """calibrate_gain over one full grid: partition it for the want-th
    largest dynamic term, then gain = headroom / kth."""
    headroom = spec.p_m - sut.p_idle
    if headroom <= 0:
        raise ValueError(f"threshold {spec.p_m} not above idle power {sut.p_idle}")
    dynamic = reference_dynamic_grid(sut, space)
    n = dynamic.size
    want = max(1, round(density * n))
    dynamic.partition(n - want)
    kth = float(dynamic[n - want])
    if kth <= 0:
        raise ValueError("space has too little dynamic-power variation")
    gain = headroom / kth
    peak = float(dynamic.max()) * gain + sut.p_idle
    if not math.isfinite(peak):
        raise ValueError(f"power at the top level of every dimension is {peak!r}")
    achieved = np.count_nonzero(dynamic * gain + sut.p_idle >= spec.p_m) / n
    if not 0.5 * density <= achieved <= 2.0 * density:
        raise ValueError(
            f"achieved density {achieved:.5f} outside "
            f"[{0.5 * density:.5f}, {2.0 * density:.5f}]"
        )
    return gain


def outcome(calibrate, *args):
    try:
        return calibrate(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestSuffixCountIsExact:
    @settings(deadline=None)
    @given(power_case())
    def test_grid_count_and_set_match_one_full_grid(self, case):
        sut, space, spec, _ = case
        grid = sut.power_grid(space)
        assert np.array_equal(grid, reference_dynamic_grid(sut, space) * sut.gain + sut.p_idle)
        positive = grid >= spec.p_m
        assert oracle_positive_count(sut, space, spec) == np.count_nonzero(positive)
        expected = {unrank(space, int(r)) for r in np.flatnonzero(positive)}
        assert oracle_positive_set(sut, space, spec) == expected

    @settings(deadline=None)
    @given(power_case())
    # one input whose power, at the calibrated gain, rounds just below p_m:
    # only the count's forward steps find that nothing is positive
    @example(
        (
            SyntheticSut(p_idle=3.49, kappa_big=3.3, kappa_little=2.46, gain=1.88),
            InputSpace(
                dims=tuple(
                    Dimension(role, (level,))
                    for role, level in zip(
                        DIMENSION_ROLES, (8.0, 3.534, 6.863, 6.625, 1.125, 7.875)
                    )
                )
            ),
            FitnessSpec(p_m=27.37),
            0.5,
        )
    )
    def test_calibration_matches_one_full_grid(self, case):
        sut, space, spec, density = case
        got = outcome(lambda *a: calibrate_gain(*a).gain, sut, space, spec, density)
        assert got == outcome(reference_gain, sut, space, spec, density)

    @pytest.mark.parametrize("density", [0.01, 0.1, 0.5])
    def test_calibration_on_the_default_space(self, density):
        # 665,000 sums, where hypothesis's spaces hold at most 4**6
        sut, space, spec = SyntheticSut(), default_space(), FitnessSpec()
        got = calibrate_gain(sut, space, spec, density).gain
        assert got == reference_gain(sut, space, spec, density)


def tie_heavy_space():
    """One big term of 2**53, where doubles lie 2 apart, and little terms k/4:
    four or more little terms round onto each sum, so the suffix starts that
    the count guesses sit in runs of ties."""
    return InputSpace(
        dims=(
            Dimension("big_cpus", (2.0**53,)),
            Dimension("big_freq", (1000.0,)),
            Dimension("big_util", (1.0,)),
            Dimension("little_cpus", tuple(k / 4 for k in range(64))),
            Dimension("little_freq", (800.0,)),
            Dimension("little_util", (1.0,)),
        )
    )


class TestTieHeavySpace:
    # p_m - p_idle rounds up at 0.5, down at 1.5 and to even at 1.0, so the
    # count's guessed starts land on both sides of the exact ones
    @pytest.mark.parametrize("p_idle", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("above", [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 7.75, 15.0, 16.0, 17.0])
    def test_count_matches_one_full_grid(self, p_idle, above):
        sut, space = SyntheticSut(p_idle=p_idle, kappa_little=1.0), tie_heavy_space()
        spec = FitnessSpec(p_m=2.0**53 + above)
        grid = reference_dynamic_grid(sut, space) * sut.gain + sut.p_idle
        assert oracle_positive_count(sut, space, spec) == np.count_nonzero(grid >= spec.p_m)

    @pytest.mark.parametrize("p_idle", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("density", [1 / 64, 0.1, 0.25, 0.5, 0.9])
    def test_calibration_matches_one_full_grid(self, p_idle, density):
        sut, space = SyntheticSut(p_idle=p_idle, kappa_little=1.0), tie_heavy_space()
        spec = FitnessSpec(p_m=2.0**54)
        got = outcome(lambda *a: calibrate_gain(*a).gain, sut, space, spec, density)
        assert got == outcome(reference_gain, sut, space, spec, density)
