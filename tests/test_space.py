"""Configuration grid: normalization, snapping, sampling, enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from perfgan.space import (
    Dimension,
    InputSpace,
    cardinality,
    default_space,
    enumerate_inputs,
    normalize_batch,
    rank,
    sample_uniform,
    snap,
    unrank,
)


def grid(*counts):
    """A small space with the given level counts and unit-spaced levels."""
    assert len(counts) == 6
    return InputSpace(
        dims=tuple(
            Dimension(f"d{j}", tuple(float(v) for v in range(c)))
            for j, c in enumerate(counts)
        )
    )


class TestConstruction:
    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            Dimension("bad", (1.0, 1.0))
        with pytest.raises(ValueError):
            Dimension("bad", (2.0, 1.0))
        with pytest.raises(ValueError):
            Dimension("bad", ())

    def test_levels_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Dimension("bad", (-1.0, 0.0))
        Dimension("ok", (0.0, 1.0))

    def test_exactly_six_dimensions(self):
        dims = tuple(Dimension(f"d{j}", (0.0, 1.0)) for j in range(5))
        with pytest.raises(ValueError):
            InputSpace(dims)

    def test_default_space_shape(self):
        s = default_space()
        assert s.level_counts == (5, 19, 10, 5, 14, 10)
        assert [d.name for d in s.dims] == [
            "big_cpus", "big_freq", "big_util",
            "little_cpus", "little_freq", "little_util",
        ]


class TestCardinality:
    def test_default_space(self):
        assert cardinality(default_space()) == 665_000

    def test_degenerate(self):
        assert cardinality(grid(1, 1, 1, 1, 1, 1)) == 1

    def test_two_per_dim(self):
        assert cardinality(grid(2, 2, 2, 2, 2, 2)) == 64


def normalize(space, test_input):
    """One input's encoding, through the batch encoder; rejects a bad index."""
    return normalize_batch(space, [np.ravel_multi_index(test_input, space.level_counts)])[0]


def snap_inputs(space, vectors):
    """`snap` with its ranks unranked into input tuples."""
    return [unrank(space, r) for r in snap(space, vectors).tolist()]


def sample_inputs(space, exclude, k, rng):
    """`sample_uniform` over input tuples: ranks `exclude`, unranks the draw."""
    ranks = sample_uniform(space, {rank(space, t) for t in exclude}, k, rng)
    return [unrank(space, r) for r in ranks]


class TestNormalize:
    def test_endpoints(self):
        s = grid(2, 3, 4, 5, 6, 7)
        first = tuple(0 for _ in range(6))
        last = tuple(c - 1 for c in s.level_counts)
        assert np.array_equal(normalize(s, first), -np.ones(6))
        assert np.array_equal(normalize(s, last), np.ones(6))

    def test_midpoint_of_odd_count(self):
        s = grid(5, 5, 5, 5, 5, 5)
        assert normalize(s, (2, 2, 2, 2, 2, 2))[0] == 0.0

    def test_single_level_maps_to_zero(self):
        s = grid(1, 3, 1, 1, 1, 1)
        assert normalize(s, (0, 1, 0, 0, 0, 0))[0] == 0.0

    def test_monotone_per_dimension(self):
        s = grid(7, 2, 3, 4, 9, 5)
        for j, count in enumerate(s.level_counts):
            base = [0, 0, 0, 0, 0, 0]
            values = []
            for idx in range(count):
                base[j] = idx
                values.append(normalize(s, tuple(base))[j])
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_invalid_index_rejected(self):
        # a bad index in any dimension, not only one whose rank overflows
        for test_input in [(2, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (0, 0, 0, 0, 0, -1)]:
            with pytest.raises(ValueError):
                normalize(grid(2, 2, 2, 2, 2, 2), test_input)

    def test_index_rows_rejected(self):
        # a caller still passing input tuples fails instead of misreading them
        with pytest.raises(ValueError, match="one-dimensional"):
            normalize_batch(grid(2, 2, 2, 2, 2, 2), [(0, 1, 0, 1, 0, 1)])

    def test_batch_matches_scalar(self):
        s = grid(3, 4, 2, 5, 1, 6)
        inputs = list(enumerate_inputs(s))
        batch = normalize_batch(s, [rank(s, t) for t in inputs])
        for row, t in zip(batch, inputs):
            # the documented formula, one component at a time
            expected = [
                -1 + 2 * idx / (count - 1) if count > 1 else 0.0
                for idx, count in zip(t, s.level_counts)
            ]
            assert np.array_equal(row, expected)


# small random spaces: 1-6 levels per dimension
level_counts = st.lists(st.integers(1, 6), min_size=6, max_size=6)


@st.composite
def space_and_input(draw):
    counts = draw(level_counts)
    return grid(*counts), tuple(draw(st.integers(0, c - 1)) for c in counts)


@st.composite
def space_and_bad_input(draw):
    """A space and two ranks, the second outside [0, cardinality)."""
    s, t = draw(space_and_input())
    total = cardinality(s)
    bad = draw(st.one_of(st.integers(-10, -1), st.integers(total, total + 10)))
    return s, [rank(s, t), bad]


def tuple_normalize_batch(space, inputs):
    """The tuple encoder `normalize_batch` replaced, kept as a reference."""
    idx = np.asarray(list(inputs), dtype=np.int64)
    if idx.size == 0:
        return np.zeros((0, 6))
    counts = np.asarray(space.level_counts, dtype=np.int64)
    denom = np.maximum(counts - 1, 1).astype(np.float64)
    out = -1.0 + 2.0 * idx / denom
    out[:, counts == 1] = 0.0
    return out


@st.composite
def space_and_ranks(draw):
    counts = draw(level_counts)
    s = grid(*counts)
    ranks = draw(st.lists(st.integers(0, cardinality(s) - 1), max_size=12))
    return s, ranks


class TestNormalizeProperties:
    @given(space_and_input())
    def test_snap_inverts_encoding(self, case):
        s, t = case
        assert snap_inputs(s, normalize_batch(s, [rank(s, t)]))[0] == t

    @given(space_and_bad_input())
    def test_out_of_range_index_raises(self, case):
        s, batch = case  # the bad rank is the second entry
        with pytest.raises(ValueError, match="out of range"):
            normalize_batch(s, batch)

    @given(space_and_bad_input())
    def test_error_names_the_bad_rank(self, case):
        s, batch = case
        with pytest.raises(ValueError, match=rf"rank {batch[1]} out of range"):
            normalize_batch(s, batch)

    @given(space_and_ranks())
    def test_matches_tuple_encoder_bit_for_bit(self, case):
        s, ranks = case
        got = normalize_batch(s, ranks)
        expected = tuple_normalize_batch(s, [unrank(s, r) for r in ranks])
        assert got.shape == expected.shape == (len(ranks), 6)
        assert got.tobytes() == expected.tobytes()


def tuple_snap(space, vectors):
    """The batch snap that returned input tuples, kept as a reference."""
    vec = np.asarray(vectors, dtype=np.float64)
    top = np.asarray(space.level_counts, dtype=np.float64) - 1.0
    idx = np.clip(np.ceil((vec + 1.0) * top / 2.0 - 0.5), 0.0, top)
    return [tuple(row) for row in idx.astype(np.int64).tolist()]


def scalar_snap(space, vector):
    """The one-vector snap the batch version replaced, kept as a reference."""
    indices = []
    for v, count in zip(np.asarray(vector, dtype=np.float64), space.level_counts):
        if count == 1:
            indices.append(0)
            continue
        x = (v + 1.0) * (count - 1) / 2.0
        # nearest integer with exact .5 ties resolving downward
        idx = int(math.ceil(x - 0.5))
        indices.append(min(max(idx, 0), count - 1))
    return tuple(indices)


@st.composite
def space_and_vectors(draw):
    """Rows mixing arbitrary values in [-3, 3] with exact level midpoints."""
    counts = draw(level_counts)

    def component(count):
        midpoints = [-1.0 + (2 * i + 1) / (count - 1) for i in range(count - 1)]
        return st.one_of(st.floats(-3.0, 3.0), st.sampled_from(midpoints or [0.0]))

    rows = draw(st.lists(st.tuples(*map(component, counts)), min_size=1, max_size=8))
    return grid(*counts), np.array(rows)


class TestSnapProperties:
    @given(space_and_vectors())
    def test_batch_matches_scalar_formula(self, case):
        s, vectors = case
        snapped = snap_inputs(s, vectors)
        assert snapped == [scalar_snap(s, row) for row in vectors]
        assert all(type(i) is int for t in snapped for i in t)

    @given(space_and_vectors())
    def test_ranks_match_tuple_snap(self, case):
        s, vectors = case
        ranks = snap(s, vectors)
        assert ranks.dtype == np.int64 and ranks.shape == (len(vectors),)
        assert ranks.tolist() == [rank(s, t) for t in tuple_snap(s, vectors)]

    @given(level_counts, st.integers(1, 8))
    def test_rows_must_be_six_wide(self, counts, k):
        with pytest.raises(ValueError):
            snap(grid(*counts), np.zeros((k, 5)))


class TestSnap:
    def test_round_trip_on_all_grid_points(self):
        for counts in [(2, 2, 2, 2, 2, 2), (3, 1, 4, 2, 5, 2)]:
            s = grid(*counts)
            for t in enumerate_inputs(s):
                assert snap_inputs(s, [normalize(s, t)])[0] == t

    def test_endpoints(self):
        s = grid(4, 4, 4, 4, 4, 4)
        assert snap_inputs(s, [-np.ones(6)])[0] == (0,) * 6
        assert snap_inputs(s, [np.ones(6)])[0] == (3,) * 6

    def test_midpoint_tie_goes_low(self):
        s = grid(2, 2, 2, 2, 2, 2)
        assert snap_inputs(s, [np.zeros(6)])[0] == (0,) * 6

    def test_nearest_neighbour(self):
        s = grid(5, 1, 1, 1, 1, 1)
        # grid at -1, -0.5, 0, 0.5, 1 along dim 0
        assert snap_inputs(s, [[0.2, 0, 0, 0, 0, 0]])[0][0] == 2
        assert snap_inputs(s, [[0.3, 0, 0, 0, 0, 0]])[0][0] == 3
        assert snap_inputs(s, [[0.25, 0, 0, 0, 0, 0]])[0][0] == 2  # exact tie, low
        assert snap_inputs(s, [[-0.74, 0, 0, 0, 0, 0]])[0][0] == 1


class TestRanking:
    def test_rank_unrank_round_trip(self):
        s = grid(3, 2, 4, 1, 2, 3)
        for i, t in enumerate(enumerate_inputs(s)):
            assert rank(s, t) == i
            assert unrank(s, i) == t

    @pytest.mark.parametrize(
        "test_input",
        [(0, 19, 0, 0, 0, 0), (0, 0, 0, 0, 0, -1), (5, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0),
         (0, 0, 0, 0, 0, 0, 0)],
        ids=["past_big_freq", "negative", "past_big_cpus", "five_wide", "seven_wide"],
    )
    def test_rank_rejects_an_input_outside_the_space(self, test_input):
        # without the check (0, 19, 0, ...) would rank as (1, 0, 0, ...)
        with pytest.raises(ValueError):
            rank(default_space(), test_input)

    @pytest.mark.parametrize("r", [-1, 665_000])
    def test_unrank_rejects_a_rank_outside_the_space(self, r):
        s = default_space()
        assert cardinality(s) == 665_000
        with pytest.raises(ValueError):
            unrank(s, r)

    def test_unrank_gives_python_ints(self):
        s = default_space()
        for r in (0, np.int64(664_999), 123_456):
            assert all(type(i) is int for i in unrank(s, r))


class TestEnumerate:
    def test_minimal_enumeration(self):
        s = grid(2, 1, 1, 1, 1, 1)
        items = list(enumerate_inputs(s))
        assert items == [(0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)]

    def test_length_and_uniqueness(self):
        s = grid(3, 2, 2, 1, 2, 2)
        items = list(enumerate_inputs(s))
        assert len(items) == cardinality(s)
        assert len(set(items)) == len(items)


class TestSampleUniform:
    def test_forced_choice(self):
        s = grid(2, 2, 2, 2, 2, 2)
        everything = set(enumerate_inputs(s))
        lone = (1, 0, 1, 0, 1, 0)
        exclude = everything - {lone}
        got = sample_inputs(s, exclude, 1, np.random.default_rng(0))
        assert got == [lone]

    def test_full_exhaustion_is_permutation(self):
        s = grid(2, 2, 2, 2, 2, 2)
        got = sample_inputs(s, set(), 64, np.random.default_rng(1))
        assert sorted(got) == sorted(enumerate_inputs(s))

    def test_never_returns_excluded_or_duplicate(self):
        s = grid(3, 2, 2, 2, 2, 2)
        rng = np.random.default_rng(2)
        exclude = {(0, 0, 0, 0, 0, 0), (2, 1, 1, 1, 1, 1)}
        for _ in range(50):
            got = sample_inputs(s, exclude, 5, rng)
            assert len(set(got)) == 5
            assert not (set(got) & exclude)

    def test_exhaustion_error(self):
        s = grid(2, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            sample_inputs(s, {(0, 0, 0, 0, 0, 0)}, 2, np.random.default_rng(0))

    def test_deterministic_per_seed(self):
        s = grid(4, 3, 2, 2, 3, 4)
        a = sample_inputs(s, set(), 10, np.random.default_rng(77))
        b = sample_inputs(s, set(), 10, np.random.default_rng(77))
        assert a == b

    def test_frequencies_within_5_sigma(self):
        # 10,000 single draws over a 64-point space: expected 156.25/point
        s = grid(2, 2, 2, 2, 2, 2)
        rng = np.random.default_rng(3)
        counts = {}
        draws = 10_000
        for _ in range(draws):
            (t,) = sample_inputs(s, set(), 1, rng)
            counts[t] = counts.get(t, 0) + 1
        p = 1.0 / 64
        mean = draws * p
        sigma = math.sqrt(draws * p * (1 - p))
        for t in enumerate_inputs(s):
            assert abs(counts.get(t, 0) - mean) < 5 * sigma

    def test_matches_enumeration_when_exhausted_in_steps(self):
        s = grid(2, 2, 2, 1, 2, 2)
        rng = np.random.default_rng(4)
        seen = set()
        while len(seen) < cardinality(s):
            (t,) = sample_inputs(s, seen, 1, rng)
            seen.add(t)
        assert seen == set(enumerate_inputs(s))


def reference_sample_uniform(space, exclude, k, rng):
    """The rank-set sampler that `sample_uniform` must match draw for draw.

    Ranks the whole excluded set, then either chooses from the remaining
    pool (dense) or rejection-samples ranks in batches (sparse).
    """
    total = cardinality(space)
    excluded_ranks = {rank(space, t) for t in exclude}
    available = total - len(excluded_ranks)
    if k > available:
        raise ValueError("too few inputs remain")
    if k == 0:
        return []
    if k > available // 4:
        pool = np.arange(total, dtype=np.int64)
        if excluded_ranks:
            mask = np.ones(total, dtype=bool)
            mask[np.fromiter(excluded_ranks, dtype=np.int64)] = False
            pool = pool[mask]
        chosen = rng.choice(pool, size=k, replace=False)
        return [unrank(space, int(r)) for r in chosen]
    seen = set(excluded_ranks)
    chosen_ranks = []
    while len(chosen_ranks) < k:
        need = k - len(chosen_ranks)
        draw = rng.integers(0, total, size=need + max(16, need // 4))
        for r in draw:
            r = int(r)
            if r in seen:
                continue
            seen.add(r)
            chosen_ranks.append(r)
            if len(chosen_ranks) == k:
                break
    return [unrank(space, r) for r in chosen_ranks]


@st.composite
def sampling_case(draw):
    """(space, excluded inputs, k, seed) with k at most the remaining count."""
    s = grid(*draw(st.lists(st.integers(1, 4), min_size=6, max_size=6)))
    total = cardinality(s)
    excluded = draw(st.sets(st.integers(0, total - 1), max_size=total))
    k = draw(st.integers(0, total - len(excluded)))
    seed = draw(st.integers(0, 2**32 - 1))
    return s, {unrank(s, r) for r in excluded}, k, seed


class TestRankAndSamplingProperties:
    @given(level_counts, st.data())
    def test_rank_unrank_bijection(self, counts, data):
        s = grid(*counts)
        r = data.draw(st.integers(0, cardinality(s) - 1))
        t = unrank(s, r)
        s.validate_input(t)
        assert rank(s, t) == r
        t2 = tuple(data.draw(st.integers(0, c - 1)) for c in counts)
        assert unrank(s, rank(s, t2)) == t2
        assert 0 <= rank(s, t2) < cardinality(s)

    @given(sampling_case())
    def test_never_excluded_or_duplicate(self, case):
        s, exclude, k, seed = case
        got = sample_inputs(s, exclude, k, np.random.default_rng(seed))
        assert len(got) == k
        assert len(set(got)) == k
        assert not set(got) & exclude
        for t in got:
            s.validate_input(t)

    @given(sampling_case())
    def test_matches_reference_draw_for_draw(self, case):
        s, exclude, k, seed = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_inputs(s, exclude, k, rng) == reference_sample_uniform(
            s, exclude, k, ref_rng
        )
        # both consumed the stream identically
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)

    @given(sampling_case(), st.integers(1, 8))
    def test_matches_reference_over_a_growing_exclusion(self, case, steps):
        # the generators' pattern: repeated draws, each excluded afterwards
        s, exclude, k, seed = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        exclude = set(exclude)
        for _ in range(steps):
            k = min(k, cardinality(s) - len(exclude))
            got = sample_inputs(s, exclude, k, rng)
            assert got == reference_sample_uniform(s, exclude, k, ref_rng)
            exclude.update(got)

    def test_both_paths_reached(self):
        # the dense path starts above a quarter of the remaining pool
        s = grid(4, 4, 4, 2, 2, 1)
        exclude = {unrank(s, r) for r in range(0, 256, 3)}
        available = cardinality(s) - len(exclude)
        for k in (1, available // 4, available // 4 + 1, available):
            rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
            assert sample_inputs(s, exclude, k, rng) == reference_sample_uniform(
                s, exclude, k, ref_rng
            )
