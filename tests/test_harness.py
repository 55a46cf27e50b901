"""Experiment runner: config loading, statistics, output files."""

import json
import re
import sys
import typing
from dataclasses import MISSING, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perfgan
from perfgan import generators, harness
from perfgan.gan import GanHyperparams
from perfgan.generators import AlgorithmConfig
from perfgan.harness import (
    ALGORITHM_KINDS,
    AlgorithmVariant,
    ConfigError,
    ExperimentConfig,
    emit_outputs,
    histogram,
    load_config,
    parse_config,
    run_experiment,
    sma,
)
from perfgan.rng import derive_run_seed
from perfgan.space import DIMENSION_ROLES, Dimension
from perfgan.sut import FitnessSpec, SyntheticSut, calibrate_gain


def config_dict(**overrides):
    """Small 3-level space so runs finish in milliseconds."""
    base = {
        "space": [
            {"name": "big_cpus", "levels": [0, 2, 4]},
            {"name": "big_freq", "levels": [500, 1000, 2000]},
            {"name": "big_util", "levels": [0.25, 0.5, 1.0]},
            {"name": "little_cpus", "levels": [0, 2, 4]},
            {"name": "little_freq", "levels": [400, 800, 1500]},
            {"name": "little_util", "levels": [0.25, 0.5, 1.0]},
        ],
        "sut": {"p_idle": 0.5, "kappa_big": 1.0, "kappa_little": 0.15, "gain": 2.0},
        "fitness": {"p_m": 6.0},
        "algorithms": [
            {"kind": "random", "budget": 24, "warmup": 8},
            {"kind": "dn", "budget": 24, "warmup": 8, "batchsize": 4,
             "gan": {"disc_epochs": 2, "gen_epochs": 2}},
            {"kind": "ogan", "budget": 24, "warmup": 8,
             "gan": {"disc_epochs": 2, "gen_epochs": 2}},
        ],
        "runs": 2,
        "master_seed": 7,
        "sma_window": 5,
        "histogram_bins": 10,
    }
    base.update(overrides)
    return base


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_dict(**overrides)))
    return path


def non_default_value(cls, field):
    """A valid JSON value for `field` of `cls` that differs from its default."""
    default = field.default if field.default is not MISSING else field.default_factory()
    if typing.get_type_hints(cls)[field.name] == float:
        return default / 2
    return (default or 0) + 1


# (dataclass, JSON section that builds it, path from the loaded config to it)
SECTIONS = [
    (SyntheticSut, lambda raw: raw["sut"], lambda cfg: cfg.sut),
    (FitnessSpec, lambda raw: raw["fitness"], lambda cfg: cfg.fitness),
    (AlgorithmConfig, lambda raw: raw["algorithms"][0],
     lambda cfg: cfg.algorithms[0].config),
    (GanHyperparams, lambda raw: raw["algorithms"][0].setdefault("gan", {}),
     lambda cfg: cfg.algorithms[0].config.gan),
]


class TestSma:
    def test_window_one_is_identity(self):
        series = [0.5, 0.25, 1.0]
        assert sma(series, 1) == series

    def test_hand_mean(self):
        assert sma([0.0, 1.0, 1.0], 3) == [pytest.approx(2 / 3)]

    def test_constant_series(self):
        assert sma([0.4] * 6, 3) == pytest.approx([0.4] * 4)

    def test_window_larger_than_series_rejected(self):
        with pytest.raises(ValueError):
            sma([1.0, 2.0], 3)

    def test_output_length(self):
        assert len(sma(list(np.linspace(0, 1, 20)), 7)) == 14

    def test_monotone_series_gives_monotone_sma(self):
        series = [float(v) for v in np.linspace(0, 1, 30) ** 2]
        out = sma(series, 5)
        assert all(a <= b for a, b in zip(out, out[1:]))


class TestHistogram:
    def test_ones_land_in_last_bin(self):
        counts = histogram([1.0, 1.0], 10)
        assert counts[-1] == 2
        assert sum(counts) == 2

    def test_zero_lands_in_first_bin(self):
        assert histogram([0.0], 10)[0] == 1

    def test_empty_values(self):
        assert histogram([], 10) == [0] * 10

    def test_counts_sum(self):
        values = list(np.linspace(0, 1, 101))
        assert sum(histogram(values, 7)) == 101

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            histogram([1.1], 10)
        with pytest.raises(ValueError):
            histogram([-0.1], 10)


# field path in error messages -> (its JSON container, key or index in it)
NUMBER_FIELDS = {
    "sut.gain": (lambda raw: raw["sut"], "gain"),
    "sut.p_idle": (lambda raw: raw["sut"], "p_idle"),
    "space[1].levels": (lambda raw: raw["space"][1]["levels"], 0),
    "fitness.p_m": (lambda raw: raw["fitness"], "p_m"),
}


def _containers(node):
    """`node` and every object and array inside it, outermost first."""
    found = [node]
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            found += _containers(child)
    return found


# values and keys a one-key change of a config draws from
FUZZ_VALUES = [None, True, False, 0, -1, 10**400, 1e308, -1e308, float("nan"),
               float("inf"), float("-inf"), *DIMENSION_ROLES, *ALGORITHM_KINDS, [], [0, 1], {}]
FUZZ_KEYS = ["bogus", "target_density"] + [
    f.name
    for cls in (ExperimentConfig, Dimension, AlgorithmVariant, *(c for c, _, _ in SECTIONS))
    for f in fields(cls)
]


class TestConfigLoading:
    def test_valid_config_parses(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.runs == 2
        assert [v.label for v in cfg.algorithms] == ["random", "dn_bs4", "ogan"]
        assert cfg.algorithms[1].config.batchsize == 4

    def test_target_density_triggers_calibration(self, tmp_path):
        sut = {"p_idle": 0.5, "kappa_big": 1.0, "kappa_little": 0.15}
        cfg = load_config(write_config(tmp_path, sut={**sut, "target_density": 0.05}))
        calibrated = calibrate_gain(SyntheticSut(**sut), cfg.space, cfg.fitness, 0.05)
        assert cfg.sut.gain == calibrated.gain
        assert cfg.sut.gain != 1.0

    def test_gain_and_density_conflict(self, tmp_path):
        path = write_config(
            tmp_path, sut={"gain": 2.0, "target_density": 0.01}
        )
        with pytest.raises(ConfigError, match="target_density"):
            load_config(path)

    def test_error_names_field_path(self, tmp_path):
        bad = config_dict()
        bad["algorithms"][1]["treducer"] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match=r"algorithms\[1\]"):
            load_config(path)

    def test_unknown_algorithm_kind(self, tmp_path):
        # a list is unhashable: the kind check must come before any set of labels
        for kind in ("annealing", ["x"]):
            bad = config_dict()
            bad["algorithms"][0]["kind"] = kind
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))
            with pytest.raises(ConfigError, match=r"algorithms\[0\]\.kind"):
                load_config(path)

    def test_space_needs_six_dimensions(self, tmp_path):
        bad = config_dict()
        bad["space"] = bad["space"][:5]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match="space"):
            load_config(path)

    def test_duplicate_labels_rejected(self, tmp_path):
        bad = config_dict()
        bad["algorithms"] = [
            {"kind": "random", "budget": 24, "warmup": 8},
            {"kind": "random", "budget": 24, "warmup": 8},
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match="label"):
            load_config(path)

    def test_space_names_follow_the_dimension_order(self, tmp_path):
        bad = config_dict()
        bad["space"][0], bad["space"][5] = bad["space"][5], bad["space"][0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match=r"space\[0\]\.name: .*'little_util'"):
            load_config(path)

    def test_null_label_rejected(self, tmp_path):
        # a list is unhashable: the label check must come before any set of labels
        for label in (None, ["x"]):
            bad = config_dict()
            bad["algorithms"][0]["label"] = label
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))
            with pytest.raises(ConfigError, match=r"algorithms\[0\]\.label"):
                load_config(path)

    def test_sma_window_must_fit_budget(self, tmp_path):
        path = write_config(tmp_path, sma_window=25)
        with pytest.raises(ConfigError, match="sma_window"):
            load_config(path)

    def test_sma_window_may_equal_budget(self, tmp_path):
        cfg = load_config(write_config(tmp_path, sma_window=24, runs=1))
        _, summary = run_experiment(cfg)
        for algo in summary["algorithms"].values():
            assert len(algo["sma"]) == 1

    def test_largest_finite_number_loads(self, tmp_path):
        raw = config_dict()
        raw["fitness"]["p_m"] = sys.float_info.max
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert load_config(path).fitness.p_m == sys.float_info.max

    @pytest.mark.parametrize(
        "where, expected",
        [
            (lambda raw: raw["sut"], r"sut\.bogus"),
            (lambda raw: raw["fitness"], r"fitness\.bogus"),
            (lambda raw: raw, r"^bogus"),
            (lambda raw: raw["algorithms"][1], r"algorithms\[1\]\.bogus"),
            (lambda raw: raw["algorithms"][1]["gan"], r"algorithms\[1\]\.gan\.bogus"),
            (lambda raw: raw["space"][0], r"space\[0\]\.bogus"),
        ],
        ids=["sut", "fitness", "top_level", "algorithm", "gan", "space"],
    )
    def test_unknown_key_rejected(self, tmp_path, where, expected):
        bad = config_dict()
        where(bad)["bogus"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match=expected + ": unknown field"):
            load_config(path)

    @pytest.mark.parametrize("key", ["output_dir", "target_density"])
    def test_top_level_field_not_settable_from_json(self, tmp_path, key):
        path = write_config(tmp_path, **{key: 0.5})
        with pytest.raises(ConfigError, match=f"^{key}: unknown field"):
            load_config(path)

    @pytest.mark.parametrize(
        "section, loaded, cls, field",
        [
            pytest.param(section, loaded, cls, f, id=f"{cls.__name__}.{f.name}")
            for cls, section, loaded in SECTIONS
            for f in fields(cls)
            if not is_dataclass(typing.get_type_hints(cls)[f.name])
        ],
    )
    def test_every_field_reaches_the_config(self, tmp_path, section, loaded, cls, field):
        raw = config_dict()
        raw["algorithms"] = [{"kind": "dn"}]
        value = non_default_value(cls, field)
        section(raw)[field.name] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert getattr(loaded(load_config(path)), field.name) == value

    @pytest.mark.parametrize(
        "key, value",
        [("runs", 0), ("sma_window", 0), ("histogram_bins", 0), ("master_seed", -1),
         ("algorithms", []), ("algorithms[0].kind", "annealing"),
         ("algorithms[0].label", None)],
    )
    def test_replace_is_validated(self, tmp_path, key, value):
        cfg = load_config(write_config(tmp_path))
        changes = {key: value}
        if key.startswith("algorithms[0]."):
            # a variant a library caller built, which no JSON loader saw
            variant = replace(cfg.algorithms[0], **{key.partition(".")[2]: value})
            changes = {"algorithms": [variant, *cfg.algorithms[1:]]}
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            replace(cfg, **changes)

    @pytest.mark.parametrize(
        "path, container, key",
        [
            pytest.param(path, container, path.rpartition(".")[2], id=path)
            for path, container in [
                ("space[2].name", lambda raw: raw["space"][2]),
                ("space[4].levels", lambda raw: raw["space"][4]),
                ("space", lambda raw: raw),
                ("sut", lambda raw: raw),
                ("algorithms", lambda raw: raw),
                ("algorithms[1].kind", lambda raw: raw["algorithms"][1]),
            ]
        ],
    )
    def test_missing_required_field(self, path, container, key):
        raw = config_dict()
        del container(raw)[key]
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: missing required field$"):
            parse_config(raw)

    def test_fitness_may_be_omitted(self):
        raw = config_dict()
        del raw["fitness"]
        assert parse_config(raw).fitness == FitnessSpec()

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_any_one_key_changed_loads_or_is_a_config_error(self, data):
        # warnings are errors (pyproject filterwarnings), so a loader that
        # only warns on a value fails here too
        raw = config_dict()
        container = data.draw(st.sampled_from(_containers(raw)))
        keys = list(container) if isinstance(container, dict) else range(len(container))
        op = data.draw(st.sampled_from(["replace", "delete", "add"] if keys else ["add"]))
        value = data.draw(st.sampled_from(FUZZ_VALUES))
        if op == "add" and isinstance(container, dict):
            container[data.draw(st.sampled_from(FUZZ_KEYS))] = value
        elif op == "add":
            container.append(value)
        elif op == "delete":
            del container[data.draw(st.sampled_from(keys))]
        else:
            container[data.draw(st.sampled_from(keys))] = value
        try:
            assert isinstance(parse_config(raw), ExperimentConfig)
        except ConfigError:
            pass

    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["Infinity", "NaN"])
    @pytest.mark.parametrize("field", NUMBER_FIELDS)
    def test_non_finite_number_rejected(self, tmp_path, field, value):
        section, key = NUMBER_FIELDS[field]
        raw = config_dict()
        section(raw)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}: expected a finite number"):
            load_config(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: cannot read"):
            load_config(path)


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_run_seed(42, 0)
        assert a == derive_run_seed(42, 0)
        seeds = {derive_run_seed(42, i) for i in range(50)}
        assert len(seeds) == 50

    def test_master_seed_matters(self):
        assert derive_run_seed(1, 0) != derive_run_seed(2, 0)


class TestSummarize:
    def test_stddev_is_the_sample_deviation(self, tmp_path):
        # positives 1 and 3: sqrt(((1 - 2)^2 + (3 - 2)^2) / (2 - 1)) = sqrt(2),
        # where the population deviation would read 1
        algorithms = [{"kind": "random", "budget": 4, "warmup": 4}]
        cfg = load_config(write_config(tmp_path, algorithms=algorithms, sma_window=2))

        def result(seed, fitnesses):
            records = [generators.TestRecord((i, 0, 0, 0, 0, 0), 6.0 * f, f, 1, 1, i)
                       for i, f in enumerate(fitnesses)]
            return harness.RunResult("random", seed, generators.TestSuite(records))

        results = [result(1, [1.0, 0.5, 0.5, 0.5]), result(2, [1.0, 1.0, 0.5, 1.0])]
        summary = harness.summarize(cfg, results)["algorithms"]["random"]
        assert summary["positive_counts"] == [1, 3]
        assert summary["stddev_positive_count"] == pytest.approx(2.0**0.5, abs=1e-12)


class TestRunExperiment:
    @pytest.mark.parametrize("kind", ALGORITHM_KINDS)
    def test_runner_is_the_generators_binding(self, kind):
        # the benchmark times runs by rebinding generators.run_<kind>
        # wherever a module binds it; a wrapper here would hide them all
        assert harness._RUNNERS[kind] is getattr(generators, f"run_{kind}")

    def test_result_count_and_reproducible_files(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        results, summary = run_experiment(cfg)
        assert len(results) == 2 * 3
        emit_outputs(tmp_path / "out1", results, summary, cfg)

        cfg2 = load_config(write_config(tmp_path))
        emit_outputs(tmp_path / "out2", *run_experiment(cfg2), cfg2)
        for name in ("tests.csv", "summary.json", "histogram.csv", "sma.csv"):
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b, name

    def test_budget_equals_warmup_pairs_all_algorithms(self, tmp_path):
        algorithms = [
            {"kind": "random", "budget": 10, "warmup": 10},
            {"kind": "dn", "budget": 10, "warmup": 10,
             "gan": {"disc_epochs": 2, "gen_epochs": 2}},
            {"kind": "ogan", "budget": 10, "warmup": 10,
             "gan": {"disc_epochs": 2, "gen_epochs": 2}},
        ]
        cfg = load_config(
            write_config(tmp_path, algorithms=algorithms, runs=1, sma_window=3)
        )
        results, _ = run_experiment(cfg)
        inputs = [[r.input for r in res.suite.records] for res in results]
        assert inputs[0] == inputs[1] == inputs[2]

    def test_csv_row_count(self, tmp_path):
        out = tmp_path / "out"
        cfg = load_config(write_config(tmp_path))
        emit_outputs(out, *run_experiment(cfg), cfg)
        lines = (out / "tests.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3 * 24  # header + runs x algorithms x budget

    def test_summary_json_round_trips(self, tmp_path):
        out = tmp_path / "out"
        cfg = load_config(write_config(tmp_path))
        results, summary = run_experiment(cfg)
        perfgan.emit_outputs(out, results, summary, cfg)
        on_disk = json.loads((out / "summary.json").read_text())
        assert on_disk == summary
        assert on_disk["oracle"]["cardinality"] == 729
        # the config echo is a config
        assert parse_config(on_disk["config"]) == cfg

    def test_histogram_sums_and_sma_length(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        _, summary = run_experiment(cfg)
        for algo in summary["algorithms"].values():
            assert sum(algo["histogram"]) == cfg.runs * 24
            assert len(algo["sma"]) == 24 - cfg.sma_window + 1

    def test_last_bin_counts_at_least_the_positives(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        _, summary = run_experiment(cfg)
        for algo in summary["algorithms"].values():
            # every fitness-1 test lands in the last bin (plus near-misses)
            assert algo["histogram"][-1] >= sum(algo["positive_counts"])

    def test_too_few_run_seeds_rejected(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        with pytest.raises(ValueError, match="run_seeds"):
            run_experiment(cfg, run_seeds=[123])

    def test_numpy_scalar_measurements_write_the_same_files(self, tmp_path):
        # a real SutInterface may return np.float64, e.g. np.mean of samples
        class NumpySut:
            def measure(self, space, test_input):
                return np.float64(cfg.sut.measure(space, test_input))

        cfg = load_config(write_config(tmp_path))
        for name, sut in (("plain", cfg.sut), ("numpy", NumpySut())):
            results = [
                harness.RunResult(v.label, seed, harness._RUNNERS[v.kind](
                    cfg.space, sut, cfg.fitness, v.config, seed))
                for v in cfg.algorithms for seed in (3, 4)
            ]
            emit_outputs(tmp_path / name, results, harness.summarize(cfg, results), cfg)
        for name in ("tests.csv", "summary.json", "histogram.csv", "sma.csv"):
            plain = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "numpy" / name).read_bytes() == plain, name

    def test_explicit_run_seeds(self, tmp_path):
        cfg = load_config(write_config(tmp_path, runs=1))
        results_a, _ = run_experiment(cfg, run_seeds=[123])
        results_b, _ = run_experiment(cfg, run_seeds=[123])
        assert [r.seed for r in results_a] == [123] * 3
        assert [
            [rec.input for rec in r.suite.records] for r in results_a
        ] == [[rec.input for rec in r.suite.records] for r in results_b]
