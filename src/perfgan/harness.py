"""Experiment runner: multi-seed comparisons with file-based config.

Loads one JSON document describing the space, the synthetic system
under test, the fitness threshold and a list of algorithm variants,
runs every variant over the same derived per-run seeds (so warm-up
phases are paired across variants), and writes deterministic,
plot-ready outputs:

* tests.csv      -- one row per executed test across all runs
* summary.json   -- per-variant statistics plus oracle facts and a
                    config echo
* histogram.csv  -- fitness histogram per variant (last bin holds the
                    fitness-1 tests)
* sma.csv        -- moving average over the cross-run mean fitness per
                    test index

`run_experiment` returns `(results, summary)`: `summary` is the
summary.json document, which `emit_outputs` writes as is.

The config dataclasses are the JSON schema: `sut`, `fitness`, each
algorithm and its `gan` build their dataclass by field name and type,
and an unknown key anywhere is a ConfigError.  ExperimentConfig checks
itself, so `parse_config`, `dataclasses.replace` (the CLI overrides)
and library callers pass one check.  The output directory is not part
of the JSON; callers pass it to `load_config`.

Everything downstream of the master seed is deterministic, so repeated
invocations produce byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
import sys
import time
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .generators import (
    AlgorithmConfig,
    TestSuite,
    run_dn,
    run_ogan,
    run_random,
)
from .rng import derive_run_seed
from .space import DIMENSION_ROLES, NUM_DIMENSIONS, Dimension, InputSpace, cardinality
from .sut import (
    CalibrationError,
    FitnessSpec,
    SyntheticSut,
    calibrate_gain,
    oracle_positive_count,
)

log = logging.getLogger(__name__)

_RUNNERS = {"random": run_random, "dn": run_dn, "ogan": run_ogan}
ALGORITHM_KINDS = tuple(_RUNNERS)

TESTS_CSV_HEADER = [
    "run_id", "algorithm", "seed", "test_index", *DIMENSION_ROLES,
    "power_w", "fitness", "inner_iterations", "candidate_trials",
]


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the field."""


@dataclass(frozen=True)
class AlgorithmVariant:
    label: str
    kind: str
    config: AlgorithmConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment; `dataclasses.replace` validates again."""

    space: InputSpace
    sut: SyntheticSut
    fitness: FitnessSpec
    algorithms: list[AlgorithmVariant]
    runs: int = 10
    master_seed: int = 0
    sma_window: int = 10
    histogram_bins: int = 10
    output_dir: Path | None = None
    target_density: float | None = None

    def __post_init__(self) -> None:
        for name in ("runs", "sma_window", "histogram_bins"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed: must be >= 0")
        labels = [v.label for v in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ConfigError("algorithms: labels must be distinct (set 'label')")
        total = cardinality(self.space)
        for i, variant in enumerate(self.algorithms):
            if variant.config.budget > total:
                raise ConfigError(f"algorithms[{i}].budget: exceeds space cardinality {total}")
            if self.sma_window > variant.config.budget:
                raise ConfigError(f"sma_window: exceeds budget of algorithm {variant.label!r}")
        # the peak bounds every measurement in the space
        power = self.sut.peak_power(self.space)
        if not math.isfinite(power):
            raise ConfigError(f"sut: power at the top level of every dimension is {power!r}")


@dataclass(frozen=True)
class RunResult:
    algorithm: str
    seed: int
    suite: TestSuite


def sma(series: list[float], window: int) -> list[float]:
    """Simple moving average; element j covers series[j : j+window]."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > len(series):
        raise ValueError(f"window {window} exceeds series length {len(series)}")
    arr = np.asarray(series, dtype=np.float64)
    kernel = np.ones(window) / window
    return [float(v) for v in np.convolve(arr, kernel, mode="valid")]


def histogram(values: list[float], bins: int) -> list[int]:
    """Equal-width counts over [0, 1]; a value of exactly 1 lands in the
    last bin, so with fitness data that bin counts the positive tests."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts = [0] * bins
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"value {v} outside [0, 1]")
        counts[min(int(v * bins), bins - 1)] += 1
    return counts


# ---------------------------------------------------------------------------
# config loading


def _require(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _as_number(value: Any, path: str) -> float:
    # json.loads also gives Infinity, NaN and integers beyond any float;
    # NaN fails the comparison, and it is exact for an integer
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        if abs(value) <= sys.float_info.max:
            return float(value)
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


_CONVERTERS = {int: _as_int, float: _as_number}


@functools.cache
def _field_types(cls: type) -> dict[str, type]:
    """Field name -> type of a config dataclass.  `X | None` gives X: JSON
    null is rejected, and only the default means None."""
    hints, types = typing.get_type_hints(cls), {}
    for f in fields(cls):
        hint = hints[f.name]
        if type(None) in typing.get_args(hint):
            (hint,) = set(typing.get_args(hint)) - {type(None)}
        types[f.name] = hint
    return types


def _reject_unknown(raw: dict, known: Iterable[str], prefix: str) -> None:
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"{prefix}{sorted(unknown)[0]}: unknown field")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    # json.loads object hook: a repeated key is an error, not last-one-wins
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"{key}: repeated key")
        obj[key] = value
    return obj


def _scalar_fields() -> list[str]:
    """The top-level keys besides the sections: ExperimentConfig's integer
    fields (output_dir comes from the caller, target_density from `sut`)."""
    return [name for name, tp in _field_types(ExperimentConfig).items() if tp is int]


def _section(cls: type, raw: Any, path: str, extra: tuple[str, ...] = ()) -> Any:
    """Build config dataclass `cls` from its JSON object.

    Each field given in `raw` is converted by its type: int, float or a
    nested config dataclass.  Keys in `extra` are left to the caller;
    any other key is an error, as is a value the constructor rejects.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    types = _field_types(cls)
    _reject_unknown(raw, [*types, *extra], f"{path}.")
    kwargs = {}
    for key, value in raw.items():
        if key in types:
            tp, sub = types[key], f"{path}.{key}"
            if is_dataclass(tp):
                kwargs[key] = _section(tp, value, sub)
            else:
                kwargs[key] = _CONVERTERS[tp](value, sub)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_space(raw: Any) -> InputSpace:
    if not isinstance(raw, list) or len(raw) != NUM_DIMENSIONS:
        raise ConfigError(f"space: expected an array of {NUM_DIMENSIONS} dimensions")
    dims = []
    for j, entry in enumerate(raw):
        path = f"space[{j}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: expected an object")
        _reject_unknown(entry, ("name", "levels"), f"{path}.")
        name = _require(entry, "name", path)
        if name != DIMENSION_ROLES[j]:
            raise ConfigError(f"{path}.name: expected {DIMENSION_ROLES[j]!r}, got {name!r}")
        levels = _require(entry, "levels", path)
        if not isinstance(levels, list) or not levels:
            raise ConfigError(f"{path}.levels: expected a nonempty array")
        try:
            dims.append(
                Dimension(name, tuple(_as_number(v, f"{path}.levels") for v in levels))
            )
        except ValueError as exc:
            raise ConfigError(f"{path}.levels: {exc}") from exc
    return InputSpace(dims=tuple(dims))


def _load_algorithm(raw: Any, index: int) -> AlgorithmVariant:
    path = f"algorithms[{index}]"
    config = _section(AlgorithmConfig, raw, path, extra=("kind", "label"))
    kind = _require(raw, "kind", path)
    if kind not in ALGORITHM_KINDS:
        raise ConfigError(f"{path}.kind: must be one of {ALGORITHM_KINDS}")
    default_label = kind if kind != "dn" else f"dn_bs{config.batchsize}"
    label = raw.get("label", default_label)
    if not isinstance(label, str):
        raise ConfigError(f"{path}.label: expected a string, got {label!r}")
    return AlgorithmVariant(label=label, kind=kind, config=config)


def load_config(path: str | Path, output_dir: str | Path | None = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment configuration file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    return parse_config(raw, output_dir=output_dir)


def parse_config(raw: dict, output_dir: str | Path | None = None) -> ExperimentConfig:
    space = _load_space(_require(raw, "space", "top level"))
    sut_raw = _require(raw, "sut", "top level")
    sut = _section(SyntheticSut, sut_raw, "sut", extra=("target_density",))
    fitness = _section(FitnessSpec, raw.get("fitness", {}), "fitness")
    algorithms_raw = _require(raw, "algorithms", "top level")
    if not isinstance(algorithms_raw, list) or not algorithms_raw:
        raise ConfigError("algorithms: expected a nonempty array")
    algorithms = [_load_algorithm(entry, i) for i, entry in enumerate(algorithms_raw)]
    kwargs: dict[str, Any] = dict(space=space, sut=sut, fitness=fitness, algorithms=algorithms)
    _reject_unknown(raw, [*kwargs, *_scalar_fields()], "")
    for key, value in raw.items():
        if key in _scalar_fields():
            kwargs[key] = _as_int(value, key)
    cfg = ExperimentConfig(
        **kwargs, output_dir=Path(output_dir) if output_dir is not None else None
    )
    if "target_density" not in sut_raw:
        return cfg
    if "gain" in sut_raw:
        raise ConfigError("sut.target_density: give either gain or target_density")
    density = _as_number(sut_raw["target_density"], "sut.target_density")
    try:
        sut = calibrate_gain(sut, space, fitness, density)
    except (ValueError, CalibrationError) as exc:
        raise ConfigError(f"sut.target_density: {exc}") from exc
    return replace(cfg, sut=sut, target_density=density)


# ---------------------------------------------------------------------------
# running


def run_experiment(
    cfg: ExperimentConfig, run_seeds: list[int] | None = None
) -> tuple[list[RunResult], dict]:
    """Run every algorithm variant over the per-run seeds and summarize.

    Returns the results and the summary.json document (see `summarize`).

    Seeds default to derive_run_seed(master_seed, i) for i in
    range(runs): the same run index gives every variant the same seed,
    pairing their warm-up phases.  Writes output files when the config
    names an output directory.
    """
    if run_seeds is None:
        run_seeds = [derive_run_seed(cfg.master_seed, i) for i in range(cfg.runs)]
    if len(run_seeds) != cfg.runs:
        raise ValueError("run_seeds must have one entry per run")

    results: list[RunResult] = []
    for variant in cfg.algorithms:
        runner = _RUNNERS[variant.kind]
        for i, seed in enumerate(run_seeds):
            start = time.perf_counter()
            suite = runner(cfg.space, cfg.sut, cfg.fitness, variant.config, seed)
            duration = time.perf_counter() - start
            log.info(
                "%s run %d/%d: %d positives in %.2fs",
                variant.label, i + 1, cfg.runs, suite.positive_count,
                duration,
            )
            results.append(RunResult(algorithm=variant.label, seed=seed, suite=suite))

    summary = summarize(cfg, results)
    if cfg.output_dir is not None:
        emit_outputs(results, summary, cfg)
    return results, summary


def oracle_facts(cfg: ExperimentConfig) -> dict:
    """The exhaustive-search facts: summary.json's `oracle` block."""
    total = cardinality(cfg.space)
    positives = oracle_positive_count(cfg.sut, cfg.space, cfg.fitness)
    return {"cardinality": total, "positive_count": positives,
            "density": positives / total, "gain": cfg.sut.gain}


def summarize(cfg: ExperimentConfig, results: list[RunResult]) -> dict:
    """The summary.json document: oracle facts, per-variant statistics
    keyed by label, and the config echo."""
    algorithms = {}
    for variant in cfg.algorithms:
        suites = [r.suite for r in results if r.algorithm == variant.label]
        positives = [s.positive_count for s in suites]
        all_fitness = [rec.fitness for s in suites for rec in s.records]
        post = [rec for s in suites for rec in s.records[variant.config.warmup:]]
        per_index = np.array([[rec.fitness for rec in s.records] for s in suites])
        mean_series = per_index.mean(axis=0)
        algorithms[variant.label] = {
            "kind": variant.kind,
            "positive_counts": positives,
            "mean_positive_count": float(np.mean(positives)),
            "stddev_positive_count": (
                float(np.std(positives, ddof=1)) if len(positives) > 1 else 0.0
            ),
            "mean_fitness": float(np.mean(all_fitness)),
            "mean_inner_iterations": (
                float(np.mean([r.inner_iterations for r in post])) if post else None
            ),
            "mean_candidate_trials": (
                float(np.mean([r.candidate_trials for r in post])) if post else None
            ),
            "histogram": histogram(all_fitness, cfg.histogram_bins),
            "sma": sma([float(v) for v in mean_series], cfg.sma_window),
        }
    return {"oracle": oracle_facts(cfg), "algorithms": algorithms, "config": _config_echo(cfg)}


# ---------------------------------------------------------------------------
# output files


def _config_echo(cfg: ExperimentConfig) -> dict:
    # output_dir and wall-clock data stay out: two invocations with the
    # same master seed must produce byte-identical files.  Levels are
    # listed because asdict keeps tuples, and the echo must equal its
    # own JSON round trip.
    return {
        "space": [
            {"name": d.name, "levels": list(d.levels)} for d in cfg.space.dims
        ],
        "sut": {**asdict(cfg.sut), "target_density": cfg.target_density},
        "fitness": asdict(cfg.fitness),
        "algorithms": [
            {"label": v.label, "kind": v.kind, **asdict(v.config)}
            for v in cfg.algorithms
        ],
        **{name: getattr(cfg, name) for name in _scalar_fields()},
    }


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_outputs(results: list[RunResult], summary: dict, cfg: ExperimentConfig) -> None:
    """Write tests.csv, summary.json (the `summarize` document),
    histogram.csv and sma.csv."""
    out = cfg.output_dir
    if out is None:
        raise ValueError("config has no output directory")
    out.mkdir(parents=True, exist_ok=True)

    test_rows = (
        [run_id, variant.label, result.seed, rec.test_index]
        + [repr(v) for v in cfg.space.physical_values(rec.input)]
        + [repr(rec.power), repr(rec.fitness), rec.inner_iterations, rec.candidate_trials]
        for variant in cfg.algorithms
        for run_id, result in enumerate(r for r in results if r.algorithm == variant.label)
        for rec in result.suite.records
    )
    _write_csv(out / "tests.csv", TESTS_CSV_HEADER, test_rows)

    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    per_variant = summary["algorithms"].items()
    hist_rows = (
        [label, j, repr(j / len(a["histogram"])), repr((j + 1) / len(a["histogram"])), count]
        for label, a in per_variant
        for j, count in enumerate(a["histogram"])
    )
    hist_header = ["algorithm", "bin_index", "bin_low", "bin_high", "count"]
    _write_csv(out / "histogram.csv", hist_header, hist_rows)

    sma_rows = (
        [label, j, repr(value)] for label, a in per_variant for j, value in enumerate(a["sma"])
    )
    sma_header = ["algorithm", "window_start", "sma_mean_fitness"]
    _write_csv(out / "sma.csv", sma_header, sma_rows)
