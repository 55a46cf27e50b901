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

`run_experiment` returns `(results, summary)`: `summary`, built by
`summarize`, is the summary.json document, which `emit_outputs` writes
as is.  Both read the suites' columns, never `records`.

The config dataclasses are the JSON schema: one walker, `_section`,
reads the document as the fields of ExperimentConfig by name and type,
down through each space entry (a Dimension), `sut`, `fitness`, each
algorithm and its `gan`.  At each level an unknown key is the first
ConfigError, then a missing field that has no default, then the values
in key order.  ExperimentConfig checks itself, so `parse_config`,
`dataclasses.replace` (the CLI overrides) and library callers pass one
check.  A `sut.target_density` becomes the gain at load, so
summary.json's config echo loads back into an equal config.  The output
directory is an argument of `emit_outputs`.

Everything downstream of the master seed is deterministic, so repeated
invocations produce byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
import time
import typing
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

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
from .sut import FitnessSpec, SyntheticSut, calibrate_gain, oracle_positive_count


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
    algorithms: list[AlgorithmVariant]
    fitness: FitnessSpec = FitnessSpec()
    runs: int = 10
    master_seed: int = 0
    sma_window: int = 10
    histogram_bins: int = 10

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ConfigError("algorithms: expected a nonempty array")
        for name in ("runs", "sma_window", "histogram_bins"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed: must be >= 0")
        total = cardinality(self.space)
        for i, variant in enumerate(self.algorithms):
            path = f"algorithms[{i}]"
            if variant.kind not in ALGORITHM_KINDS:
                raise ConfigError(f"{path}.kind: must be one of {ALGORITHM_KINDS}")
            if not isinstance(variant.label, str):
                raise ConfigError(f"{path}.label: expected a string, got {variant.label!r}")
            if variant.config.budget > total:
                raise ConfigError(f"{path}.budget: exceeds space cardinality {total}")
            if self.sma_window > variant.config.budget:
                raise ConfigError(f"sma_window: exceeds budget of algorithm {variant.label!r}")
            if self.histogram_bins > variant.config.budget:
                raise ConfigError(f"histogram_bins: exceeds budget of algorithm {variant.label!r}")
        # after the label checks: a label the JSON gave may be unhashable
        labels = [v.label for v in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ConfigError("algorithms: labels must be distinct (set 'label')")
        try:
            self.sut.peak_power(self.space)
        except ValueError as exc:
            raise ConfigError(f"sut: {exc}") from exc


@dataclass(frozen=True)
class RunResult:
    algorithm: str
    seed: int
    suite: TestSuite


def sma(series: np.ndarray | Sequence[float], window: int) -> list[float]:
    """Simple moving average; element j covers series[j : j+window]."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > len(series):
        raise ValueError(f"window {window} exceeds series length {len(series)}")
    kernel = np.ones(window) / window
    return np.convolve(np.asarray(series, dtype=np.float64), kernel, mode="valid").tolist()


def histogram(values: np.ndarray | Sequence[float], bins: int) -> list[int]:
    """Equal-width counts over [0, 1] of every value in `values`, of any
    shape; a value of exactly 1 lands in the last bin, so with fitness
    data that bin counts the positive tests."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    flat = np.ravel(values)
    outside = flat[~((flat >= 0.0) & (flat <= 1.0))]
    if outside.size:
        raise ValueError(f"value {outside[0]} outside [0, 1]")
    return np.bincount(np.minimum(flat * bins, bins - 1).astype(np.intp), minlength=bins).tolist()


# ---------------------------------------------------------------------------
# config loading


def _require(mapping: dict, key: str, prefix: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{prefix}{key}: missing required field")
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


@functools.cache
def _field_types(cls: type) -> dict[str, type]:
    """Field name -> type of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    # json.loads object hook: a repeated key is an error, not last-one-wins
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"{key}: repeated key")
        obj[key] = value
    return obj


def _section(cls: type, raw: Any, path: str, extra: tuple[str, ...] = ()) -> Any:
    """Build config dataclass `cls` from its JSON object at `path` ("" at
    the top level).  Faults, first found first: a key neither a field nor
    in `extra` (left to the caller), a missing field with no default, a
    value in key order (by its type's `_CONVERTERS` entry, or as a nested
    config dataclass), and last a value the constructor rejects."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'top level'}: expected an object")
    types, prefix = _field_types(cls), f"{path}." if path else ""
    unknown = sorted(set(raw) - {*types, *extra})
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown field")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING:
            _require(raw, f.name, prefix)
    kwargs = {}
    for key, value in raw.items():
        if key in types:
            convert = _CONVERTERS.get(types[key]) or functools.partial(_section, types[key])
            kwargs[key] = convert(value, prefix + key)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _as_levels(value: Any, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty array")
    return tuple(_as_number(v, path) for v in value)


def _as_space(value: Any, path: str) -> InputSpace:
    if not isinstance(value, list) or len(value) != NUM_DIMENSIONS:
        raise ConfigError(f"{path}: expected an array of {NUM_DIMENSIONS} dimensions")
    dims = []
    for j, (entry, role) in enumerate(zip(value, DIMENSION_ROLES)):
        dims.append(_section(Dimension, entry, f"{path}[{j}]"))
        if dims[-1].name != role:
            raise ConfigError(f"{path}[{j}].name: expected {role!r}, got {dims[-1].name!r}")
    return InputSpace(dims=tuple(dims))


def _as_variants(value: Any, path: str) -> list[AlgorithmVariant]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a nonempty array")
    variants = []
    for i, entry in enumerate(value):
        sub = f"{path}[{i}]"
        config = _section(AlgorithmConfig, entry, sub, extra=("kind", "label"))
        kind = _require(entry, "kind", f"{sub}.")
        label = entry.get("label", kind if kind != "dn" else f"dn_bs{config.batchsize}")
        variants.append(AlgorithmVariant(label=label, kind=kind, config=config))
    return variants


# leaf converters by field type; any other field type is a nested section
_CONVERTERS = {
    int: _as_int,
    float: _as_number,
    str: lambda value, path: value,  # a space entry's name: `_as_space` checks it
    tuple[float, ...]: _as_levels,
    InputSpace: _as_space,
    list[AlgorithmVariant]: _as_variants,
    SyntheticSut: functools.partial(_section, SyntheticSut, extra=("target_density",)),
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON experiment configuration file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    """Build the ExperimentConfig of a JSON document's top-level object;
    a `sut.target_density` is calibrated into the gain."""
    cfg = _section(ExperimentConfig, raw, "")
    sut_raw = raw["sut"]
    if "target_density" not in sut_raw:
        return cfg
    if "gain" in sut_raw:
        raise ConfigError("sut.target_density: give either gain or target_density")
    density = _as_number(sut_raw["target_density"], "sut.target_density")
    try:
        sut = calibrate_gain(cfg.sut, cfg.space, cfg.fitness, density)
    except ValueError as exc:
        raise ConfigError(f"sut.target_density: {exc}") from exc
    return replace(cfg, sut=sut)


# ---------------------------------------------------------------------------
# running


def run_experiment(
    cfg: ExperimentConfig, run_seeds: list[int] | None = None
) -> tuple[list[RunResult], dict]:
    """Run every algorithm variant over the per-run seeds and summarize.

    Returns the results and the summary.json document (see `summarize`).

    Seeds default to derive_run_seed(master_seed, i) for i in
    range(runs): the same run index gives every variant the same seed,
    pairing their warm-up phases.  Writes no file (`emit_outputs` does);
    prints one line per run, with its positives and time, to stderr."""
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
            print(f"{variant.label} run {i + 1}/{cfg.runs}: {suite.positive_count} positives"
                  f" in {duration:.2f}s", file=sys.stderr)
            results.append(RunResult(algorithm=variant.label, seed=seed, suite=suite))

    return results, summarize(cfg, results)


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
        # runs x budget: row i is run i's tests in test order
        rows = np.stack([s.rows for s in suites])
        fitness, post = rows["fitness"], rows[:, variant.config.warmup:]
        algorithms[variant.label] = {
            "kind": variant.kind,
            "positive_counts": positives,
            "mean_positive_count": float(np.mean(positives)),
            "stddev_positive_count": (
                float(np.std(positives, ddof=1)) if len(positives) > 1 else 0.0
            ),
            "mean_fitness": float(fitness.mean()),
            "mean_inner_iterations": float(post["inner_iterations"].mean()) if post.size else None,
            "mean_candidate_trials": float(post["candidate_trials"].mean()) if post.size else None,
            "histogram": histogram(fitness, cfg.histogram_bins),
            "sma": sma(fitness.mean(axis=0), cfg.sma_window),
        }
    return {"oracle": oracle_facts(cfg), "algorithms": algorithms, "config": _config_echo(cfg)}


# ---------------------------------------------------------------------------
# output files


def _config_echo(cfg: ExperimentConfig) -> dict:
    # a config parse_config loads back into an equal cfg; a calibrated
    # sut is echoed by its gain.  The output directory and wall-clock data
    # stay out: two invocations with the same master seed must produce
    # byte-identical files.  The space and the variants are rewritten in
    # their JSON form: asdict keeps tuples, and the echo must equal its
    # own JSON round trip.
    return {
        **asdict(cfg),
        "space": [{"name": d.name, "levels": list(d.levels)} for d in cfg.space.dims],
        "algorithms": [
            {"label": v.label, "kind": v.kind, **asdict(v.config)} for v in cfg.algorithms
        ],
    }


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_outputs(
    out: Path, results: list[RunResult], summary: dict, cfg: ExperimentConfig
) -> None:
    """Write tests.csv, summary.json (the `summarize` document),
    histogram.csv and sma.csv into directory `out`."""
    out.mkdir(parents=True, exist_ok=True)

    test_rows = (
        [run_id, variant.label, result.seed, i]
        + [repr(v) for v in cfg.space.physical_values(test_input)]
        + [repr(power), repr(fit), passes, trials]
        for variant in cfg.algorithms
        for run_id, result in enumerate(r for r in results if r.algorithm == variant.label)
        for i, (test_input, (_, power, fit, passes, trials, _, _))
        in enumerate(zip(result.suite.inputs().tolist(), result.suite.rows.tolist()))
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
