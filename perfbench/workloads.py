"""Workloads, correctness checks and metrics of the perfgan benchmark.

Every workload runs closed loop in this process through perfgan's public
API: one caller, and each test is proposed only after the previous
execution has returned. A *unit* is the work a workload repeats:

* ``ogan``    -- one ``run_ogan`` of the ogan variant of configs/default.json.
* ``dn_wide`` -- one ``run_dn`` of the dn_bs32000 variant of
  configs/trials_table.json.
* ``sweep``   -- two ``perfgan compare`` invocations (``cli.main``) with the
  same master seed over random + dn_bs4 of configs/default.json, one run
  each, with the SUT gain calibrated from ``target_density`` and every
  output file written; the two invocations must write byte-identical files.

Units come from a fixed pool: unit ``i`` uses ``derive_run_seed(master_seed,
i)`` as its run seed (``ogan``, ``dn_wide``) or master seed (``sweep``), so
pool units 0-9 of ``ogan`` are the runs of ``perfgan compare`` on the
default config. fingerprint.json records every pool unit's yield and the
deterministic count of acceptance passes it costs. The pool is split by that
count into strata of ten, and a benchmark seed picks one unit per stratum, so
every run carries the same mix of cheap and expensive units and seeds
0-9 together cover the strata once.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from perfgan import AlgorithmConfig, cli, gan, generators, harness, nn
from perfgan.rng import derive_run_seed, stream_rng

from tracer import RUNNER_FUNCTIONS, Tracer, rebind, restore

FINGERPRINT_PATH = Path(__file__).with_name("fingerprint.json")
UNITS_PER_STRATUM = 10
MODEL_KINDS = ("dn", "ogan")
# measure() and power_grid() sum the power model in different orders; the
# repository's own SUT tests compare them at this absolute tolerance (watts)
POWER_ATOL = 1e-12
SETUP_REPEATS = 7
WARMUP_EXTRA_TESTS = 10
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import perfgan; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class WorkloadSpec:
    config: str
    labels: tuple[str, ...]
    pool: int  # units recorded in fingerprint.json
    strata: int  # cut from the cheapest strata * UNITS_PER_STRATUM pool units
    compare_runs: int = 0  # > 0: a unit is a pair of `perfgan compare` calls
    target_density: float | None = None


SPECS = {
    "ogan": WorkloadSpec("configs/default.json", ("ogan",), pool=40, strata=4),
    # A dn_bs32000 run costs 153-282 passes of ~0.1 s, depending on the seed,
    # and only one or two runs fit in a measurement. Drawing from the ten
    # cheaper of twenty pool units (153-170 passes) keeps the result a
    # function of the code rather than of the seed; every pass does the
    # same k=32000 work, so what a faster pass saves shows the same.
    "dn_wide": WorkloadSpec("configs/trials_table.json", ("dn_bs32000",), pool=20, strata=1),
    # One run per `perfgan compare` call keeps a unit to about 3 s, so a
    # measurement cycles through its four units three or four times: each
    # suite's share of the gap samples hardly depends on where the run
    # stops, and every suite is sampled across the whole run.
    "sweep": WorkloadSpec(
        "configs/default.json", ("random", "dn_bs4"), pool=40, strata=4,
        compare_runs=1, target_density=0.01,
    ),
}


class ExecutionLog:
    """Host timestamps around every SUT execution, one list pair per suite."""

    def __init__(self) -> None:
        self.suites: list[tuple[str, int, list[float], list[float]]] = []
        self.test_index = 0

    def start_suite(self, kind: str, warmup: int) -> None:
        self.suites.append((kind, warmup, [], []))
        self.test_index = 0

    def gaps(self) -> list[float]:
        """Seconds between consecutive executions after warm-up.

        Only model-based suites count: random search has no per-test model
        work, and mixing its ~0.5 ms gaps in would put the median on the
        boundary between two clusters.
        """
        out = []
        for kind, warmup, enters, exits in self.suites:
            if kind in MODEL_KINDS:
                out.extend(enters[i] - exits[i - 1] for i in range(max(warmup, 1), len(enters)))
        return out

    def tests(self) -> int:
        return sum(len(s[2]) for s in self.suites)


class TimingSut:
    """SutInterface wrapper that timestamps each execution and advances the test index."""

    def __init__(self, inner: Any, log: ExecutionLog) -> None:
        self.inner = inner
        self.enters = log.suites[-1][2]
        self.exits = log.suites[-1][3]
        self.log = log

    def measure(self, space, test_input):
        self.enters.append(perf_counter())
        try:
            return self.inner.measure(space, test_input)
        finally:
            self.exits.append(perf_counter())
            self.log.test_index += 1


@dataclass
class Unit:
    """One executed unit: its suites, timing and (sweep) output files."""

    seed: int
    seconds: float = 0.0
    suites: list[tuple[Any, Any]] = field(default_factory=list)  # (variant, TestSuite)
    outputs: list[dict[str, bytes]] = field(default_factory=list)
    error: str | None = None


def suite_digest(suite) -> str:
    h = hashlib.sha256()
    for r in suite.records:
        h.update(
            f"{r.test_index},{','.join(map(str, r.input))},{r.power!r},"
            f"{r.fitness!r},{r.inner_iterations},{r.candidate_trials}\n".encode()
        )
    return h.hexdigest()


class Workload:
    """A named workload bound to a checkout (`root`) and a scratch directory."""

    def __init__(self, name: str, root: Path, workdir: Path, budget: int | None = None):
        self.name = name
        self.spec = SPECS[name]
        self.root = root
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self._write_config(budget)
        self.cfg = harness.load_config(self.config_path)
        self.variants = list(self.cfg.algorithms)
        self.log = ExecutionLog()
        self._prefixes: dict[tuple[int, int], list] = {}
        self._oracle: tuple[np.ndarray, np.ndarray] | None = None

    # -- configuration and unit pool --------------------------------------

    def _write_config(self, budget: int | None) -> Path:
        """The workload's variants of the source config, as their own file."""
        source = self.root / self.spec.config
        raw = json.loads(source.read_text(encoding="utf-8"))
        labels = [v.label for v in harness.load_config(source).algorithms]
        raw["algorithms"] = [
            dict(a, **({"budget": budget} if budget is not None else {}))
            for a, label in zip(raw["algorithms"], labels)
            if label in self.spec.labels
        ]
        if self.spec.target_density is not None:
            del raw["sut"]["gain"]
            raw["sut"]["target_density"] = self.spec.target_density
        if self.spec.compare_runs:
            raw["runs"] = self.spec.compare_runs
        path = self.workdir / f"{self.name}.json"
        path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
        return path

    def pool_seed(self, unit: int) -> int:
        return derive_run_seed(self.cfg.master_seed, unit)

    def strata_units(self, fingerprint: list[dict], bench_seed: int) -> list[dict]:
        """One pool entry per cost stratum, cheapest stratum first.

        Odd strata are walked from their dear end, so a seed that draws a
        cheap unit in one stratum draws a dear one in the next and every
        run costs about the same.
        """
        if sorted(e["unit"] for e in fingerprint) != list(range(self.spec.pool)):
            raise ValueError(f"fingerprint for {self.name} does not cover its pool")
        ordered = sorted(fingerprint, key=lambda e: (e["passes"], e["unit"]))
        n = UNITS_PER_STRATUM
        return [
            ordered[k * n + (bench_seed if k % 2 == 0 else n - 1 - bench_seed) % n]
            for k in range(self.spec.strata)
        ]

    # -- running ----------------------------------------------------------

    def setup_seconds(self) -> tuple[float, dict]:
        """Import, load_config (with calibration) and network init, median of repeats."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        imports = []
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE], cwd=self.root, env=env,
                capture_output=True, text=True, timeout=120, check=True,
            )
            imports.append(float(proc.stdout.strip().splitlines()[-1]))
        inits = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            cfg = harness.load_config(self.config_path)
            for v in cfg.algorithms:
                rng = stream_rng(0, "net-init")
                if v.kind == "ogan":
                    gan.init_gan(v.config.gan, rng)
                elif v.kind == "dn":
                    nn.init_network(gan.DISCRIMINATOR_TOPOLOGY, rng)
            inits.append(perf_counter() - t0)
        imp, ini = statistics.median(imports), statistics.median(inits)
        return imp + ini, {"import_s": imp, "config_and_init_s": ini}

    def warm_up(self, seed: int) -> None:
        """A short run of each variant, so caches and allocators settle before timing."""
        for v in self.variants:
            short = replace(v.config, budget=min(v.config.budget, v.config.warmup + WARMUP_EXTRA_TESTS))
            getattr(generators, f"run_{v.kind}")(
                self.cfg.space, self.cfg.sut, self.cfg.fitness, short, seed
            )

    def run_unit(self, seed: int) -> Unit:
        unit = Unit(seed=seed)
        try:
            if self.spec.compare_runs:
                self._run_compare_pair(unit)
            else:
                for v in self.variants:
                    runner = getattr(generators, f"run_{v.kind}")
                    self.log.start_suite(v.kind, v.config.warmup)
                    sut = TimingSut(self.cfg.sut, self.log)
                    t0 = perf_counter()
                    suite = runner(self.cfg.space, sut, self.cfg.fitness, v.config, seed)
                    unit.seconds += perf_counter() - t0
                    unit.suites.append((v, suite))
        except Exception:  # a failing program is a failed unit, not a crashed benchmark
            unit.error = traceback.format_exc()
        return unit

    def _run_compare_pair(self, unit: Unit) -> None:
        by_kind = {v.kind: v for v in self.variants}
        log = self.log

        def timed_runner(kind, original):
            def run(space, sut, spec, cfg, seed, *args, **kwargs):
                log.start_suite(kind, cfg.warmup)
                suite = original(space, TimingSut(sut, log), spec, cfg, seed, *args, **kwargs)
                unit.suites.append((by_kind[kind], suite))
                return suite
            return run

        originals = {k: getattr(generators, f"run_{k}") for k in by_kind}
        for twin in ("a", "b"):
            out = self.workdir / f"compare-{twin}"
            shutil.rmtree(out, ignore_errors=True)
            undo = []
            for kind, original in originals.items():
                undo.extend(rebind(original, timed_runner(kind, original)))
            try:
                t0 = perf_counter()
                rc = cli.main([
                    "compare", "--config", str(self.config_path), "--out", str(out),
                    "--master-seed", str(unit.seed),
                ])
                unit.seconds += perf_counter() - t0
            finally:
                restore(undo)
            if rc != 0:
                raise RuntimeError(f"perfgan compare exited with {rc}")
            unit.outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            shutil.rmtree(out)

    # -- checking ---------------------------------------------------------

    def oracle(self) -> tuple[np.ndarray, np.ndarray]:
        """Power of every input (rank order) and the positive mask."""
        if self._oracle is None:
            grid = self.cfg.sut.power_grid(self.cfg.space)
            self._oracle = (grid, grid >= self.cfg.fitness.p_m)
        return self._oracle

    def warm_prefix(self, seed: int, warmup: int) -> list:
        """The shared warm-up: what random search executes first with this seed."""
        key = (seed, warmup)
        if key not in self._prefixes:
            cfg = AlgorithmConfig(budget=warmup, warmup=warmup)
            suite = generators.run_random(self.cfg.space, self.cfg.sut, self.cfg.fitness, cfg, seed)
            self._prefixes[key] = [r.input for r in suite.records]
        return self._prefixes[key]

    def suite_problems(self, variant, seed: int, suite) -> list[str]:
        cfg, label = variant.config, variant.label
        records = suite.records
        inputs = [r.input for r in records]
        problems = []
        if len(records) != cfg.budget or len(set(inputs)) != cfg.budget:
            problems.append(f"{label}: {len(set(inputs))} distinct of {len(records)} inputs, budget {cfg.budget}")
        if [r.test_index for r in records] != list(range(len(records))):
            problems.append(f"{label}: test_index is not 0..n-1")
        grid, positive = self.oracle()
        if records:
            ranks = np.ravel_multi_index(np.array(inputs).T, self.cfg.space.level_counts)
            powers = np.array([r.power for r in records])
            if not np.allclose(powers, grid[ranks], rtol=0.0, atol=POWER_ATOL):
                problems.append(f"{label}: power differs from power_grid")
            p_m = self.cfg.fitness.p_m
            if any(r.fitness != min(1.0, r.power / p_m) for r in records):
                problems.append(f"{label}: fitness is not min(1, power/p_m)")
            fit1 = np.array([r.fitness == 1.0 for r in records])
            if not positive[ranks[fit1]].all():
                problems.append(f"{label}: a fitness-1 input is outside the oracle set")
        if inputs[: cfg.warmup] != self.warm_prefix(seed, cfg.warmup):
            problems.append(f"{label}: warm-up prefix differs from the shared warm-up")
        if variant.kind == "ogan" and any(r.candidate_trials != r.inner_iterations for r in records):
            problems.append(f"{label}: candidate_trials != inner_iterations")
        return problems

    def fingerprint(self, unit: Unit) -> dict:
        """Yield fingerprint of a unit (its first compare invocation for sweep)."""
        suites = unit.suites[: len(unit.suites) // len(unit.outputs)] if unit.outputs else unit.suites
        if unit.outputs:
            digest = hashlib.sha256(unit.outputs[0]["tests.csv"]).hexdigest()
        else:
            digest = hashlib.sha256("".join(suite_digest(s) for _, s in suites).encode()).hexdigest()
        return {
            "positives": [sum(r.fitness == 1.0 for r in s.records) for _, s in suites],
            "passes": sum(
                r.inner_iterations for v, s in suites for r in s.records
                if r.test_index >= v.config.warmup
            ),
            "sha256": digest,
        }

    def unit_problems(self, unit: Unit, expected: dict | None) -> list[str]:
        """Every check a unit must pass; `expected` is its fingerprint entry."""
        if unit.error is not None:
            return [unit.error.strip().splitlines()[-1]]
        problems = []
        seeds = [unit.seed] * len(unit.suites)
        if unit.outputs:
            # compare runs its variants over derived per-run seeds
            runs = self.spec.compare_runs
            run_seeds = [derive_run_seed(unit.seed, i) for i in range(runs)]
            seeds = (run_seeds * (len(unit.suites) // runs))
            if len(unit.outputs) != 2 or unit.outputs[0] != unit.outputs[1]:
                problems.append("two compare invocations wrote different files")
            summary = json.loads(unit.outputs[0]["summary.json"])
            if summary["oracle"]["positive_count"] != int(self.oracle()[1].sum()):
                problems.append("summary.json oracle positive count differs from the oracle")
        for (variant, suite), seed in zip(unit.suites, seeds):
            problems.extend(self.suite_problems(variant, seed, suite))
        if expected is not None:
            got = self.fingerprint(unit)
            for key in ("positives", "sha256"):
                if got[key] != expected[key]:
                    problems.append(f"yield fingerprint {key}: {got[key]} != recorded {expected[key]}")
        return problems


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINT_PATH.read_text(encoding="utf-8"))


def interleave(items: list) -> list:
    """Cheapest, dearest, next cheapest, ...: a cut-short cycle stays mixed."""
    n = len(items)
    return [items[k] for k in sorted(range(n), key=lambda k: min(k, n - 1 - k))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def run(name: str, bench_seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """Run one workload; returns (detail, result) where result is the contract line."""
    workdir = root / ".perfbench_out" / f"work-{name}-{bench_seed}-{os.getpid()}"
    try:
        workload = Workload(name, root, workdir)
        fingerprints = {e["seed"]: e for e in load_fingerprints()[name]}
        strata = workload.strata_units(list(fingerprints.values()), bench_seed)
        if trace:
            traced_seed = strata[len(strata) // 2]["seed"]
            workload.warm_up(traced_seed)
            return _run_traced(workload, traced_seed, seconds, fingerprints, root, bench_seed)
        setup_s, setup_detail = workload.setup_seconds()
        cycle = [e["seed"] for e in interleave(strata)]
        workload.warm_up(cycle[0])
        units = _measure(workload, cycle, seconds)
        rss = peak_rss_mb()  # before the checks allocate the oracle grid
        problems = [workload.unit_problems(u, fingerprints.get(u.seed)) for u in units]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for p in problems if p)
    gaps = [1000.0 * g for g in workload.log.gaps()]
    tests = workload.log.tests()
    total_s = sum(u.seconds for u in units)
    positives = [p for u in units if u.error is None for p in workload.fingerprint(u)["positives"]]
    e2e = {
        "tests_per_s": (tests / total_s if total_s else 0.0, "1/s"),
        "gap_ms_p50": (float(np.percentile(gaps, 50)) if gaps else 0.0, "ms"),
        "gap_ms_p90": (float(np.percentile(gaps, 90)) if gaps else 0.0, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "positives_per_run": (statistics.fmean(positives) if positives else 0.0, "count"),
        "failed_runs_ratio": (failed / len(units), "ratio"),
    }
    detail = {
        "workload": name,
        "seed": bench_seed,
        "machine": machine_facts(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "gap_samples": len(gaps),
        "tests": tests,
        "measured_s": total_s,
        "setup": setup_detail,
        "units": [
            {"seed": u.seed, "seconds": u.seconds, "problems": p}
            for u, p in zip(units, problems)
        ],
    }
    reported = ("tests_per_s", "gap_ms_p50", "gap_ms_p90", "setup_s", "peak_rss_mb")
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in reported},
    }
    return detail, result


def _measure(workload: Workload, cycle: list[int], seconds: float) -> list[Unit]:
    """Whole units, at least one, ending at the unit boundary nearest `seconds`."""
    units: list[Unit] = []
    start = perf_counter()
    while True:
        if units:
            typical = statistics.median(u.seconds for u in units)
            if seconds - (perf_counter() - start) < typical / 2:
                break
        unit = workload.run_unit(cycle[len(units) % len(cycle)])
        if unit.error is not None and not any(u.error for u in units):
            print(unit.error, file=sys.stderr)
        units.append(unit)
    return units


def _run_traced(workload: Workload, seed: int, seconds: float, fingerprints: dict,
                root: Path, bench_seed: int) -> tuple[dict, dict]:
    """Alternate untraced and traced runs of one unit; report per-layer metrics."""
    tracer = Tracer(workload.log)
    plain: list[Unit] = []
    traced: list[Unit] = []
    start = perf_counter()
    while not traced or seconds - (perf_counter() - start) >= (plain[-1].seconds + traced[-1].seconds) / 2:
        plain.append(workload.run_unit(seed))
        with tracer.installed():
            traced.append(workload.run_unit(seed))

    expected = fingerprints.get(seed)
    problems = [workload.unit_problems(u, expected) for u in plain + traced]
    reference = workload.fingerprint(plain[0]) if plain[0].error is None else None
    spans = tracer.summary()
    for rep, unit in enumerate(traced):
        mine = problems[len(plain) + rep]
        if unit.error is None and workload.fingerprint(unit) != reference:
            mine.append("tracing changed the executed suite")
        mine.extend(
            f"{name}: {s['calls'][rep]} calls in traced run {rep}, {s['calls'][0]} in run 0"
            for name, s in spans.items() if s["calls"][rep] != s["calls"][0]
        )

    metrics: dict[str, tuple[float, str]] = {}
    for name, s in spans.items():
        if name in RUNNER_FUNCTIONS:
            continue
        metrics[f"{name}.calls"] = (s["calls"][0], "count")
        metrics[f"{name}.self_ms"] = (1000.0 * statistics.median(s["self_s"]), "ms")
        p50 = float(np.median(s["durations"])) * 1e6 if len(s["durations"]) else 0.0
        metrics[f"{name}.us_p50"] = (p50, "us")
    runner_self = [sum(spans[n]["self_s"][r] for n in RUNNER_FUNCTIONS) for r in range(len(traced))]
    metrics["generators.self_ms"] = (1000.0 * statistics.median(runner_self), "ms")
    suites = traced[0].suites
    post = [r for v, s in suites for r in s.records if r.test_index >= v.config.warmup]
    metrics["generators.passes"] = (sum(r.inner_iterations for r in post), "count")
    metrics["generators.candidate_trials"] = (sum(r.candidate_trials for r in post), "count")
    proposals = spans["gan.sample_candidates"]["calls"][0]
    metrics["generators.novel_ratio"] = (
        spans["gan.predict_fitness"]["calls"][0] / proposals if proposals else 0.0, "ratio"
    )
    metrics["generators.fallback_tests"] = (
        sum(r.inner_iterations > v.config.fallback_after for v, s in suites for r in s.records),
        "count",
    )
    positives = [sum(r.fitness == 1.0 for r in s.records) for _, s in suites]
    metrics["yield.positives_per_run"] = (statistics.fmean(positives) if positives else 0.0, "count")
    plain_s = statistics.median(u.seconds for u in plain)
    traced_s = statistics.median(u.seconds for u in traced)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0) if plain_s else 0.0, "%")

    header = {
        "workload": workload.name,
        "seed": bench_seed,
        "unit_seed": seed,
        "machine": machine_facts(),
        "untraced_s": [u.seconds for u in plain],
        "traced_s": [u.seconds for u in traced],
    }
    out_dir = root / ".perfbench_out"
    tracer.write(out_dir / f"spans-{workload.name}-seed{bench_seed}.npz", json.dumps(header))
    failed = sum(1 for p in problems if p)
    detail = dict(header, problems=problems, spans=len(tracer.start))
    result = {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result
