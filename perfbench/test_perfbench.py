"""Self-test of the benchmark: tracing must not perturb what perfgan does.

    python3 -m pytest perfbench/test_perfbench.py

Uses tiny budgets, so it runs in seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY_BUDGET = 56  # six tests past the 50-test warm-up


@pytest.fixture(params=sorted(workloads.SPECS))
def workload(request, tmp_path):
    return workloads.Workload(request.param, ROOT, tmp_path, budget=TINY_BUDGET)


def traced_run(workload, tracer, seed):
    with tracer.installed():
        return workload.run_unit(seed)


def test_traced_and_untraced_runs_execute_identical_suites(workload):
    seed = workload.pool_seed(0)
    plain = workload.run_unit(seed)
    traced = traced_run(workload, Tracer(workload.log), seed)
    assert workload.unit_problems(plain, None) == []
    assert workload.unit_problems(traced, None) == []
    assert workload.fingerprint(traced) == workload.fingerprint(plain)
    assert [s.records for _, s in traced.suites] == [s.records for _, s in plain.suites]


def test_call_counts_repeat_exactly(workload):
    tracer = Tracer(workload.log)
    seed = workload.pool_seed(1)
    traced_run(workload, tracer, seed)
    traced_run(workload, tracer, seed)
    calls = {name: s["calls"] for name, s in tracer.summary().items()}
    assert all(first == second for first, second in calls.values()), calls
    assert calls["sut.measure"][0] == TINY_BUDGET * len(workload.log.suites) // 2
    assert calls["space.sample_uniform"][0] > 0


def perfgan_bindings() -> dict:
    """Every name a perfgan module binds, module-level dict entries included."""
    from perfgan.sut import SyntheticSut

    found = {("SyntheticSut", k): v for k, v in vars(SyntheticSut).items()}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "perfgan" or mod_name.startswith("perfgan."):
            for key, value in vars(module).items():
                found[(mod_name, key)] = value
                if isinstance(value, dict) and not key.startswith("__"):
                    found.update({(mod_name, key, k): v for k, v in value.items()})
    return found


def test_tracer_restores_every_binding(workload):
    before = perfgan_bindings()
    traced_run(workload, Tracer(workload.log), workload.pool_seed(0))
    after = perfgan_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_removed_function_reports_zero_calls(workload):
    tracer = Tracer(workload.log, targets=("space.no_such_function", "nn.forward"))
    traced_run(workload, tracer, workload.pool_seed(0))
    summary = tracer.summary()
    assert summary["space.no_such_function"]["calls"] == [0]
    assert summary["nn.forward"]["calls"][0] > 0
