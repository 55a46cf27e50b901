"""Record the yield fingerprint of a workload's whole unit pool.

    python3 perfbench/record_fingerprint.py ogan [dn_wide sweep]

Runs every pool unit of each named workload untimed, refuses to record a
unit that fails any correctness check, and rewrites that workload's entry
in perfbench/fingerprint.json. The fingerprint pins what the algorithms
do: re-record it only for a change that is meant to alter yield, and say
so alongside the change.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import ROOT, use_checkout


def main(names: list[str]) -> int:
    use_checkout()
    import workloads

    path = workloads.FINGERPRINT_PATH
    for name in names:
        workdir = ROOT / ".perfbench_out" / f"record-{name}"
        workload = workloads.Workload(name, ROOT, workdir)
        entries = []
        for i in range(workload.spec.pool):
            seed = workload.pool_seed(i)
            unit = workload.run_unit(seed)
            problems = workload.unit_problems(unit, None)
            if problems:
                print(f"{name} unit {i} (seed {seed}) fails: {problems}", file=sys.stderr)
                return 1
            entries.append(dict(unit=i, seed=seed, **workload.fingerprint(unit)))
            print(f"{name} unit {i}: {entries[-1]}", file=sys.stderr, flush=True)
        shutil.rmtree(workdir)
        recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        recorded[name] = entries
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
