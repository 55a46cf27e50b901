"""perfgan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ogan --seed 0 --seconds 50 --trace 0

Run from the root of a checkout. The second-to-last line of standard
output is a JSON detail record (machine facts, every unit, all seven
end-to-end metrics with units); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a traced run. Exits non-zero, printing no result, when perfgan
cannot be imported from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ogan", "dn_wide", "sweep")
# Single-threaded BLAS: on a 2-core machine it ran faster than two threads
# and no less steadily, and it keeps the benchmark within the core count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def use_checkout() -> None:
    """Pin BLAS threads (before numpy loads) and import perfgan from src/."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    use_checkout()
    try:
        import perfgan
    except ImportError as exc:
        print(f"perfbench: cannot import perfgan from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(perfgan.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: perfgan was imported from {perfgan.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not (ROOT / "configs").is_dir():
        print(f"perfbench: no configs/ directory in {ROOT}", file=sys.stderr)
        return 2

    import workloads

    detail, result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
