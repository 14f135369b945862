"""Training benchmark of the tavat engine.

    python3 bench/run.py --workload small-tavat --seed 1 --seconds 25 --trace 0

Runs one workload in this process with one driving thread and prints, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The program is imported from ``src/`` next to
this directory; the run exits non-zero without a result when it is not
there. Run directories and generated inputs go to ``bench/.work`` and are
removed when the run ends; traces stay there.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# one BLAS thread, fixed before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"


def _import_program():
    """Import tavat from this checkout's src/, never from anywhere else."""
    if not (SRC / "tavat" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program at {SRC / 'tavat'}")
    sys.path.insert(0, str(SRC))
    import tavat
    if not Path(tavat.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: tavat imported from {tavat.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import harness
    from tracing import unit_of
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")

    work_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                          work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": environment(), **out["info"]}))
    if out["failure"]:
        print(f"check failed: {out['failure']}", file=sys.stderr)
    if args.trace:
        # the traced run's own end-to-end figures, to set against an untraced run
        print(json.dumps({"traced_end_to_end": {k: v for k, (v, _) in out["end_to_end"].items()}}))
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(out["per_layer"], indent=1, sort_keys=True))
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in out["per_layer"].items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in out["end_to_end"].items()}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
