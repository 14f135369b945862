"""One epoch of two benchmark workloads reproduces the committed bytes.

``tests/golden.json`` holds, for ``small-tavat`` and ``tagging-clean`` at
seed 1 trained for one epoch from ``bench/workloads.make_config``, the
checkpoint sha256, the vocabulary sha256, ``repr`` of the dev metric and a
sha256 of the step, eval and summary records without ``wall_time``. A
change that moves any of them is a behaviour change: it rewrites the file
in the same commit, so the diff shows it
(``PYTHONPATH=src python tests/test_golden.py --write``). The bytes depend
on numpy and its BLAS, so under another environment the test fails and
names both.
"""
import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tavat.train import train

GOLDEN = Path(__file__).with_name("golden.json")
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
RUNS = ("small-tavat", "tagging-clean")
SEED = 1
EPOCHS = 1


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


def sha256(path) -> str | None:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest() if path else None


def fingerprint(name: str, work_dir: Path) -> dict:
    config = load_workloads().make_config(name, SEED, work_dir)
    result = train(dataclasses.replace(config, epochs=EPOCHS))
    records = []
    for line in Path(result.metrics_path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["kind"] in ("step", "eval", "summary"):
            record.pop("wall_time", None)
            records.append(json.dumps(record, sort_keys=True))
    return {"checkpoint_sha256": sha256(result.checkpoint_path),
            "vocabulary_sha256": sha256(result.vocab_path),
            "dev_metric": repr(result.dev_metric),
            "records_sha256": hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()}


@pytest.mark.parametrize("name", RUNS)
def test_run_reproduces_golden_bytes(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = environment()
    assert here == golden["environment"], (
        f"{GOLDEN.name} was recorded under {golden['environment']}; this run uses {here}")
    assert fingerprint(name, tmp_path) == golden["runs"][name], (
        f"{name} at seed {SEED}, {EPOCHS} epoch, differs from {GOLDEN.name} "
        f"(recorded under {golden['environment']}; this run uses {here})")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile
    runs = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as work_dir:
            runs[name] = fingerprint(name, Path(work_dir))
    GOLDEN.write_text(json.dumps({"environment": environment(), "runs": runs},
                                 indent=2, sort_keys=True) + "\n", encoding="utf-8")
