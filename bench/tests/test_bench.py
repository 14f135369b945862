"""Tests of the benchmark itself: every workload end to end, and every check
failing on a doctored artifact.

    python3 -m pytest bench/tests -q

The workload runs use ``--seconds 1``, which still runs the minimum of
two whole training rounds with every check (about 80 s in all).
"""
from __future__ import annotations

import json
import math
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

from tavat.data import UNK, build_dataset, tagging_tag_names  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_passes_every_check(workload, tmp_path):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    out = last_json(proc)
    assert out["correct"], proc.stderr
    assert out["failed"] == 0 and out["attempted"] > 0
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(out["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in out["metrics"].items())
    value = {k: v["value"] for k, v in out["metrics"].items()}
    # layers that run report work; the adversary and vocabulary are idle on the clean run
    for name in ("tensor.backward.ms", "tensor.tape.nodes", "tensor.eval.nodes",
                 "model.predict.ms", "train.optimizer_step.ms", "data.build_dataset.ms",
                 "adv.instance_step.ms", "tensor.fwd.matmul.ms"):
        assert value[name] > 0, name
    adv_cfg = make_config(workload, 7, tmp_path).adv
    for name in ("adv.token_step.ms", "vocab.gather.ms", "vocab.scatter.ms",
                 "vocab.scatter.rows_written", "vocab.save_vocabulary.bytes"):
        assert (value[name] > 0) == adv_cfg.use_vocab, name
    assert value["adv.inner_steps"] == adv_cfg.K
    traced = json.loads(proc.stdout.strip().splitlines()[-2])["traced_end_to_end"]
    assert sorted(traced) == sorted(m["name"] for m in SPEC["end_to_end"])


def test_untraced_run_prints_every_end_to_end_metric():
    out = last_json(bench("--workload", "small-tavat", "--seed", "8", "--seconds", "1",
                          "--trace", "0"))
    assert out["correct"] and out["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_run_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    proc = bench("--workload", "small-tavat", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# ---------------------------------------------------------------------------
# each check against a doctored copy of a real artifact

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    work = tmp_path_factory.mktemp("artifacts")
    config = make_config("small-tavat", 5, work)
    config.epochs = 2
    timer, result, _, _ = harness._timed_train(config, "run", abort=False)
    _, train_ex, _, _ = build_dataset(config.dataset, seed=config.seeds.data)
    return config, timer, result, train_ex


def doctored(path: Path, tmp_path: Path, edit) -> Path:
    copy = tmp_path / path.name
    data = bytearray(path.read_bytes())
    edit(data)
    copy.write_bytes(bytes(data))
    return copy


def test_same_seed_gives_same_bytes_in_a_fresh_process(trained, tmp_path):
    _, _, result, _ = trained
    script = f"""
import sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(BENCH)!r}]
from pathlib import Path
import checks, harness
from workloads import make_config
config = make_config("small-tavat", 5, Path({str(tmp_path)!r}))
config.epochs = 2
_, result, _, _ = harness._timed_train(config, "run", abort=False)
print(checks.sha256(result.checkpoint_path), checks.sha256(result.vocab_path),
      repr(result.dev_metric))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [checks.sha256(result.checkpoint_path),
                                   checks.sha256(result.vocab_path), repr(result.dev_metric)]


def test_metrics_stream_checks(trained, tmp_path):
    config, _, result, train_ex = trained
    adv = config.adv
    steps = math.ceil(len(train_ex) / config.batch_size)

    def run_check(path):
        checks.check_metrics_stream(path, config.epochs, steps, adv.K, adv.epsilon,
                                    adv.eta_bound)

    run_check(result.metrics_path)
    lines = result.metrics_path.read_text().splitlines()

    def rewrite(edit):
        records = [json.loads(line) for line in lines]
        edit(records)
        path = tmp_path / "metrics.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def step(records):
        return next(r for r in records if r["kind"] == "step")

    for edit in (lambda rs: step(rs).update(delta_norm_max=adv.epsilon * 1.001),
                 lambda rs: step(rs).update(eta_norm_max=adv.eta_bound * 1.001),
                 lambda rs: step(rs)["losses"].__setitem__(0, float("nan")),
                 lambda rs: rs.remove(step(rs)),
                 lambda rs: rs.remove(next(r for r in rs if r["kind"] == "eval"))):
        with pytest.raises(checks.CheckFailed):
            run_check(rewrite(edit))


def test_vocabulary_checks(trained, tmp_path):
    config, timer, result, _ = trained
    adv, dim = config.adv, result.model.config.dim
    table = checks.check_vocabulary(result.vocab_path, result.tokenizer_fingerprint, dim,
                                    adv.eta_bound)
    with pytest.raises(checks.CheckFailed):
        checks.check_vocabulary(result.vocab_path, "0" * 64, dim, adv.eta_bound)
    offset = 16                                   # magic, version, N, D
    row = max(timer.trained_ids)

    def push_past_epsilon(data):
        start = offset + 8 * dim * row
        values = np.frombuffer(bytes(data[start:start + 8 * dim]), dtype="<f8")
        pushed = values * (adv.eta_bound * 1.01 / np.linalg.norm(values))
        data[start:start + 8 * dim] = pushed.astype("<f8").tobytes()

    def pad_row_nonzero(data):
        data[offset:offset + 8] = struct.pack("<d", 1e-3)

    for edit in (push_past_epsilon, pad_row_nonzero):
        with pytest.raises(checks.CheckFailed):
            checks.check_vocabulary(doctored(result.vocab_path, tmp_path, edit),
                                    result.tokenizer_fingerprint, dim, adv.eta_bound)

    trained_ids = np.array(sorted(timer.trained_ids))
    none = np.array([], dtype=np.int64)
    checks.check_untouched_rows(table, trained_ids, config.seeds.adversarial, adv.sigma,
                                none, need_dev_only=False)
    moved = table.copy()
    moved[UNK, 0] += 1e-15
    with pytest.raises(checks.CheckFailed):
        checks.check_untouched_rows(moved, trained_ids, config.seeds.adversarial, adv.sigma,
                                    none, need_dev_only=False)
    with pytest.raises(checks.CheckFailed):           # a draw from another seed
        checks.check_untouched_rows(table, trained_ids, config.seeds.adversarial + 1,
                                    adv.sigma, none, need_dev_only=False)
    with pytest.raises(checks.CheckFailed):
        checks.check_untouched_rows(table, trained_ids, config.seeds.adversarial, adv.sigma,
                                    none, need_dev_only=True)


def test_checkpoint_and_round_checks(trained, tmp_path):
    _, _, result, _ = trained
    path = result.checkpoint_path
    checks.check_checkpoint(path, result.model)

    def flip_last_byte(data):
        data[-1] ^= 0x01

    flipped = doctored(path, tmp_path, flip_last_byte)
    with pytest.raises(checks.CheckFailed):
        checks.check_checkpoint(flipped, result.model)
    same = (checks.sha256(path), None, result.dev_metric)
    checks.check_rounds_agree([same, same])
    with pytest.raises(checks.CheckFailed):
        checks.check_rounds_agree([same, (checks.sha256(flipped), None, result.dev_metric)])
    with pytest.raises(checks.CheckFailed):
        checks.check_rounds_agree([same, (same[0], None, result.dev_metric + 1e-9)])


def test_metric_and_count_checks(trained):
    config, timer, result, train_ex = trained
    lengths = [min(len(ex.tokens), config.max_len - 2) + 2 for ex in train_ex]
    checks.check_token_count(timer.tokens, lengths, config.epochs)
    with pytest.raises(checks.CheckFailed):
        checks.check_token_count(timer.tokens - 1, lengths, config.epochs)

    checks.check_dev_metric(0.75, 0.75)
    with pytest.raises(checks.CheckFailed):
        checks.check_dev_metric(0.75, 0.75 + 1e-9)
    labels = np.array([0, 0, 0, 1])
    checks.check_beats_majority(0.8, labels)
    with pytest.raises(checks.CheckFailed):
        checks.check_beats_majority(0.75, labels)
    checks.check_first_loss(0.5, 0.5)
    with pytest.raises(checks.CheckFailed):
        checks.check_first_loss(0.5, math.nextafter(0.5, 1.0))


def test_own_span_f1_matches_the_definition():
    names = tagging_tag_names()                   # O, B-T0, I-T0, B-T1, I-T1
    # a stray I- opens a span; an I- of another type closes one and opens another
    assert checks.own_spans([0, 1, 2, 0, 2, 4, 3], names) == {
        (1, 3, "T0"), (4, 5, "T0"), (5, 6, "T1"), (6, 7, "T1")}
    assert checks.own_spans([0, 0], names) == set()
