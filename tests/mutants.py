"""One-line semantic errors the test suite must catch, and a driver that checks it.

    python tests/mutants.py                  # every mutant
    python tests/mutants.py adam-bias sgd-sign   # the named ones
    python tests/mutants.py --full           # tier-1 for every mutant

Each mutant replaces one snippet of ``src/`` (it must occur exactly once)
with another, and names the test that kills it. This script copies the
working tree's tracked and unignored files to a temporary directory,
checks that tier-1 passes there unmutated, then applies each mutant in
turn and runs its killer. Only a mutant its killer does not kill (or one
that names none) runs tier-1 without ``tests/test_golden.py``, stopping at
the first failure, and the script prints the test that failed there as
the killer to record. ``--full`` runs that tier-1 for every mutant. A
mutant that is not marked equivalent must make a test fail; one that
passes is reported and the script exits 1. ``tests/test_golden.py`` is
left out because it pins whole-run bytes and would catch nearly any
change: the point is that some other test names the error.
``tests/test_mutants.py`` is left out because it fails under any
mutant: it checks that each ``old`` snippet is in ``src/``. Pytest does
not collect this file.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    equivalent: str | None = None       # why no test can tell it apart, if none can
    killer: str | None = None           # the pytest id of a test that fails under it


CONFIG_CHECK = (
    '        if not isinstance(raw, dict):\n'
    '            raise ValueError(f"a config is a JSON object, not {JSON_TYPES[type(raw)]}")\n')
CONFIG_FLAGS = (
    '        for name in ("epochs", "batch_size", "lr", "out_dir", "run_name", "optimizer",\n'
    '                     "init_embedding_from_vocab"):\n'
    '            value = getattr(args, name, None)\n'
    '            if value is not None:\n'
    '                raw[name] = value\n'
    '        if getattr(args, "mode", None):\n'
    '            raw["adv"] = {**raw.get("adv", {}), **MODES[args.mode]}\n')

MUTANTS = [
    # the whole-run errors that only the golden bytes caught before the padding
    # and epoch-order oracles
    Mutant("same-order-every-epoch", "src/tavat/train.py",
           "seed=cfg.seeds.data + epoch, shuffle=True)", "seed=cfg.seeds.data, shuffle=True)",
           killer="tests/test_train.py::TestMetricsStream::"
                  "test_each_epoch_steps_on_its_own_shuffle"),
    Mutant("tagging-loss-counts-padding", "src/tavat/model.py",
           "T.cross_entropy_loss(logits, batch.labels, mask=batch.mask)",
           "T.cross_entropy_loss(logits, batch.labels)",
           killer="tests/test_model.py::TestForward::"
                  "test_padding_changes_no_logit_loss_or_gradient"),
    Mutant("pooled-mean-over-padded-length", "src/tavat/model.py",
           "inv_len = (1.0 / mask.sum(axis=1))[:, None]",
           "inv_len = np.full((mask.shape[0], 1), 1.0 / mask.shape[1])",
           killer="tests/test_model.py::TestForward::"
                  "test_padding_changes_no_logit_loss_or_gradient"),
    # the row-sparse gradient and its updates
    Mutant("row-sum-cells-without-columns", "src/tavat/tensor.py",
           "cells = (slot.reshape(-1, 1) * dim + np.arange(dim)).reshape(-1)",
           "cells = (slot.reshape(-1, 1) * dim + np.zeros(dim, dtype=int)).reshape(-1)",
           killer="tests/test_tensor.py::TestRowGradient::"
                  "test_lookup_gradient_matches_dense_scatter"),
    Mutant("adam-row-add-before-decay", "src/tavat/train.py",
           "            m *= self.BETA1\n"
           "            v *= self.BETA2\n"
           "            m[rows] += (1 - self.BETA1) * g\n",
           "            m[rows] += (1 - self.BETA1) * g\n"
           "            m *= self.BETA1\n"
           "            v *= self.BETA2\n",
           killer="tests/test_train.py::TestAdam::"
                  "test_in_place_step_matches_the_dense_expression_bitwise"),
    Mutant("adam-first-moment-with-beta2", "src/tavat/train.py",
           "m[rows] += (1 - self.BETA1) * g", "m[rows] += (1 - self.BETA2) * g",
           killer="tests/test_train.py::TestAdam::"
                  "test_in_place_step_matches_the_dense_expression_bitwise"),
    Mutant("adam-second-moment-decay-with-beta1", "src/tavat/train.py",
           "            v *= self.BETA2\n", "            v *= self.BETA1\n",
           killer="tests/test_train.py::TestAdam::"
                  "test_in_place_step_matches_the_dense_expression_bitwise"),
    Mutant("sgd-sign", "src/tavat/train.py",
           "p[rows] -= self.lr * g", "p[rows] += self.lr * g",
           killer="tests/test_acceptance.py::TestAcceptance::test_c04_reduction_equivalence"),
    Mutant("sgd-rows-out-of-place", "src/tavat/train.py",
           "p[rows] -= self.lr * g", "p[rows] = p[rows] - self.lr * g",
           equivalent="the same subtraction, written back to the same rows of the same array"),
    Mutant("adam-bias", "src/tavat/train.py",
           "c1 = 1 - self.BETA1 ** self.t", "c1 = 1.0",
           killer="tests/test_train.py::TestAdam::"
                  "test_in_place_step_matches_the_dense_expression_bitwise"),
    # the object check below the flag loop: a JSON list fails on the first flag written
    Mutant("config-object-check-after-flags", "src/tavat/cli.py",
           CONFIG_CHECK + CONFIG_FLAGS, CONFIG_FLAGS + CONFIG_CHECK,
           killer="tests/test_train.py::TestCLI::"
                  "test_foreign_input_exits_with_one_line_naming_the_file[train-config-json-list]"),
    Mutant("delimited-line-of-record-start", "src/tavat/data.py",
           'f"{path}:{reader.line_num}: unknown label',
           'f"{path}:{len(examples) + 1}: unknown label',
           killer="tests/test_data.py::TestDelimited::"
                  "test_line_number_counts_the_lines_of_a_quoted_field"),
    # the flat buffer of the dense parameters and the exact fast paths of narrow rows
    Mutant("packed-view-offset-by-one", "src/tavat/tensor.py",
           "            start += size\n", "            start += size - 1\n",
           killer="tests/test_acceptance.py::TestAcceptance::test_c04_reduction_equivalence"),
    # moments given before the first step (Packed buffers) replaced by zeros
    Mutant("adam-packed-moments-start-at-zero", "src/tavat/train.py",
           "        if not self.m:\n", "        if self.t == 0:\n",
           killer="tests/test_train.py::TestAdam::"
                  "test_row_gradient_steps_like_its_dense_form_bitwise"),
    Mutant("accumulated-packed-finite-unchecked", "src/tavat/adv.py",
           "cleared = {name for name, _ in self.layout} if np.isfinite(self.sums.flat).all() else ()",
           "cleared = {name for name, _ in self.layout}",
           killer="tests/test_adv.py::TestBatchStep::"
                  "test_non_finite_parameter_gradient_aborts_before_any_update"),
    # a loaded or snapshot model's dense parameters kept beside the buffer the optimizer steps
    Mutant("explicit-parameters-outside-the-buffer", "src/tavat/model.py",
           "            if name in self.dense:\n",
           "            if name in self.dense and params is None:\n",
           killer="tests/test_model.py::TestDeterminismAndSnapshot::"
                  "test_dense_parameters_are_views_of_one_buffer_however_built[snapshot]"),
    Mutant("softmax-max-over-columns", "src/tavat/tensor.py",
           "np.ascontiguousarray(np.moveaxis(x, -1, 0)).max(axis=0)",
           "np.ascontiguousarray(np.moveaxis(x, -2, 0)).max(axis=0)",
           killer="tests/test_acceptance.py::TestAcceptance::test_c01_gradient_correctness"),
    Mutant("same-rows-shortcut-by-length", "src/tavat/tensor.py",
           "if other.rows is self.rows:", "if other.rows.size == self.rows.size:",
           killer="tests/test_tensor.py::TestRowGradient::"
                  "test_arithmetic_matches_the_dense_expression"),
    # the adversary and the perturbation vocabulary
    Mutant("scaling-index-after-the-step", "src/tavat/adv.py",
           "new = scaling_index(p, mask)[:, :, None] * new",
           "new = scaling_index(new, mask)[:, :, None] * new",
           killer="tests/test_adv.py::TestTokenStep::test_two_token_toy_against_scalar_oracle"),
    Mutant("token-normalization-over-the-sequence", "src/tavat/adv.py",
           "axis=-1 if per_token else (-2, -1)", "axis=(-2, -1)",
           killer="tests/test_adv.py::TestTokenStep::test_two_token_toy_against_scalar_oracle"),
    Mutant("projection-radius", "src/tavat/adv.py",
           "return p * np.where(outside, epsilon / np.maximum(norms, NORM_FLOOR), 1.0)",
           "return p * np.where(outside, 2 * epsilon / np.maximum(norms, NORM_FLOOR), 1.0)",
           killer="tests/test_acceptance.py::TestAcceptance::test_c02_projection_suite"),
    Mutant("cold-start-index", "src/tavat/adv.py",
           "n = np.where(peak < NORM_FLOOR, 1.0,", "n = np.where(peak < NORM_FLOOR, 0.0,",
           killer="tests/test_acceptance.py::TestAcceptance::test_c03_scaling_index_suite"),
    Mutant("ascent-sign", "src/tavat/adv.py",
           "new = p + np.where(gnorm >= NORM_FLOOR,", "new = p - np.where(gnorm >= NORM_FLOOR,",
           killer="tests/test_acceptance.py::TestAcceptance::test_c05_inner_max_quality"),
    Mutant("init-scale", "src/tavat/adv.py",
           "out = rng.uniform(-sigma, sigma, size=tuple(shape)) / math.sqrt(dim)",
           "out = rng.uniform(-sigma, sigma, size=tuple(shape))",
           killer="tests/test_acceptance.py::TestAcceptance::test_c01_gradient_correctness"),
    Mutant("scatter-sum-not-mean", "src/tavat/adv.py",
           "means = sums / np.bincount(slot)[:, None]", "means = sums",
           killer="tests/test_acceptance.py::TestAcceptance::test_c07_vocabulary_lifecycle"),
    Mutant("scatter-unprojected", "src/tavat/adv.py",
           "vocab.table[rows] = project_frobenius(means[:, None, :], epsilon)[:, 0]",
           "vocab.table[rows] = means",
           killer="tests/test_vocab.py::TestScatter::"
                  "test_non_positive_epsilon_refused_before_any_write[0.0]"),
    Mutant("policy-inverted", "src/tavat/adv.py",
           'return ~listed if self.mode == "exclude" else listed',
           'return listed if self.mode == "exclude" else ~listed',
           killer="tests/test_adv.py::TestConfig::test_policy"),
    Mutant("policy-ignored", "src/tavat/adv.py",
           "keep = mask & (ids != PAD) & special_token_policy.permits(ids)",
           "keep = mask & (ids != PAD)",
           killer="tests/test_vocab.py::TestScatter::test_policy_excluded_id_untouched"),
    Mutant("unweighted-k-sum", "src/tavat/adv.py",
           "inv_k = 1.0 / cfg.K", "inv_k = 1.0",
           killer="tests/test_acceptance.py::TestAcceptance::test_c04_reduction_equivalence"),
    Mutant("attention-sees-padding", "src/tavat/model.py",
           "T.attention(q, k, v, mask, self.config.heads", "T.attention(q, k, v, mask | True, "
           "self.config.heads",
           killer="tests/test_model.py::TestForward::"
                  "test_padding_changes_no_logit_loss_or_gradient"),
    Mutant("warm-start-fingerprint-unchecked", "src/tavat/train.py",
           "expect_fingerprint=fingerprint)", "expect_fingerprint=None)",
           killer="tests/test_train.py::TestTrainBasics::test_fingerprint_guard_on_warm_start"),
    Mutant("no-step-zero-checkpoint", "src/tavat/train.py",
           "save_checkpoint(model, checkpoint_path)   # last-good from step zero", "pass",
           killer="tests/test_train.py::TestTrainBasics::"
                  "test_checkpoint_written_at_step_zero_and_each_epoch"),
    # the vocabulary saved only when the run ends: a stopped run pairs a new
    # checkpoint with an earlier run's vocabulary
    Mutant("vocabulary-saved-only-at-the-end", "src/tavat/train.py",
           "if vocab is not None:   # the checkpoint's pair",
           "if vocab is not None and epoch == cfg.epochs - 1:   # the checkpoint's pair",
           killer="tests/test_train.py::TestTrainBasics::"
                  "test_interrupted_run_leaves_a_checkpoint_and_vocabulary_pair"),
    # backward's worker thread
    Mutant("backward-join-skipped", "src/tavat/tensor.py",
           "        jobs[-1].done.acquire()\n", "",
           killer="tests/test_tensor.py::TestDeferredProducts::"
                  "test_worker_exception_is_raised_by_backward_and_the_next_backward_works"),
    Mutant("backward-pending-unbounded", "src/tavat/tensor.py",
           "if len(jobs) >= DEFER_MAX_PENDING:", "if False:",
           killer="tests/test_tensor.py::TestDeferredProducts::"
                  "test_backward_keeps_at_most_the_pending_bound_of_jobs_waiting"),
    Mutant("deferred-folded-after-inline", "src/tavat/tensor.py",
           "for t in terms]", "for t in sorted(terms, key=lambda t: type(t) is Deferred)]",
           killer="tests/test_tensor.py::TestDeferredProducts::"
                  "test_shared_weight_folds_its_contributions_in_vjp_order"),
    Mutant("defer-rule-inverted", "src/tavat/tensor.py",
           "contrib.size < DEFER_MIN_MADDS", "contrib.size >= DEFER_MIN_MADDS",
           killer="tests/test_tensor.py::TestDeferredProducts::"
                  "test_small_tavat_step_starts_no_thread"),
    Mutant("fork-keeps-the-parents-worker", "src/tavat/tensor.py",
           "os.register_at_fork(after_in_child=lambda: globals().update(_jobs=None))", "pass",
           killer="tests/test_tensor.py::TestDeferredProducts::"
                  "test_forked_child_runs_a_backward_to_the_same_bytes"),
    Mutant("worker-keeps-its-last-job", "src/tavat/tensor.py",
           "        job.fn = None       # drops the tape's arrays before the caller goes on\n", "",
           killer="tests/test_tensor.py::TestDeferredProducts::"
                  "test_map_does_not_keep_the_tape_alive_with_deferred_products"),
]


def export(dest: Path) -> None:
    """Copy the working tree's tracked and unignored files to ``dest``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode().split("\0")
    for rel in filter(None, listed):
        source = ROOT / rel
        if source.is_file():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / rel)


# the snippet test in tests/test_mutants.py fails under every mutant by design
TIER1 = ["--ignore=tests/test_golden.py", "--ignore=tests/test_mutants.py"]


def pytest_fails(tree: Path, args: list[str]) -> tuple[bool, str | None, str]:
    """Run pytest on ``args`` until the first failure: whether one failed, the
    id of the test that failed, and pytest's last line."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
                           "-p", "no:cacheprovider", "--continue-on-collection-errors", *args],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines() or [done.stderr.strip()]
    failed = [line.split(" ")[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode != 0, failed[0] if failed else None, lines[-1]


def main(argv: list[str]) -> int:
    full = "--full" in argv
    names = [a for a in argv if a != "--full"]
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        known = {m.name for m in MUTANTS}
        raise SystemExit(f"unknown mutants: {sorted(set(names) - known)}")
    survivors, new_killers = [], []
    started_all = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="tavat-mutants-") as tmp:
        tree = Path(tmp)
        export(tree)
        failed, _, last = pytest_fails(tree, TIER1)
        if failed:
            raise SystemExit(f"tier-1 fails before any mutant: {last}")
        for m in chosen:
            target = tree / m.path
            original = target.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                raise SystemExit(f"{m.name}: {m.old!r} occurs {original.count(m.old)} "
                                 f"times in {m.path}, not once")
            if m.equivalent:
                print(f"equivalent  {m.name}: {m.equivalent}", flush=True)
                continue
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            started = time.perf_counter()
            try:
                failed = False
                if m.killer and not full:
                    failed, killer, last = pytest_fails(tree, [m.killer])
                if not failed:
                    failed, killer, last = pytest_fails(tree, TIER1)
                    if failed and killer != m.killer:
                        new_killers.append(f"{m.name}: {killer}")
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = "killed" if failed else "SURVIVED"
            print(f"{verdict:<11} {m.name} ({time.perf_counter() - started:.0f} s) "
                  f"by {killer}: {last}", flush=True)
            if not failed:
                survivors.append(m.name)
    print(f"{time.perf_counter() - started_all:.0f} s in all")
    if new_killers:
        print("killers to record:\n  " + "\n  ".join(new_killers))
    if survivors:
        print(f"{len(survivors)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(chosen)} mutants killed or equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
