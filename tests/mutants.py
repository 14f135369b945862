"""One-line semantic errors the test suite must catch, and a driver that checks it.

    python tests/mutants.py                  # every mutant
    python tests/mutants.py adam-bias sgd-sign   # the named ones

Each mutant replaces one snippet of ``src/`` (it must occur exactly once)
with another. The driver copies the working tree's tracked and unignored
files to a temporary directory, checks that tier-1 passes there unmutated,
then applies each mutant in turn and runs tier-1 without
``tests/test_golden.py``, stopping at the first failure. A mutant that is
not marked equivalent must make a test fail; one that passes is reported
and the driver exits 1. ``tests/test_golden.py`` is left out because it
pins whole-run bytes and would catch nearly any change: the point is that
some other test names the error. Pytest does not collect this file.
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


MUTANTS = [
    # the whole-run errors that only the golden bytes caught before the padding
    # and epoch-order oracles
    Mutant("same-order-every-epoch", "src/tavat/train.py",
           "seed=cfg.seeds.data + epoch, shuffle=True)", "seed=cfg.seeds.data, shuffle=True)"),
    Mutant("tagging-loss-counts-padding", "src/tavat/model.py",
           "T.cross_entropy_loss(logits, batch.labels, mask=batch.mask)",
           "T.cross_entropy_loss(logits, batch.labels)"),
    Mutant("pooled-mean-over-padded-length", "src/tavat/model.py",
           "inv_len = (1.0 / mask.sum(axis=1))[:, None]",
           "inv_len = np.full((mask.shape[0], 1), 1.0 / mask.shape[1])"),
    # the row-sparse gradient and its updates
    Mutant("row-sum-cells-without-columns", "src/tavat/tensor.py",
           "cells = (slot.reshape(-1, 1) * dim + np.arange(dim)).reshape(-1)",
           "cells = (slot.reshape(-1, 1) * dim + np.zeros(dim, dtype=int)).reshape(-1)"),
    Mutant("adam-row-add-before-decay", "src/tavat/train.py",
           "            m *= self.BETA1\n"
           "            v *= self.BETA2\n"
           "            m[rows] += (1 - self.BETA1) * g\n",
           "            m[rows] += (1 - self.BETA1) * g\n"
           "            m *= self.BETA1\n"
           "            v *= self.BETA2\n"),
    Mutant("adam-first-moment-with-beta2", "src/tavat/train.py",
           "m[rows] += (1 - self.BETA1) * g", "m[rows] += (1 - self.BETA2) * g"),
    Mutant("adam-second-moment-decay-with-beta1", "src/tavat/train.py",
           "            v *= self.BETA2\n", "            v *= self.BETA1\n"),
    Mutant("sgd-sign", "src/tavat/train.py",
           "p.data[rows] -= self.lr * g", "p.data[rows] += self.lr * g"),
    Mutant("sgd-rows-out-of-place", "src/tavat/train.py",
           "p.data[rows] -= self.lr * g", "p.data[rows] = p.data[rows] - self.lr * g",
           equivalent="the same subtraction, written back to the same rows of the same array"),
    Mutant("adam-bias", "src/tavat/train.py",
           "c1 = 1 - self.BETA1 ** self.t", "c1 = 1.0"),
    Mutant("delimited-line-of-record-start", "src/tavat/data.py",
           'f"{path}:{reader.line_num}: unknown label',
           'f"{path}:{len(examples) + 1}: unknown label'),
    # the adversary and the perturbation vocabulary
    Mutant("scaling-index-after-the-step", "src/tavat/adv.py",
           "new = scaling_index(p, mask)[:, :, None] * new",
           "new = scaling_index(new, mask)[:, :, None] * new"),
    Mutant("token-normalization-over-the-sequence", "src/tavat/adv.py",
           "axis=-1 if per_token else (-2, -1)", "axis=(-2, -1)"),
    Mutant("projection-radius", "src/tavat/adv.py",
           "return p * np.where(outside, epsilon / np.maximum(norms, NORM_FLOOR), 1.0)",
           "return p * np.where(outside, 2 * epsilon / np.maximum(norms, NORM_FLOOR), 1.0)"),
    Mutant("cold-start-index", "src/tavat/adv.py",
           "n = np.where(peak < NORM_FLOOR, 1.0,", "n = np.where(peak < NORM_FLOOR, 0.0,"),
    Mutant("ascent-sign", "src/tavat/adv.py",
           "new = p + np.where(gnorm >= NORM_FLOOR,", "new = p - np.where(gnorm >= NORM_FLOOR,"),
    Mutant("init-scale", "src/tavat/adv.py",
           "out = rng.uniform(-sigma, sigma, size=tuple(shape)) / math.sqrt(dim)",
           "out = rng.uniform(-sigma, sigma, size=tuple(shape))"),
    Mutant("scatter-sum-not-mean", "src/tavat/adv.py",
           "means = sums / np.bincount(slot)[:, None]", "means = sums"),
    Mutant("scatter-unprojected", "src/tavat/adv.py",
           "vocab.table[rows] = project_frobenius(means[:, None, :], epsilon)[:, 0]",
           "vocab.table[rows] = means"),
    Mutant("policy-inverted", "src/tavat/adv.py",
           'return ~listed if self.mode == "exclude" else listed',
           'return listed if self.mode == "exclude" else ~listed'),
    Mutant("policy-ignored", "src/tavat/adv.py",
           "keep = mask & (ids != PAD) & special_token_policy.permits(ids)",
           "keep = mask & (ids != PAD)"),
    Mutant("unweighted-k-sum", "src/tavat/adv.py",
           "inv_k = 1.0 / cfg.K", "inv_k = 1.0"),
    Mutant("attention-sees-padding", "src/tavat/model.py",
           "T.attention(q, k, v, mask, self.config.heads", "T.attention(q, k, v, mask | True, "
           "self.config.heads"),
    Mutant("warm-start-fingerprint-unchecked", "src/tavat/train.py",
           "expect_fingerprint=fingerprint)", "expect_fingerprint=None)"),
    Mutant("no-step-zero-checkpoint", "src/tavat/train.py",
           "save_checkpoint(model, checkpoint_path)   # last-good from step zero", "pass"),
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


def tier1_fails(tree: Path) -> tuple[bool, str]:
    """Run tier-1 without the golden test; whether it failed, and its last line."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", "--ignore=tests/test_golden.py"],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines() or [done.stderr.strip()]
    return done.returncode != 0, lines[-1]


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        known = {m.name for m in MUTANTS}
        raise SystemExit(f"unknown mutants: {sorted(set(names) - known)}")
    survivors = []
    with tempfile.TemporaryDirectory(prefix="tavat-mutants-") as tmp:
        tree = Path(tmp)
        export(tree)
        failed, last = tier1_fails(tree)
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
                failed, last = tier1_fails(tree)
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = "killed" if failed else "SURVIVED"
            print(f"{verdict:<11} {m.name} ({time.perf_counter() - started:.0f} s): {last}",
                  flush=True)
            if not failed:
                survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(chosen)} mutants killed or equivalent")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
