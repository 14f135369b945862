"""Output checks. Each raises ``CheckFailed`` with the reason.

Every check compares the program's artifacts against a computation made
here, apart from the program, or against a property TA-VAT must have.
None compares against a stored copy of an earlier output.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from tavat.data import PAD, UNK
from tavat.model import load_checkpoint
from tavat.vocab import load_vocabulary

# ball projections allow a 1e-12 relative slack; norms are compared a little wider
NORM_SLACK = 1e-9


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_metrics_stream(path, epochs: int, steps_per_epoch: int, K: int,
                         epsilon: float, eta_bound: float) -> None:
    """Every epoch ran every step, every inner loss is finite, norms stay in the ball."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    steps = [r for r in records if r["kind"] == "step"]
    evals = [r for r in records if r["kind"] == "eval"]
    require(len(steps) == epochs * steps_per_epoch,
            f"{path}: {len(steps)} step records, expected {epochs} x {steps_per_epoch}")
    seen = sorted({(r["epoch"], r["batch"]) for r in steps})
    require(seen == [(e, b) for e in range(epochs) for b in range(steps_per_epoch)],
            f"{path}: step records do not cover every (epoch, batch)")
    require([r["epoch"] for r in evals] == list(range(epochs)),
            f"{path}: eval records for epochs {[r['epoch'] for r in evals]}")
    require(any(r["kind"] == "summary" for r in records), f"{path}: no summary record")
    for r in steps:
        where = f"{path}: epoch {r['epoch']} batch {r['batch']}"
        require(len(r["losses"]) == K and all(math.isfinite(v) for v in r["losses"]),
                f"{where}: inner-step losses {r['losses']}")
        for key, bound in (("delta_norm_max", epsilon), ("eta_norm_max", eta_bound)):
            if key in r:
                require(r[key] <= bound * (1 + NORM_SLACK),
                        f"{where}: {key} {r[key]!r} exceeds {bound}")


def check_vocabulary(path, fingerprint: str, dim: int, eta_bound: float) -> np.ndarray:
    """The file loads against the run's tokenizer; rows lie in the ball; pad row is zero."""
    try:
        vocab = load_vocabulary(path, expect_dim=dim, expect_fingerprint=fingerprint)
    except ValueError as exc:
        raise CheckFailed(f"{path}: does not load: {exc}") from exc
    table = vocab.table
    norms = np.sqrt((table * table).sum(axis=1))
    worst = int(np.argmax(norms))
    require(norms[worst] <= eta_bound * (1 + NORM_SLACK),
            f"{path}: row {worst} has norm {norms[worst]!r} > {eta_bound}")
    require(not table[PAD].any(), f"{path}: pad row is not zero")
    return table


def check_untouched_rows(table: np.ndarray, trained_ids: np.ndarray, adversarial_seed: int,
                         sigma: float, dev_only_ids: np.ndarray, need_dev_only: bool) -> None:
    """Rows never in a training batch still hold the initial uniform draw, bitwise."""
    n, d = table.shape
    initial = np.random.default_rng(adversarial_seed).uniform(-sigma, sigma, (n, d)) / math.sqrt(d)
    untouched = np.ones(n, dtype=bool)
    untouched[trained_ids] = False
    untouched[PAD] = False
    require(untouched[UNK], "<unk> appeared in a training batch")
    require(np.isin(dev_only_ids, np.flatnonzero(untouched)).all(),
            "a dev-only id appeared in a training batch")
    require(len(dev_only_ids) > 0 or not need_dev_only, "the input has no dev-only ids")
    changed = np.flatnonzero(untouched & (table != initial).any(axis=1))
    require(changed.size == 0,
            f"{changed.size} rows of ids never trained on differ from the initial draw "
            f"(first: {changed[:5].tolist()})")


def own_spans(tags, names) -> set:
    """(start, end, type) of BIO spans; an I- tag of a new type opens a span."""
    spans, start, kind = set(), None, None
    for i, tag in enumerate(names[t] for t in tags):
        prefix, _, tag_type = tag.partition("-")
        if start is not None and (prefix != "I" or tag_type != kind):
            spans.add((start, i, kind))
            start = None
        if prefix in ("B", "I") and start is None:
            start, kind = i, tag_type
    if start is not None:
        spans.add((start, len(tags), kind))
    return spans


def own_dev_metric(model, batches, tagging: bool, names) -> float:
    """Accuracy, or exact-match span F1, from ``model.predict``."""
    if not tagging:
        correct = sum(int((model.predict(b) == b.labels).sum()) for b in batches)
        return correct / sum(b.size for b in batches)
    tp = fp = fn = 0
    for b in batches:
        pred = model.predict(b)
        for row in range(b.size):
            keep = b.mask[row]
            gold = own_spans(b.labels[row][keep], names)
            got = own_spans(pred[row][keep], names)
            tp, fp, fn = tp + len(gold & got), fp + len(got - gold), fn + len(gold - got)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def check_checkpoint(path, model) -> object:
    """The checkpoint loads and holds exactly the trained parameters."""
    try:
        loaded = load_checkpoint(path)
    except ValueError as exc:
        raise CheckFailed(f"{path}: does not load: {exc}") from exc
    require(loaded.params.keys() == model.params.keys(), f"{path}: parameter names differ")
    for name, p in model.params.items():
        require(np.array_equal(loaded.params[name].data, p.data),
                f"{path}: parameter {name} differs from the trained model")
    return loaded


def check_dev_metric(reported: float, recomputed: float) -> None:
    require(abs(reported - recomputed) <= 1e-12,
            f"dev metric {reported!r} != recomputed {recomputed!r}")


def check_beats_majority(accuracy: float, dev_labels: np.ndarray) -> None:
    share = np.bincount(dev_labels).max() / len(dev_labels)
    require(accuracy > share, f"dev accuracy {accuracy!r} <= majority-class share {share!r}")


def check_token_count(counted: int, train_lengths: list[int], epochs: int) -> None:
    expected = epochs * sum(train_lengths)
    require(counted == expected, f"{counted} training tokens stepped, expected {expected}")


def check_first_loss(step_loss: float, direct_loss: float) -> None:
    require(step_loss.hex() == direct_loss.hex(),
            f"first step loss {step_loss!r} != model.loss(model.forward(batch)) {direct_loss!r}")


def check_rounds_agree(fingerprints: list[tuple]) -> None:
    """(checkpoint sha, vocabulary sha, dev metric) is the same for every round."""
    require(len(set(fingerprints)) == 1,
            f"rounds of identical training differ: {sorted(set(fingerprints))}")
