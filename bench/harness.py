"""One benchmark run of one workload: training rounds, set-up probes, eval passes, checks.

A run spends its ``seconds`` in cycles. Each cycle runs one whole
training round, a ``train()`` call on the workload's config, so every
round must produce the same checkpoint, vocabulary and dev metric. In
the gap after the round it alternates set-up probes (``train()`` stopped
at its first batch step) with ``train.evaluate`` passes over the dev set
on the trained model. Spreading probes and passes over the whole run,
rather than timing them in one stretch, keeps a slow spell of the
machine from deciding their medians. A run starts no cycle that would
overrun its seconds, but always runs at least two. Checks run after the
timed part.
"""
from __future__ import annotations

import dataclasses
import importlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer
from workloads import WORKLOADS, make_config

from tavat.data import (CLS, SEP, build_dataset, encode_examples, make_batches,
                        tagging_tag_names)

train_mod = importlib.import_module("tavat.train")

MIN_ROUNDS = 2
GAP_SHARE = 0.3            # time in the gap after a round, relative to the round
MIN_GAP_PAIRS = 3          # probe + eval pass pairs in every gap
WARMUP_STEPS = 2           # first steps of each round, left out of the step percentiles


class SetupReached(Exception):
    """Raised at the first batch step of a set-up probe."""


@dataclass
class StepTimer:
    """Stands in for ``tavat_batch_step`` in the train module's namespace."""

    inner: object
    abort: bool = False
    capture_first: bool = False
    reached: float | None = None
    step_s: list = field(default_factory=list)
    tokens: int = 0
    trained_ids: set = field(default_factory=set)
    first: tuple | None = None       # (model snapshot, batch, first inner-step loss)

    def __call__(self, model, batch, *args, **kwargs):
        if self.reached is None:
            self.reached = time.perf_counter()
        if self.abort:
            raise SetupReached
        snapshot = model.snapshot() if self.capture_first and self.first is None else None
        start = time.perf_counter()
        report = self.inner(model, batch, *args, **kwargs)
        self.step_s.append(time.perf_counter() - start)
        self.tokens += int(batch.mask.sum())
        self.trained_ids.update(np.unique(batch.token_ids[batch.mask]).tolist())
        if snapshot is not None:
            self.first = (snapshot, batch, report.losses[0])
        return report


@dataclass
class EvalTimer:
    """Stands in for ``train.evaluate``: times the program's per-epoch passes."""

    inner: object
    eval_s: list = field(default_factory=list)

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        out = self.inner(*args, **kwargs)
        self.eval_s.append(time.perf_counter() - start)
        return out


@dataclass
class Round:
    loop_s: float                    # first batch step to the return of train()
    timer: StepTimer
    result: object


@dataclass
class Measured:
    rounds: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)


def _timed_train(config, run_name: str, abort: bool, capture_first: bool = False,
                 eval_s: list | None = None):
    """``train()`` with the step timer in place; returns (timer, result, started, finished)."""
    timer = StepTimer(train_mod.tavat_batch_step, abort=abort, capture_first=capture_first)
    evaluator = EvalTimer(train_mod.evaluate, eval_s if eval_s is not None else [])
    train_mod.tavat_batch_step, train_mod.evaluate = timer, evaluator
    try:
        started = time.perf_counter()
        try:
            result = train_mod.train(dataclasses.replace(config, run_name=run_name))
        except SetupReached:
            result = None
        finished = time.perf_counter()
    finally:
        train_mod.tavat_batch_step, train_mod.evaluate = timer.inner, evaluator.inner
    return timer, result, started, finished


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    spec = WORKLOADS[workload]
    work_dir.mkdir(parents=True, exist_ok=True)
    config = make_config(workload, seed, work_dir)
    # the program's split and dev batches, built here outside every timed call
    tokenizer, train_ex, dev_ex, _ = build_dataset(config.dataset, seed=config.seeds.data)
    dev_batches = make_batches(encode_examples(tokenizer, dev_ex, config.max_len),
                               config.batch_size)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        m = _measure(spec, config, seconds, tracer, dev_batches)
    finally:
        if tracer:
            tracer.remove()
    correct, failure = True, None
    try:
        _check(spec, config, m.rounds, tokenizer, train_ex, dev_ex, dev_batches)
    except checks.CheckFailed as exc:
        correct, failure = False, str(exc)

    rounds = m.rounds
    steps = sum(len(r.timer.step_s) for r in rounds)
    tokens = sum(r.timer.tokens for r in rounds)
    dev_examples = sum(b.size for b in dev_batches)
    step_ms = [1000.0 * s for r in rounds for s in r.timer.step_s[WARMUP_STEPS:]]
    end_to_end = {
        "setup_s": (statistics.median(m.setup_s), "s"),
        "step_ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
        "step_ms_p90": (float(np.percentile(step_ms, 90)), "ms"),
        "train_tokens_per_s": (tokens / sum(r.loop_s for r in rounds), "tok/s"),
        "eval_examples_per_s": (statistics.median(dev_examples / s for s in m.eval_s), "ex/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "dev_metric": (rounds[0].result.dev_metric, "1"),
    }
    info = {"rounds": len(rounds), "steps": steps, "step_samples": len(step_ms),
            "eval_passes": len(m.eval_s), "setup_samples": len(m.setup_s)}
    # operations: batch steps and evaluation passes, the program's per-epoch ones included
    out = {"correct": correct, "attempted": steps + len(m.eval_s), "failed": 0,
           "end_to_end": end_to_end, "info": info, "failure": failure}
    if tracer:
        out["per_layer"] = tracer.layer_metrics(rounds=len(rounds), epochs=config.epochs,
                                                train_tokens=tokens)
    return out


def _measure(spec, config, seconds: float, tracer, dev_batches) -> Measured:
    def phase(name):
        if tracer:
            tracer.phase = name

    m = Measured()
    started = time.perf_counter()
    last_cycle = 0.0
    while (len(m.rounds) < MIN_ROUNDS
           or time.perf_counter() - started + last_cycle <= seconds):
        cycle_start = time.perf_counter()
        phase("train")
        timer, result, t0, t1 = _timed_train(config, f"round{len(m.rounds)}", abort=False,
                                             capture_first=spec.clean, eval_s=m.eval_s)
        m.rounds.append(Round(loop_s=t1 - timer.reached, timer=timer, result=result))
        m.setup_s.append(timer.reached - t0)
        gap_start = time.perf_counter()
        pairs = 0
        while pairs < MIN_GAP_PAIRS or time.perf_counter() - gap_start < GAP_SHARE * (t1 - t0):
            phase("probe")
            probe, _, p0, _ = _timed_train(config, f"probe{pairs}", abort=True)
            m.setup_s.append(probe.reached - p0)
            phase("eval")
            start = time.perf_counter()
            train_mod.evaluate(result.model, dev_batches)
            m.eval_s.append(time.perf_counter() - start)
            pairs += 1
        last_cycle = time.perf_counter() - cycle_start
    return m


def _check(spec, config, rounds, tokenizer, train_ex, dev_ex, dev_batches) -> None:
    first = rounds[0]
    result = first.result
    adv = config.adv
    steps_per_epoch = math.ceil(len(train_ex) / config.batch_size)
    checks.check_metrics_stream(result.metrics_path, config.epochs, steps_per_epoch, adv.K,
                                adv.epsilon, adv.eta_bound)
    # own encoding: cls + words (cut to max_len - 2) + sep, unknown words to <unk>
    train_lengths = [min(len(ex.tokens), config.max_len - 2) + 2 for ex in train_ex]
    checks.check_token_count(first.timer.tokens, train_lengths, config.epochs)

    if adv.use_vocab:
        table = checks.check_vocabulary(result.vocab_path, result.tokenizer_fingerprint,
                                        result.model.config.dim, adv.eta_bound)
        ids = tokenizer.token_to_id
        train_ids = {ids[t] for ex in train_ex for t in ex.tokens[:config.max_len - 2]}
        dev_ids = {ids[t] for ex in dev_ex for t in ex.tokens[:config.max_len - 2]}
        checks.require(first.timer.trained_ids == train_ids | {CLS, SEP},
                       "ids stepped on differ from the ids of the training split")
        checks.check_untouched_rows(
            table, np.array(sorted(first.timer.trained_ids)), config.seeds.adversarial,
            adv.sigma, np.array(sorted(dev_ids - train_ids), dtype=np.int64),
            need_dev_only=spec.reads_file)

    loaded = checks.check_checkpoint(result.checkpoint_path, result.model)
    recomputed = checks.own_dev_metric(loaded, dev_batches, spec.tagging, tagging_tag_names())
    checks.check_dev_metric(result.dev_metric, recomputed)
    if not spec.tagging:
        checks.check_beats_majority(recomputed, np.concatenate([b.labels for b in dev_batches]))
    if spec.clean:
        snapshot, batch, step_loss = first.timer.first
        checks.check_first_loss(step_loss, snapshot.loss(snapshot.forward(batch), batch).item())
    checks.check_rounds_agree([
        (checks.sha256(r.result.checkpoint_path),
         checks.sha256(r.result.vocab_path) if r.result.vocab_path else None,
         r.result.dev_metric) for r in rounds])
