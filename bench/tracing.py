"""Per-layer spans and counts, taken from outside the program.

``Tracer.install`` replaces public functions of the tavat modules with
timing wrappers, in the namespace each caller looks them up in, and
``Tracer.remove`` puts the originals back. Spans are aggregated in
memory as they close: total time, self time (total minus timed child
spans) and call count, keyed by the benchmark phase, the context the
call happened in (inside a batch step, inside ``TextModel.predict``, or
elsewhere) and the span name.
"""
from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

TENSOR_OPS = ("matmul", "add", "scale", "relu", "reshape", "transpose", "reduce_sum",
              "layer_norm", "softmax", "embedding_lookup", "mask_fill",
              "cross_entropy_loss")

STEP, PREDICT, OTHER = "step", "predict", "other"


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith("bytes"):
        return "B"
    return "count"


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stats = defaultdict(lambda: [0.0, 0.0, 0])   # key -> [total_s, self_s, calls]
        self.counts = defaultdict(float)                    # key -> summed count
        self._stack: list[list] = []                        # open spans: [children_s]
        self._step_depth = 0
        self._predict_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def context(self) -> str:
        if self._step_depth:
            return STEP
        return PREDICT if self._predict_depth else OTHER

    def count(self, name: str, value: float) -> None:
        self.counts[(self.phase, self.context(), name)] += value

    def wrap(self, name: str, fn, after=None, scope: str | None = None):
        """Time ``fn`` as span ``name``; ``after(result, args, kwargs)`` records counts.

        ``scope`` (STEP or PREDICT) marks spans that open a context for
        everything called inside them. Time spent in ``after`` is charged
        to no span: the parent's self time excludes it.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            key = (tracer.phase, tracer.context(), name)
            frame = [0.0]
            tracer._stack.append(frame)
            if scope == STEP:
                tracer._step_depth += 1
            elif scope == PREDICT:
                tracer._predict_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                if scope == STEP:
                    tracer._step_depth -= 1
                elif scope == PREDICT:
                    tracer._predict_depth -= 1
                tracer._stack.pop()
                stat = tracer.stats[key]
                stat[0] += elapsed
                stat[1] += elapsed - frame[0]
                stat[2] += 1
            if after is not None:
                hook_start = perf_counter()
                after(result, args, kwargs)
                elapsed += perf_counter() - hook_start
            if tracer._stack:
                tracer._stack[-1][0] += elapsed
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_attr(self, owner, attr: str, name: str, **kw) -> None:
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def install(self) -> None:
        # ``tavat.train`` the attribute is the re-exported function; the
        # modules themselves come from importlib.
        tensor = importlib.import_module("tavat.tensor")
        model = importlib.import_module("tavat.model")
        adv = importlib.import_module("tavat.adv")
        train = importlib.import_module("tavat.train")

        original_track = tensor._track

        def track(*args):
            out = original_track(*args)
            if out._vjp is not None:
                self.count("tensor.nodes", 1)
            return out

        self._patch(tensor, "_track", track)
        for op in TENSOR_OPS:
            self._wrap_attr(tensor, op, f"tensor.fwd.{op}")

        def grad_bytes(grads, args, kwargs):
            loss = args[0]
            self.count("tensor.backward.grad_bytes", sum(
                t.grad.nbytes for t in tensor.topo_order(loss) if t.grad is not None))

        self._wrap_attr(adv, "backward", "tensor.backward", after=grad_bytes)

        text_model = model.TextModel
        self._wrap_attr(text_model, "embed", "model.embed")
        self._wrap_attr(text_model, "forward_from_embeddings", "model.forward_from_embeddings")
        self._wrap_attr(text_model, "loss", "model.loss")
        self._wrap_attr(text_model, "predict", "model.predict", scope=PREDICT)

        def file_bytes(name):
            def after(result, args, kwargs):
                self.count(name, os.path.getsize(args[1]))
            return after

        self._wrap_attr(train, "save_checkpoint", "model.save_checkpoint",
                        after=file_bytes("model.save_checkpoint.bytes"))

        self._wrap_attr(train, "tavat_batch_step", "adv.tavat_batch_step", scope=STEP)
        for fn in ("init_delta", "token_step", "instance_step"):
            self._wrap_attr(adv, fn, f"adv.{fn}")
        self._wrap_attr(adv.AccumulatedGradient, "add", "adv.accumulate")
        self._wrap_attr(adv.AccumulatedGradient, "replace", "adv.accumulate")

        def rows_written(result, args, kwargs):
            ids, mask = args[1], args[2]
            policy = kwargs.get("special_token_policy")
            written = [int(i) for i in np.unique(ids[mask & (ids != 0)])]
            if policy is not None:
                written = [i for i in written if policy.permits(i)]
            self.count("vocab.scatter.rows_written", len(written))

        self._wrap_attr(train, "init_vocabulary", "vocab.init_vocabulary")
        self._wrap_attr(adv, "gather", "vocab.gather")
        self._wrap_attr(adv, "scatter", "vocab.scatter", after=rows_written)
        self._wrap_attr(train, "save_vocabulary", "vocab.save_vocabulary",
                        after=file_bytes("vocab.save_vocabulary.bytes"))

        self._wrap_attr(train.Adam, "step", "train.optimizer_step")
        self._wrap_attr(train.SGD, "step", "train.optimizer_step")
        self._wrap_attr(train, "evaluate", "train.evaluate")
        self._wrap_attr(train.MetricsWriter, "emit", "train.metrics_emit")

        self._wrap_attr(train, "build_dataset", "data.build_dataset")
        self._wrap_attr(train, "encode_examples", "data.encode_examples")
        original_make_batches = train.make_batches
        epoch_batches = self.wrap("data.make_batches.epoch", original_make_batches)
        other_batches = self.wrap("data.make_batches.other", original_make_batches)

        def make_batches(*args, **kwargs):
            shuffled = kwargs.get("shuffle", False)
            return (epoch_batches if shuffled else other_batches)(*args, **kwargs)

        self._patch(train, "make_batches", make_batches)

    def remove(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- aggregation -------------------------------------------------------

    def _stat(self, name: str, phase=None, context=None) -> tuple[float, float, int]:
        total = own = 0.0
        calls = 0
        for (p, c, n), (t, s, k) in self.stats.items():
            if n == name and phase in (None, p) and context in (None, c):
                total, own, calls = total + t, own + s, calls + k
        return total, own, calls

    def _count(self, name: str, phase=None, context=None) -> float:
        return sum(v for (p, c, n), v in self.counts.items()
                   if n == name and phase in (None, p) and context in (None, c))

    def layer_metrics(self, rounds: int, epochs: int, train_tokens: int) -> dict:
        """Per-layer values: per batch step unless the README notes otherwise."""
        steps = self._stat("adv.tavat_batch_step", "train")[2]

        def ms(v, n):
            return 1000.0 * v / n if n else 0.0

        def per(v, n):
            return v / n if n else 0.0

        def step_ms(name):
            return ms(self._stat(name, "train", STEP)[0], steps)

        def call_ms(name, phase="train"):
            total, _, calls = self._stat(name, phase)
            return ms(total, calls)

        out = {}
        backward_calls = self._stat("tensor.backward", "train", STEP)[2]
        out["tensor.backward.ms"] = step_ms("tensor.backward")
        out["tensor.backward.grad_bytes"] = per(
            self._count("tensor.backward.grad_bytes", "train", STEP), backward_calls)
        out["tensor.tape.nodes"] = per(self._count("tensor.nodes", "train", STEP), steps)
        for op in TENSOR_OPS:
            out[f"tensor.fwd.{op}.ms"] = step_ms(f"tensor.fwd.{op}")
        predict_calls = self._stat("model.predict")[2]
        out["tensor.eval.nodes"] = per(self._count("tensor.nodes", None, PREDICT),
                                       predict_calls)

        out["model.embed.ms"] = step_ms("model.embed")
        out["model.forward_from_embeddings.self_ms"] = ms(
            self._stat("model.forward_from_embeddings", "train", STEP)[1], steps)
        out["model.loss.self_ms"] = ms(self._stat("model.loss", "train", STEP)[1], steps)
        out["model.predict.ms"] = call_ms("model.predict", None)
        out["model.save_checkpoint.ms"] = call_ms("model.save_checkpoint")
        out["model.save_checkpoint.bytes"] = per(
            self._count("model.save_checkpoint.bytes", "train"),
            self._stat("model.save_checkpoint", "train")[2])

        out["adv.tavat_batch_step.self_ms"] = ms(
            self._stat("adv.tavat_batch_step", "train")[1], steps)
        for fn in ("init_delta", "token_step", "instance_step", "accumulate"):
            out[f"adv.{fn}.ms"] = step_ms(f"adv.{fn}")
        out["adv.inner_steps"] = per(backward_calls, steps)

        out["vocab.init_vocabulary.ms"] = call_ms("vocab.init_vocabulary")
        out["vocab.gather.ms"] = step_ms("vocab.gather")
        out["vocab.scatter.ms"] = step_ms("vocab.scatter")
        out["vocab.scatter.rows_written"] = per(
            self._count("vocab.scatter.rows_written", "train", STEP), steps)
        out["vocab.save_vocabulary.ms"] = call_ms("vocab.save_vocabulary")
        out["vocab.save_vocabulary.bytes"] = per(
            self._count("vocab.save_vocabulary.bytes", "train"),
            self._stat("vocab.save_vocabulary", "train")[2])

        out["train.optimizer_step.ms"] = step_ms("train.optimizer_step")
        out["train.evaluate.ms"] = ms(self._stat("train.evaluate", "train")[0],
                                      rounds * epochs)
        out["train.metrics_emit.ms"] = call_ms("train.metrics_emit")
        out["train.steps"] = per(steps, rounds)

        out["data.build_dataset.ms"] = call_ms("data.build_dataset")
        out["data.encode_examples.ms"] = call_ms("data.encode_examples")
        out["data.make_batches.ms"] = ms(self._stat("data.make_batches.epoch", "train")[0],
                                         rounds * epochs)
        out["data.train_tokens"] = per(train_tokens, steps)
        return out
