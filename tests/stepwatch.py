"""Watching a batch step from outside.

``tavat_batch_step`` reports only its losses and final perturbations.
Tests that need more observe the step through two seams it already has:
the optimizer it is handed, and the module-level ``adv.instance_step``
and ``adv.token_step`` it calls once per inner step (the names the
benchmark's tracer wraps). Each call's input is the point that inner
step was evaluated at; the last call's output is the final perturbation.
"""
from tavat import adv


class RecordingOptimizer:
    """Hands every step on to ``inner`` and keeps the gradient map it was given."""

    def __init__(self, inner):
        self.inner = inner
        self.grads = None

    def step(self, model, grads):
        self.grads = grads
        self.inner.step(model, grads)


class Trajectory:
    """The perturbations of the inner steps run since install or ``clear``.

    Install with pytest's ``monkeypatch``; it puts spies on
    ``adv.instance_step`` (kind "delta") and ``adv.token_step`` ("eta").
    """

    def __init__(self, monkeypatch):
        self.calls = {"delta": [], "eta": []}
        for kind, name in (("delta", "instance_step"), ("eta", "token_step")):
            monkeypatch.setattr(adv, name, self._spy(self.calls[kind], getattr(adv, name)))

    @staticmethod
    def _spy(calls, step):
        def spy(p, *args, **kwargs):
            out = step(p, *args, **kwargs)
            calls.append((p, out))
            return out
        return spy

    def clear(self) -> None:
        for calls in self.calls.values():
            calls.clear()

    def path(self, kind: str) -> list:
        """Each inner step's evaluation point, then the final perturbation;
        empty when that kind did not run."""
        calls = self.calls[kind]
        return [p for p, _ in calls] + [out for _, out in calls[-1:]]
