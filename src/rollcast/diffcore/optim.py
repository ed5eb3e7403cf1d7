"""Adaptive-moment optimizer with decoupled weight decay, and its cosine LR schedule."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .checkpoint import CheckpointArrays, checkpoint_tensor
from .tensor import Tensor


LR_FLOOR_FRACTION = 0.1  # the cosine schedule's floor, as a fraction of the base rate
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # AdamW's moment decays and denominator guard


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Cosine decay from base_lr at step 0 to base_lr * LR_FLOOR_FRACTION at
    step total_steps - 1, held at that floor for every later step."""
    frac = min(step / max(total_steps - 1, 1), 1.0)
    floor = base_lr * LR_FLOOR_FRACTION
    return floor + (base_lr - floor) * 0.5 * (1.0 + np.cos(np.pi * frac))


class AdamW:
    """Decoupled-weight-decay adaptive moments (BETA1, BETA2 and EPS).

    Mixed precision (arXiv:1710.03740): the parameters compute in their own
    dtype (float32), while the optimizer keeps a float64 master copy of each
    and its moments in float64. A step upcasts the gradient, updates the
    master and writes the parameter back in its dtype. A parameter whose
    data was replaced from outside since the last step (a checkpoint load)
    re-seeds its master from that data. State round-trips through
    checkpoints via state_tensors(); the masters are the loaded parameters.
    """

    def __init__(
        self,
        params: Mapping[str, Tensor],
        lr: float = 1e-3,
        weight_decay: float = 0.0,
    ):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.master: dict = {}
        self._written: dict = {}  # the p.data each master was last written to
        self._seed_masters()
        self.m = {k: np.zeros_like(w) for k, w in self.master.items()}
        self.v = {k: np.zeros_like(w) for k, w in self.master.items()}

    def _seed_masters(self):
        for k, p in self.params.items():
            self.master[k] = p.data.astype(np.float64)
            self._written[k] = p.data

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = BETA1, BETA2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            if p.data is not self._written[k]:
                self.master[k] = p.data.astype(np.float64)
            w, m, v = self.master[k], self.m[k], self.v[k]
            # in place on one float64 copy of the gradient: the step is memory-bound
            g = p.grad.astype(np.float64)
            m *= b1
            m += (1.0 - b1) * g
            g *= g
            g *= 1.0 - b2
            v *= b2
            v += g
            step = g  # reuse the buffer: lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(v, bias2, out=step)
            np.sqrt(step, out=step)
            step += EPS
            np.divide(m, step, out=step)
            step *= self.lr / bias1
            if self.weight_decay:
                w *= 1.0 - self.lr * self.weight_decay
            w -= step
            p.data = self._written[k] = w.astype(p.data.dtype)

    def state_tensors(self) -> dict:
        """Optimizer state as named arrays for checkpointing."""
        out = {"opt.step": np.array([float(self.t)])}
        for k in self.params:
            out[f"opt.m.{k}"] = self.m[k]
            out[f"opt.v.{k}"] = self.v[k]
        return out

    def load_state_tensors(self, tensors: CheckpointArrays):
        """Restore the step count and moments; the masters become the
        parameters as they are now (load those first). A missing or misshapen
        tensor raises CheckpointError."""
        self.t = int(checkpoint_tensor(tensors, "opt.step", (1,))[0])
        for k in self.params:
            for name, moments in (("m", self.m), ("v", self.v)):
                stored = checkpoint_tensor(tensors, f"opt.{name}.{k}", moments[k].shape)
                moments[k] = np.asarray(stored, dtype=np.float64)
        self._seed_masters()
