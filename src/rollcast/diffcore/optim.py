"""Adaptive-moment optimizer with decoupled weight decay, and its cosine LR schedule."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .tensor import Tensor


def cosine_lr(base_lr: float, final_fraction: float, step: int, total_steps: int) -> float:
    """Cosine decay from base_lr at step 0 to base_lr * final_fraction at step
    total_steps - 1, held at that floor for every later step."""
    frac = min(step / max(total_steps - 1, 1), 1.0)
    floor = base_lr * final_fraction
    return floor + (base_lr - floor) * 0.5 * (1.0 + np.cos(np.pi * frac))


class AdamW:
    """Decoupled-weight-decay adaptive moments (beta1=0.9, beta2=0.999).

    Moments are kept in float64 alongside the parameters. State round-trips
    through checkpoints via state_tensors().
    """

    def __init__(
        self,
        params: Mapping[str, Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[k]
            v = self.v[k]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * update

    def state_tensors(self) -> dict:
        """Optimizer state as named arrays for checkpointing."""
        out = {"opt.step": np.array([float(self.t)])}
        for k in self.params:
            out[f"opt.m.{k}"] = self.m[k]
            out[f"opt.v.{k}"] = self.v[k]
        return out

    def load_state_tensors(self, tensors: Mapping[str, np.ndarray]):
        self.t = int(tensors["opt.step"][0])
        for k in self.params:
            self.m[k] = np.asarray(tensors[f"opt.m.{k}"], dtype=np.float64).reshape(self.m[k].shape)
            self.v[k] = np.asarray(tensors[f"opt.v.{k}"], dtype=np.float64).reshape(self.v[k].shape)
