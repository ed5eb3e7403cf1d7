"""Shared-private mixture-of-experts with interval-conditioned noisy top-k routing.

Every token always passes through the shared expert; additionally the top-k
private experts by perturbed gate score contribute, weighted by a softmax
over the selected (unperturbed) gate values. The perturbation is a learned,
interval-specific noise head, so routing can differ per forecast interval.
Private experts run only on the rows routed to them (Switch/GShard-style
dispatch): each gathers its tokens, and the weighted outputs of all experts
are summed back into token order by one scatter; an expert no token selects
does not run.

Two auxiliary losses shape the noise heads: the first pushes the per-interval
noise distributions apart (interval specialization, maximized), the second
pulls the pooled distribution toward uniform (load balance, minimized). The
combined auxiliary objective is -aux1 + alpha * aux2.

Gradients flow through the softmax over selected gate values only; the
discrete top-k selection itself is not differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor

if TYPE_CHECKING:  # model imports this module
    from .model import ModelConfig


@dataclass
class MoEGateDecision:
    """Routing snapshot for one forward pass (plain arrays, diagnostics only)."""

    s: np.ndarray  # (n_tokens, M) gate scores in (0, 1)
    b_delta: np.ndarray  # (n_tokens, M) noise for the active interval
    selected: np.ndarray  # (n_tokens, k) chosen expert indices, best first
    g_prime: np.ndarray  # (n_tokens, k) normalized weights over the selection

    def usage_histogram(self, num_experts: int) -> np.ndarray:
        """How many (token, slot) assignments each expert received."""
        return np.bincount(self.selected.ravel(), minlength=num_experts)


def gate_decision(s: Tensor, b: Tensor, k: int):
    """Noisy top-k routing from gate scores s and noise b (both n x M).

    Selection ranks s + b; ties break toward the lower expert index. The
    returned weights are softmax over the selected entries of s, so gradient
    reaches s only at selected positions and never crosses the selection.
    """
    if s.shape != b.shape:
        raise dc.ShapeError(f"gate scores {s.shape} vs noise {b.shape}")
    _, selected = dc.top_k(s.data + b.data, k)
    g_selected = dc.gather_cols(s, selected)
    g_prime = dc.softmax(g_selected, axis=-1)
    return g_prime, selected


def _ffn_params(rng, d_in: int, hidden: int, d_out: int, prefix: str) -> dict:
    scale1 = 1.0 / np.sqrt(d_in)
    scale2 = 1.0 / np.sqrt(hidden)
    return {
        f"{prefix}.w1": Tensor(rng.normal(scale=scale1, size=(d_in, hidden)), requires_grad=True, name=f"{prefix}.w1"),
        f"{prefix}.b1": Tensor(np.zeros((1, hidden)), requires_grad=True, name=f"{prefix}.b1"),
        f"{prefix}.w2": Tensor(rng.normal(scale=scale2, size=(hidden, d_out)), requires_grad=True, name=f"{prefix}.w2"),
        f"{prefix}.b2": Tensor(np.zeros((1, d_out)), requires_grad=True, name=f"{prefix}.b2"),
    }


def _ffn_forward(params: dict, prefix: str, z: Tensor) -> Tensor:
    h = dc.gelu(dc.linear(z, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return dc.linear(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


class SharedPrivateMoE:
    """One shared always-on expert plus M routed private experts.

    Reads `embed_dim` (D), `moe_num_private` (M), `moe_top_k` and `intervals`
    of the model config. A private expert's hidden layer is max(4D/M, 4)
    wide, so the M of them together match the 4D of the shared expert.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, prefix: str = "moe"):
        self.cfg = cfg
        self.prefix = prefix
        D, M = cfg.embed_dim, cfg.moe_num_private
        gate_scale = 1.0 / np.sqrt(D)
        self._params: dict = {
            f"{prefix}.gate": Tensor(
                rng.normal(scale=gate_scale, size=(D, M)), requires_grad=True, name=f"{prefix}.gate"
            )
        }
        for delta in cfg.intervals:
            self._params[f"{prefix}.noise.{delta}"] = Tensor(
                rng.normal(scale=gate_scale, size=(D, M)),
                requires_grad=True,
                name=f"{prefix}.noise.{delta}",
            )
        for m in range(M):
            self._params.update(_ffn_params(rng, D, max(4 * D // M, 4), D, f"{prefix}.private.{m}"))
        self._params.update(_ffn_params(rng, D, 4 * D, D, f"{prefix}.shared"))

    def params(self) -> dict:
        return self._params

    def _noise(self, z: Tensor, delta: int) -> Tensor:
        if delta not in self.cfg.intervals:
            raise KeyError(f"unknown interval {delta}h; configured set is {self.cfg.intervals}")
        return dc.sigmoid(dc.matmul(z, self._params[f"{self.prefix}.noise.{delta}"]))

    def forward(self, z: Tensor, delta: int):
        """Route (n_tokens, D) through the expert mix for one interval.

        Returns (output, gate decision, routing noise b_delta as a Tensor).
        """
        cfg = self.cfg
        n = z.shape[0]
        s = dc.sigmoid(dc.matmul(z, self._params[f"{self.prefix}.gate"]))
        b = self._noise(z, delta)
        g_prime, selected = gate_decision(s, b, cfg.moe_top_k)

        out = _ffn_forward(self._params, f"{self.prefix}.shared", z)
        # (token, slot) assignments grouped by expert, in flat g_prime order
        order = np.argsort(selected.ravel(), kind="stable")
        tokens = order // cfg.moe_top_k
        counts = np.bincount(selected.ravel(), minlength=cfg.moe_num_private)
        outputs, start = [], 0
        for m, count in enumerate(counts):
            if count:
                rows = tokens[start:start + count]
                outputs.append(_ffn_forward(self._params, f"{self.prefix}.private.{m}",
                                            dc.embedding_lookup(z, rows)))
                start += count
        weights = dc.embedding_lookup(dc.reshape(g_prime, (g_prime.size, 1)), order)
        private = dc.concat(outputs, axis=0)
        weighted = dc.mul(dc.broadcast_to(weights, private.shape), private)
        out = dc.add(out, dc.scatter_add_rows(weighted, tokens, n))

        decision = MoEGateDecision(
            s=s.data.copy(), b_delta=b.data.copy(), selected=selected, g_prime=g_prime.data.copy()
        )
        return out, decision, b

    def noise_sums(self, z: Tensor, delta: int | None = None, noise: Tensor | None = None) -> dict:
        """Per-interval noise vectors summed over tokens: {delta: (M,) Tensor}.

        These feed the auxiliary losses; they are computed for every
        configured interval on the same tokens, so the losses are defined
        regardless of which interval routed the batch. `noise` is interval
        `delta`'s noise already computed on z (`forward` returns it), used
        instead of recomputing it.
        """
        return {
            d: dc.tensor_sum(noise if d == delta else self._noise(z, d), axis=0)
            for d in self.cfg.intervals
        }


def noise_distributions(noise_sums: dict) -> dict:
    """Softmax each summed noise vector into a distribution over experts."""
    return {d: dc.softmax(t, axis=-1) for d, t in noise_sums.items()}


def aux_loss_1(noise_dists: dict) -> Tensor:
    """Sum of pairwise cross-entropies H(P_i, P_j) over interval pairs i < j.

    Larger means the per-interval distributions diverge; a single interval
    yields 0 by definition.
    """
    deltas = sorted(noise_dists)
    if len(deltas) < 2:
        return Tensor(0.0)
    total = None
    for a in range(len(deltas)):
        for b in range(a + 1, len(deltas)):
            h = dc.cross_entropy(noise_dists[deltas[a]], noise_dists[deltas[b]])
            total = h if total is None else dc.add(total, h)
    return total


def aux_loss_2(noise_dists: dict) -> Tensor:
    """Cross-entropy from the uniform target to the pooled expert distribution.

    The pooled distribution is softmax of the summed per-interval
    distributions. Taking uniform as the first argument makes the loss
    ln(M) exactly at balance and strictly larger otherwise, so minimizing
    it drives the pool toward uniform. (The opposite argument order is
    constant ln(M) for any pool and carries no gradient.)
    """
    dists = list(noise_dists.values())
    total = dists[0]
    for t in dists[1:]:
        total = dc.add(total, t)
    pooled = dc.softmax(total, axis=-1)
    m = pooled.size
    uniform = Tensor(np.full(pooled.shape, 1.0 / m))
    return dc.cross_entropy(uniform, pooled)


def combined_aux(aux1: Tensor, aux2: Tensor, alpha: float) -> Tensor:
    """Total auxiliary objective: -aux1 + alpha * aux2 (to be minimized)."""
    return dc.add(dc.neg(aux1), dc.mul_scalar(aux2, alpha))


def write_router_telemetry(path, rows, num_experts: int, prov: dict):
    """Per-step expert-usage CSV under a provenance header: step, block,
    interval, then one count per expert."""
    from .config import write_csv  # local import: config imports the model, which imports this

    header = ["step", "block", "interval_hours"] + [f"expert_{m}" for m in range(num_experts)]
    body = [[step, block, delta] + [int(c) for c in counts] for step, block, delta, counts in rows]
    write_csv(path, header, body, prov)
