"""Shared-private mixture-of-experts with interval-conditioned noisy top-k routing.

Every token always passes through the shared expert; additionally the top-k
private experts by perturbed gate score contribute, weighted by a softmax
over the selected (unperturbed) gate values. The perturbation is a learned,
interval-specific noise head, so routing can differ per forecast interval.
One matmul computes every interval's noise for every token; each token takes
its own interval's columns, so one call routes tokens of several intervals.
Private experts run only on the rows routed to them (Switch/GShard-style
dispatch): each gathers its tokens, and the weighted outputs of all experts
are summed back into token order by one scatter; an expert no token selects
does not run.

Two auxiliary losses shape the noise heads: the first pushes the per-interval
noise distributions apart (interval specialization, maximized), the second
pulls the pooled distribution toward uniform (load balance, minimized).
`routing_losses` is the one place the routing objective -aux1 + alpha * aux2
is formed, from the raw noise every block's forward returns.

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
    b_delta: np.ndarray  # (n_tokens, M) routing noise of each token's own interval
    selected: np.ndarray  # (n_tokens, k) chosen expert indices, best first
    g_prime: np.ndarray  # (n_tokens, k) normalized weights over the selection

    def usage_histogram(self, num_experts: int, rows=slice(None)) -> np.ndarray:
        """How many (token, slot) assignments each expert received, over the
        given token rows (all of them by default)."""
        return np.bincount(self.selected[rows].ravel(), minlength=num_experts)


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
        self._noise_keys = [f"{prefix}.noise.{delta}" for delta in cfg.intervals]
        for key in self._noise_keys:
            self._params[key] = Tensor(
                rng.normal(scale=gate_scale, size=(D, M)),
                requires_grad=True,
                name=key,
            )
        for m in range(M):
            self._params.update(_ffn_params(rng, D, max(4 * D // M, 4), D, f"{prefix}.private.{m}"))
        self._params.update(_ffn_params(rng, D, 4 * D, D, f"{prefix}.shared"))

    def params(self) -> dict:
        return self._params

    def forward(self, z: Tensor, index):
        """Route (n_tokens, D) through the expert mix, each token by its interval:
        index[i] is the position of token i's interval in `cfg.intervals`.

        Returns (output, gate decision, noise): noise is the (n_tokens,
        intervals x M) Tensor of every configured interval's routing noise,
        M columns per interval in `cfg.intervals` order, that
        `routing_losses` reads.
        """
        cfg = self.cfg
        n, M = z.shape[0], cfg.moe_num_private
        index = np.asarray(index)
        bad = index[(index < 0) | (index >= len(cfg.intervals))]
        if bad.size:
            # a negative position would wrap silently to another interval's noise
            raise KeyError(
                f"unknown interval position {int(bad[0])}; configured set is {cfg.intervals}"
            )
        s = dc.sigmoid(dc.matmul(z, self._params[f"{self.prefix}.gate"]))
        heads = dc.concat([self._params[k] for k in self._noise_keys], axis=1)
        noise = dc.sigmoid(dc.matmul(z, heads))
        b = dc.gather_cols(noise, index[:, None] * M + np.arange(M))  # each row's own interval
        g_prime, selected = gate_decision(s, b, cfg.moe_top_k)

        out = _ffn_forward(self._params, f"{self.prefix}.shared", z)
        # (token, slot) assignments grouped by expert, in flat g_prime order
        order = np.argsort(selected.ravel(), kind="stable")
        tokens = order // cfg.moe_top_k
        per_expert = np.bincount(selected.ravel(), minlength=M)
        outputs, start = [], 0
        for m, count in enumerate(per_expert):
            if count:
                rows = tokens[start:start + count]
                # BLAS takes another kernel for a one-row product, whose bits then
                # differ from the same row's in a larger batch: an expert given
                # one row runs it twice and keeps the first copy
                x = dc.embedding_lookup(z, np.repeat(rows, 2) if count == 1 else rows)
                y = _ffn_forward(self._params, f"{self.prefix}.private.{m}", x)
                outputs.append(dc.slice_axis(y, 0, 0, 1) if count == 1 else y)
                start += count
        weights = dc.embedding_lookup(dc.reshape(g_prime, (g_prime.size, 1)), order)
        private = dc.concat(outputs, axis=0)
        weighted = dc.mul(dc.broadcast_to(weights, private.shape), private)
        out = dc.add(out, dc.scatter_add_rows(weighted, tokens, n))

        decision = MoEGateDecision(
            s=s.data.copy(), b_delta=b.data.copy(), selected=selected, g_prime=g_prime.data.copy()
        )
        return out, decision, noise


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


def routing_losses(noises, cfg: ModelConfig):
    """(objective, aux1, aux2) of the noise matrices of the blocks of one forward.

    Each block's noise (the matrix `SharedPrivateMoE.forward` returns) is
    summed over its tokens, and each interval's M columns of that sum are
    softmaxed into a distribution over experts. Every configured interval's
    noise covers every token, so the losses are defined whichever intervals
    routed the batch. aux1 and aux2 are `aux_loss_1` and `aux_loss_2` of those
    distributions, averaged over blocks; the objective, to be minimized, is
    -aux1 + moe_alpha * aux2.
    """
    M = cfg.moe_num_private
    aux1 = aux2 = None
    for noise in noises:
        sums = dc.tensor_sum(noise, axis=0)
        dists = {d: dc.softmax(dc.slice_axis(sums, 0, i * M, (i + 1) * M), axis=-1)
                 for i, d in enumerate(cfg.intervals)}
        a1, a2 = aux_loss_1(dists), aux_loss_2(dists)
        aux1 = a1 if aux1 is None else dc.add(aux1, a1)
        aux2 = a2 if aux2 is None else dc.add(aux2, a2)
    aux1 = dc.mul_scalar(aux1, 1.0 / len(noises))
    aux2 = dc.mul_scalar(aux2, 1.0 / len(noises))
    return dc.add(dc.neg(aux1), dc.mul_scalar(aux2, cfg.moe_alpha)), aux1, aux2
