"""Span tracer for the benchmark's traced run, and the per-layer metrics it yields.

The tracer wraps functions of the program from outside, in the modules that
call them. Each call becomes a span with a name, a start, an end and the span
that was open when it began (its parent). At the same boundaries it records
the number of autodiff op results created so far (every op result passes
through `Tensor._result`) and one work count chosen by the wrapper, such as
the batch size of a forward or whether an environment step repeats an
earlier forecast. Spans stay in memory until `save` writes them out.

A span's self time is its duration minus the time its child spans of the
same kind cover. There are two kinds: autodiff ops (names `op.*`) and layers
(everything else), so a layer's self time still includes the ops it runs,
and an op's self time is the op alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from array import array

import numpy as np

# every op of rollcast.diffcore; all but top_k create op results
OPS = (
    "add", "sub", "mul", "neg", "add_scalar", "mul_scalar", "matmul", "transpose_last2",
    "reshape", "broadcast_to", "sigmoid", "gelu", "softmax", "layer_norm", "tensor_sum",
    "tensor_mean", "concat", "slice_axis", "embedding_lookup", "gather_cols", "scatter_cols",
    "cross_entropy", "top_k",
)
# ops reported one by one; the rest are summed into diffcore.op_ms.other
REPORTED_OPS = (
    "matmul", "gelu", "softmax", "layer_norm", "slice_axis", "concat", "broadcast_to",
    "add", "mul", "sigmoid", "top_k", "gather_cols", "scatter_cols",
)
POLICIES = ("naive", "greedy", "random", "adaptive")


def digest(values: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(values).tobytes(), digest_size=16).digest()


class Tracer:
    """In-memory spans with op-result counts and one work count each."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ops_start = array("q")
        self.ops_end = array("q")
        self.work = array("q")
        self.ops = 0  # op results created so far
        self._stack: list = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ops_start.append(self.ops)
        self.ops_end.append(0)
        self.work.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())  # last, so the bookkeeping stays outside
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self.ops_end[i] = self.ops
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def wrap(self, owner, attr: str, name, on_call=None, work=None):
        """Replace owner.attr by a wrapper that records one span per call.

        name: a string, or a function of (args, kwargs) giving one.
        on_call(args, kwargs) runs before the span opens; work(args, kwargs,
        result) after it closes, and its value is the span's work count.
        """
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            i = self.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if work is not None:
                self.work[i] = int(work(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def count_op_results(self):
        from rollcast.diffcore.tensor import Tensor

        original = Tensor.__dict__["_result"]
        make = original.__func__

        def counted(data, parents, vjp):
            self.ops += 1
            return make(data, parents, vjp)

        Tensor._result = staticmethod(counted)
        self._undo.append((Tensor, "_result", original))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def arrays(self) -> dict:
        t0 = self.start[0] if len(self.start) else 0.0
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_us": np.round((np.frombuffer(self.start) - t0) * 1e6).astype(np.int64),
            "end_us": np.round((np.frombuffer(self.end) - t0) * 1e6).astype(np.int64),
            "ops_start": np.frombuffer(self.ops_start, dtype=np.int64).copy(),
            "ops_end": np.frombuffer(self.ops_end, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }

    def save(self, path):
        """Write every span (name table, name, parent, start/end in µs, counts)."""
        np.savez(path, **self.arrays())


class _ProbeState:
    """What the wrappers need to remember between calls."""

    def __init__(self):
        self.version = 0  # bumped whenever the forecaster's weights may change
        self.forecasts: set = set()  # (version, state digest, interval) pairs seen
        self.embedded: set = set()  # state digests the Q-network embedded
        self.policy = None  # fixed policy whose episode compare starts next

    def reset(self, *_):
        """A new model instance: forecasts and embeddings start afresh."""
        self.version += 1
        self.forecasts.clear()
        self.embedded.clear()

    def repeated_forecast(self, args, kwargs, result) -> bool:
        _env, state, action = args
        key = (self.version, digest(state.x_hat.values), int(action))
        seen = key in self.forecasts
        self.forecasts.add(key)
        return seen

    def new_embedding(self, args, kwargs, result) -> bool:
        key = digest(args[1])
        seen = key in self.embedded
        self.embedded.add(key)
        return not seen

    def head_step(self, args, kwargs):
        if "head.weight" in args[0].params:
            self.version += 1

    def compare_episode(self, args, kwargs) -> str:
        name, self.policy = self.policy or "adaptive", None
        return "compare.episode." + name


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics read."""
    import rollcast.cli as cli
    import rollcast.diffcore as dc
    import rollcast.evaluation as evaluation
    import rollcast.gridio as gridio
    import rollcast.metrics as metrics
    import rollcast.model as model
    import rollcast.moe as moe
    import rollcast.scheduler as scheduler
    from rollcast.diffcore.optim import AdamW
    from rollcast.scheduler import compare, dqn, env, finetune

    st = _ProbeState()
    wrap = tracer.wrap
    tracer.count_op_results()
    for op in OPS:
        wrap(dc, op, "op." + op)
    wrap(dc, "backward", "diffcore.backward")
    wrap(AdamW, "step", "optim.adamw", on_call=st.head_step)

    wrap(cli, "generate_synthetic", "gridio.generate")
    for owner in (cli, gridio):
        wrap(owner, "read_grid_file", "gridio.read")
    wrap(cli, "save_checkpoint", "checkpoint.save")
    wrap(cli, "load_checkpoint", "checkpoint.load")
    wrap(cli, "load_model_checkpoint", "cli.load_model", on_call=st.reset)
    wrap(cli, "evaluate_leads", "evaluation.leads")
    wrap(cli, "adaptive_rollout_finetune", "finetune.run")

    wrap(model.PretrainTrainer, "step", "pretrain.step")
    wrap(model.PretrainTrainer, "loss_on_batch", "pretrain.forward")
    wrap(model.ForecastModel, "forward_tokens", "model.forward_tokens",
         work=lambda a, k, r: a[1].shape[0])
    wrap(model.ForecastModel, "body_tokens", "model.body", work=lambda a, k, r: a[1].shape[0])
    wrap(model.ForecastModel, "apply_head", "model.head")
    wrap(model, "patchify", "model.patchify")
    wrap(model.ArchBlock, "forward", "model.block")
    # selected private rows: k per token
    wrap(moe.SharedPrivateMoE, "forward", "moe.forward", work=lambda a, k, r: r[1].selected.size)
    # rows each expert feed-forward actually computes
    wrap(moe, "_ffn_forward",
         lambda a, k: "moe.private_ffn" if ".private." in a[1] else "moe.shared_ffn",
         work=lambda a, k, r: a[2].shape[0])

    wrap(env.ForecastEnv, "step", "env.step", work=st.repeated_forecast)
    for owner in (env, scheduler):
        wrap(owner, "run_episode", "env.episode")
    wrap(dqn.QNetwork, "_weather_tokens", "dqn.embed", work=st.new_embedding)
    wrap(dqn.ReplayBuffer, "refresh", "dqn.refresh")
    wrap(finetune, "td_update", "dqn.td_update")
    wrap(finetune, "rollout_finetune_loss", "finetune.rollout_loss")
    # head-update trajectories follow the target network's greedy choice;
    # collection episodes follow the epsilon-greedy main network
    wrap(finetune, "run_episode",
         lambda a, k: "finetune.head_episode"
         if "_greedy_on_target" in getattr(a[2], "__qualname__", "")
         else "finetune.collect_episode")

    for name in ("naive", "greedy", "random"):
        wrap(compare, f"policy_{name}", "compare.decompose",
             on_call=lambda a, k, name=name: setattr(st, "policy", name))
    wrap(compare, "run_episode", st.compare_episode)
    for owner in (metrics, compare, evaluation):
        wrap(owner, "rmse", "metrics.rmse")


# -- per-layer metrics -------------------------------------------------------------


class SpanTable:
    """Vectorised queries over a tracer's spans."""

    def __init__(self, arrays: dict):
        self.names = list(arrays["names"])
        self.name = arrays["name"]
        self.parent = arrays["parent"]
        self.dur = (arrays["end_us"] - arrays["start_us"]) / 1e6
        self.ops = arrays["ops_end"] - arrays["ops_start"]
        self.work = arrays["work"]
        n = len(self.name)
        is_op = np.array([nm.startswith("op.") for nm in self.names] + [False])[self.name]
        has_parent = self.parent >= 0
        self_time = self.dur.copy()
        for kind in (is_op, ~is_op):
            child = kind & has_parent
            covered = np.bincount(self.parent[child], weights=self.dur[child], minlength=n)
            self_time[kind] -= covered[kind]
        self.self_time = self_time

    def of(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def under(self, name: str) -> np.ndarray:
        """Spans with an ancestor called `name`."""
        target = self.of(name)
        inside = np.zeros(len(self.name), dtype=bool)
        anc = self.parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            inside[live] |= target[anc[live]]
            anc[live] = self.parent[anc[live]]
        return inside

    def child_of(self, name: str) -> np.ndarray:
        target = self.of(name)
        live = self.parent >= 0
        out = np.zeros(len(self.name), dtype=bool)
        out[live] = target[self.parent[live]]
        return out


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def layer_metrics(spans: SpanTable, overhead_s: float, untraced_round_s: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}.

    Per-call and per-sample figures cover the whole traced run, set-up
    included; per-round figures cover the measured rounds only.
    """
    s = spans
    rounds = int(np.count_nonzero(s.of("bench.round")))
    in_round = s.under("bench.round")
    m = {}

    def per_call(span, unit_scale=1.0):
        return _mean(s.dur[s.of(span)]) * unit_scale

    def per_round(mask, values=None) -> float:
        vals = (s.dur if values is None else values)[mask & in_round]
        return _ratio(float(np.sum(vals)), rounds)

    def count_per_round(mask) -> float:
        return _ratio(float(np.count_nonzero(mask & in_round)), rounds)

    for stage in ("gen_data", "pretrain", "finetune", "compare", "eval"):
        m[f"cli.{stage}_s"] = (per_call(f"cli.{stage}"), "s")
    m["gridio.generate_s"] = (per_call("gridio.generate"), "s")
    m["gridio.read_s"] = (per_call("gridio.read"), "s")

    steps = s.of("pretrain.step")
    n_steps = int(np.count_nonzero(steps))
    m["diffcore.ops_per_step"] = (_mean(s.ops[steps]), "count")
    m["diffcore.step_forward_ms"] = (per_call("pretrain.forward", 1e3), "ms")
    for key, span in (("backward", "diffcore.backward"), ("adamw", "optim.adamw")):
        inside = s.of(span) & s.child_of("pretrain.step")
        m[f"diffcore.step_{key}_ms"] = (_ratio(float(np.sum(s.dur[inside])), n_steps) * 1e3, "ms")

    fwd = s.of("model.forward_tokens")
    # a forecast: one state, outside training (training steps can hold a
    # one-sample interval group, which also builds the noise branches)
    b1 = fwd & (s.work == 1) & ~s.under("pretrain.step")
    m["diffcore.ops_per_forecast"] = (_mean(s.ops[b1]), "count")
    m["diffcore.ops_per_td_update"] = (_mean(s.ops[s.of("dqn.td_update")]), "count")
    other = np.zeros(len(s.name), dtype=bool)
    for op in OPS:
        if op in REPORTED_OPS:
            m[f"diffcore.op_ms.{op}"] = (per_round(s.of("op." + op), s.self_time) * 1e3, "ms/round")
        else:
            other |= s.of("op." + op)
    m["diffcore.op_ms.other"] = (per_round(other, s.self_time) * 1e3, "ms/round")
    m["checkpoint.save_ms"] = (per_call("checkpoint.save", 1e3), "ms")
    m["checkpoint.load_ms"] = (per_call("checkpoint.load", 1e3), "ms")

    body = s.of("model.body")
    samples = float(np.sum(s.work[body]))
    m["model.forward_ms_b1"] = (_mean(s.dur[b1]) * 1e3, "ms")
    m["model.forward_ms_per_sample"] = (
        _ratio(float(np.sum(s.dur[fwd])), float(np.sum(s.work[fwd]))) * 1e3, "ms")
    block_self = float(np.sum(s.self_time[s.of("model.block")]))
    embed_self = float(np.sum(s.self_time[body])) + float(
        np.sum(s.dur[s.of("model.patchify") & s.child_of("model.body")]))
    m["model.block_self_ms"] = (_ratio(block_self, samples) * 1e3, "ms")
    m["model.embed_self_ms"] = (_ratio(embed_self, samples) * 1e3, "ms")
    m["model.head_ms"] = (_ratio(float(np.sum(s.dur[s.of("model.head")])), samples) * 1e3, "ms")
    m["moe.forward_ms"] = (_ratio(float(np.sum(s.dur[s.of("moe.forward")])), samples) * 1e3, "ms")

    computed = per_round(s.of("moe.private_ffn"), s.work)
    selected = per_round(s.of("moe.forward"), s.work)
    m["moe.private_rows_computed"] = (computed, "count")
    m["moe.private_rows_selected"] = (selected, "count")
    m["moe.private_useful_ratio"] = (_ratio(selected, computed), "ratio")

    env_step = s.of("env.step")
    n_env = count_per_round(env_step)
    redundant = per_round(env_step, s.work)
    m["env.steps"] = (n_env, "count")
    m["env.step_ms"] = (per_call("env.step", 1e3), "ms")
    m["env.redundant_forecasts"] = (redundant, "count")
    m["env.forecast_useful_ratio"] = (1.0 - _ratio(redundant, n_env) if n_env else 0.0, "ratio")

    embed = s.of("dqn.embed")
    m["dqn.q_rows"] = (count_per_round(embed), "count")
    m["dqn.q_rows_distinct"] = (per_round(embed, s.work), "count")
    m["dqn.td_update_ms"] = (per_call("dqn.td_update", 1e3), "ms")
    m["dqn.refresh_s"] = (per_round(s.of("dqn.refresh")), "s")
    m["dqn.refresh_env_steps"] = (count_per_round(env_step & s.under("dqn.refresh")), "count")

    head = (s.of("finetune.head_episode") | s.of("finetune.rollout_loss")
            | ((s.of("diffcore.backward") | s.of("optim.adamw")) & s.child_of("finetune.run")))
    m["finetune.collect_s"] = (per_round(s.of("finetune.collect_episode")), "s")
    m["finetune.head_update_s"] = (per_round(head), "s")
    for policy in POLICIES:
        m[f"compare.policy_s.{policy}"] = (per_round(s.of(f"compare.episode.{policy}")), "s")
    m["evaluation.leads_s"] = (per_round(s.of("evaluation.leads")), "s")
    rmse = s.of("metrics.rmse")
    m["metrics.rmse_calls"] = (count_per_round(rmse), "count")
    m["metrics.rmse_ms"] = (per_call("metrics.rmse", 1e3), "ms")

    m["trace.rounds"] = (rounds, "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.overhead_pct"] = (100.0 * _ratio(overhead_s, untraced_round_s), "%")
    return m
