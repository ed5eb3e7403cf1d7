"""Lead-time evaluation: RMSE/ACC of rolled-out forecasts over a test split."""

from __future__ import annotations

import numpy as np

from .gridio import Dataset
from .metrics import Climatology, WeightTable, acc, lat_weights, rmse


def eval_initial_times(dataset: Dataset, split: str, lead_h: int, episodes: int,
                       seed: int) -> list:
    """Deterministic sample of initial timestamps with room for the lead."""
    lo, hi = dataset.splits[split]
    step_h = dataset.spec.base_step_hours
    last_valid = hi - 1 - lead_h // step_h
    if last_valid < lo:
        raise ValueError(f"split {split!r} too short for lead {lead_h}h")
    rng = np.random.default_rng([seed, lead_h])
    idxs = sorted(int(i) for i in rng.choice(np.arange(lo, last_valid + 1),
                                             size=min(episodes, last_valid + 1 - lo),
                                             replace=False))
    return [dataset.fields[i].timestamp_hours for i in idxs]


def evaluate_leads(forecast_fn, dataset: Dataset, split: str, leads, episodes: int,
                   seed: int, climatology: Climatology | None = None,
                   weights: WeightTable | None = None) -> list:
    """Score a forecaster at several lead times.

    forecast_fn(starts, leads) gets every (initial state, lead) pair of all
    leads in one call, as a list of GridFields and a list of lead hours, and
    must return the predicted GridField at start.timestamp + lead for each
    pair, in order. Returns rows of (variable name, lead_hours, rmse, acc)
    averaged over initial times.
    """
    weights = weights or lat_weights(dataset.spec)
    climatology = climatology or Climatology.from_dataset(dataset, "train")
    names = dataset.meta.get("variables") or [f"var{v}" for v in range(dataset.spec.num_vars)]
    t0s = [eval_initial_times(dataset, split, lead, episodes, seed) for lead in leads]
    pair_leads = [int(lead) for lead, starts in zip(leads, t0s) for _ in starts]
    preds = forecast_fn([dataset.at(t0) for starts in t0s for t0 in starts], pair_leads)
    if len(preds) != len(pair_leads):
        raise ValueError(f"forecast_fn returned {len(preds)} fields for {len(pair_leads)} pairs")
    preds = iter(preds)
    rows = []
    for lead, starts in zip(leads, t0s):
        p = np.stack([next(preds).values for _ in starts])
        t = np.stack([dataset.at(t0 + lead).values for t0 in starts])
        c = np.stack([climatology.at(t0 + lead) for t0 in starts])
        accs = acc(p, t, c, weights)
        for v, name in enumerate(names):
            r = rmse(p[:, v : v + 1], t[:, v : v + 1], weights)
            rows.append((name, int(lead), r, float(accs[v])))
    return rows
