"""Lead-time evaluation: RMSE/ACC of rolled-out forecasts over a test split."""

from __future__ import annotations

import numpy as np

from .gridio import Dataset
from .metrics import Climatology, acc, lat_weights, rmse


def eval_initial_times(dataset: Dataset, split: str, lead_h: int, episodes: int,
                       seed: int) -> list:
    """Deterministic sample of initial timestamps with room for the lead."""
    starts = dataset.window_starts(split, lead_h)
    rng = np.random.default_rng([seed, lead_h])
    idxs = sorted(int(i) for i in rng.choice(np.arange(starts.start, starts.stop),
                                             size=min(episodes, len(starts)), replace=False))
    return [dataset.fields[i].timestamp_hours for i in idxs]


def evaluate_leads(forecast_fn, dataset: Dataset, split: str, leads, episodes: int,
                   seed: int) -> list:
    """Score a forecaster at several lead times.

    forecast_fn(starts, leads) gets every (initial state, lead) pair of all
    leads in one call, as a list of GridFields and a list of lead hours, and
    must return the predicted GridField at start.timestamp + lead for each
    pair, in order. Returns rows of (variable name, lead_hours, rmse, acc)
    averaged over initial times, against the train-split climatology.
    """
    lat_weight = lat_weights(dataset.spec)
    climatology = Climatology.from_dataset(dataset)
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
        accs = acc(p, t, c, lat_weight)
        for v, name in enumerate(dataset.variable_names):
            r = rmse(p[:, v : v + 1], t[:, v : v + 1], lat_weight)
            rows.append((name, int(lead), r, float(accs[v])))
    return rows
