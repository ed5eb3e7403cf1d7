"""Lead-time evaluation with injected oracle and climatology predictors."""

import numpy as np
import pytest

from rollcast.evaluation import eval_initial_times, evaluate_leads
from rollcast.gridio import GridField, GridSpec, default_splits, generate_synthetic
from rollcast.metrics import Climatology


SPEC = GridSpec.cell_centered(2, 8, 16)


def make_dataset():
    return generate_synthetic(SPEC, 400, seed=33, splits=default_splits(400))


def test_initial_times_respect_split_and_lead():
    ds = make_dataset()
    times = eval_initial_times(ds, "test", 138, episodes=20, seed=0)
    lo, hi = ds.splits["test"]
    t_lo = ds.fields[lo].timestamp_hours
    t_hi = ds.fields[hi - 1].timestamp_hours
    assert len(times) == 20
    assert all(t_lo <= t and t + 138 <= t_hi for t in times)
    assert times == eval_initial_times(ds, "test", 138, episodes=20, seed=0)


def test_perfect_oracle_scores_rmse_zero_acc_one():
    ds = make_dataset()

    calls = []

    def oracle(starts, leads):
        calls.append(list(leads))
        return [ds.at(x0.timestamp_hours + lead) for x0, lead in zip(starts, leads)]

    rows = evaluate_leads(oracle, ds, "test", leads=(6, 24), episodes=10, seed=1)
    assert calls == [[6] * 10 + [24] * 10]  # every pair of every lead in one call
    assert len(rows) == 2 * SPEC.num_vars
    for _, _, r, a in rows:
        assert r == 0.0
        assert abs(a - 1.0) < 1e-12


def test_climatology_predictor_has_near_zero_acc():
    ds = make_dataset()
    clim = Climatology.from_dataset(ds, "train")

    def clim_predictor(starts, leads):
        times = [x0.timestamp_hours + lead for x0, lead in zip(starts, leads)]
        return [GridField(ds.spec, clim.at(t), t) for t in times]

    rows = evaluate_leads(clim_predictor, ds, "test", leads=(24,), episodes=10, seed=2,
                          climatology=clim)
    for _, _, r, a in rows:
        assert r > 0.0  # the climatology is not the truth
        assert abs(a) < 1e-12  # anomalies of the predictor are identically zero


def test_persistence_skill_decays_with_lead():
    ds = make_dataset()

    def persistence(starts, leads):
        return [GridField(ds.spec, x0.values, x0.timestamp_hours + lead)
                for x0, lead in zip(starts, leads)]

    rows = evaluate_leads(persistence, ds, "test", leads=(6, 72), episodes=15, seed=3)
    by_lead = {}
    for name, lead, r, a in rows:
        by_lead.setdefault(lead, []).append(r)
    assert np.mean(by_lead[6]) < np.mean(by_lead[72])


def test_pairs_reach_the_forecaster_in_lead_order_and_are_scored_per_lead():
    ds = make_dataset()
    leads = (24, 6)
    seen = []

    def persistence(starts, leads):
        seen.extend((x0.timestamp_hours, lead) for x0, lead in zip(starts, leads))
        return [GridField(ds.spec, x0.values, x0.timestamp_hours + lead)
                for x0, lead in zip(starts, leads)]

    rows = evaluate_leads(persistence, ds, "test", leads=leads, episodes=5, seed=4)
    expected = [(t0, lead) for lead in leads for t0 in eval_initial_times(ds, "test", lead, 5, 4)]
    assert seen == expected
    # the same scores as scoring each lead in a call of its own
    for lead in leads:
        alone = evaluate_leads(persistence, ds, "test", leads=(lead,), episodes=5, seed=4)
        assert alone == [row for row in rows if row[1] == lead]

    with pytest.raises(ValueError, match="fields for"):
        evaluate_leads(lambda starts, leads: [], ds, "test", leads=leads, episodes=5, seed=4)
