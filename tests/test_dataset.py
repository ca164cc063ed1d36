"""The indexed Dataset path against the dict-based oracle in oracles.py.

Seeded damage to synth records (dropped hours, blank loads, zero or
negative loads, repeated keys, shuffled order) must give the engine and the
oracle the same window or the same ValidationError message, and every window
of the 31-day acceptance backtest must give design matrices equal to the
oracle's.
"""

import datetime as dt
import random

import numpy as np
import pytest

from dayahead import backtest
from dayahead.errors import DegeneracyError, ValidationError
from dayahead.features import (
    LAMBDA_GRID,
    MODEL_IDS,
    design_matrices,
    legal_training_days,
    target_regressors,
)
from dayahead.ingest import Dataset, SynthParams, assemble_window, synth_dataset

import oracles

START = dt.date(2004, 1, 1)


def damaged(records, rng: random.Random):
    """A copy of ``records`` with a few seeded faults, in shuffled order."""
    out = list(records)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(out))
        fault = rng.choice(("drop", "blank", "zero", "negative", "duplicate"))
        if fault == "drop":
            del out[i]
        elif fault == "blank":
            out[i] = out[i]._replace(load_mw=None)
        elif fault == "zero":
            out[i] = out[i]._replace(load_mw=0.0)
        elif fault == "negative":
            out[i] = out[i]._replace(load_mw=-out[i].load_mw if out[i].load_mw else -1.0)
        else:
            out.insert(rng.randrange(len(out) + 1), out[i]._replace(temp_c=-40.0))
    rng.shuffle(out)
    return out


def outcome(assemble, records, target):
    try:
        return assemble(records, target)
    except ValidationError as exc:
        return str(exc)


def test_window_matches_dict_oracle_under_seeded_damage():
    records, _ = synth_dataset(SynthParams(days=14, seed=3))
    kinds = set()
    for trial in range(400):
        rng = random.Random(trial)
        recs = damaged(records, rng)
        target = START + dt.timedelta(days=rng.randint(8, 14))
        want = outcome(oracles.assemble_window, recs, target)
        got = outcome(lambda r, t: assemble_window(Dataset.from_records(r), t), recs, target)
        assert got == want, (trial, target)
        kinds.add(want.split(" (")[0] if isinstance(want, str) else "window")
    # the damage reaches every outcome the oracle can give
    assert kinds == {
        "window", "duplicate key", "missing data for", "missing load_mw for",
        "non-positive load at", "missing forecast temperature for",
    }


def test_backtest_rejects_input_as_before(monkeypatch):
    def no_forecast(window, critical_values, settings):
        raise DegeneracyError("stub", "(4)")

    monkeypatch.setattr(backtest, "run_day", no_forecast)
    records, _ = synth_dataset(SynthParams(days=16, seed=5))
    messages = set()
    for trial in range(200):
        rng = random.Random(trial)
        recs = damaged(records, rng)
        start = START + dt.timedelta(days=rng.randint(8, 13))
        end = start + dt.timedelta(days=rng.randint(0, 3))
        want = oracles.backtest_input_error(recs, start, end)
        try:
            backtest.run_backtest(Dataset.from_records(recs), start, end, None)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == want, (trial, start, end)
        messages.add(want.split(" (")[0] if want else None)
    assert {"insufficient coverage: missing", "insufficient coverage: missing load for",
            "non-positive load at", "duplicate key", None} <= messages


@pytest.mark.parametrize("seed", [1, 20071])
def test_backtest_windows_give_oracle_design_matrices(seed):
    records, _ = synth_dataset(SynthParams(days=40, seed=seed))
    dataset = Dataset.from_records(records)
    target = dt.date(2004, 1, 10)
    while target <= dt.date(2004, 2, 9):
        window = assemble_window(dataset, target)
        want_window = oracles.assemble_window(records, target)
        assert window == want_window
        assert not window.loads.flags.writeable
        for temp_mode in ("hour", "day"):
            for model_id in MODEL_IDS:
                days = legal_training_days(window, model_id, temp_mode)
                designs = design_matrices(window, model_id, days, LAMBDA_GRID, temp_mode)
                for lam, design in zip(LAMBDA_GRID, designs):
                    want = oracles.design_matrix(want_window, model_id, days, lam, temp_mode)
                    assert (design.matrix == want.matrix).all()
                    assert (design.response == want.response).all()
                    block = target_regressors(window, model_id, lam, temp_mode)
                    want_block = oracles.day_regressors(
                        want_window, target, model_id, lam, temp_mode
                    )
                    assert (block == want_block).all()
        target += dt.timedelta(days=1)


def test_dataset_len_is_record_count_and_rows_follow_the_calendar():
    records, _ = synth_dataset(SynthParams(days=3, seed=2))
    shuffled = list(reversed(records[24:])) + records[:24]
    data = Dataset.from_records(shuffled)
    assert len(data) == 72
    assert list(data.index) == [START + dt.timedelta(days=k) for k in range(3)]
    assert np.array_equal(data.loads[:3].ravel(), [r.load_mw for r in records])
    assert not data.has_temp[-1].any()  # the stand-in row for absent days


def test_dataset_rejects_bad_records():
    records, _ = synth_dataset(SynthParams(days=2, seed=2))
    with pytest.raises(ValidationError, match=r"out of range 1..24 at \(2004-01-01, hour 25\)"):
        Dataset.from_records(records + [records[0]._replace(hour=25)])
    infinite = [
        r._replace(temp_c=float("inf")) if (r.date.day, r.hour) in ((2, 3), (2, 9)) else r
        for r in reversed(records)
    ]
    with pytest.raises(ValidationError, match=r"non-finite value at \(2004-01-02, hour 9\)"):
        Dataset.from_records(infinite)
    nan_load = Dataset.from_records([records[0]._replace(load_mw=float("nan"))])
    assert not nan_load.has_load.any() and nan_load.has_temp[0, 0]


def test_far_apart_days_take_one_row_each():
    records, _ = synth_dataset(SynthParams(days=1, seed=2))
    far = [r._replace(date=dt.date(9999, 12, 31)) for r in records]
    data = Dataset.from_records(records + far)
    assert data.loads.shape == (3, 24)
    with pytest.raises(ValidationError, match=r"missing data for \(9999-12-22, hour 1\)"):
        assemble_window(data, dt.date(9999, 12, 31))
