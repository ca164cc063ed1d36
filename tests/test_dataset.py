"""The indexed Dataset path against the dict-based oracle in oracles.py.

Seeded damage to synth records (dropped hours, blank loads, zero or
negative loads, repeated keys, shuffled order), written out as CSV, must
give the engine and the oracle the same window or the same ValidationError
message, and every day of the 31-day acceptance backtest and of the 391-day
OLS backtest, as one window, must give design matrices with the bytes of
the oracle's.
"""

import datetime as dt
import random
import re

import numpy as np
import pytest

from dayahead import backtest
from dayahead.errors import DegeneracyError, ValidationError
from dayahead.features import LAMBDA_GRID, MODEL_IDS, run_designs, target_regressors
from dayahead.ingest import SynthParams, assemble_window, serialize_csv, synth_dataset

import oracles
from conftest import dataset_of, same_bits, same_window

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


def oracle_records(records):
    """The records as the line-by-line oracle parser reads their CSV."""
    return oracles.parse_csv_records(serialize_csv(records))


def kind(message):
    """A message without its line number or (date, hour)."""
    return re.sub(r"^line \d+: ", "", message).split(" (")[0]


def test_window_matches_dict_oracle_under_seeded_damage():
    records = synth_dataset(SynthParams(days=14, seed=3))
    kinds = set()
    for trial in range(400):
        rng = random.Random(trial)
        recs = damaged(records, rng)
        target = START + dt.timedelta(days=rng.randint(8, 14))
        want = outcome(lambda r, t: oracles.assemble_window(oracle_records(r), t),
                       recs, target)
        got = outcome(lambda r, t: assemble_window(dataset_of(r), t), recs, target)
        if isinstance(want, str):
            assert got == want, (trial, target)
        else:
            assert same_window(got, want), (trial, target)
        kinds.add(kind(want) if isinstance(want, str) else "window")
    # the damage reaches every outcome the oracle can give
    assert kinds == {
        "window", "duplicate key", "missing data for", "missing load_mw for",
        "non-positive load at", "missing forecast temperature for",
    }


def test_backtest_rejects_input_as_before(monkeypatch):
    def no_forecast(window, critical_values, settings, fits):
        raise DegeneracyError("stub", "(4)")

    def unfitted(window, settings):  # so each day is scored as a run of one
        raise DegeneracyError("stub", "(1)")

    monkeypatch.setattr(backtest, "fit_windows", unfitted)
    monkeypatch.setattr(backtest, "run_day", no_forecast)
    records = synth_dataset(SynthParams(days=16, seed=5))
    messages = set()
    for trial in range(200):
        rng = random.Random(trial)
        recs = damaged(records, rng)
        start = START + dt.timedelta(days=rng.randint(8, 13))
        end = start + dt.timedelta(days=rng.randint(0, 3))
        try:
            want = oracles.backtest_input_error(oracle_records(recs), start, end)
        except ValidationError as exc:
            want = str(exc)
        try:
            backtest.run_backtest(dataset_of(recs), start, end, None)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == want, (trial, start, end)
        messages.add(kind(want) if want else None)
    assert {"insufficient coverage: missing", "insufficient coverage: missing load for",
            "non-positive load at", "duplicate key", None} <= messages


def assert_oracle_designs(records, first, n, lams):
    """``run_designs`` on the window of n target days from ``first``, as the
    backtest's runs are built, has the bytes of the oracle's design matrices,
    responses and target-day blocks, in both lag modes and for every model;
    so does ``target_regressors`` on each day's one-day window."""
    dataset = dataset_of(records)
    run = dataset.window(first, n)
    windows, want_windows = [], []
    for i in range(n):
        target = first + dt.timedelta(days=i)
        windows.append(assemble_window(dataset, target))
        # The records of the target day and of the nine days before it.
        start = 24 * (target - records[0].date).days - 24 * 9
        want_windows.append(oracles.assemble_window(records[start : start + 240], target))
        assert same_window(windows[i], want_windows[i])
        assert not windows[i].loads.flags.writeable
    for temp_mode in ("hour", "day"):
        for model_id in MODEL_IDS:
            systems, blocks = run_designs(run, model_id, lams, temp_mode)
            matrices, responses = systems[..., :-1], systems[:, 0, :, -1]
            for i, (window, want_window) in enumerate(zip(windows, want_windows)):
                days = oracles.legal_training_days(want_window, model_id, temp_mode)
                for j, lam in enumerate(lams):
                    want = oracles.design_matrix(want_window, model_id, days, lam, temp_mode)
                    assert same_bits(matrices[i, j], want.matrix)
                    assert same_bits(responses[i], want.response)
                    want_block = oracles.day_regressors(
                        want_window, window.target_date, model_id, lam, temp_mode
                    )
                    assert same_bits(blocks[i, j], want_block)
                    block = target_regressors(window, model_id, lam, temp_mode)
                    assert same_bits(block, want_block)


@pytest.mark.parametrize("seed", [1, 20071])
def test_backtest_windows_give_oracle_design_matrices(seed):
    # The 31-day acceptance backtest at every decay of the grid.
    records = synth_dataset(SynthParams(days=40, seed=seed))
    assert_oracle_designs(records, dt.date(2004, 1, 10), 31, LAMBDA_GRID)


@pytest.mark.parametrize("seed", [1, 20071])
def test_year_long_backtest_gives_oracle_design_matrices_without_the_lag(seed):
    # The 391-day backtest of synth --days 400 with --koyck off, as one window.
    records = synth_dataset(SynthParams(days=400, seed=seed))
    assert_oracle_designs(records, dt.date(2004, 1, 10), 391, (0.0,))


def test_dataset_len_is_record_count_and_rows_follow_the_calendar():
    records = synth_dataset(SynthParams(days=3, seed=2))
    shuffled = list(reversed(records[24:])) + records[:24]
    data = dataset_of(shuffled)
    assert len(data) == 72
    assert list(data.index) == [START + dt.timedelta(days=k) for k in range(3)]
    assert np.array_equal(data.loads[:3].ravel(), [r.load_mw for r in records])
    assert np.isnan(data.temps[-1]).all()  # the stand-in row for absent days


def test_dataset_window_is_a_slice_of_read_only_dataset_rows():
    records = synth_dataset(SynthParams(days=20, seed=2))
    data = dataset_of(list(reversed(records)))
    target, n = START + dt.timedelta(days=9), 6
    window = data.window(target, n)
    assert (window.target_date, window.days) == (target, n)
    assert (window.loads.shape, window.temps.shape) == ((8 + n, 24), (9 + n, 24))
    for got, full in ((window.loads, data.loads), (window.temps, data.temps)):
        assert np.shares_memory(got, full) and not got.flags.writeable
        for r, values in enumerate(got):
            # Row r is day target - 9 + r: row 9 + i is target day i.
            want = full[data.index[target + dt.timedelta(days=r - 9)]]
            assert np.array_equal(values, want)
    assert same_window(data.window(target), assemble_window(data, target))


def test_far_apart_days_take_one_row_each():
    records = synth_dataset(SynthParams(days=1, seed=2))
    far = [r._replace(date=dt.date(9999, 12, 31)) for r in records]
    data = dataset_of(records + far)
    assert data.loads.shape == (3, 24)
    with pytest.raises(ValidationError, match=r"missing data for \(9999-12-22, hour 1\)"):
        assemble_window(data, dt.date(9999, 12, 31))
