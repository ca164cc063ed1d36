"""The columnar parse_csv against the line-by-line parser in oracles.py.

Seeded damage to a synth CSV (wrong field counts, bad dates and hours,
non-finite or blank values, blank lines, CRLF endings, repeated keys) must
give the engine and the oracle the same Dataset or the same ValidationError
message, and so must merging a history file with a weather file.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dayahead import ingest
from dayahead.errors import ValidationError
from dayahead.ingest import (
    CSV_HEADER,
    SynthParams,
    parse_csv,
    serialize_csv,
    synth_dataset,
)

from conftest import same_dataset
from oracles import Indexed, index_records, parse_csv_records

FIELD = {  # column -> replacement values that break or stretch it
    0: ["2004-13-01", "", "x", " 2004-01-02 ", "20040102", "2004-W01-1"],
    1: ["one", "", "1.5", str(10**30), "0", "25", " 7 ", "24", "-3", "1_0"],
    2: ["nan", "inf", "-inf", "", "   ", "abc", "0", "-1.5", "1e400", "\x1c12\x1c"],
    3: ["nan", "", "abc", "inf", "  ", "-0.0", "1_0.5", "1e-400"],
}


def oracle_outcome(*texts):
    try:
        return index_records([r for t in texts for r in parse_csv_records(t)])
    except ValidationError as exc:
        return str(exc)


def engine_outcome(*texts):
    try:
        data = parse_csv(texts[0])
        for text in texts[1:]:
            data = data + parse_csv(text)
        return data
    except ValidationError as exc:
        return str(exc)


def assert_same_outcome(*texts):
    want, got = oracle_outcome(*texts), engine_outcome(*texts)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert same_dataset(got, want)
    return want


def damaged(lines, rng: random.Random):
    """A copy of the CSV lines with a few seeded faults."""
    out = list(lines)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(out))
        fault = rng.choice(("field", "field", "count", "blank", "duplicate"))
        fields = out[i].split(",")
        if fault == "field" and len(fields) == 4:
            col = rng.randrange(4)
            fields[col] = rng.choice(FIELD[col])
            out[i] = ",".join(fields)
        elif fault == "count":
            out[i] = ",".join(fields[:-1] if rng.random() < 0.5 else fields + ["1"])
        elif fault == "blank":
            out.insert(i, rng.choice(("", "   ", "\t", "\r")))
        else:
            out.insert(rng.randrange(len(out) + 1), out[i])
    return out


KINDS = ("expected 4 fields", "bad date", "bad hour", "out of range 1..24", "bad load_mw",
         "non-finite load_mw", "bad temp_c", "non-finite temp_c", "duplicate key")


def kind(outcome):
    if not isinstance(outcome, str):
        return "dataset"
    return next(k for k in KINDS if k in outcome)


@pytest.mark.parametrize("chunk_chars", [1, 150, 1 << 15])
def test_parse_matches_line_oracle_under_seeded_damage(monkeypatch, chunk_chars):
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
    records = synth_dataset(SynthParams(days=3, seed=4))
    header, *lines = serialize_csv(records).split("\n")
    kinds = set()
    for trial in range(300):
        rng = random.Random(trial)
        body = damaged(lines, rng)
        newline = "\r\n" if rng.random() < 0.25 else "\n"
        text = newline.join([header, *body])
        kinds.add(kind(assert_same_outcome(text)))
    assert kinds == {"dataset", *KINDS}


@pytest.mark.parametrize("chunk_chars", [1, 40, 1 << 15])
def test_first_error_in_file_order_wins(monkeypatch, chunk_chars):
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", chunk_chars)
    ok = "2004-05-01,3,4100.0,10.0"
    bad_date, bad_count = "2004-13-01,4,1.0,1.0", "2004-05-01,5,1.0"
    for body, message in [
        ([ok, bad_date, ok], "line 3: bad date '2004-13-01'"),
        ([ok, ok, bad_date], "line 3: duplicate key (2004-05-01, hour 3)"),
        ([ok, "", ok, bad_count], "line 4: duplicate key (2004-05-01, hour 3)"),
        ([ok, "  ", bad_count, ok], "line 4: expected 4 fields, got 3"),
    ]:
        text = "\n".join([CSV_HEADER, *body]) + "\n"
        assert assert_same_outcome(text) == message
        with pytest.raises(ValidationError, match=message.split(": ")[0]):
            parse_csv(text)


def test_the_three_date_forms_name_one_day():
    # date.fromisoformat (Python >= 3.11) reads the extended, the basic and
    # the ISO week-date forms alike.
    rows = ["2004-05-01,1,4100.0,10.0", "20040501,1,4100.0,10.0", "2004-W18-6,1,4100.0,10.0"]
    first = parse_csv(f"{CSV_HEADER}\n{rows[0]}\n")
    for row in rows[1:]:
        assert same_dataset(parse_csv(f"{CSV_HEADER}\n{row}\n"), first)
        message = "line 3: duplicate key (2004-05-01, hour 1)"
        assert assert_same_outcome(f"{CSV_HEADER}\n{rows[0]}\n{row}\n") == message


def test_special_fields_match_the_oracle():
    row = "2004-05-01,{hour},{load},{temp}"
    cases = [
        dict(hour=str(10**30), load="1.0", temp="1.0"),
        dict(hour="0", load="1.0", temp="1.0"),
        dict(hour="25", load="1.0", temp="1.0"),
        dict(hour="1", load="nan", temp="1.0"),
        dict(hour="1", load="inf", temp="1.0"),
        dict(hour="1", load="", temp="1.0"),
        dict(hour="1", load=" \t ", temp="1.0"),
        dict(hour="1", load="1.0", temp="nan"),
    ]
    outcomes = [assert_same_outcome(f"{CSV_HEADER}\n{row.format(**c)}\n") for c in cases]
    assert outcomes[0] == f"line 2: hour {10**30} out of range 1..24"
    assert outcomes[3] == "line 2: non-finite load_mw"
    assert np.isnan(outcomes[5].loads).all() and np.isnan(outcomes[6].loads).all()
    assert outcomes[7] == "line 2: non-finite temp_c"


def test_history_and_weather_merge_matches_the_oracle():
    records = synth_dataset(SynthParams(days=4, seed=9))
    history = records[:-24]
    weather = [r._replace(load_mw=None) for r in records[-24:]]
    for trial in range(60):
        rng = random.Random(trial)
        extra = [rng.choice(history)._replace(load_mw=None) for _ in range(rng.randint(0, 2))]
        both = weather + extra
        rng.shuffle(both)
        outcome = assert_same_outcome(serialize_csv(history), serialize_csv(both))
        assert (extra == []) == (not isinstance(outcome, str))
        if extra:
            assert outcome.startswith("duplicate key (")


def test_merged_dataset_holds_the_records_of_both_files():
    records = synth_dataset(SynthParams(days=2, seed=1))
    merged = parse_csv(serialize_csv(records[24:])) + parse_csv(serialize_csv(records[:24]))
    assert len(merged) == 48
    assert same_dataset(merged, index_records(records))


LINE_CHARS = "0123456789-,. \t\r\x1cnaifTW_e+x"


@given(
    st.lists(
        st.one_of(
            st.lists(
                st.one_of(
                    st.sampled_from(["2004-01-01", "2004-01-02", "1", "24", "4200.5", "", "nan"]),
                    st.text(LINE_CHARS.replace(",", ""), max_size=6),
                ),
                min_size=3, max_size=5,
            ).map(",".join),
            st.text(LINE_CHARS, max_size=12),
        ),
        max_size=12,
    ),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_any_text_gives_the_oracles_dataset_or_error(lines, newline, with_header):
    text = newline.join(([CSV_HEADER] if with_header else []) + lines)
    outcome = assert_same_outcome(text)
    assert isinstance(outcome, (str, Indexed))
