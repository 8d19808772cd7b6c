"""The columnar ``load_csv`` against the row-at-a-time oracle.

Panels must agree bit for bit, and a bad file must fail with the same
``path:row: message``. Each file is also read with tiny chunks, so chunk
boundaries and the switch from ``np.loadtxt`` to the ``csv`` module fall
in the middle of the data, and at the smallest sizes also with every
other chunk parsed in a forked child.
"""

from __future__ import annotations

import datetime as dt
import os
import signal
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import seqrank._csvread as _csvread
import seqrank._fork as _fork
from seqrank import load_csv, weekday_range

from conftest import assert_no_child
from csv_oracle import oracle_load_csv

CHUNK_SIZES = (1, 2, 3, 5, _csvread._CHUNK_LINES)
# sizes also read with the child parsing every other chunk; each such read
# forks once, so the hypothesis tests take one size, in half their examples
SPLIT_SIZES = (1, 3)


def outcome(loader, path):
    try:
        panel = loader(path)
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(panel, tuple):
        return ("panel", *panel)
    return ("panel", panel.dates, panel.assets, panel.sectors, panel.bids, panel.asks)


def assert_same_outcome(path, chunk_sizes=CHUNK_SIZES, split_sizes=SPLIT_SIZES):
    expected = outcome(oracle_load_csv, path)
    for size in chunk_sizes:
        for cpus in (1, 2) if size in split_sizes else (1,):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_csvread, "_CHUNK_LINES", size)
                mp.setattr(_fork, "usable_cpus", lambda: cpus)
                got = outcome(load_csv, path)
            assert_no_child()
            assert_same(got, expected, (size, cpus))
    return expected


def assert_same(got, expected, note=None):
    assert got[0] == expected[0], (note, got, expected)
    if got[0] == "error":
        assert got[1] == expected[1], note
    else:
        assert got[1:4] == expected[1:4], note
        for a, b in zip(got[4:], expected[4:]):
            assert a.dtype == b.dtype and np.array_equal(a, b), note
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), note


VALID = [
    "date,asset,bid,ask,sector",
    "2021-01-04,x,9.9,10.1,tech",
    "2021-01-04,y,19.9,20.1,energy",
    "2021-01-05,x,10.9,11.1,tech",
    "2021-01-05,y,20.9,21.1,energy",
    "2021-01-06,x,11.9,12.1,tech",
    "2021-01-06,y,21.9,22.1,energy",
]

# defect class -> (replacement for line 5 of VALID (file row 5), the expected message)
DEFECTS = {
    "short row": ("2021-01-05,y,20.9,21.1", "expected 5 fields, got 4"),
    "long row": ("2021-01-05,y,20.9,21.1,energy,oil", "expected 5 fields, got 6"),
    "bad date": ("2021/01/05,y,20.9,21.1,energy", "Invalid isoformat string: '2021/01/05'"),
    "bad float": ("2021-01-05,y,20.9x,21.1,energy", "could not convert string to float: '20.9x'"),
    "empty asset": ("2021-01-05, ,20.9,21.1,energy", "empty asset name"),
    "crossed quote": ("2021-01-05,y,21.5,21.1,energy", "ask must be >= bid on 2021-01-05, got bid=21.5 ask=21.1"),
    "non-finite quote": ("2021-01-05,y,20.9,inf,energy", "non-finite quote on 2021-01-05"),
    "non-positive bid": ("2021-01-05,y,-0.0,21.1,energy", "bid must be positive on 2021-01-05, got -0.0"),
    "duplicate pair": ("2021-01-04,y,20.9,21.1,energy", "duplicate (date, asset) pair (2021-01-04, y)"),
    "non-monotone dates": ("2021-01-01,y,20.9,21.1,energy", "dates for y are not increasing"),
    "conflicting sector": ("2021-01-05,y,20.9,21.1,tech", "conflicting sector for y"),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_each_defect_names_its_row(tmp_path, defect):
    line, message = DEFECTS[defect]
    lines = VALID[:4] + [line] + VALID[5:]
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = assert_same_outcome(path)
    assert expected == ("error", f"{path}:5: {message}")


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_blank_lines_count_towards_the_row(tmp_path, defect):
    line, message = DEFECTS[defect]
    lines = VALID[:2] + ["", "  \t", ",,, ,"] + VALID[2:4] + [line] + VALID[5:]
    path = tmp_path / "p.csv"
    path.write_text("\r\n".join(lines) + "\r\n")
    assert assert_same_outcome(path) == ("error", f"{path}:8: {message}")


@pytest.mark.parametrize(
    "early, late",
    [("crossed quote", "bad float"), ("conflicting sector", "short row"),
     ("duplicate pair", "bad date"), ("non-monotone dates", "empty asset"),
     ("bad float", "crossed quote")],
)
def test_the_earlier_of_two_defects_is_reported(tmp_path, early, late):
    lines = list(VALID)
    lines[4] = DEFECTS[early][0]
    # row 7 redone for x: the same defects, on the other asset
    lines[5] = DEFECTS[late][0].replace(",y,", ",x,").replace("2021-01-05", "2021-01-06")
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    assert assert_same_outcome(path) == ("error", f"{path}:5: {DEFECTS[early][1]}")


def test_within_a_row_the_first_check_wins(tmp_path):
    path = tmp_path / "p.csv"
    lines = list(VALID)
    lines[4] = "2021-13-05,,x,-1,other"  # bad date, bad bid, empty asset, sector
    path.write_text("\n".join(lines) + "\n")
    assert assert_same_outcome(path) == ("error", f"{path}:5: month must be in 1..12")
    lines[4] = "2021-01-05,,nan,-1,other"  # empty asset, non-finite, crossed, sector
    path.write_text("\n".join(lines) + "\n")
    assert assert_same_outcome(path) == ("error", f"{path}:5: empty asset name")


@pytest.mark.parametrize("row", [1, 2, 7, 13])
@pytest.mark.parametrize("byte", [b"\xe9", b"\xff", b"\x80"])
def test_a_byte_that_is_not_utf8_names_its_row(tmp_path, row, byte):
    # in the header, the first data row, a parent chunk and the last row
    lines = [line.encode() for line in LONG]
    lines[row - 1] += byte  # into the sector cell
    path = tmp_path / "p.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    message = f"invalid UTF-8 byte 0x{byte[0]:02x}"
    assert assert_same_outcome(path) == ("error", f"{path}:{row}: {message}")


def test_a_byte_that_is_not_utf8_past_the_first_chunk(tmp_path):
    days = weekday_range(dt.date(2000, 1, 3), _csvread._CHUNK_LINES // 2 + 10)
    lines = ["date,asset,bid,ask"] + [f"{day},{name},1.0,1.5" for day in days for name in "xy"]
    row = _csvread._CHUNK_LINES + 7
    lines[row - 1] = lines[row - 1].replace(",1.5", ",1.\udce95")
    path = tmp_path / "p.csv"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
    expected = assert_same_outcome(path, (_csvread._CHUNK_LINES,), (_csvread._CHUNK_LINES,))
    assert expected == ("error", f"{path}:{row}: invalid UTF-8 byte 0xe9")


def test_an_earlier_defect_wins_over_a_later_byte_that_is_not_utf8(tmp_path):
    lines = [line.encode() for line in VALID]
    lines[2] = DEFECTS["crossed quote"][0].replace("2021-01-05", "2021-01-04").encode()
    lines[5] = lines[5].replace(b"tech", b"t\xe9ch")
    path = tmp_path / "p.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    message = "ask must be >= bid on 2021-01-04, got bid=21.5 ask=21.1"
    assert assert_same_outcome(path) == ("error", f"{path}:3: {message}")


def test_quoted_cells_and_underscored_numbers_read_as_the_csv_module_does(tmp_path):
    path = tmp_path / "p.csv"
    lines = list(VALID)
    lines[3] = '"2021-01-05","x","10.9",1_1.1,"tech"'
    path.write_text("\n".join(lines) + "\n")
    expected = assert_same_outcome(path)
    assert expected[0] == "panel" and expected[5][1, 0] == 11.1


def test_separator_characters_around_a_number_are_rejected(tmp_path):
    # np.loadtxt would strip \x1c-\x1f around a float; float() does not
    path = tmp_path / "p.csv"
    lines = list(VALID)
    lines[3] = "2021-01-05,x,10.9\x1c,11.1,tech"
    path.write_text("\n".join(lines) + "\n")
    assert assert_same_outcome(path) == (
        "error", f"{path}:4: could not convert string to float: '10.9\\x1c'"
    )


def test_long_labels_are_not_cut(tmp_path):
    path = tmp_path / "p.csv"
    long_name = "x" * (_csvread._CELL_BYTES + 9)
    path.write_text("\n".join(line.replace(",x,", f",{long_name},") for line in VALID) + "\n")
    expected = assert_same_outcome(path)
    assert expected[2] == (long_name, "y")


def test_header_only_file(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(VALID[0] + "\n\n")
    assert assert_same_outcome(path) == ("error", f"{path}: need quotes for at least 2 assets, got 0")


def test_too_few_shared_dates_names_the_file(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("\n".join(VALID[:5]) + "\n")
    assert assert_same_outcome(path) == (
        "error", f"{path}: assets share only 2 dates; at least 3 are required"
    )


# two assets over six dates: file rows 2-13, which chunks of two lines
# give to this process (rows 2-3, 6-7, 10-11) and to the child (4-5, 8-9, 12-13)
LONG = ["date,asset,bid,ask,sector"] + [
    f"2021-01-{4 + day:02d},{name},{base + day}.9,{base + day + 1}.1,{sector}"
    for day in range(6) for name, base, sector in (("x", 10, "tech"), ("y", 20, "energy"))
]
PARENT_ROW, CHILD_ROW = 6, 8


@pytest.mark.parametrize("row", [PARENT_ROW, CHILD_ROW])
@pytest.mark.parametrize("case", ["csv module", "blank first line", "bad float"])
def test_each_share_of_the_chunks_reads_like_the_oracle(tmp_path, forks, row, case):
    lines = list(LONG)
    if case == "csv module":
        lines[row - 1] = lines[row - 1].replace(",y,", ',"y",')
    elif case == "blank first line":
        lines.insert(row - 1, " ,")
    else:
        lines[row - 1] = lines[row - 1].replace(".9,", ".9x,")
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = assert_same_outcome(path, chunk_sizes=(2,), split_sizes=(2,))
    assert len(forks) == 1
    if case == "bad float":
        assert expected[1].startswith(f"{path}:{row}: could not convert string to float")
    else:
        assert expected[0] == "panel" and len(expected[1]) == 6


def test_the_switch_to_the_csv_module_ends_the_child(tmp_path, monkeypatch, forks):
    lines = list(LONG)
    lines[PARENT_ROW - 1] = lines[PARENT_ROW - 1].replace(",y,", ',"y",')
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    add_rows = _csvread._Table.add_rows

    def checked(self, lines, first_row):
        assert_no_child()
        return add_rows(self, lines, first_row)

    monkeypatch.setattr(_csvread, "_CHUNK_LINES", 2)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_csvread._Table, "add_rows", checked)
    assert_same(outcome(load_csv, path), outcome(oracle_load_csv, path))
    assert len(forks) == 1


def test_an_interrupt_in_this_process_ends_the_child(tmp_path, monkeypatch, forks):
    path = tmp_path / "p.csv"
    path.write_text("\n".join(LONG) + "\n")
    calls = []

    def interrupted(self, *chunk):
        calls.append(1)
        if len(calls) == 3:
            raise KeyboardInterrupt

    monkeypatch.setattr(_csvread, "_CHUNK_LINES", 2)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_csvread._Table, "append", interrupted)
    with pytest.raises(KeyboardInterrupt):
        load_csv(path)
    assert len(forks) == 1
    assert_no_child()


def test_a_file_replaced_before_the_child_opens_it_is_not_read(tmp_path, monkeypatch):
    # the child opens the path again; it must not parse another file there
    path = tmp_path / "p.csv"
    path.write_text("\n".join(LONG) + "\n")
    expected = outcome(oracle_load_csv, path)
    other = tmp_path / "other.csv"
    other.write_text("\n".join(line.replace(".9,", ".5,") for line in LONG) + "\n")
    fork = os.fork

    def replacing():
        os.replace(other, path)
        return fork()

    monkeypatch.setattr(_csvread, "_CHUNK_LINES", 2)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", replacing)
    assert_same(outcome(load_csv, path), expected)
    assert_no_child()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_is_read_in_this_process_alone(tmp_path, monkeypatch, forks):
    # opened again, a pipe would hand the child lines this process needs
    text = "\n".join(LONG) + "\n"
    plain, fifo = tmp_path / "p.csv", tmp_path / "fifo.csv"
    plain.write_text(text)
    os.mkfifo(fifo)

    def write():
        with fifo.open("w") as pipe:
            pipe.write(text[:200])
            pipe.flush()
            time.sleep(0.3)  # the rest once the child could be reading
            pipe.write(text[200:])

    def timed_out(signum, frame):
        raise TimeoutError("load_csv of a pipe")

    writer = threading.Thread(target=write)
    writer.start()
    monkeypatch.setattr(_csvread, "_CHUNK_LINES", 2)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    alarm = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(10)
    try:
        got = outcome(load_csv, fifo)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, alarm)
        writer.join(timeout=10)
    assert len(forks) == 1
    assert_same(got, outcome(oracle_load_csv, plain))
    assert_no_child()


NAMES = ["A", "B", "b", "Zürich", "Łódź", "x y"]
PAD = st.sampled_from(["", " ", "  ", "\t", " \t "])


@st.composite
def panel_files(draw):
    """Long-form panel CSV text: shuffled rows and columns, assets missing
    some dates, blank and whitespace-only lines, CRLF, padded cells."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=4, unique=True))
    days = weekday_range(dt.date(2021, 3, 1), draw(st.integers(4, 9)))
    with_sector = draw(st.booleans())
    with_mid = draw(st.booleans())
    columns = ["date", "asset", "bid", "ask"] + ["mid"] * with_mid + ["sector"] * with_sector
    columns = draw(st.permutations(columns))
    streams = []
    for name in names:
        kept = [day for day in days if draw(st.integers(0, 7))]
        sector = draw(st.sampled_from(["tech", "energy", "life sciences"]))
        stream = []
        for day in kept:
            bid = draw(st.floats(0.01, 1e4, allow_nan=False))
            ask = bid * (1.0 + draw(st.sampled_from([0.0, 1e-3, 0.05])))
            cells = {"date": day.isoformat(), "asset": name, "bid": repr(bid),
                     "ask": repr(ask), "mid": repr(0.5 * (bid + ask)), "sector": sector}
            stream.append(",".join(draw(PAD) + cells[c] + draw(PAD) for c in columns))
        streams.append(stream)
    # interleave the streams, keeping each one in date order
    rows = []
    while any(streams):
        stream = draw(st.sampled_from([s for s in streams if s]))
        rows.append(stream.pop(0))
    if draw(st.integers(0, 9)) == 0:
        rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from(["", " ", "\t ", ",,", " , ,"]))
        rows.insert(draw(st.integers(0, len(rows))), blank)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = ",".join(draw(PAD) + (c.upper() if draw(st.booleans()) else c) + draw(PAD) for c in columns)
    return newline.join([header] + rows) + newline * draw(st.booleans())


@given(text=panel_files(), split=st.booleans())
@example(text="date,asset,bid,ask\n2021-03-01,A,1.0,1.0\n", split=True)
def test_columnar_loader_matches_the_oracle(text, split):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_same_outcome(path, split_sizes=(2,) * split)


EDIT_TEXT = st.sampled_from(list('0123456789,.-_ "\t\r\nxyzéŁ\x1c\x00e+inf') + ["", "\r\n"])


@given(edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from("ird"), EDIT_TEXT),
                      min_size=1, max_size=4), split=st.booleans())
def test_edited_files_load_or_fail_like_the_oracle(edits, split):
    text = "\n".join(VALID) + "\n"
    for where, kind, new in edits:
        i = int(where * len(text))
        if kind == "i":
            text = text[:i] + new + text[i:]
        else:
            text = text[:i] + (new if kind == "r" else "") + text[i + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_same_outcome(path, split_sizes=(2,) * split)


@given(cells=st.lists(st.text(st.sampled_from("ab é\tZ"), max_size=9), max_size=30),
       kind=st.sampled_from(["U", "S"]))
def test_distinct_matches_unique(cells, kind):
    array = np.array([c.encode("latin-1") if kind == "S" else c for c in cells], dtype=kind)
    values, inverse = _csvread.distinct(array)
    expected_values, expected_inverse = np.unique(array, return_inverse=True)
    assert np.array_equal(values, expected_values) and values.dtype == expected_values.dtype
    assert np.array_equal(inverse, expected_inverse)


def test_distinct_survives_a_hash_collision():
    # two 16-byte texts whose 64-bit words (w0, w1) and (w0 + 1, w1 - K) hash alike
    k = 0x100000001B3
    words = np.array([[7, 2**63 + 5], [8, (2**63 + 5 - k) % 2**64], [7, 2**63 + 5]], dtype=np.uint64)
    cells = words.view("S16").ravel()
    assert len(set(cells.tolist())) == 2
    values, inverse = _csvread.distinct(cells)
    expected_values, expected_inverse = np.unique(cells, return_inverse=True)
    assert np.array_equal(values, expected_values)
    assert np.array_equal(inverse, expected_inverse)
