"""The columnar ``load_csv`` against the row-at-a-time oracle.

Panels must agree bit for bit, and a bad file must fail with the same
``path:row: message``. Each file is also read in tiny blocks, so block
boundaries and the switch from ``np.loadtxt`` to the ``csv`` module fall
in the middle of the data, and at some sizes also with every other block
parsed in a forked child.
"""

from __future__ import annotations

import csv
import datetime as dt
import os
import re
import signal
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import seqrank._csvread as _csvread
import seqrank._fork as _fork
from seqrank import JumpDiffusionConfig, QuotePanel, load_csv, simulate_jump_diffusion, weekday_range, write_csv

from conftest import assert_no_child
from csv_oracle import oracle_load_csv

# block sizes in bytes: a block is this many bytes and the rest of the line
# they end in, so 1 gives a block per line and 40 two lines of VALID or LONG
BLOCK_SIZES = (1, 7, 40, 90, _csvread._BLOCK_BYTES)
# sizes also read with the child parsing every other block; each such read
# forks once, so the hypothesis tests take one size, in half their examples
SPLIT_SIZES = (1, 40)


def outcome(loader, path):
    try:
        panel = loader(path)
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(panel, tuple):
        return ("panel", *panel)
    return ("panel", panel.dates, panel.assets, panel.sectors, panel.bids, panel.asks)


def assert_same_outcome(path, block_sizes=BLOCK_SIZES, split_sizes=SPLIT_SIZES):
    expected = outcome(oracle_load_csv, path)
    for size in block_sizes:
        for cpus in (1, 2) if size in split_sizes else (1,):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_csvread, "_BLOCK_BYTES", size)
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
    "NUL in a cell": ("2021-01-05,y\x00,20.9,21.1,energy", "NUL character in row"),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_each_defect_names_its_row(tmp_path, defect):
    line, message = DEFECTS[defect]
    lines = VALID[:4] + [line] + VALID[5:]
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = assert_same_outcome(path)
    assert expected == ("error", f"{path}:5: {message}")


# np.loadtxt skips an empty line, where it rejects a line of blanks
@pytest.mark.parametrize("blanks, newline", [(["", "  \t", ",,, ,"], "\r\n"), (["", ""], "\n"), (["", ""], "\r\n")])
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_blank_lines_count_towards_the_row(tmp_path, defect, blanks, newline):
    line, message = DEFECTS[defect]
    lines = VALID[:2] + blanks + VALID[2:4] + [line] + VALID[5:]
    path = tmp_path / "p.csv"
    path.write_text(newline.join(lines) + newline, newline="")
    assert assert_same_outcome(path) == ("error", f"{path}:{5 + len(blanks)}: {message}")


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
    # in the header, the first data row, a later row and the last row
    lines = [line.encode() for line in LONG]
    lines[row - 1] += byte  # into the sector cell
    path = tmp_path / "p.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    message = f"invalid UTF-8 byte 0x{byte[0]:02x}"
    assert assert_same_outcome(path) == ("error", f"{path}:{row}: {message}")


def test_a_byte_that_is_not_utf8_past_the_first_block(tmp_path):
    # rows of 21 bytes: the first block ends near row _BLOCK_BYTES // 21
    rows = _csvread._BLOCK_BYTES // 21
    days = weekday_range(dt.date(2000, 1, 3), rows // 2 + 10)
    lines = ["date,asset,bid,ask"] + [f"{day},{name},1.0,1.5" for day in days for name in "xy"]
    row = rows + 7
    lines[row - 1] = lines[row - 1].replace(",1.5", ",1.\udce95")
    path = tmp_path / "p.csv"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
    size = _csvread._BLOCK_BYTES
    expected = assert_same_outcome(path, (size,), (size,))
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


def test_cells_read_by_the_csv_module_are_stripped(tmp_path):
    path = tmp_path / "p.csv"
    lines = list(VALID)
    lines[2] = '2021-01-04,"y",19.9,20.1,energy'
    lines[3:] = [line.replace(",x,", ", x\u3000,").replace("tech", "\xa0tech ") for line in lines[3:]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = assert_same_outcome(path)
    assert expected[0] == "panel" and expected[2:4] == (("x", "y"), ("tech", "energy"))


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


# the csv module rejects a field longer than this; np.loadtxt has no such limit
FIELD_LIMIT = f"field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize("header", ["date,asset,bid,ask,sector", '"date",asset,bid,ask,sector'])
def test_a_header_cell_past_the_csv_field_limit_names_row_1(tmp_path, header):
    path = tmp_path / "p.csv"
    lines = [header + "," + "m" * 200_000] + [line + ",1" for line in VALID[1:]]
    path.write_text("\n".join(lines) + "\n")
    assert assert_same_outcome(path) == ("error", f"{path}:1: {FIELD_LIMIT}")


def test_a_cell_past_the_csv_field_limit_on_the_row_path_names_its_row(tmp_path):
    # the quote in row 2 sends every block from there on to the csv module
    path = tmp_path / "p.csv"
    lines = list(VALID)
    lines[1] = lines[1].replace(",x,", ',"x",')
    lines[3] = lines[3].replace(",x,", f",{'x' * 200_000},")
    path.write_text("\n".join(lines) + "\n")
    assert assert_same_outcome(path) == ("error", f"{path}:4: {FIELD_LIMIT}")


# file row 4 of VALID (with a fifth, ignored column) with one cell past the field limit
PAST_THE_FIELD_LIMIT = {
    "asset": "2021-01-05," + "x" * 200_000 + ",10.9,11.1,tech,1",
    "sector": "2021-01-05,x,10.9,11.1," + "t" * 200_000 + ",1",
    "padded bid": "2021-01-05,x," + "0" * 200_000 + "10.9,11.1,tech,1",
    "ignored column": "2021-01-05,x,10.9,11.1,tech," + "n" * 200_000,
}


@pytest.mark.parametrize("blank", [False, True])
@pytest.mark.parametrize("placement", PAST_THE_FIELD_LIMIT)
def test_a_cell_past_the_csv_field_limit_on_the_fast_path_names_its_row(tmp_path, placement, blank):
    path = tmp_path / "p.csv"
    lines = [line + ",1" for line in VALID]
    lines[3] = PAST_THE_FIELD_LIMIT[placement]
    if blank:
        lines.insert(3, "")
    path.write_text("\n".join(lines) + "\n")
    assert assert_same_outcome(path) == ("error", f"{path}:{4 + blank}: {FIELD_LIMIT}")


def test_a_cell_at_the_csv_field_limit_loads(tmp_path):
    path = tmp_path / "p.csv"
    lines = [line + ",1" for line in VALID]
    lines[3] = lines[3][:-1] + "n" * csv.field_size_limit()
    path.write_text("\n".join(lines) + "\n")
    assert assert_same_outcome(path)[0] == "panel"


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


@pytest.mark.parametrize("header, column", [
    ("date,asset,bid,ask,bid", "bid"), ("Date,asset,bid,ask, DATE ,sector", "date"),
    ("date,asset,bid,ask,sector,sector", "sector"), ("date,asset,asset,bid,ask", "asset"),
])
def test_a_header_that_repeats_a_column_names_row_1(tmp_path, header, column):
    path = tmp_path / "p.csv"
    path.write_text("\n".join([header] + [line.rsplit(",", 1)[0] + ",1.0" for line in VALID[1:]]) + "\n")
    assert assert_same_outcome(path) == ("error", f"{path}:1: header repeats column {column!r}")


def test_a_header_may_repeat_a_column_it_does_not_read(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("\n".join(["mid," + VALID[0] + ",mid"] + [f"1,{line},2" for line in VALID[1:]]) + "\n")
    assert assert_same_outcome(path)[0] == "panel"


@pytest.mark.parametrize("header", ["date,asset,bid,a\x00sk,sector", "date,asset,bid,ask,sector\x00",
                                    '"date\x00",asset,bid,ask,sector'])
def test_a_nul_in_the_header_names_row_1(tmp_path, header):
    path = tmp_path / "p.csv"
    path.write_text("\n".join([header] + VALID[1:]) + "\n")
    assert assert_same_outcome(path) == ("error", f"{path}:1: NUL character in row")


@pytest.mark.parametrize("header", ['date,asset,bid,ask,"sec\ntor"', '"date","asset","bid","ask","sector"',
                                    'date,asset,bid,ask,"sector\r\n"'])
@pytest.mark.parametrize("bom", ["", "\ufeff"])
def test_a_quoted_header_reads_as_the_csv_module_reads_it(tmp_path, header, bom):
    # a quoted cell may hold a line break, so the header record can span lines;
    # the file is read again from its start as text, past a byte order mark
    path = tmp_path / "p.csv"
    path.write_text(bom + "\n".join([header] + VALID[1:]) + "\n", encoding="utf-8", newline="")
    expected = assert_same_outcome(path)
    assert expected[0] == "panel" and len(expected[1]) == 3


@pytest.mark.parametrize("day", ["20210105", "2021-W01-2", "2021-01-05T00:00", "2021-1-5", "２０２１-01-05"])
def test_only_the_date_form_write_csv_writes_is_read(tmp_path, day):
    # Python 3.11 reads the first two; 3.10, and so the loader, on every version, reads neither
    path = tmp_path / "p.csv"
    lines = list(VALID)
    lines[4] = lines[4].replace("2021-01-05", day)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert assert_same_outcome(path) == ("error", f"{path}:5: Invalid isoformat string: {day!r}")


# two assets over six dates: file rows 2-13, which blocks of 40 bytes and
# the rest of their line give to this process (rows 2-3, 6-7, 10-11) and to
# the child (4-5, 8-9, 12-13)
LONG = ["date,asset,bid,ask,sector"] + [
    f"2021-01-{4 + day:02d},{name},{base + day}.9,{base + day + 1}.1,{sector}"
    for day in range(6) for name, base, sector in (("x", 10, "tech"), ("y", 20, "energy"))
]
PARENT_ROW, CHILD_ROW = 6, 8
TWO_LINES = 40


@pytest.mark.parametrize("row", [PARENT_ROW, CHILD_ROW])
@pytest.mark.parametrize("case", ["csv module", "blank first line", "bad float"])
def test_each_share_of_the_blocks_reads_like_the_oracle(tmp_path, forks, row, case):
    lines = list(LONG)
    if case == "csv module":
        lines[row - 1] = lines[row - 1].replace(",y,", ',"y",')
    elif case == "blank first line":
        lines.insert(row - 1, " ,")
    else:
        lines[row - 1] = lines[row - 1].replace(".9,", ".9x,")
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = assert_same_outcome(path, block_sizes=(TWO_LINES,), split_sizes=(TWO_LINES,))
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

    monkeypatch.setattr(_csvread, "_BLOCK_BYTES", TWO_LINES)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_csvread._Table, "add_rows", checked)
    assert_same(outcome(load_csv, path), outcome(oracle_load_csv, path))
    assert len(forks) == 1


def test_an_interrupt_in_this_process_ends_the_child(tmp_path, monkeypatch, forks):
    path = tmp_path / "p.csv"
    path.write_text("\n".join(LONG) + "\n")
    calls = []

    def interrupted(self, *block):
        calls.append(1)
        if len(calls) == 3:
            raise KeyboardInterrupt

    monkeypatch.setattr(_csvread, "_BLOCK_BYTES", TWO_LINES)
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

    monkeypatch.setattr(_csvread, "_BLOCK_BYTES", TWO_LINES)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", replacing)
    assert_same(outcome(load_csv, path), expected)
    assert_no_child()


def test_a_file_replaced_after_its_header_is_read_is_refused(tmp_path, monkeypatch, forks):
    # this process reads the blocks by path too, and only from the file whose header it read
    path = tmp_path / "p.csv"
    path.write_text("\n".join(LONG) + "\n")
    other = tmp_path / "other.csv"
    other.write_text("\n".join(LONG) + "\n")
    read = _csvread._Table.read

    def replaced_first(self, path, handle, info):
        os.replace(other, path)
        return read(self, path, handle, info)

    monkeypatch.setattr(_csvread._Table, "read", replaced_first)
    monkeypatch.setattr(_csvread, "_BLOCK_BYTES", TWO_LINES)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    with pytest.raises(OSError, match=f"^{re.escape(str(path))} was replaced$"):
        load_csv(path)
    assert forks == []
    assert_no_child()


def within(seconds, func, *args):
    """``func(*args)``, failed by ``TimeoutError`` if it takes over ``seconds``."""
    def timed_out(signum, frame):
        raise TimeoutError(f"{func.__name__} took over {seconds} s")

    alarm = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        return func(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, alarm)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_is_refused_before_it_is_opened(tmp_path, monkeypatch, forks):
    # opening a FIFO that has no writer blocks, so only a stat can refuse it at once;
    # a pipe could not be opened again by the child nor read again from an offset
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    got = within(10, outcome, load_csv, fifo)
    assert got == ("error", f"{fifo}: not a regular file; a panel is read by path more than once")
    assert forks == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_put_in_place_after_the_stat_is_refused_once_open(tmp_path, monkeypatch, forks):
    # the stat is of the path, so the open file is checked again
    plain, fifo = tmp_path / "p.csv", tmp_path / "fifo.csv"
    plain.write_text("\n".join(LONG) + "\n")
    os.mkfifo(fifo)
    stat = Path.stat
    monkeypatch.setattr(Path, "stat", lambda self, **kw: stat(plain if self == fifo else self, **kw))
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)

    def write():
        try:
            with fifo.open("w") as pipe:
                pipe.write(plain.read_text())
        except BrokenPipeError:  # the reader left first
            pass

    writer = threading.Thread(target=write, daemon=True)  # blocked on its open if the load never opens
    writer.start()
    try:
        got = within(10, outcome, load_csv, fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == ("error", f"{fifo}: not a regular file; a panel is read by path more than once")
    assert forks == []


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


def spy_on_row_path(monkeypatch):
    """The ``first_row`` of each call of ``_Table.add_rows``: the
    rest-of-file row path, which reads every row from there on with the
    csv module. A block parsed alone by ``parse_rows`` is not counted."""
    calls = []
    add_rows = _csvread._Table.add_rows

    def spied(self, lines, first_row):
        calls.append(first_row)
        return add_rows(self, lines, first_row)

    monkeypatch.setattr(_csvread._Table, "add_rows", spied)
    return calls


# letters outside Latin-1, Unicode whitespace that str.strip removes (and
# \x1c, which np.loadtxt reads unlike float()), and the characters the writer refuses
ALPHABET = ["a", "Z", "Ł", "日", " ", "\xa0", "\x85", "\u3000", "\x1c", "\x00", ",", '"']


@st.composite
def labels(draw, min_size, max_size, unique):
    """Labels over ``ALPHABET``: in half the draws any text, which the writer
    mostly refuses, in the other half a letter, then any of the first nine
    characters, then maybe a letter, which it takes."""
    if draw(st.booleans()):
        text = st.text(st.sampled_from(ALPHABET), max_size=5)
    else:
        letter = st.sampled_from(ALPHABET[:4])
        text = st.builds("{}{}{}".format, letter, st.text(st.sampled_from(ALPHABET[:9]), max_size=3),
                         letter | st.just(""))
    return draw(st.lists(text, min_size=min_size, max_size=max_size, unique=unique))


@given(assets=labels(2, 4, True), sectors=st.none() | labels(4, 4, False))
@example(assets=["", "a"], sectors=None)
@example(assets=["a\x00b", "zz"], sectors=None)
def test_written_labels_load_back_on_the_fast_path(assets, sectors):
    assets = sorted(assets)
    sectors = None if sectors is None else tuple(sectors[: len(assets)])
    mids = np.linspace(1.0, 2.0, 3 * len(assets)).reshape(3, len(assets))
    panel = QuotePanel(dates=weekday_range(dt.date(2021, 3, 1), 3), assets=tuple(assets),
                       bids=mids, asks=mids * 1.5, sectors=sectors)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "p.csv"
        try:
            write_csv(panel, path)
        except ValueError as exc:
            assert str(exc).startswith("labels must not contain")
            return
        row_path = spy_on_row_path(mp)
        loaded = load_csv(path)
    assert (loaded.dates, loaded.assets, loaded.sectors) == (panel.dates, panel.assets, panel.sectors)
    assert np.array_equal(loaded.bids, panel.bids) and np.array_equal(loaded.asks, panel.asks)
    if not any(char in label for label in assets + list(sectors or ()) for char in _csvread._CSV_ONLY):
        assert row_path == []


# _CELL_BYTES and one and two bytes more: the first read keeps _CELL_BYTES,
# which may end mid-character
CELL = _csvread._CELL_BYTES


@pytest.mark.parametrize("name", ["x" * (CELL - 2) + "é", "x" * (CELL - 1) + "é", "x" * (CELL - 3) + "日",
                                  "x" * (CELL - 2) + "日", "x" * (CELL - 1) + "日"])
def test_a_label_cut_inside_a_character_is_read_again_wider(tmp_path, monkeypatch, name):
    row_path = spy_on_row_path(monkeypatch)
    path = tmp_path / "p.csv"
    lines = [line.replace(",x,", f",{name},").replace(",tech", f",{name[::-1]}") for line in VALID]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = assert_same_outcome(path)
    assert expected[2:4] == ((name, "y"), (name[::-1], "energy"))
    assert row_path == []


def test_a_row_of_unicode_whitespace_stays_blank_beside_text_outside_latin1(tmp_path, monkeypatch):
    row_path = spy_on_row_path(monkeypatch)
    path = tmp_path / "p.csv"
    lines = VALID[:4] + ["\u3000", "\u3000,\xa0, ,\x85,"] + VALID[4:]
    path.write_text("\n".join(lines).replace(",x,", ",Łódź,") + "\n", encoding="utf-8")
    expected = assert_same_outcome(path)
    assert expected[0] == "panel" and expected[2] == ("y", "Łódź")
    lines[-1] = DEFECTS["crossed quote"][0].replace("2021-01-05", "2021-01-06")
    path.write_text("\n".join(lines).replace(",x,", ",Łódź,") + "\n", encoding="utf-8")
    assert assert_same_outcome(path) == (
        "error", f"{path}:9: ask must be >= bid on 2021-01-06, got bid=21.5 ask=21.1"
    )
    assert row_path == []


@pytest.mark.parametrize("space", ["　", "\xa0", "\x85", " ", " "])
def test_prices_padded_with_unicode_whitespace_stay_on_the_fast_path(tmp_path, monkeypatch, space):
    # float() strips the padding; the UTF-8 bytes np.loadtxt reads would keep it
    row_path = spy_on_row_path(monkeypatch)
    path = tmp_path / "p.csv"
    lines = list(VALID)
    lines[1] = lines[1].replace(",9.9,10.1,", f",{space}9.9,10.1{space},")
    lines[6] = lines[6].replace(",22.1,", f",22.1{space},")
    path.write_text("\n".join(lines).replace(",x,", ",Łódź,") + "\n", encoding="utf-8")
    expected = assert_same_outcome(path)
    assert expected[2] == ("y", "Łódź") and expected[4][0, 1] == 9.9 and expected[5][2, 0] == 22.1
    assert row_path == []


def test_a_padded_price_in_a_short_row_still_names_its_row(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    lines = list(VALID)
    lines[5] = "2021-01-06,x,11.9　,12.1"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert assert_same_outcome(path) == ("error", f"{path}:6: expected 5 fields, got 4")


def assert_groups(cells):
    """``distinct``'s contract: the distinct cells in any order, of the
    cells' dtype, and each cell's index among them."""
    values, inverse = _csvread.distinct(cells)
    assert values.dtype == cells.dtype
    assert np.array_equal(np.sort(values), np.unique(cells))
    assert np.array_equal(values[inverse], cells)


@given(cells=st.lists(st.text(st.sampled_from("ab é\tZ"), max_size=9), max_size=30),
       kind=st.sampled_from(["U", "S"]))
def test_distinct_matches_unique(cells, kind):
    assert_groups(np.array([c.encode() if kind == "S" else c for c in cells], dtype=kind))


def test_distinct_survives_a_hash_collision():
    # two 16-byte texts whose 64-bit words (w0, w1) and (w0 + 1, w1 - K) hash alike
    k = 0x100000001B3
    words = np.array([[7, 2**63 + 5], [8, (2**63 + 5 - k) % 2**64], [7, 2**63 + 5]], dtype=np.uint64)
    cells = words.view("S16").ravel()
    assert len(set(cells.tolist())) == 2
    assert_groups(cells)


def synth_panel():
    """A 300-date, 12-asset panel with sectors, as ``seqrank synth`` writes it."""
    panel = simulate_jump_diffusion(JumpDiffusionConfig(n_steps=299, n_assets=12, seed=5, spread=0.001))
    return QuotePanel(dates=panel.dates, assets=panel.assets, bids=panel.bids, asks=panel.asks,
                      sectors=tuple(("tech", "energy", "life sciences")[i % 3] for i in range(12)))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("form", ["CRLF", "BOM", "BOM and CRLF"])
def test_crlf_and_bom_panels_load_on_the_fast_path(tmp_path, monkeypatch, forks, cpus, form):
    # a byte order mark, as Excel's "CSV UTF-8" writes one, is no text
    panel = synth_panel()
    path = tmp_path / "p.csv"
    write_csv(panel, path)
    data = path.read_bytes()
    if "CRLF" in form:
        data = data.replace(b"\n", b"\r\n")
    if "BOM" in form:
        data = b"\xef\xbb\xbf" + data
    path.write_bytes(data)
    row_path = spy_on_row_path(monkeypatch)
    monkeypatch.setattr(_csvread, "_BLOCK_BYTES", 1 << 14)  # ten blocks
    monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
    got = outcome(load_csv, path)
    assert row_path == [] and len(forks) == cpus - 1
    assert_no_child()
    expected = ("panel", panel.dates, panel.assets, panel.sectors, panel.bids, panel.asks)
    assert_same(got, expected)
    assert_same(outcome(oracle_load_csv, path), expected)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_block_np_loadtxt_cannot_read_is_parsed_alone(tmp_path, monkeypatch, forks, cpus):
    # a blank row in one middle block and a bid written 9_9.95 in another:
    # the csv module reads those two blocks alone, np.loadtxt every other one
    panel = synth_panel()
    path = tmp_path / "p.csv"
    write_csv(panel, path)
    lines = path.read_text().split("\n")
    lines[2000] = lines[2000].replace(",9", ",9_", 1)
    assert "_" in lines[2000]
    lines.insert(1000, "")
    blank, underscored = 1001, 2002  # file rows
    path.write_text("\n".join(lines))
    row_path = spy_on_row_path(monkeypatch)
    parse_rows = _csvread._Table.parse_rows
    calls = []

    def spied(self, lines, first_row):
        calls.append(first_row)
        return parse_rows(self, lines, first_row)

    monkeypatch.setattr(_csvread._Table, "parse_rows", spied)
    monkeypatch.setattr(_csvread, "_BLOCK_BYTES", 1 << 14)  # fourteen blocks
    monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
    header_end = path.read_bytes().index(b"\n") + 1
    blocks = [rows for rows, *_ in _csvread._Blocks(path, path.stat(), header_end)]
    alone = [rows.start for rows in blocks if blank in rows or underscored in rows]
    assert len(alone) == 2 and blocks[0].start < alone[0] and alone[1] < blocks[-1].start
    got = outcome(load_csv, path)
    assert row_path == [] and len(forks) == cpus - 1
    assert_no_child()
    if cpus == 1:  # the child's calls are not seen here
        assert calls == alone
    expected = ("panel", panel.dates, panel.assets, panel.sectors, panel.bids, panel.asks)
    assert_same(got, expected)
    assert_same(outcome(oracle_load_csv, path), expected)


@pytest.mark.parametrize("last", ["\r", "\n"])
@pytest.mark.parametrize("defect", [None, "crossed quote", "bad float", "short row"])
def test_a_file_of_lone_cr_line_ends_reads_like_the_oracle(tmp_path, defect, last):
    # a text file opened with newline="" ends a line at a lone CR, so csv.reader does too
    lines = VALID[:2] + [" , ", ""] + VALID[2:]
    if defect is not None:
        lines[6] = DEFECTS[defect][0]
    path = tmp_path / "p.csv"
    path.write_text("\r".join(lines) + last, newline="")
    expected = assert_same_outcome(path)
    if defect is None:
        assert expected[0] == "panel" and len(expected[1]) == 3
    else:
        assert expected == ("error", f"{path}:7: {DEFECTS[defect][1]}")


def test_a_lone_cr_after_the_header_sends_the_rest_to_the_row_path(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    path.write_text("\n".join(LONG[:7]) + "\r" + "\n".join(LONG[7:]) + "\n", newline="")
    row_path = spy_on_row_path(monkeypatch)
    expected = assert_same_outcome(path, block_sizes=(TWO_LINES,), split_sizes=(TWO_LINES,))
    assert expected[0] == "panel" and len(expected[1]) == 6
    assert row_path == [6, 6]  # the block of rows 6 and 7, with and without the child


@given(text=panel_files(), data=st.data())
def test_any_block_size_reads_like_the_oracle(text, data):
    # block sizes from one byte to past the file's end; a line longer than
    # _LINE_BYTES ends its block inside it, and the row path reads from there
    if data.draw(st.booleans()):  # a sector longer than the first read's cells
        text = text.replace("energy", "energy and utilities sector")
    raw = text.encode()
    sizes = data.draw(st.lists(st.integers(1, len(raw) + 9), min_size=1, max_size=3))
    line_bytes = data.draw(st.sampled_from([1, 5, 40, _csvread._LINE_BYTES]))
    split = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "panel.csv"
        path.write_bytes(raw)
        mp.setattr(_csvread, "_LINE_BYTES", line_bytes)
        assert_same_outcome(path, block_sizes=sizes, split_sizes=sizes[:1] * split)
