"""Columnar reader behind ``seqrank.timeseries.load_csv``.

The file is read in chunks of lines, each parsed into columns by one
``np.loadtxt`` call: prices as floats, date, asset and sector cells as
bytes, which are interned into integer codes per chunk. From the first
chunk that holds a character ``np.loadtxt`` reads unlike the ``csv``
module and ``float()`` (``_CSV_ONLY``), or a cell ``np.loadtxt`` rejects,
the rest of the file is read row by row with ``csv.reader`` and
``float()``, up to the first row that fails to parse. So it is from a
chunk with a byte that is not UTF-8, which fails its row. The row checks
then run once on the columns, and the earliest failing row is reported,
with the message the check made in the row-at-a-time loader this
replaced. Every other chunk is parsed in a forked child when two CPUs
are usable (``_Table.read``, ``seqrank._fork``).
"""

from __future__ import annotations

import csv
import datetime as dt
import os
import re
import stat
from collections import deque
from contextlib import closing
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from ._fork import split_map

CSV_COLUMNS = ("date", "asset", "bid", "ask")

# A row is blank when every cell is: only whitespace (as ``str.strip``
# removes it) and commas.
_BLANK_ROW = "".join(c for c in map(chr, range(0x3001)) if c.isspace()) + ","
# Characters np.loadtxt reads unlike the csv module and float(): quotes,
# NUL (cut from the end of a bytes cell) and \x1c-\x1f (which float()
# does not take as whitespace around a number).
_CSV_ONLY = '"\x00\x1c\x1d\x1e\x1f'
# a byte that is not UTF-8, as the surrogateescape error handler decodes it
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
# lines per np.loadtxt call: bounds the text held in memory at once
_CHUNK_LINES = 1 << 15
# bytes per text cell on the fast path; a chunk holding a cell this long is re-read wider
_CELL_BYTES = 32
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
# rank of each check within a row, in the order the row-at-a-time loader made them
FIELDS, DATE, BID, ASK, ASSET, FINITE, POSITIVE, CROSSED, ORDER, SECTOR = range(10)


def distinct(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(cells, return_inverse=True)`` for a fixed-width text
    column, sorting 64-bit hashes of the cells instead of the cells."""
    cells = np.ascontiguousarray(cells)
    size = cells.dtype.itemsize
    word = next(k for k in (8, 4, 2, 1) if size % k == 0)
    key = np.zeros(len(cells), dtype=np.uint64)
    for column in cells.view(f"u{word}").reshape(len(cells), size // word).T:
        key *= np.uint64(0x100000001B3)
        key += column
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    values = cells[first]
    if not np.array_equal(values[inverse], cells):  # two texts share a hash
        return np.unique(cells, return_inverse=True)
    order = np.argsort(values)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return values[order], rank[inverse]


def read_columns(path: Path):
    """A panel CSV's data rows as codes: ``(days, date_index, names,
    asset_index, bids, asks, sectors)``, where row ``i`` quotes asset
    ``names[asset_index[i]]`` on ``days[date_index[i]]``, ``days`` and
    ``names`` are sorted and distinct, and ``sectors`` is ``{asset:
    sector}`` or None.

    Every other chunk is parsed by a forked child when two CPUs are usable
    (see ``_Table.read``); codes are given and rows numbered in this
    process, in file order, so the result does not depend on it.
    """
    with path.open(newline="", encoding="utf-8", errors="surrogateescape") as handle:
        header = next(csv.reader(handle), None)
        if header is None:
            raise ValueError(f"{path}: empty file, header required")
        if message := _utf8_error(",".join(header)):
            raise ValueError(f"{path}:1: {message}")
        header = [h.strip().lower() for h in header]
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: header is missing columns {missing}")
        table = _Table(len(header), {name: header.index(name) for name in header})
        table.read(path, handle)
    return table.columns(path)


def _utf8_error(text: str) -> str | None:
    """The error for the first byte of ``text`` that is not UTF-8, or None."""
    found = _NOT_UTF8.search(text)
    return found and f"invalid UTF-8 byte 0x{ord(found[0]) - 0xDC00:02x}"


def _chunks(handle):
    """``(first file row, lines)`` for each chunk of ``_CHUNK_LINES`` lines
    after the header."""
    row = 2
    while lines := list(islice(handle, _CHUNK_LINES)):
        yield row, lines
        row += len(lines)


def file_identity(info: os.stat_result) -> tuple[int, ...]:
    """What changes when the file at a path is replaced or rewritten."""
    return info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns


class _Table:
    """Columns gathered chunk by chunk. Every distinct raw text of a text
    column gets a code in order of first sight; rows keep the codes.
    ``error`` is the row that failed to parse, as ``(row, rank, message)``;
    nothing after it is read."""

    def __init__(self, width: int, col: dict[str, int]) -> None:
        self.width = width
        self.col = col
        self.codes: dict[str, dict[str, int]] = {
            name: {} for name in ("date", "asset", "sector") if name in col
        }
        self.parts: dict[str, list] = {name: [] for name in ("row", "bid", "ask", *self.codes)}
        self.error: tuple[int, int, str] | None = None

    def append(self, rows, bids, asks, texts: dict[str, tuple[list[str], np.ndarray]]) -> None:
        """Add parsed rows; each text column is ``(texts, inverse)``, and
        its texts get codes here, in order of first sight."""
        # copies: a field of a parsed table, or an array unpickled from the
        # child's message, would keep the whole table or message alive
        self.parts["row"].append(np.array(rows, dtype=np.int64))
        self.parts["bid"].append(np.array(bids, dtype=float))
        self.parts["ask"].append(np.array(asks, dtype=float))
        for name, (values, inverse) in texts.items():
            codes = self.codes[name]
            lookup = np.array([codes.setdefault(v, len(codes)) for v in values], dtype=np.int32)
            self.parts[name].append(lookup[inverse])

    def read(self, path: Path, handle) -> None:
        """Read the data lines left in ``handle``, the open ``path``: in
        chunks by ``parse``, through ``split_map``, and by ``add_rows`` from
        the first chunk that needs the csv module on. The forked child opens
        ``path`` again, because a descriptor shared across ``fork`` shares
        its offset, and parses nothing unless ``path`` is still the regular
        file this process reads: a pipe opened again would hand the child
        lines meant for this process."""
        info = os.fstat(handle.fileno())
        same_file = file_identity(info)

        def reopen():
            if not stat.S_ISREG(info.st_mode):
                raise OSError(f"{path} is not a regular file")
            with path.open(newline="", encoding="utf-8", errors="surrogateescape") as again:
                if file_identity(os.fstat(again.fileno())) != same_file:
                    raise OSError(f"{path} was replaced")
                next(csv.reader(again), None)
                yield from _chunks(again)

        ahead = deque()  # chunks read for the parse and not yet in the table

        def chunks():
            for chunk in _chunks(handle):
                ahead.append(chunk)
                yield chunk

        with closing(split_map(self.parse, chunks(), reopen)) as parsed:
            for chunk in parsed:
                if chunk is None:
                    break
                self.append(*chunk)
                ahead.popleft()
                del chunk  # before the next chunk is parsed
        if ahead:
            self.add_rows(chain(chain.from_iterable(lines for _, lines in ahead), handle), ahead[0][0])

    def parse(self, chunk: tuple[int, list[str]]):
        """The ``append`` arguments for ``chunk``, ``(first_row, lines)``,
        parsed by ``np.loadtxt``; None if the lines need the csv module.
        Reads nothing of the table but its layout."""
        first_row, lines = chunk
        text = "".join(lines)
        if any(char in text for char in _CSV_ONLY) or not text.isascii() and _NOT_UTF8.search(text):
            return None
        rows = np.arange(first_row, first_row + len(lines))
        if not all(map(str.strip, lines, repeat(_BLANK_ROW))):
            keep = [bool(line.strip(_BLANK_ROW)) for line in lines]
            rows, lines = rows[keep], list(compress(lines, keep))
        if not lines:
            return rows, [], [], {}
        for wide in (False, True):
            # a cell that fills its field may have been cut short: read again wider
            cell_bytes = max(map(len, lines)) if wide else _CELL_BYTES
            dtype = [(f"unused{i}", "S1") for i in range(self.width)]
            for name in ("bid", "ask", *self.codes):
                dtype[self.col[name]] = (name, "f8" if name in ("bid", "ask") else f"S{cell_bytes}")
            try:
                table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
            except ValueError:
                return None
            texts = {}
            for name in self.codes:
                values, inverse = distinct(table[name])
                texts[name] = ([v.decode("latin-1") for v in values.tolist()], inverse)
            if all(len(v) < cell_bytes for values, _ in texts.values() for v in values):
                break
        return rows, table["bid"], table["ask"], texts

    def add_rows(self, lines: Iterable[str], first_row: int) -> None:
        """Read ``lines`` as ``csv.reader`` and ``float()`` do, up to and
        including the first row that fails to parse."""
        rows, bids, asks = [], [], []
        cells: dict[str, list[str]] = {name: [] for name in self.codes}
        for row, fields in enumerate(csv.reader(lines), start=first_row):
            if not fields or all(not cell.strip() for cell in fields):
                continue
            if len(fields) != self.width:
                self.error = (row, FIELDS, f"expected {self.width} fields, got {len(fields)}")
                break
            if any("\x00" in cell for cell in fields):
                self.error = (row, FIELDS, "NUL character in row")
                break
            if message := _utf8_error(",".join(fields)):
                self.error = (row, FIELDS, message)
                break
            prices = [np.nan, np.nan]
            for k, (name, rank) in enumerate((("bid", BID), ("ask", ASK))):
                try:
                    prices[k] = float(fields[self.col[name]])
                except ValueError as exc:
                    self.error = (row, rank, str(exc))
                    break
            rows.append(row)
            bids.append(prices[0])
            asks.append(prices[1])
            for name, values in cells.items():
                values.append(fields[self.col[name]])
            if self.error is not None:
                break
        texts = {}
        for name, values in cells.items():
            index = {value: i for i, value in enumerate(dict.fromkeys(values))}
            texts[name] = (list(index), np.array([index[v] for v in values], dtype=np.intp))
        self.append(rows, bids, asks, texts)

    def columns(self, path: Path):
        """Run the row checks on the columns; see ``read_columns``."""
        # each per-row array is dropped once its checks are made: at the
        # paper's scale each is 2.5-5 MB
        kinds = {"row": np.int64, "bid": float, "ask": float}
        cols = {name: _join(parts, kinds.get(name, np.int32)) for name, parts in self.parts.items()}
        rows, bids, asks = cols.pop("row"), cols.pop("bid"), cols.pop("ask")
        errors = [] if self.error is None else [self.error]

        def first(failing: np.ndarray, rank: int, message) -> None:
            """Note the earliest of the ``failing`` rows (a mask or indices)."""
            if failing.dtype == bool:
                failing = np.flatnonzero(failing)
            if failing.size:
                i = int(failing.min())
                errors.append((int(rows[i]), rank, message(i)))

        # a date that fails to parse stands in as 0001-01-01: only rows after
        # the failing one can see it, and the failing row is reported first
        ordinals = np.ones(len(self.codes["date"]), dtype=np.int64)
        date_errors = {}
        for code, text in enumerate(self.codes["date"]):
            try:
                ordinals[code] = dt.date.fromisoformat(text.strip()).toordinal()
            except ValueError as exc:
                date_errors[code] = str(exc)
        date_codes = cols.pop("date")
        if date_errors:
            first(np.isin(date_codes, list(date_errors)), DATE, lambda i: date_errors[int(date_codes[i])])
        day_ordinals, day_of_code = np.unique(ordinals, return_inverse=True)
        date_index = day_of_code.astype(np.int32)[date_codes]
        del date_codes

        def day(i: int) -> dt.date:
            return dt.date.fromordinal(int(day_ordinals[date_index[i]]))

        stripped = [text.strip() for text in self.codes["asset"]]
        names = sorted(set(stripped))
        index = {name: i for i, name in enumerate(names)}
        asset = np.array([index[name] for name in stripped], dtype=np.int32)[cols.pop("asset")]
        if "" in index:
            first(asset == index[""], ASSET, lambda i: "empty asset name")
        first(~(np.isfinite(bids) & np.isfinite(asks)), FINITE,
              lambda i: f"non-finite quote on {day(i)}")
        first(~(bids > 0.0), POSITIVE,
              lambda i: f"bid must be positive on {day(i)}, got {float(bids[i])}")
        first(asks < bids, CROSSED,
              lambda i: f"ask must be >= bid on {day(i)}, got bid={float(bids[i])} ask={float(asks[i])}")

        # each row against the previous row of its asset, in file order
        order = np.argsort(asset, kind="stable")
        grouped = asset[order]
        leading = order[np.flatnonzero(np.diff(grouped, prepend=-1))]  # each asset's first row
        cur = order[1:]
        same = grouped[1:] == grouped[:-1]
        del grouped
        seen = date_index[order]
        first(cur[same & (seen[1:] == seen[:-1])], ORDER,
              lambda i: f"duplicate (date, asset) pair ({day(i)}, {names[asset[i]]})")
        first(cur[same & (seen[1:] < seen[:-1])], ORDER, lambda i: f"dates for {names[asset[i]]} are not increasing")
        del order, cur, same, seen

        sectors = None
        if "sector" in self.codes:
            labels = list(dict.fromkeys(text.strip() for text in self.codes["sector"]))
            code = {label: i for i, label in enumerate(labels)}
            sector = np.array([code[text.strip()] for text in self.codes["sector"]], dtype=np.int32)
            sector = sector[cols.pop("sector")]
            first(sector != sector[leading][asset], SECTOR, lambda i: f"conflicting sector for {names[asset[i]]}")
            sectors = {name: labels[sector[i]] for name, i in zip(names, leading)}
        if errors:
            row, _, message = min(errors)
            raise ValueError(f"{path}:{row}: {message}")
        days = (day_ordinals - _EPOCH_ORDINAL).astype("datetime64[D]")
        return days, date_index, names, asset, bids, asks, sectors


def _join(parts: list[np.ndarray], dtype) -> np.ndarray:
    """``np.concatenate(parts)``, emptying ``parts`` as it goes so that each
    part is freed once copied."""
    joined = np.empty(sum(map(len, parts)), dtype=dtype)
    start = 0
    parts.reverse()
    while parts:
        part = parts.pop()
        joined[start : start + len(part)] = part
        start += len(part)
    return joined
