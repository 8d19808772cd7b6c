"""Columnar reader behind ``seqrank.timeseries.load_csv``.

The header is one line, read as text. The data is read as binary blocks
of ``_BLOCK_BYTES`` bytes and the rest of the line the last of them ends
in, up to ``_LINE_BYTES`` more; rows are numbered by counting line feeds.
Each block goes to one ``np.loadtxt`` call as its bytes, whose lines it
decodes as Latin-1, so each UTF-8 byte stays one byte of a text cell:
prices are read as floats and text cells as their UTF-8 bytes, each
distinct one decoded, stripped and interned into an integer code once per
block. A block where ``np.loadtxt`` skips or rejects a blank line or
rejects a cell that ``float()`` reads (``1_000``, a price padded with
whitespace outside ASCII), or with a line that may hold a cell past the
``csv`` field limit, is read alone by ``csv.reader`` and ``float()``
(``_Table.parse_rows``). From the first block that holds a character
``np.loadtxt`` reads unlike the ``csv`` module and ``float()``
(``_CSV_ONLY``), a CR that ends a line alone, a byte that is not UTF-8 or
a row that fails to parse, or that ends inside a line longer than
``_LINE_BYTES``, the file is read again from that block's start as a
text file opened with ``newline=""`` reads it, row by row by the same
parser, up to the first row that fails to parse: the one row path. A
header line that is not plain starts it at byte 0 (``read_columns``). The
row checks then run once on the columns, and the earliest failing row is
reported, with the message the check made in the row-at-a-time loader
this replaced. Every other block is decoded and parsed in a forked child
when two CPUs are usable (``seqrank._fork``); both processes open the
path and read every block, to find where the next one starts and count
its rows. So only a regular file is read (``panel_stat``).
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import io
import os
import re
import stat
from contextlib import closing
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._fork import split_map

CSV_COLUMNS = ("date", "asset", "bid", "ask")
# the columns read; any other is ignored
_READ = (*CSV_COLUMNS, "sector")

# Characters np.loadtxt reads unlike the csv module and float(): quotes,
# NUL (cut from the end of a bytes cell) and \x1c-\x1f (which float() does
# not take as whitespace around a number). Each is one byte in UTF-8.
_CSV_ONLY = '"\x00\x1c\x1d\x1e\x1f'
# a byte that is not UTF-8, as the surrogateescape error handler decodes it
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
# NUL as the row path hands it to the csv module, which reads this code
# point as Python 3.11 and later read NUL and Python 3.10 rejects NUL
_NUL = "\udc00"
# the one date form read, which write_csv writes
_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")
# bytes per block, before the rest of its last line: bounds the text held in memory at once
_BLOCK_BYTES = 1 << 20
# the most of a block's last line read after its first _BLOCK_BYTES bytes
_LINE_BYTES = 1 << 20
# bytes per text cell on a block's first read: a multiple of 8, the word distinct hashes
_CELL_BYTES = 16
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
# rank of each check within a row, in the order the row-at-a-time loader made them
FIELDS, DATE, BID, ASK, ASSET, FINITE, POSITIVE, CROSSED, ORDER, SECTOR = range(10)


def distinct(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct cells of a fixed-width text column, in no set order,
    and each cell's index among them: ``values[inverse]`` equals
    ``cells``. It sorts 64-bit hashes of the cells, not the cells, and
    only of the first cell of each run of equal ones when runs are long,
    as a date-major file's dates are."""
    cells = np.ascontiguousarray(cells)
    starts = np.flatnonzero(np.concatenate(([True], cells[1:] != cells[:-1])))
    runs = 4 * len(starts) < len(cells)
    heads = cells[starts] if runs else cells
    size = cells.dtype.itemsize
    word = next(k for k in (8, 4, 2, 1) if size % k == 0)
    key = np.zeros(len(heads), dtype=np.uint64)
    for column in heads.view(f"u{word}").reshape(len(heads), size // word).T:
        key *= np.uint64(0x100000001B3)
        key += column
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    values = heads[first]
    if not np.array_equal(values[inverse], heads):  # two texts share a hash
        values, inverse = np.unique(heads, return_inverse=True)
    if runs:
        inverse = np.repeat(inverse, np.diff(starts, append=len(cells)))
    return values, inverse


def read_columns(path: Path):
    """A panel CSV's data rows as codes: ``(days, date_index, names,
    asset_index, bids, asks, sectors)``, where row ``i`` quotes asset
    ``names[asset_index[i]]`` on ``days[date_index[i]]``, ``days`` and
    ``names`` are sorted and distinct, and ``sectors`` is ``{asset:
    sector}`` or None.

    A leading UTF-8 byte order mark is read as no text. A header line that
    holds a quote or a CR that ends a line alone, or that ends the file
    without a line feed, is not plain: it starts the one row path at byte 0,
    where ``csv.reader`` reads the header record and every row after it.
    Otherwise the row path starts at the first block ``_Table.read`` leaves
    to it, if any. Codes are given and rows numbered in this process, in
    file order, so the result does not depend on the forked child.
    """
    panel_stat(path)
    with path.open("rb") as handle:
        info = panel_stat(path, handle)
        line = handle.readline(_LINE_BYTES).removeprefix(codecs.BOM_UTF8)
        table, row_path = None, (2, 0)  # the row path's first data row and byte offset, or None
        # a CR before the last two bytes, which end the line in LF or CR LF, ends a line alone
        if line.endswith(b"\n") and b'"' not in line and b"\r" not in line[:-2]:
            table = _Table(path, next(_csv_rows([line.decode("utf-8", "surrogateescape")])))
            row_path = table.read(_Blocks(path, info, handle.tell()))
        if row_path is not None:
            first_row, offset = row_path
            handle.seek(offset)
            # a byte order mark is no text at byte 0 only
            with io.TextIOWrapper(handle, encoding="utf-8" if offset else "utf-8-sig", errors="surrogateescape",
                                  newline="") as text:
                if table is None:
                    table = _Table(path, next(_csv_rows(text), None))
                table.add_rows(text, first_row)
    return table.columns(path)


def panel_stat(path: Path, handle=None) -> os.stat_result:
    """The stat of ``path``, or of its open ``handle``, if it is a regular
    file: a panel is read by path more than once, and from an offset again.
    Take it before the open too, since opening a FIFO with no writer blocks."""
    try:
        info = path.stat() if handle is None else os.fstat(handle.fileno())
    except (FileNotFoundError, NotADirectoryError):
        raise FileNotFoundError(f"panel file not found: {path}") from None
    if not stat.S_ISREG(info.st_mode):
        raise ValueError(f"{path}: not a regular file; a panel is read by path more than once")
    return info


def _header_columns(path: Path, header: list[str] | csv.Error | None) -> dict[str, int]:
    """The index of each read column in ``header``, the first record, if any."""
    if header is None:
        raise ValueError(f"{path}: empty file, header required")
    if message := _record_error(header):
        raise ValueError(f"{path}:1: {message}")
    col: dict[str, int] = {}
    for i, name in enumerate(h.strip().lower() for h in header):
        if name in col:
            raise ValueError(f"{path}:1: header repeats column {name!r}")
        if name in _READ:
            col[name] = i
    missing = [c for c in CSV_COLUMNS if c not in col]
    if missing:
        raise ValueError(f"{path}: header is missing columns {missing}")
    return col


def _csv_rows(lines: Iterable[str]):
    """``csv.reader`` over ``lines``, with each NUL read as ``_NUL``. A
    record the csv module rejects (a field past ``csv.field_size_limit()``)
    is given as its ``csv.Error``, and ends the rows."""
    try:
        yield from csv.reader(line.replace("\x00", _NUL) for line in lines)
    except csv.Error as exc:
        yield exc


def _record_error(fields: list[str] | csv.Error) -> str | None:
    """The error of a record as ``_csv_rows`` gives it, whatever its width:
    the csv module's error, then a NUL, then the first byte that is not
    UTF-8; or None."""
    if isinstance(fields, csv.Error):
        return str(fields)
    if any(_NUL in cell for cell in fields):
        return "NUL character in row"
    found = _NOT_UTF8.search(",".join(fields))
    return found and f"invalid UTF-8 byte 0x{ord(found[0]) - 0xDC00:02x}"


def file_identity(info: os.stat_result) -> tuple[int, ...]:
    """What changes when the file at a path is replaced or rewritten."""
    return info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns


class _Blocks:
    """``(rows, data, whole, offset)`` for each block of the file ``path``
    past its header, which ends at byte ``start``: ``data`` is ``_BLOCK_BYTES``
    bytes at ``offset`` and the rest of the line they end in, ``rows`` the
    file rows its lines start, ``whole`` False if that line is cut at
    ``_LINE_BYTES``. Each iteration opens ``path`` again (a descriptor shared
    across ``fork`` shares its offset) and reads it only if it is still the
    file whose ``fstat`` is ``info``."""

    def __init__(self, path: Path, info: os.stat_result, start: int) -> None:
        self.path, self.identity, self.start = path, file_identity(info), start

    def __iter__(self):
        with self.path.open("rb") as handle:
            if file_identity(os.fstat(handle.fileno())) != self.identity:
                raise OSError(f"{self.path} was replaced")
            handle.seek(self.start)
            row, offset = 2, self.start
            while data := handle.read(_BLOCK_BYTES):
                rest = handle.readline(_LINE_BYTES)
                data += rest
                ends = data.count(b"\n")
                whole = rest.endswith(b"\n") or len(rest) < _LINE_BYTES
                yield range(row, row + ends + (not data.endswith(b"\n"))), data, whole, offset
                row += ends
                offset += len(data)


class _Table:
    """Columns gathered block by block, of a file ``path`` whose first row
    is ``header``. Every distinct stripped text of a text column gets a
    code in order of first sight; rows keep the codes. ``error`` is the row
    that failed to parse, as ``(row, rank, message)``; nothing after it is
    read."""

    def __init__(self, path: Path, header: list[str] | csv.Error | None) -> None:
        self.col = _header_columns(path, header)
        self.width = len(header)
        self.codes: dict[str, dict[str, int]] = {
            name: {} for name in ("date", "asset", "sector") if name in self.col
        }
        self.parts: dict[str, list] = {name: [] for name in ("bid", "ask", *self.codes)}
        # the file row of each row, one range or list per block
        self.rows: list[Sequence[int]] = []
        self.error: tuple[int, int, str] | None = None
        # the bytes per text cell of a block's first read, widened once a cell fills it
        self.cell_bytes = _CELL_BYTES

    def append(self, rows: Sequence[int], bids, asks, texts: dict[str, tuple[list[str], np.ndarray]]) -> None:
        """Add parsed rows, at file rows ``rows``; each text column is
        ``(texts, inverse)``, with its texts stripped, and they get codes
        here, in order of first sight."""
        self.rows.append(rows)
        # copies: a field of a parsed table, or an array unpickled from the
        # child's message, would keep the whole table or message alive
        self.parts["bid"].append(np.array(bids, dtype=float))
        self.parts["ask"].append(np.array(asks, dtype=float))
        for name, (values, inverse) in texts.items():
            codes = self.codes[name]
            lookup = np.array([codes.setdefault(v, len(codes)) for v in values], dtype=np.int32)
            self.parts[name].append(lookup[inverse])

    def read(self, blocks: _Blocks) -> tuple[int, int] | None:
        """Add the rows ``parse`` reads from ``blocks``, through ``split_map``,
        up to the first block it leaves to the row path, and return that
        block's ``(first_row, offset)``; None if there is none. Raises
        ``OSError`` if the file was replaced after its header was read."""
        with closing(split_map(self.parse, blocks)) as parsed:
            for result in parsed:
                if len(result) == 2:  # (first row, offset) of the block
                    return result
                self.append(*result)
                del result  # before the next block is parsed
        return None

    def parse(self, block: tuple[range, bytes, bool, int]):
        """The ``append`` arguments for ``block``, ``(rows, data, whole, offset)``
        as ``_Blocks`` gives it: parsed by ``np.loadtxt``, or by ``parse_rows`` where
        ``np.loadtxt`` rejects a cell or skips a line or a line may hold a cell past
        the ``csv`` field limit; ``(rows.start, offset)`` if the block needs the
        rest-of-file row path. Reads nothing of the table but its layout and ``cell_bytes``."""
        rows, data, whole, offset = block
        row_path = rows.start, offset
        if not whole or any(byte in data for byte in _CSV_ONLY.encode()):
            return row_path
        try:
            text = None if data.isascii() else data.decode()
        except UnicodeDecodeError:
            return row_path
        # np.loadtxt warns on a block of empty lines alone, and reads a cell past csv.field_size_limit()
        # characters, whose line covers one of these stretches of half as many bytes with no LF
        step = max(1, csv.field_size_limit() // 2)
        long_line = any(data.find(b"\n", i, i + step) < 0 for i in range(0, len(data) - step + 1, step))
        parsed = self.load(data) if data.lstrip(b"\r\n") and not long_line else None
        if parsed is None or len(parsed[0]) != len(rows):
            # np.loadtxt skips an empty line, and rejects a blank one and
            # cells float() reads, such as 1_000 or a price padded with
            # whitespace outside ASCII
            lines = io.StringIO(text or data.decode(), newline="").readlines()
            if len(lines) != len(rows):  # a lone CR ends a line
                return row_path
            result, error = self.parse_rows(lines, rows.start)
            return row_path if error else result
        table, cells = parsed
        texts = {name: ([v.decode().strip() for v in values.tolist()], inverse)
                 for name, (values, inverse) in cells.items()}
        return rows, table["bid"], table["ask"], texts

    def load(self, data: bytes):
        """``np.loadtxt``'s table of ``data`` and the ``distinct`` cells of
        each text column, or None if it rejects a cell."""
        for wide in (False, True):
            # a cell whose bytes fill its field may be cut short, mid-character too: read again wider
            cell_bytes = max(map(len, data.split(b"\n"))) if wide else self.cell_bytes
            dtype = [(f"unused{i}", "S1") for i in range(self.width)]
            for name in ("bid", "ask", *self.codes):
                dtype[self.col[name]] = (name, "f8" if name in ("bid", "ask") else f"S{cell_bytes}")
            try:
                table = np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=",", comments=None,
                                   ndmin=1, encoding="latin-1")
            except ValueError:
                return None
            cells = {name: distinct(table[name]) for name in self.codes}
            longest = max((len(v) for values, _ in cells.values() for v in values.tolist()), default=0)
            if longest < cell_bytes:
                break
        self.cell_bytes = max(self.cell_bytes, -(-(longest + 1) // 8) * 8)
        return table, cells

    def add_rows(self, lines: Iterable[str], first_row: int) -> None:
        """Add the rows ``parse_rows`` reads from ``lines``, and its error."""
        parsed, self.error = self.parse_rows(lines, first_row)
        self.append(*parsed)

    def parse_rows(self, lines: Iterable[str], first_row: int):
        """The ``append`` arguments for ``lines``, file rows from
        ``first_row``, read as ``csv.reader`` and ``float()`` do up to and
        including the first row that fails to parse, and that row's error
        as ``(row, rank, message)``, or None."""
        rows, bids, asks = [], [], []
        cells: dict[str, list[str]] = {name: [] for name in self.codes}
        error = None
        for row, fields in enumerate(_csv_rows(lines), start=first_row):
            if isinstance(fields, list) and not any(cell.strip() for cell in fields):
                continue
            if isinstance(fields, list) and len(fields) != self.width:
                message = f"expected {self.width} fields, got {len(fields)}"
            else:
                message = _record_error(fields)
            if message:
                error = (row, FIELDS, message)
                break
            prices = [np.nan, np.nan]
            for k, (name, rank) in enumerate((("bid", BID), ("ask", ASK))):
                try:
                    prices[k] = float(fields[self.col[name]])
                except ValueError as exc:
                    error = (row, rank, str(exc))
                    break
            rows.append(row)
            bids.append(prices[0])
            asks.append(prices[1])
            for name, values in cells.items():
                values.append(fields[self.col[name]].strip())
            if error is not None:
                break
        texts = {name: (values, np.arange(len(values))) for name, values in cells.items()}
        return (rows, bids, asks, texts), error

    def columns(self, path: Path):
        """Run the row checks on the columns; see ``read_columns``."""
        # each per-row array is dropped once its checks are made: at the
        # paper's scale each is 2.5-5 MB
        kinds = {"bid": float, "ask": float}
        cols = {name: _join(parts, kinds.get(name, np.int32)) for name, parts in self.parts.items()}
        bids, asks = cols.pop("bid"), cols.pop("ask")
        errors = [] if self.error is None else [self.error]
        starts = np.cumsum([0, *map(len, self.rows)])

        def file_row(i: int) -> int:
            block = int(np.searchsorted(starts, i, side="right")) - 1
            return self.rows[block][i - starts[block]]

        def first(failing: np.ndarray, rank: int, message) -> None:
            """Note the earliest of the ``failing`` rows (a mask or indices)."""
            if failing.dtype == bool:
                failing = np.flatnonzero(failing)
            if failing.size:
                i = int(failing.min())
                errors.append((file_row(i), rank, message(i)))

        # a date that fails to parse stands in as 0001-01-01: only rows after
        # the failing one can see it, and the failing row is reported first
        ordinals = np.ones(len(self.codes["date"]), dtype=np.int64)
        date_errors = {}
        for code, text in enumerate(self.codes["date"]):
            try:
                if not _ISO_DATE.fullmatch(text):  # other forms that Python 3.11 reads and 3.10 does not
                    raise ValueError(f"Invalid isoformat string: {text!r}")
                ordinals[code] = dt.date.fromisoformat(text).toordinal()
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

        names = sorted(self.codes["asset"])
        index = {name: i for i, name in enumerate(names)}
        asset = np.array([index[name] for name in self.codes["asset"]], dtype=np.int32)[cols.pop("asset")]
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
            labels = list(self.codes["sector"])
            sector = cols.pop("sector")
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
