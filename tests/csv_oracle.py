"""Row-at-a-time panel CSV reader, kept as the oracle for ``load_csv``.

This is the loader ``seqrank.timeseries.load_csv`` replaced: one
``csv.reader`` row at a time, per-row quote checks, per-asset streams in
dicts, then a dict pivot onto the dates every asset shares. It differs
from the old code in these rules: a row whose field count differs from
the header's is rejected (it used to accept extra fields), so is a row
holding a NUL character, a byte that is not UTF-8 names its row (it used
to raise the codec's error, which named neither file nor row), the
too-few-shared-dates error names the file, a leading UTF-8 byte order
mark is no text, a header that repeats a read column is rejected (it
used to read the first), and a date is read only in the form
``YYYY-MM-DD`` (it used to take whatever ``date.fromisoformat`` takes,
which differs between Python versions), and a NUL is read as the ``csv``
module of Python 3.11 and later reads it, on 3.10 too, whose module
rejects it, and a record the ``csv`` module rejects (a field past its
size limit) names its row (it used to raise ``csv.Error``, which named
neither file nor row). The tests compare the columnar
loader's panels and error messages against it.
"""

from __future__ import annotations

import csv
import datetime as dt
import re
from pathlib import Path

import numpy as np

from seqrank.timeseries import CSV_COLUMNS

READ_COLUMNS = (*CSV_COLUMNS, "sector")


def not_utf8(cells: list[str]) -> str | None:
    """The error for the first byte in ``cells`` that is not UTF-8: the
    ``surrogateescape`` handler decodes byte ``b`` to the code point
    ``0xDC00 + b``."""
    for cell in cells:
        for char in cell:
            if 0xDC80 <= ord(char) <= 0xDCFF:
                return f"invalid UTF-8 byte 0x{ord(char) - 0xDC00:02x}"
    return None


def iso_date(text: str) -> dt.date:
    """The date ``YYYY-MM-DD`` in ``text``; any other form fails as
    Python 3.10's ``date.fromisoformat`` fails on it."""
    if not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return dt.date.fromisoformat(text)


def csv_records(lines):
    """``csv.reader`` over ``lines``, with NUL read as the ``csv`` module of
    Python 3.11 and later reads it, which 3.10's rejects; a record it
    rejects comes as its ``csv.Error`` and ends the records."""
    try:
        yield from csv.reader(line.replace("\x00", "\udc00") for line in lines)
    except csv.Error as exc:
        yield exc


def oracle_load_csv(path: str | Path):
    """``(dates, assets, sectors, bids, asks)`` of the panel in ``path``."""
    path = Path(path)
    streams: dict[str, list[tuple[dt.date, float, float]]] = {}
    sectors: dict[str, str] = {}
    with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        reader = csv_records(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, header required") from None
        if isinstance(header, csv.Error):
            raise ValueError(f"{path}:1: {header}")
        if any("\udc00" in cell for cell in header):
            raise ValueError(f"{path}:1: NUL character in row")
        if message := not_utf8(header):
            raise ValueError(f"{path}:1: {message}")
        header = [h.strip().lower() for h in header]
        for i, name in enumerate(header):
            if name in READ_COLUMNS and name in header[:i]:
                raise ValueError(f"{path}:1: header repeats column {name!r}")
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: header is missing columns {missing}")
        col = {name: header.index(name) for name in header}
        saw_sector = "sector" in col
        for lineno, row in enumerate(reader, start=2):
            if isinstance(row, csv.Error):
                raise ValueError(f"{path}:{lineno}: {row}")
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            if any("\udc00" in cell for cell in row):
                raise ValueError(f"{path}:{lineno}: NUL character in row")
            if message := not_utf8(row):
                raise ValueError(f"{path}:{lineno}: {message}")
            try:
                day = iso_date(row[col["date"]].strip())
                bid = float(row[col["bid"]])
                ask = float(row[col["ask"]])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            asset = row[col["asset"]].strip()
            if not asset:
                raise ValueError(f"{path}:{lineno}: empty asset name")
            if not (np.isfinite(bid) and np.isfinite(ask)):
                raise ValueError(f"{path}:{lineno}: non-finite quote on {day}")
            if not (bid > 0.0):
                raise ValueError(f"{path}:{lineno}: bid must be positive on {day}, got {bid}")
            if ask < bid:
                raise ValueError(f"{path}:{lineno}: ask must be >= bid on {day}, got bid={bid} ask={ask}")
            stream = streams.setdefault(asset, [])
            if stream:
                if day == stream[-1][0]:
                    raise ValueError(f"{path}:{lineno}: duplicate (date, asset) pair ({day}, {asset})")
                if day < stream[-1][0]:
                    raise ValueError(f"{path}:{lineno}: dates for {asset} are not increasing")
            stream.append((day, bid, ask))
            if saw_sector:
                sector = row[col["sector"]].strip()
                if asset in sectors and sectors[asset] != sector:
                    raise ValueError(f"{path}:{lineno}: conflicting sector for {asset}")
                sectors[asset] = sector
    if len(streams) < 2:
        raise ValueError(f"{path}: need quotes for at least 2 assets, got {len(streams)}")
    names = sorted(streams)
    by_asset = {name: {day: (bid, ask) for day, bid, ask in streams[name]} for name in names}
    dates = tuple(sorted(set.intersection(*(set(quotes) for quotes in by_asset.values()))))
    if len(dates) < 3:
        raise ValueError(f"{path}: assets share only {len(dates)} dates; at least 3 are required")
    bids = np.array([[by_asset[a][day][0] for a in names] for day in dates])
    asks = np.array([[by_asset[a][day][1] for a in names] for day in dates])
    sector_tuple = tuple(sectors[a] for a in names) if saw_sector else None
    return dates, tuple(names), sector_tuple, bids, asks
