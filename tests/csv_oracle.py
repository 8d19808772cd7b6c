"""Row-at-a-time panel CSV reader, kept as the oracle for ``load_csv``.

This is the loader ``seqrank.timeseries.load_csv`` replaced: one
``csv.reader`` row at a time, per-row quote checks, per-asset streams in
dicts, then a dict pivot onto the dates every asset shares. It differs
from the old code in four rules: a row whose field count differs from
the header's is rejected (it used to accept extra fields), so is a row
holding a NUL character, a byte that is not UTF-8 names its row (it used
to raise the codec's error, which named neither file nor row), and the
too-few-shared-dates error names the file. The tests compare the columnar loader's panels and error messages
against it.
"""

from __future__ import annotations

import csv
import datetime as dt
from pathlib import Path

import numpy as np

from seqrank.timeseries import CSV_COLUMNS


def not_utf8(cells: list[str]) -> str | None:
    """The error for the first byte in ``cells`` that is not UTF-8: the
    ``surrogateescape`` handler decodes byte ``b`` to the code point
    ``0xDC00 + b``."""
    for cell in cells:
        for char in cell:
            if 0xDC80 <= ord(char) <= 0xDCFF:
                return f"invalid UTF-8 byte 0x{ord(char) - 0xDC00:02x}"
    return None


def oracle_load_csv(path: str | Path):
    """``(dates, assets, sectors, bids, asks)`` of the panel in ``path``."""
    path = Path(path)
    streams: dict[str, list[tuple[dt.date, float, float]]] = {}
    sectors: dict[str, str] = {}
    with path.open(newline="", encoding="utf-8", errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, header required") from None
        if message := not_utf8(header):
            raise ValueError(f"{path}:1: {message}")
        header = [h.strip().lower() for h in header]
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: header is missing columns {missing}")
        col = {name: header.index(name) for name in header}
        saw_sector = "sector" in col
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            if any("\x00" in cell for cell in row):
                raise ValueError(f"{path}:{lineno}: NUL character in row")
            if message := not_utf8(row):
                raise ValueError(f"{path}:{lineno}: {message}")
            try:
                day = dt.date.fromisoformat(row[col["date"]].strip())
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
