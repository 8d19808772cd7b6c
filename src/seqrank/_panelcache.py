"""Parsed panels kept on disk by content, for the CLI's repeated runs.

An entry is an uncompressed ``.npz`` in ``$XDG_CACHE_HOME/seqrank/panels/``
(``~/.cache/seqrank/panels/`` when that variable is unset or relative). Its
name is a key: the SHA-256 of the panel CSV's digest, of the loader's
sources (``_csvread.py`` and ``timeseries.py``) and of the Python and numpy
versions, so an entry never outlives the code that parsed it. It holds the
panel's ``days``, ``assets``, ``bids``, ``asks`` and, when the panel has
them, ``sectors``, and the CSV's ``digest``.

Reading is never an error: an entry that is missing, cut short, fails its
zip CRC, lacks a member, names another digest, has a wrong dtype or shape,
or holds quotes ``QuotePanel`` rejects is a miss, and the caller parses
the CSV and writes the entry again. Nor is writing: a cache directory that
cannot be made or written leaves no entry and costs only the parse. The
cache is used only where no one else could have put an entry: a directory
or an entry that another user owns, or that its group or others may
write, is neither read nor written. The ``KEEP`` most recently used
entries stay; a hit refreshes its entry's mtime, and each write deletes
older entries and leftover temporary files.
"""

from __future__ import annotations

import hashlib
import os
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from .timeseries import QuotePanel, _hand_over

__all__ = ["KEEP", "read", "write"]

KEEP = 8
_MEMBERS = {"digest", "days", "assets", "bids", "asks"}
_SOURCES = ("_csvread.py", "timeseries.py")


def _directory() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    return root / "seqrank" / "panels"


def _entry(directory: Path, digest: str) -> Path:
    """The entry of the CSV whose digest is ``digest``."""
    here = Path(__file__).parent
    parts = [digest, sys.version, np.__version__]
    parts += [hashlib.sha256((here / name).read_bytes()).hexdigest() for name in _SOURCES]
    return directory / (hashlib.sha256("\n".join(parts).encode()).hexdigest() + ".npz")


def _private(info: os.stat_result) -> bool:
    """Whether the file or directory ``info`` describes is this user's and
    no one else may write it; an entry name can be worked out in advance,
    so one that another user could have put there is not read."""
    return info.st_uid == os.geteuid() and not info.st_mode & 0o022


def read(digest: str) -> QuotePanel | None:
    """The panel cached for the CSV whose digest is ``digest``, or None."""
    try:
        directory = _directory()
        entry = _entry(directory, digest)
        with entry.open("rb") as handle:
            if not (_private(directory.stat()) and _private(os.fstat(handle.fileno()))):
                return None
            with np.load(handle, allow_pickle=False) as arrays:
                panel = _panel(arrays, digest)
    # an entry may be cut short or altered in any way, and every failure to read it is a miss
    except Exception:
        return None
    with suppress(OSError):
        os.utime(entry)
    return panel


def _panel(arrays, digest: str) -> QuotePanel:
    """The panel an open entry holds; raises if it does not hold a valid
    one of the CSV with digest ``digest``."""
    if set(arrays.files) - {"sectors"} != _MEMBERS or arrays["digest"].tolist() != digest:
        raise ValueError("not an entry of this digest")
    days, assets, bids, asks = (arrays[name] for name in ("days", "assets", "bids", "asks"))
    sectors = arrays["sectors"] if "sectors" in arrays.files else None
    if not (
        days.dtype == "datetime64[D]" and days.ndim == 1
        and assets.dtype.kind == "U" and assets.ndim == 1
        and (sectors is None or (sectors.dtype.kind == "U" and sectors.ndim == 1))
        and all(q.dtype == np.float64 and q.flags.c_contiguous for q in (bids, asks))
    ):
        raise ValueError("an entry member has the wrong dtype or shape")
    _hand_over(bids, asks)
    return QuotePanel(
        dates=tuple(days.tolist()),
        assets=tuple(assets.tolist()),
        bids=bids,
        asks=asks,
        sectors=None if sectors is None else tuple(sectors.tolist()),
    )


def write(digest: str, panel: QuotePanel) -> None:
    """Cache ``panel``, parsed from the CSV whose digest is ``digest``."""
    temporary = None
    try:
        directory = _directory()
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(directory.stat()):
            return
        entry = _entry(directory, digest)
        temporary = directory / f".{entry.stem}.{os.urandom(6).hex()}.tmp"
        arrays = {
            "digest": np.array(digest),
            "days": np.array(panel.dates, dtype="datetime64[D]"),
            "assets": np.array(panel.assets),
            "bids": panel.bids,
            "asks": panel.asks,
        }
        if panel.sectors is not None:
            arrays["sectors"] = np.array(panel.sectors)
        with open(os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600), "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(temporary, entry)
        _evict(directory, entry)
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        if temporary is not None:
            with suppress(OSError):
                temporary.unlink()


def _evict(directory: Path, kept: Path) -> None:
    """Delete every temporary file in ``directory`` and every entry but the
    ``KEEP`` most recently used, ``kept`` among them. A temporary file that
    another run is still writing goes too; that run then writes no entry."""
    entries = []
    for path in directory.iterdir():
        with suppress(OSError):  # gone already, or not ours to delete
            if path.suffix == ".tmp":
                path.unlink()
            elif path.suffix == ".npz":
                entries.append((path != kept, -path.stat().st_mtime_ns, path))
    for *_, path in sorted(entries)[KEEP:]:
        with suppress(OSError):
            path.unlink()
