"""Output files that appear whole or not at all."""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path


def write_files(out_dir: Path, files: dict[str, str | Iterable[str]]) -> list[Path]:
    """Write every output to a temporary file in ``out_dir``, then rename
    them all into place. A body is a string or an iterable of text chunks,
    which are written as they come and never joined. If anything fails
    first, producing a chunk included, the temporary files are removed, no
    file under an output name has been touched, and every body that has a
    ``close`` method (a generator, which may hold a forked child) is
    closed."""
    staged: list[tuple[Path, Path]] = []
    try:
        for name, body in files.items():
            temporary = out_dir / f".{name}.{os.urandom(6).hex()}.tmp"
            with temporary.open("x", encoding="utf-8", newline="") as handle:
                staged.append((temporary, out_dir / name))
                if isinstance(body, str):
                    handle.write(body)
                else:
                    handle.writelines(body)
        for temporary, path in staged:
            temporary.replace(path)
    except BaseException:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)
        for body in files.values():
            if hasattr(body, "close"):
                body.close()
        raise
    return [path for _, path in staged]
