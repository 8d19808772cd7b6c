"""Validated field readers shared by the resumable states' ``from_json_dict``."""

import numpy as np


def snapshot_array(payload: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Field ``name`` of a snapshot as a finite float array of ``shape``.

    The array is a copy, so stepping the loaded state leaves the payload alone.
    """
    value = np.array(payload[name], dtype=float)
    if value.shape != shape:
        raise ValueError(f"snapshot field {name} must have shape {shape}, got {value.shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"snapshot field {name} contains non-finite values")
    return value


def snapshot_count(name: str, value: object) -> int:
    """Snapshot field ``name`` with ``value`` as a non-negative integer."""
    count = int(value)
    if count < 0:
        raise ValueError(f"snapshot field {name} must be >= 0, got {count}")
    return count
