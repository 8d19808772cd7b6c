"""Validated field readers shared by the resumable states' ``from_json_dict``."""

import numpy as np


def snapshot_field(payload: dict, name: str) -> object:
    """Field ``name`` of a snapshot; a missing one raises ``ValueError`` naming it."""
    if name not in payload:
        raise ValueError(f"snapshot field {name} is missing")
    return payload[name]


def snapshot_array(payload: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Field ``name`` of a snapshot as a finite float array of ``shape``.

    The array is a copy, so stepping the loaded state leaves the payload alone.
    """
    value = np.array(snapshot_field(payload, name), dtype=float)
    if value.shape != shape:
        raise ValueError(f"snapshot field {name} must have shape {shape}, got {value.shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"snapshot field {name} contains non-finite values")
    return value


def snapshot_count(name: str, value: object) -> int:
    """Snapshot field ``name`` with ``value`` as a non-negative integer.

    Only an integer is a count: a float such as ``3.9`` or a ``bool`` is
    rejected rather than truncated.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"snapshot field {name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"snapshot field {name} must be >= 0, got {value}")
    return int(value)
