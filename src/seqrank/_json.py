"""The JSON text of every report, written in pieces as it is made.

``json_chunks(payload)`` is the text of ``json.dumps(payload,
sort_keys=True, indent=2, allow_nan=False) + "\\n"``. A value in the payload
may also be a callable, which writes its own text: it is called with its
nesting depth and returns the pieces, so a report can write its bulk from
its arrays and still sit anywhere in a payload.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterator
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii

_CONTAINERS = (dict, list, tuple)


@functools.cache
def _encoder(depth: int):
    """The C encoder with ``json.dumps(sort_keys=True, indent=2,
    allow_nan=False)``'s settings, except that its item separator carries
    the newline and indent of nesting level ``depth``. It writes a container
    of scalars at level ``depth - 1`` as ``indent=2`` does, short of the
    newline after the opening bracket and the one before the closing one."""
    return c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ": ", ",\n" + "  " * depth, True, False, False,
    )


def _scalar(value) -> str:
    return "".join(_encoder(0)(value, 0))


# _flat and _records test each distinct type once: an isinstance call per
# value took about an eighth of the writer's time on a d = 50 stationarity
# report


def _flat(items) -> bool:
    return not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, items)))


def _records(items) -> bool:
    """Whether ``items`` are non-empty dicts of scalars."""
    return (
        all(issubclass(kind, dict) for kind in set(map(type, items)))
        and all(items)
        and _flat(chain.from_iterable(map(dict.values, items)))
    )


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def chunks(value, depth: int) -> Iterator[str]:
    """The pieces of ``value``'s text at nesting level ``depth``: its items
    indented by ``depth + 1`` levels, its closing bracket by ``depth``."""
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    if callable(value):
        yield from value(depth)
    elif not isinstance(value, _CONTAINERS):
        yield _scalar(value)
    elif not value:
        yield "{}" if isinstance(value, dict) else "[]"
    elif not isinstance(value, dict) and _records(value):
        # one call for the whole list of records; a record boundary is the
        # only place a "}" meets the separator, since every newline inside
        # a string is escaped
        deeper = "\n" + "  " * (depth + 2)
        text = "".join(_encoder(depth + 2)(value, 0))
        body = text[2:-2].replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
        yield "[" + inner + "{" + deeper + body + inner + "}" + outer + "]"
    elif isinstance(value, dict):
        separator = "{" + inner
        for key, item in sorted(value.items()):
            yield separator + _key(key) + ": "
            yield from chunks(item, depth + 1)
            separator = "," + inner
        yield outer + "}"
    else:
        separator = "[" + inner
        for item in value:
            yield separator
            yield from chunks(item, depth + 1)
            separator = "," + inner
        yield outer + "]"


def json_chunks(payload) -> Iterator[str]:
    """The text of ``json.dumps(payload, sort_keys=True, indent=2,
    allow_nan=False) + "\\n"``, in pieces.

    Every report is written by this function. A list of non-empty dicts of
    scalars is one call of the C encoder, which ``json.dumps`` does not use
    when ``indent`` is set; every other container recurses in Python, and a
    callable value writes its own pieces. A NaN or an infinity raises
    ``ValueError`` when its piece is made.
    """
    yield from chunks(payload, 0)
    yield "\n"
