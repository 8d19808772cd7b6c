"""Every name that ``seqrank`` or one of its submodules exports must resolve."""

import importlib
import pkgutil

import pytest

import seqrank

EXPORTERS = [
    module
    for module in map(
        importlib.import_module,
        ["seqrank"] + [f"seqrank.{info.name}" for info in pkgutil.iter_modules(seqrank.__path__)],
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", EXPORTERS, ids=lambda module: module.__name__)
def test_all_entries_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
