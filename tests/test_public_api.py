"""The public surface: every name that ``lancet`` or one of its submodules
exports in ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import lancet

MODULES = ["lancet", *(f"lancet.{info.name}" for info in pkgutil.iter_modules(lancet.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)
