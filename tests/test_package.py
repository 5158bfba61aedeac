"""The package namespace: each public name resolves, on first use, to the
object its home submodule defines."""

from __future__ import annotations

import importlib

import pytest

import fintag


def test_every_exported_name_is_its_home_modules_object():
    for name in fintag.__all__:
        home = importlib.import_module(f"fintag.{fintag._HOME[name]}")
        assert getattr(fintag, name) is getattr(home, name), name


def test_dir_lists_every_export_and_submodule():
    listed = dir(fintag)
    assert set(fintag.__all__) <= set(listed)
    assert {"markup", "patterns", "prompts", "__version__", "FintagError"} <= set(listed)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from fintag import *", namespace)
    assert set(fintag.__all__) <= set(namespace)
    assert namespace["score_editing"] is importlib.import_module("fintag.edit_eval").score_editing


def test_submodules_resolve_as_attributes():
    assert fintag.quality is importlib.import_module("fintag.quality")
    assert fintag.patterns.extract_numbers is importlib.import_module("fintag.patterns").extract_numbers


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fintag.no_such_name


def test_stage_errors_share_one_base():
    from fintag.insertion import InsertionFailure
    from fintag.llm_client import ClientError

    assert issubclass(ClientError, fintag.FintagError)
    assert issubclass(InsertionFailure, fintag.FintagError)
