"""The package namespace: each public name resolves, on first use, to the
object its home submodule defines."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

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


def test_only_the_jsonl_module_spells_the_meta_key():
    # The JSONL envelope (blank lines, the `_meta` header) lives in one
    # module; any other module that names the key is handling it itself.
    package = Path(fintag.__file__).parent
    spelled = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value == "_meta" or '"_meta"' in node.value:
                    spelled.add(path.name)
    assert spelled == {"jsonl.py"}


def test_only_the_taxonomy_module_spells_a_kind_name():
    # Every other spelling of a kind or a FAVA label (tag names, row titles,
    # column labels, config keys) is derived from the taxonomy's rows; a
    # module that spells one keeps a second copy of the taxonomy.
    from fintag.taxonomy import FAVA_LABELS, ErrorType

    names = {kind.value for kind in ErrorType} | set(FAVA_LABELS)
    package = Path(fintag.__file__).parent
    spelled = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names:
                spelled.add(path.name)
    assert spelled == {"taxonomy.py"}


def test_every_jsonl_read_declares_its_fields():
    # A reader that passes no field table hands unchecked rows on; only
    # `split`, which copies lines verbatim, reads rows it does not use. The
    # offset-reading form (`spans=True`) is held to the same rule: a row
    # read back by its span (`line_at`, `row_at`) was checked when read.
    package = Path(fintag.__file__).parent
    unchecked, by_span = set(), set()
    for path in package.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "read_jsonl":
                    keywords = {kw.arg for kw in node.keywords}
                    if "fields" not in keywords:
                        unchecked.add(f"{path.stem}.{func.name}")
                    if "spans" in keywords:
                        by_span.add(f"{path.stem}.{func.name}")
    assert unchecked == {"cli._cmd_split"}
    assert by_span == {"corpus.ingest", "cli._cmd_split"}
