"""The package namespace: each public name resolves, on first use, to the
object its home submodule defines."""

from __future__ import annotations

import ast
import importlib
import re
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


def test_no_module_imports_dataclasses():
    # The value types are NamedTuples and the tallies slotted classes:
    # `dataclasses` and what it loads (`inspect`, `ast`, ...) would cost
    # every stage process its import.
    package = Path(fintag.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules:
                importers.add(path.name)
    assert importers == set()


def test_no_module_imports_a_name_it_never_uses():
    # A name imported and never read is a dependency the module no longer
    # has. Re-exports kept for importers are marked `# noqa: F401`.
    package = Path(fintag.__file__).parent
    unused = set()
    for path in package.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.add(f"{path.stem}.{bound}")
    assert unused == set()


def test_every_cache_is_bounded():
    # Stages stream their rows, so their memory stays flat however large
    # the corpus; a cache that grows with it would break that. Every
    # `lru_cache` is called with its bound, an integer literal.
    def named(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    package = Path(fintag.__file__).parent
    unbounded = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                unbounded.update(f"{path.stem}: functools.cache" for a in node.names if a.name == "cache")
            elif isinstance(node, ast.Attribute) and named(node.value) == "functools" and node.attr == "cache":
                unbounded.add(f"{path.stem}: functools.cache")
            elif isinstance(node, ast.Call) and named(node.func) == "lru_cache":
                called.add(node.func)
                bounds = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
                if not (len(bounds) == 1 and isinstance(bounds[0], ast.Constant)
                        and type(bounds[0].value) is int):
                    unbounded.add(f"{path.stem}:{node.lineno}")
        unbounded.update(f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                         if isinstance(node, (ast.Name, ast.Attribute))
                         and named(node) == "lru_cache" and node not in called)
    assert unbounded == set()


def test_replace_builds_through_the_checking_constructor():
    from fintag.edit_eval import FactScore
    from fintag.insertion import InserterConfig, InsertionPlan
    from fintag.llm_client import ClientProfile
    from fintag.markup import TaggedDocument, Text
    from fintag.taxonomy import ErrorType

    doc = TaggedDocument((Text("a"),))._replace(segments=(Text("a"), Text(""), Text("b")))
    assert doc == TaggedDocument((Text("ab"),)) == ((Text("ab"),), doc.form)
    plan = InsertionPlan(False, 1, ("numerical",), 0)._replace(kinds=("entity",))
    assert plan.kinds == (ErrorType.ENTITY,)
    with pytest.raises(ValueError, match="failed cannot exceed abstained"):
        FactScore(1, 2, 0)._replace(failed=1)
    with pytest.raises(ValueError, match="timeout must be positive"):
        ClientProfile("n", "e", "m")._replace(timeout=0)
    with pytest.raises(ValueError, match="must be >= 1"):
        InserterConfig()._replace(max_errors=0)
    assert InserterConfig().type_weights is not InserterConfig().type_weights


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


def test_only_the_jsonl_module_writes_standard_output():
    # A stage's standard output gets only the UTF-8 copy `open_output`
    # holds for it; a module that names `sys.stdout`, or prints without
    # `file=sys.stderr`, writes around that copy, in the locale's encoding.
    def is_sys(node, attr):
        return isinstance(node, ast.Attribute) and node.attr == attr and getattr(node.value, "id", None) == "sys"

    package = Path(fintag.__file__).parent
    naming, prints, to_stdout = set(), 0, []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if is_sys(node, "stdout") or (isinstance(node, ast.ImportFrom) and node.module == "sys"
                                          and any(alias.name == "stdout" for alias in node.names)):
                naming.add(path.name)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                prints += 1
                if not any(kw.arg == "file" and is_sys(kw.value, "stderr") for kw in node.keywords):
                    to_stdout.append(f"{path.name}:{node.lineno}")
    assert naming == {"jsonl.py"}
    assert prints > 0  # the scan sees the package's prints
    assert to_stdout == []


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


def test_only_patterns_spells_a_number_or_date_pattern():
    # The number and date grammars live in `patterns`; a regex elsewhere
    # that spells a digit class or a month name is a second copy of one.
    from fintag.patterns import MONTH_NAMES

    month = re.compile(rf"(?<![a-z])(?:{'|'.join(MONTH_NAMES)})(?![a-z])")
    package = Path(fintag.__file__).parent
    calls, spelled = 0, []
    for path in sorted(package.glob("*.py")):
        if path.name == "patterns.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", None) == "re"):
                continue
            calls += 1
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                for const in ast.walk(arg):
                    if isinstance(const, ast.Constant) and isinstance(const.value, str) and (
                        "\\d" in const.value or month.search(const.value.lower())
                    ):
                        spelled.append(f"{path.name}:{node.lineno}")
    assert calls > 0  # the scan sees the package's regex calls
    assert spelled == []


def test_every_jsonl_read_declares_its_fields():
    # A reader that passes no field table hands unchecked rows on; only
    # `split`, which copies lines verbatim, reads rows it does not use. A
    # row read back by its span (`line_at`, `row_at`) was checked when read.
    package = Path(fintag.__file__).parent
    unchecked = set()
    for path in package.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "read_jsonl":
                    keywords = {kw.arg for kw in node.keywords}
                    if "fields" not in keywords:
                        unchecked.add(f"{path.stem}.{func.name}")
    assert unchecked == {"cli._cmd_split"}


def test_readme_library_example_runs_as_its_comments_say():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)
    names: dict = {}
    exec(block, names)
    assert names["warnings"] == ()
    assert names["erroneous"] == "Revenue fell in 2020."
    assert names["original"] == "Revenue rose in 2020."
    assert "<mark>rose</mark>" in names["target"]  # the correction


def _resolve(module: str, dotted: str):
    """The object `dotted` names in `module`; a name that is a submodule
    of it, such as `cli`, is imported as one."""
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(f"{obj.__name__}.{part}")
    return obj


def test_every_name_the_benchmark_reaches_resolves():
    # The benchmark traces the functions its tracer's LAYERS names and
    # imports others from the package; a name renamed or removed here
    # would otherwise fail only in a traced run. Its files are only read.
    bench = Path(__file__).parents[1] / "bench"
    names = []
    for path in sorted([*bench.glob("*.py"), *bench.glob("tests/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
                layers = ast.literal_eval(node.value)
                names += [(f"fintag.{mod}", fn) for mod, fns in layers.items() for fn in fns]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fintag":
                names += [(node.module, alias.name) for alias in node.names]
    assert ("fintag.llm_client", "LlmClient.cached_complete") in names  # the scan sees the tracer
    assert ("fintag", "cli") in names
    missing = []
    for module, dotted in names:
        try:
            _resolve(module, dotted)
        except ImportError:
            missing.append(f"{module}:{dotted}")
    assert missing == []
