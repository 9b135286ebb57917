"""The runtime stays on the standard library: every absolute import in the
package, lazy ones inside functions included, names a standard module,
and none is dataclasses, whose import and generated methods would be most
of a one-report process's start. Every module-level import is read, no
check in the package is a bare assert, which python -O strips, no handler
catches every exception, every definition is named in code beyond the
line that defines it, and every field a value class keeps is read."""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import Iterator

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cilines"


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert {"__init__.py", "cli.py", "exactmatrix.py"} <= {p.name for p in sources}
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


def test_no_module_imports_dataclasses():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter, as every command line run starts in."""
    code = "import sys, cilines.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


#: imports a module keeps without reading them, each with its reason
UNREAD_ON_PURPOSE = {
    ("bundles.py", "membership_system"): "perfbench's tracer test reads it through this module",
}


def test_every_module_level_import_is_read():
    """A name a module imports at module level is read somewhere in that
    module. The package's __init__ is left out: it re-exports what it
    imports, its __all__ being every public name it binds."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [
                f"{path.name}:{node.lineno} imports {name} and never reads it"
                for name in bound
                if name not in read and (path.name, name) not in UNREAD_ON_PURPOSE
            ]
    assert unread == []


def test_no_assert_statement_in_the_package():
    """Invariants raise named errors; an assert would vanish under -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_catch_all_except_in_the_package():
    """Errors are named: no handler catches Exception, BaseException or
    everything (a bare except), which would swallow a bug with the verdict."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ExceptHandler)
        and (
            node.type is None
            or any(
                isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
                for t in (node.type.elts if isinstance(node.type, ast.Tuple) else [node.type])
            )
        )
    ]
    assert found == []


def _cache_names(tree: ast.Module) -> tuple[dict[str, str], set[str]]:
    """The names a module binds to functools.cache and functools.lru_cache
    (name -> which), and the names it binds to functools itself."""
    names, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update(
                (a.asname or a.name, a.name) for a in node.names if a.name in ("cache", "lru_cache")
            )
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
    return names, modules


def test_every_cache_is_bounded():
    """A memo the package keeps lives as long as the process. So every
    lru_cache gives a finite maxsize (the default, 128, counts), and
    functools.cache, which never evicts, decorates only functions that take
    no parameters, whose one entry it keeps."""
    unbounded = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names, modules = _cache_names(tree)

        def which(expr: ast.expr) -> str | None:
            if isinstance(expr, ast.Name):
                return names.get(expr.id)
            if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
                if expr.value.id in modules and expr.attr in ("cache", "lru_cache"):
                    return expr.attr
            return None

        allowed = set()  # the cache decorators of functions with no parameters
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
                    allowed.update(id(d) for d in node.decorator_list if which(d) == "cache")
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Call) and which(node.func) == "lru_cache":
                given = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "maxsize")]
                if any(
                    not (isinstance(v, ast.Constant) and type(v.value) is int and v.value >= 0)
                    for v in given
                ):
                    unbounded.append(f"{where} lru_cache without a finite maxsize")
            elif isinstance(node, ast.expr) and which(node) == "cache" and id(node) not in allowed:
                unbounded.append(f"{where} functools.cache on a function with parameters")
    assert unbounded == []


def _code_words(text: str) -> Iterator[tuple[str, int]]:
    """(word, line) for each identifier of a source text and each word of
    a string literal that is one dotted name ("chart.nonfree_matrix", as
    a tracer or monkeypatch names its target); comments and prose strings
    such as docstrings give none."""
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]
        elif tok.type == tokenize.STRING and re.fullmatch(r"[rbuRBU]?(\"|')[\w.]+\1", tok.string):
            for word in re.findall(r"\w+", tok.string[1:]):
                yield word, tok.start[0]


def test_every_definition_in_the_package_is_named_elsewhere():
    """Every function, class and non-dunder method the package defines is
    named in code somewhere in src/, tests/ or perfbench/ beyond the line
    that defines it: a definition nothing names is dead code. A mention in
    prose, such as a docstring, does not count."""
    root = PACKAGE.parent.parent
    texts = {
        path: path.read_text(encoding="utf-8")
        for top in ("src", "tests", "perfbench")
        for path in sorted((root / top).rglob("*.py"))
    }
    named: dict[str, set[tuple[Path, int]]] = {}
    for path, text in texts.items():
        for word, lineno in _code_words(text):
            named.setdefault(word, set()).add((path, lineno))
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(texts[path], filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not named.get(node.name, set()) - {(path, node.lineno)}:
                unnamed.append(f"{path.name}:{node.lineno} defines {node.name}, named nowhere else")
    assert unnamed == []


def test_every_slot_is_read():
    """Every name in the __slots__ of a class in the package is read as an
    attribute (obj.name, in load context) somewhere in src/, tests/ or
    perfbench/: a field that nothing reads is carried for nothing."""
    root = PACKAGE.parent.parent
    read = {
        node.attr
        for top in ("src", "tests", "perfbench")
        for path in sorted((root / top).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
                ):
                    unread += [
                        f"{path.name}:{node.lineno} {cls.name}.{name} is never read"
                        for name in ast.literal_eval(node.value)
                        if name not in read
                    ]
    assert unread == []
