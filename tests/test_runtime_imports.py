"""The runtime stays on the standard library: every absolute import in the
package, lazy ones inside functions included, names a standard module."""

import ast
import sys
from pathlib import Path

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


#: imports a module keeps without reading them, each with its reason
UNREAD_ON_PURPOSE = {
    ("bundles.py", "membership_system"): "perfbench's tracer test reads it through this module",
    ("nonfree.py", "membership_system"): "perfbench's tracer test reads it through this module",
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
