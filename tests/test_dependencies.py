"""The package keeps zero runtime dependencies and no module state: each
of its modules imports only the package itself and the standard library,
and none rebinds a module-level name."""

import ast
import sys
from pathlib import Path

import netredist

SOURCES = sorted(Path(netredist.__file__).parent.glob("*.py"))


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the modules ``path`` imports anywhere in its
    body, lazy imports and imports for type checking included; a relative
    import is the package's own."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("netredist" if node.level else node.module.partition(".")[0])
    return names


def test_the_package_imports_only_itself_and_the_standard_library():
    imported = {path.name: imported_modules(path) for path in SOURCES}
    assert "fractions" in imported["prst.py"] and "netredist" in imported["cli.py"]
    outside = {name: sorted(modules - {"netredist"} - sys.stdlib_module_names)
               for name, modules in imported.items()}
    assert {name: modules for name, modules in outside.items() if modules} == {}


def test_no_module_rebinds_a_global():
    """No function rebinds a module-level name with ``global``, so no call
    leaves state behind for the next one."""
    rebinding = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rebinding[path.name] = [node.lineno for node in ast.walk(tree)
                                if isinstance(node, ast.Global)]
    assert {name: lines for name, lines in rebinding.items() if lines} == {}
