"""The hand-kept export list of the package, and the oracle's import boundary."""

import ast
import types
from pathlib import Path

import coarsepd


def test_every_exported_name_resolves():
    assert len(set(coarsepd.__all__)) == len(coarsepd.__all__)
    assert [name for name in coarsepd.__all__ if not hasattr(coarsepd, name)] == []


def test_every_public_name_is_exported():
    public = {name for name, value in vars(coarsepd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(coarsepd.__all__)) == []


def _package_imports(name):
    """Modules of the package that coarsepd/<name>.py imports, without the package prefix."""
    tree = ast.parse((Path(coarsepd.__file__).parent / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["coarsepd" if node.level else None, node.module]))
            found |= {f"{base}.{a.name}" for a in node.names} if base == "coarsepd" else {base}
    return {m.partition(".")[2] for m in found if m.startswith("coarsepd.")}


def test_oracle_shares_no_code_with_the_solvers():
    assert _package_imports("oracle") == {"diagram", "errors"}
    assert "oracle" not in _package_imports("metrics") | _package_imports("assignment")
