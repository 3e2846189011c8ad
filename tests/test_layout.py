"""The half spectrum is the one layout the package computes on: only the
fields module converts between it and the full fftn layout."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONVERSIONS = {"full_spectrum", "half_spectrum", "_mirror_index"}


def _conversions(path: pathlib.Path) -> set:
    """The layout conversions a module imports, calls or reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names & CONVERSIONS


def test_only_fields_converts_between_layouts():
    package = sorted((ROOT / "src" / "micropolar").glob("*.py"))
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert any(p.name == "fields.py" for p in package) and scripts
    assert _conversions(ROOT / "src" / "micropolar" / "fields.py") == CONVERSIONS
    offenders = {str(p.relative_to(ROOT)): sorted(_conversions(p))
                 for p in package + scripts if p.name != "fields.py" and _conversions(p)}
    assert offenders == {}
