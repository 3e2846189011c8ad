"""Each coupling estimate is stated once, in exponents.ESTIMATES: no module
names an estimate id 2.5-2.13 outside that table, nor one of its constants
c1-c9 by name."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
IDS = {f"2.{i}" for i in range(5, 14)}


def _id_literals(path: pathlib.Path) -> tuple:
    """The estimate-id string literals of a module, (inside ESTIMATES,
    outside it) as lists of (line, id)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    table = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ESTIMATES" for t in node.targets):
            table.update(id(n) for n in ast.walk(node.value))
    inside, outside = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value in IDS:
            (inside if id(node) in table else outside).append((node.lineno, node.value))
    return inside, outside


def test_estimate_ids_only_in_the_table():
    package = sorted((ROOT / "src" / "micropolar").glob("*.py"))
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    inside, _ = _id_literals(ROOT / "src" / "micropolar" / "exponents.py")
    assert sorted(v for _, v in inside) == sorted(IDS)
    offenders = {str(p.relative_to(ROOT)): _id_literals(p)[1]
                 for p in package + scripts if _id_literals(p)[1]}
    assert offenders == {}


def test_estimate_constants_read_by_row():
    """The fit and the bound recursion index the constants by table row;
    no module reads one as an attribute .c1 to .c9."""
    names = {f"c{i}" for i in range(1, 10)}
    offenders = {}
    for path in sorted((ROOT / "src" / "micropolar").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in names]
        if lines:
            offenders[path.name] = sorted(lines)
    assert offenders == {}
