"""Every function of a generator is one spectral calculus: spectral_coeffs
is the per-subspace sum of fn(eigenvalue) times part, and a velocity is
Leray-projected where it enters, never again by a function of a generator."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "micropolar"
# the one spectral sum, the energy split of the decay fits, and the cubic
# Duhamel reference, which checks the solver's sums independently
SUBSPACE_READERS = {"operators.spectral_coeffs", "analysis._mode_energies",
                    "solver.duhamel_residual"}
LERAY = {"leray_coeffs", "leray_project"}


def _functions(path: pathlib.Path) -> dict:
    """{qualified name: (FunctionDef, argument annotations as text)} of the
    module-level functions and the methods of a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = {}
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{path.stem}." + (f"{node.name}." if isinstance(node, ast.ClassDef) else "")
        for fn in defs:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                notes = {ast.unparse(a.annotation) for a in fn.args.args if a.annotation}
                out[prefix + fn.name] = (fn, notes)
    return out


def _called(fn: ast.AST) -> set:
    """The names a function calls, by name or attribute, nested scopes included."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_subspaces_has_three_readers():
    readers = {name for path in sorted(PACKAGE.glob("*.py"))
               for name, (fn, _) in _functions(path).items() if "subspaces" in _called(fn)}
    assert readers == SUBSPACE_READERS


def test_no_function_of_a_generator_projects():
    # the operators functions that take a generator, and every operators
    # function they reach, call no Leray function
    funcs = _functions(PACKAGE / "operators.py")
    local = {name.split(".", 1)[1]: fn for name, (fn, _) in funcs.items()}
    appliers = [name.split(".", 1)[1] for name, (_, notes) in funcs.items()
                if "OperatorSymbol" in notes]
    assert {"spectral_coeffs", "power_coeffs", "apply_operator",
            "semigroup_apply", "subspaces"} <= set(appliers)
    reached, todo = set(), list(appliers)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_called(local[name]) & local.keys())
    assert {name: sorted(_called(local[name]) & LERAY) for name in sorted(reached)
            if _called(local[name]) & LERAY} == {}
