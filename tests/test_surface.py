"""The package's public surface is the pipeline it serves.

Every public top-level definition in ``src/artifact``, and every public
method and property of its classes, must be referenced by code that is not
a test: by another part of the package (outside the definition's own body),
by the ``artifact`` command, or by the benchmark scripts in ``bench/``.  A
reference is a name, an attribute or a string constant equal to the
definition's name (the benchmark's tracer patches functions by their names
as strings); a method is read as an attribute, so a bare name, such as a
local variable, does not reach it.  References are counted transitively:
a definition reached only from definitions that are themselves reached only
from tests does not count as reached.  The names in ``KEPT`` are the
exceptions, each kept as a reference or a guard for the tests.

The check is by name, not by import, so two definitions that share a name
keep each other alive; it errs on the side of passing.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "artifact"
BENCH = ROOT / "bench"

#: Public definitions kept though only tests use them, with the reason.
KEPT = {
    "verify_built": "guards the construction of the graded D4 algebra",
    "lie_scale": "used by the sl2 checks of verify_built",
    "act_g0": "the degree-zero action, the reference for act_tensor's bracket equivariance",
    "g0_to_quad_mats": "the slot matrices behind act_g0",
    "quad_mats_to_g0": "the inverse of g0_to_quad_mats, behind act_g0",
    "g1_to_tensor": "the inverse of tensor_to_g1, reading brackets back as tensors in the "
                    "equivariance, invariance and coroot checks",
    "lie_sub": "used by the bracket-equivariance checks of act_tensor and act_g0",
    "gelt_group": "the group view the tests of the h1 engine run on",
    "component_membership": "checks the stored subsystem data",
    "random_cyc": "draws the random field elements of the property tests",
    "coefficients": "CycNum's rational coefficients, read by the field tests",
    "to_json": "Tensor's JSON text, the input format states are written in",
    "mat_vec": "the field matrix-vector product, the reference of the integer row kernel "
               "behind SSTableRow.coordinates, SSTableRow.solve and the classification moves",
}


def _sources(paths):
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}


def _names(node):
    """Identifiers and identifier-like strings used under ``node``, the
    attributes and strings marked by a leading ``.``.

    Imports and ``__all__`` lists are skipped: naming a definition there is
    not a use of it.
    """
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.Import, ast.ImportFrom)) or _is_all(n):
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add("." + n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if n.value.isidentifier():
                out.add("." + n.value)
        stack.extend(ast.iter_child_nodes(n))
    return out


def _is_all(node):
    return (
        isinstance(node, (ast.Assign, ast.AnnAssign))
        and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        )
    )


def _defined(stmt):
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _public_methods(cls):
    """The public methods and properties defined in a class body."""
    return [
        n for n in cls.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not n.name.startswith("_")
    ]


def _reaches(used):
    """The definitions a use reaches: an attribute or a string ``.x`` the
    top-level ``x`` and the methods ``.x``, a bare name ``x`` only ``x``."""
    return (used, used[1:]) if used.startswith(".") else (used,)


def _reachability():
    """(public definitions, names reached from non-test code) of the package.

    A public method or property is a definition of its own, keyed ``.name``;
    the rest of its class's body is reached with the class.
    """
    trees = _sources(sorted(PACKAGE.glob("*.py")))
    roots: set[str] = set()
    uses: dict[str, set[str]] = {}  # definition -> the names its bodies use
    for tree in trees.values():
        for stmt in tree.body:
            names = [n for n in _defined(stmt) if not n.startswith("__")]
            if not names:
                roots |= _names(stmt)
                continue
            parts = [stmt]
            if isinstance(stmt, ast.ClassDef):
                methods = _public_methods(stmt)
                for method in methods:
                    uses.setdefault("." + method.name, set()).update(_names(method))
                parts = [c for c in ast.iter_child_nodes(stmt) if c not in methods]
            for n in names:
                uses.setdefault(n, set()).update(*map(_names, parts))
    for tree in _sources(sorted(BENCH.glob("*.py"))).values():
        roots |= _names(tree)
    roots |= _names(trees[PACKAGE / "cli.py"])
    # A definition's body reaches names only once the definition is reached.
    reached = set()
    frontier = [d for u in roots for d in _reaches(u) if d in uses]
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        frontier.extend(d for u in uses[name] for d in _reaches(u)
                        if d in uses and d not in reached)
    public = {d.lstrip(".") for d in uses if not d.lstrip(".").startswith("_")}
    return public, {d.lstrip(".") for d in reached}


def test_every_public_definition_serves_the_pipeline():
    public, reached = _reachability()
    test_only = sorted(public - reached - set(KEPT))
    assert test_only == [], (
        "public definitions reached only from tests (give each a caller, "
        "delete it with its tests, or list it in KEPT): " + ", ".join(test_only)
    )


def test_kept_names_exist_and_are_not_otherwise_reached():
    public, reached = _reachability()
    assert set(KEPT) <= public
    assert not set(KEPT) & reached, "a KEPT name has a caller; drop it from KEPT"


def test_all_lists_the_public_functions_and_classes():
    """Each ``__all__`` names only what its module defines, and all of its
    public functions and classes."""
    problems = []
    for path, tree in _sources(sorted(PACKAGE.glob("*.py"))).items():
        top, api, exported = set(), set(), None
        for stmt in tree.body:
            top.update(_defined(stmt))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    api.add(stmt.name)
            if _is_all(stmt):
                exported = {e.value for e in stmt.value.elts}
        if exported is None:
            continue
        if exported - top:
            problems.append(f"{path.name}: undefined {sorted(exported - top)}")
        if api - exported:
            problems.append(f"{path.name}: not in __all__ {sorted(api - exported)}")
    assert problems == []


def test_package_has_no_assert_statements():
    """Checks that must hold raise: ``python -O`` strips ``assert``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _sources(sorted(PACKAGE.glob("*.py"))).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _package_imports(tree):
    """Local names bound by imports from the package, each to what it names:
    a module by ``from . import m``, or ``m.Name`` by ``from .m import Name``."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if (node.level == 1 and node.module is None) or (
            node.level == 0 and node.module == "artifact"
        ):
            prefix = ""
        elif node.level == 1 or (node.module or "").startswith("artifact."):
            prefix = node.module.removeprefix("artifact.") + "."
        else:
            continue
        for alias in node.names:
            out[alias.asname or alias.name] = prefix + alias.name
    return out


def test_no_module_reads_another_modules_private_names():
    """A module uses only the public names of the package's other modules,
    and of the classes it imports from them, so that what one keeps private
    can change without the others."""
    found = []
    for path, tree in _sources(sorted(PACKAGE.glob("*.py"))).items():
        modules = _package_imports(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.level == 1 or node.module.startswith("artifact.")
            ):
                found += [f"{path.name}:{node.lineno}: {node.module}.{a.name}"
                          for a in node.names if a.name.startswith("_")]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                found.append(f"{path.name}:{node.lineno}: "
                             f"{modules[node.value.id]}.{node.attr}")
    assert found == []
