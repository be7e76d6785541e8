"""Every callable in ``src/repro`` is reached by something that is not a test.

The census walks the AST of the package and lists each module-level
function, class and method.  A definition is *live* when its name is
referenced outside its own body:

- in ``src/`` — as a name or attribute read, or an identifier string
  (a ``getattr`` name, a dispatch-table key); the strings of ``__all__``
  and of a package's lazy re-export table, and import statements, do
  not count, since they only pass a name along;
- anywhere in the code of ``scripts/``, ``bench/``, ``benchmarks/`` and
  ``examples/`` — imports included, comments and prose not.

References are indexed by name, so a method is live when any attribute
of that name is read somewhere; the census finds what nothing could be
calling, not every dead path.  That is its blind spot: a
``DistributedSystem.refactor`` and a ``LocalizedPreconditioner.refactor``
that only tests called stayed "live" for as long as the IC factor's
``refactor`` was called in ``src/``, because all three share the name.
Dunder methods are called by the language and are skipped.

What only tests reach on purpose is listed in :data:`ALLOWED`, each with
its reason; an entry that is gone or has become live fails the census
too, so the list cannot rot.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLERS = ("scripts", "bench", "benchmarks", "examples")

ALLOWED = {
    # oracles: reference implementations the tests compare against
    "fem/hex8.py::hex8_stiffness": "oracle: the element kernel without shape dedup",
    "fem/contact.py::add_penalty": "oracle: the penalty term assembled directly",
    "fem/mpc.py::solve_tied_exact": "oracle: the exactly tied solve (ROADMAP: tied baseline arm)",
    "reorder/coloring.py::Coloring.validate": "oracle: no edge inside a colour",
    "reorder/graph.py::is_independent_set": "oracle: no edge inside a set",
    "sparse/bcsr.py::BCSRMatrix.is_symmetric": "oracle: assembled operator symmetry",
    "utils/validate.py::check_symmetric": "oracle: operator symmetry",
    "perfmodel/machines.py::VectorPipeline.rate": "oracle: the Hockney law time_for_loops vectorises",
}

def _defs(tree: ast.Module):
    """``(qualified name, node)`` of every module-level function and
    class and of every method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _reexport_strings(path: Path, tree: ast.Module) -> set[int]:
    """Ids of the string constants that only pass a name along:
    ``__all__`` anywhere, every module-level assignment in a package
    ``__init__``."""
    skip: set[int] = set()
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        if "__all__" in names or path.name == "__init__.py":
            skip.update(id(n) for n in ast.walk(node) if isinstance(n, ast.Constant))
    return skip


def _src_references(tree: ast.Module, skip: set[int]):
    """``(name, line)`` of every name or attribute read and every
    identifier string in *tree*, but for the strings in *skip*."""
    for node in ast.walk(tree):
        kind = type(node)
        if kind is ast.Name and type(node.ctx) is ast.Load:
            yield node.id, node.lineno
        elif kind is ast.Attribute and type(node.ctx) is ast.Load:
            yield node.attr, node.lineno
        elif kind is ast.Constant and type(node.value) is str:
            if node.value.isidentifier() and id(node) not in skip:
                yield node.value, node.lineno


def _caller_names(path: Path) -> set[str]:
    """Every name, attribute, import and identifier string in the module
    at *path*: the names of its compiled code objects, which is cheaper
    than walking its syntax tree."""
    names: set[str] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        names.update(code.co_names)
        for const in code.co_consts:
            if isinstance(const, str) and const.isidentifier():
                names.add(const)
            elif hasattr(const, "co_names"):
                stack.append(const)
    return names


def census() -> tuple[set[str], set[str]]:
    """``(unreached, reached)``: the qualified ids of the package's
    definitions with and without a reference outside their own body."""
    refs: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    defs = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, line in _src_references(tree, _reexport_strings(path, tree)):
            refs[name].append((path, line))
        rel = path.relative_to(PACKAGE).as_posix()
        defs += [(rel, path, q, node) for q, node in _defs(tree)]
    called: set[str] = set()
    for caller in CALLERS:
        for path in (ROOT / caller).rglob("*.py"):
            called |= _caller_names(path)
    unreached, reached = set(), set()
    for rel, path, qual, node in defs:
        name = qual.rpartition(".")[2]
        if name.startswith("__") and name.endswith("__"):
            continue
        own = range(node.lineno, node.end_lineno + 1)
        live = name in called or any(
            p != path or line not in own for p, line in refs[name]
        )
        (reached if live else unreached).add(f"{rel}::{qual}")
    return unreached, reached


def test_every_callable_is_reached_outside_tests():
    unreached, reached = census()
    dead = sorted(unreached - ALLOWED.keys())
    assert not dead, "reached by nothing but tests (delete, or list in ALLOWED): " + ", ".join(dead)
    stale = sorted(k for k in ALLOWED if k not in unreached)
    gone = [k for k in stale if k not in reached]
    live = [k for k in stale if k in reached]
    assert not gone, f"ALLOWED names definitions that no longer exist: {gone}"
    assert not live, f"ALLOWED names definitions a caller now reaches: {live}"


def test_no_family_is_spelled_outside_the_family_table():
    """The policy and resilience layers read a family's facts off its
    ``FAMILY_TABLE`` row instead of spelling its name: no string constant
    there (documentation aside) equals a family's name or stage label,
    so a new family needs a row, not a new branch."""
    from repro.precond.families import FAMILY_TABLE

    spelled = set(FAMILY_TABLE) | {f.stage for f in FAMILY_TABLE.values()}
    found = []
    for layer in ("policy", "resilience"):
        for path in sorted((PACKAGE / layer).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            docs = {
                id(node.value)
                for node in ast.walk(tree)
                if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            }
            found += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} {node.value!r}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and type(node.value) is str
                and node.value in spelled
                and id(node) not in docs
            ]
    assert not found, "family spelled outside precond/families.py: " + ", ".join(found)
