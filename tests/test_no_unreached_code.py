"""Every definition in ``src/repro`` is reached from the program.

Each function, class, method and property in the package is code to
trust, document and keep fast. One that no model, campaign, example or
benchmark reaches is upkeep with no user, and often per-event work
besides: a process interrupt needs a stale-wait check on every resume, a
lock table a handler on every server, an unused limit a ``min()`` on
every TLB load. Tests are not users: a feature only a test drives
(advisory file locks, ORDMA writes, a fault mode no campaign injects)
measures nothing this reproduction reports.

The check is a name reachability walk from the program's roots:

- every statement of a ``src/repro`` module outside a function or class
  body (constants, dispatch tables, ``if __name__ == "__main__"``);
- every line under ``examples/``, ``benchmarks/`` and ``perfbench/``,
  perfbench's self-test included;
- each module-level ``__getattr__``, which ``from repro import Cluster``
  reaches without naming it.

A definition (a module function or class, or a method or property of a
class, public or private) is reached when its name occurs as an
``ast.Name`` id or an ``ast.Attribute`` attr in a root or in the body of
a reached definition. A class's bases, decorators, non-method statements
and dunder methods are part of the class. Imports are not references, so
the re-exports in ``sim/__init__.py`` and the other package
``__init__`` files reach nothing. There is no allowlist: add an entry
point only together with its program caller.

The walk is by name, so a name the program uses anywhere (``get``,
``partition``, ``page_at``) reaches every definition that shares it: a
definition hidden that way is not caught. Look for its callers by hand
before keeping one.

Imports are held to the same bar: each name a non-``__init__`` module
imports must be used, as an ``ast.Name``, in a string annotation, or on
an import marked ``# noqa: F401`` (kept for its side effect).
"""

import ast
import pathlib
import shutil
import sys
import textwrap

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
REPO = PACKAGE.parents[1]
SCRIPTS = ("examples", "benchmarks", "perfbench")

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(nodes) -> set:
    """Every ``ast.Name`` id and ``ast.Attribute`` attr under ``nodes``;
    import statements name nothing."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def _class_parts(cls: ast.ClassDef) -> list:
    """The nodes that belong to a class itself: bases, keywords,
    decorators, non-method statements and dunder methods."""
    parts = [*cls.bases, *cls.keywords, *cls.decorator_list]
    for member in cls.body:
        if not isinstance(member, FUNCTIONS) or _dunder(member.name):
            parts.append(member)
    return parts


def modules(repo: pathlib.Path):
    """Each module of ``src/repro`` as ``(path relative to src, tree)``."""
    package = repo / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        yield path.relative_to(repo / "src"), \
            ast.parse(path.read_text(), str(path))


def scripts(repo: pathlib.Path):
    """The tree of every file under ``SCRIPTS``."""
    for top in SCRIPTS:
        for path in sorted((repo / top).rglob("*.py")):
            yield ast.parse(path.read_text(), str(path))


def definitions(tree: ast.Module):
    """``(qualname, owner, node)`` for each module-level function and class
    of ``tree`` (owner ``None``), each class followed by its methods, dunders
    included (owner the class)."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, None, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, FUNCTIONS):
                    yield f"{node.name}.{member.name}", node, member


def scan(repo: pathlib.Path):
    """``(defs, roots)``: each definition in ``src/repro`` as
    ``(name, "path:line qualname", body nodes)``, and the names the roots
    use."""
    defs, roots = [], set()
    for rel, tree in modules(repo):
        for node in tree.body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                roots |= _names([node])
        for qualname, owner, node in definitions(tree):
            if isinstance(node, ast.ClassDef):
                body = _class_parts(node)
            elif owner is None and node.name == "__getattr__":
                roots |= _names([node])
                continue
            elif owner is not None and _dunder(node.name):
                continue
            else:
                body = [node]
            defs.append((node.name, f"{rel}:{node.lineno} {qualname}", body))
    for tree in scripts(repo):
        roots |= _names([tree])
    return defs, roots


def unreached(repo: pathlib.Path) -> list:
    """``"path:line qualname"`` of every definition no root reaches."""
    defs, roots = scan(repo)
    by_name = {}
    for index, (name, _, _) in enumerate(defs):
        by_name.setdefault(name, []).append(index)
    reached, seen, todo = set(), set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for index in by_name.get(name, ()):
            reached.add(index)
            todo.extend(_names(defs[index][2]) - seen)
    return [where for index, (_, where, _) in enumerate(defs)
            if index not in reached]


def test_every_definition_is_reached_from_the_program():
    missing = unreached(REPO)
    assert not missing, (
        "definitions in src/repro that no module statement, "
        f"{'/, '.join(SCRIPTS)}/ script or reached definition names "
        "(delete them, or call them from the program):\n  "
        + "\n  ".join(missing))


def unused_imports(repo: pathlib.Path) -> list:
    """``"path:line name"`` of every name a non-``__init__`` module of
    ``src/repro`` imports and never uses: a use is an ``ast.Name``, a
    name in a string annotation, or a ``# noqa: F401`` on the import
    (one kept for its side effect). Package ``__init__`` files re-export,
    and ``from __future__`` imports are directives."""
    found = []
    for rel, tree in modules(repo):
        if rel.name == "__init__.py":
            continue
        lines = (repo / "src" / rel).read_text().splitlines()
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            for annotation in (getattr(node, "annotation", None),
                               getattr(node, "returns", None)):
                if isinstance(annotation, ast.Constant) \
                        and isinstance(annotation.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(
                        annotation.value)) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__" \
                    or any("# noqa: F401" in line for line
                           in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    found.append(f"{rel}:{node.lineno} {name}")
    return found


def test_every_import_is_used():
    unused = unused_imports(REPO)
    assert not unused, (
        "names src/repro modules import and never use (delete them):\n  "
        + "\n  ".join(unused))


def _tree(tmp_path, sources: dict, script: str) -> pathlib.Path:
    for rel, source in sources.items():
        path = tmp_path / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    for top in SCRIPTS:
        (tmp_path / top).mkdir()
    (tmp_path / "examples" / "demo.py").write_text(textwrap.dedent(script))
    return tmp_path


def test_the_walk_follows_chains_and_not_imports(tmp_path):
    repo = _tree(tmp_path, {
        "__init__.py": """
            from .model import Model, lonely
            def __getattr__(name):
                return _lazy()
            def _lazy():
                return 1
        """,
        "model.py": """
            TABLE = {"run": "x"}
            class Base:
                def helper(self):
                    return 1
            class Model(Base):
                size = _sized()
                def __init__(self):
                    self.go()
                def go(self):
                    return self.helper()
                def unused(self):
                    return lonely()
            def _sized():
                return 2
            def lonely():
                return 3
            def chain_head():
                return chain_tail()
            def chain_tail():
                return 4
        """,
    }, "from repro import Model\nModel()\n")
    assert unreached(repo) == [
        "repro/model.py:12 Model.unused",
        "repro/model.py:16 lonely",
        "repro/model.py:18 chain_head",
        "repro/model.py:20 chain_tail",
    ]


def test_an_import_is_used_by_name_string_annotation_or_noqa(tmp_path):
    repo = _tree(tmp_path, {
        "__init__.py": "from .model import f\n",
        "model.py": """
            from __future__ import annotations
            import os
            import sys  # noqa: F401
            from typing import Dict, List, Tuple
            def f(x: "Tuple[int, int]") -> Dict:
                return os.sep
        """,
    }, "from repro.model import f\nf((1, 2))\n")
    assert unused_imports(repo) == ["repro/model.py:5 List"]


def test_fails_on_a_helper_only_tests_call(tmp_path):
    """On a copy of the real tree, an unused private helper in a model
    module fails the guard, and so does a def only a test calls."""
    ignore = shutil.ignore_patterns("__pycache__")
    for top in ("src", *SCRIPTS):
        shutil.copytree(REPO / top, tmp_path / top, ignore=ignore)
    cpu = tmp_path / "src" / "repro" / "hw" / "cpu.py"
    lines = len(cpu.read_text().splitlines())
    cpu.write_text(cpu.read_text() + textwrap.dedent('''

        def _helper():
            """Unused."""
            return 0


        def tested():
            """Called from a test only."""
            return 1
    '''))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_cpu.py").write_text(
        "from repro.hw.cpu import tested\n\nassert tested() == 1\n")
    added = set(unreached(tmp_path)) - set(unreached(REPO))
    assert added == {f"repro/hw/cpu.py:{lines + 3} _helper",
                     f"repro/hw/cpu.py:{lines + 8} tested"}


if __name__ == "__main__":
    found = unreached(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1
                      else REPO)
    print("\n".join(found))
    sys.exit(1 if found else 0)
