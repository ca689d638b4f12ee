"""Every option in ``src/repro`` has a second value in use.

A parameter with a default is an option: a setting a reader must trace
and a test must cover. One that no model, campaign, example or benchmark
sets to a second value is a constant with upkeep, and the branches only
its other values reach are code no run executes. So each such parameter
is folded into its one value, and this guard keeps them out.

The check covers every parameter with a default, positional or
keyword-only, of the definitions ``tests/test_no_unreached_code.py``
walks: module functions and methods of module-level classes in
``src/repro``, ``self``/``cls`` and dunders other than ``__init__``
skipped. Its call sites are the calls under that guard's roots
(``src/repro``, ``examples/``, ``benchmarks/`` and ``perfbench/``; tests
are not callers) whose callee is a name or attribute equal to the
definition's name. An ``__init__``'s call sites are the calls of its class
and of the subclasses that inherit it, a subclass's ``super().__init__``
and ``Base.__init__(self, ...)``, and ``cls(...)`` in the class's
classmethods.

A parameter fails when no call site sets it, by keyword or by position,
or when every call site leaves it at its default or passes a literal and
all those values are equal. The guard prints ``path:line qualname(param)``
for each, and it has no allowlist.

The check is by name, so it cannot judge a definition whose name the
program also uses as a value (a dispatch table, a callback,
``cls = A if ... else B``, a local variable of the same name), or one
called with ``*args`` or ``**kwargs``; it skips those. A name two
definitions share pools their call sites (``copy`` is ``CPU.copy`` and
``Params.copy``). A parameter hidden either way is not caught: look for
its callers by hand before keeping one. ROADMAP.md (item 8) lists the
ones found that way and folded.
"""

import ast
import pathlib
import shutil
import sys
import textwrap
from collections import defaultdict

if __package__:
    from .test_no_unreached_code import (FUNCTIONS, REPO, SCRIPTS, _dunder,
                                         _tree, definitions, modules,
                                         scripts)
else:  # run as a script
    from test_no_unreached_code import (FUNCTIONS, REPO, SCRIPTS, _dunder,
                                        _tree, definitions, modules,
                                        scripts)

_UNSET = object()


def _decorated(node: ast.AST, name: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name
               for d in node.decorator_list)


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _non_values(tree: ast.AST) -> set:
    """Ids of the nodes under ``tree`` that name a definition without
    using it as a value: callees, annotations, ``isinstance`` and
    ``issubclass`` arguments, base classes, ``except`` types and the object
    of an attribute read."""
    shallow, deep = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            shallow.append(node.func)
            if _callee(node) in ("isinstance", "issubclass"):
                deep.extend(node.args[1:])
        elif isinstance(node, ast.Attribute):
            shallow.append(node.value)
        elif isinstance(node, ast.arg) and node.annotation:
            deep.append(node.annotation)
        elif isinstance(node, FUNCTIONS) and node.returns:
            deep.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            deep.append(node.annotation)
        elif isinstance(node, ast.ClassDef):
            deep.extend(node.bases)
        elif isinstance(node, ast.ExceptHandler) and node.type:
            deep.append(node.type)
    return {id(node) for node in shallow} \
        | {id(node) for top in deep for node in ast.walk(top)}


def _values(tree: ast.AST) -> set:
    """The names ``tree`` reads as values."""
    skip = _non_values(tree)
    found = set()
    for node in ast.walk(tree):
        if id(node) in skip \
                or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _calls(tree: ast.Module):
    """``(call, enclosing class or None, in a classmethod)`` for each call
    in a module or script."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            cls = top
            parts = [(member, isinstance(member, FUNCTIONS)
                      and _decorated(member, "classmethod"))
                     for member in top.body]
            parts += [(node, False) for node in
                      (*top.bases, *top.keywords, *top.decorator_list)]
        else:
            cls, parts = None, [(top, False)]
        for part, in_classmethod in parts:
            for node in ast.walk(part):
                if isinstance(node, ast.Call):
                    yield node, cls, in_classmethod


class _Program:
    """The definitions, call sites and value uses of one checkout."""

    def __init__(self, repo: pathlib.Path):
        self.defs = []  # (rel, qualname, owner, node)
        self.classes = {}
        trees = []
        for rel, tree in modules(repo):
            trees.append(tree)
            for qualname, owner, node in definitions(tree):
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name] = node
                elif node.name == "__init__" or not _dunder(node.name):
                    self.defs.append((rel, qualname, owner, node))
        trees.extend(scripts(repo))
        self.values = set()
        #: callee name -> [(call, enclosing class, in a classmethod)]
        self.calls = defaultdict(list)
        for tree in trees:
            self.values |= _values(tree)
            for call, cls, in_classmethod in _calls(tree):
                self.calls[_callee(call)].append((call, cls, in_classmethod))

    def _base_init(self, cls: ast.ClassDef):
        """The program class whose ``__init__`` ``super().__init__`` in
        ``cls`` runs."""
        for base in cls.bases:
            name = base.id if isinstance(base, ast.Name) else \
                getattr(base, "attr", None)
            if name in self.classes:
                owner = self.init_owner(self.classes[name])
                if owner is not None:
                    return owner
        return None

    def init_owner(self, cls: ast.ClassDef):
        """The program class whose ``__init__`` creating a ``cls`` runs."""
        if any(isinstance(member, FUNCTIONS) and member.name == "__init__"
               for member in cls.body):
            return cls
        return self._base_init(cls)

    def sites(self, owner, node):
        """``(call, positional shift)`` for each call site of a
        definition, or ``None`` when it cannot be judged by name."""
        if node.name != "__init__":
            names = {node.name}
        else:
            names = {name for name, cls in self.classes.items()
                     if self.init_owner(cls) is owner}
        if names & self.values:
            return None
        found = [(call, 0) for name in names
                 for call, _, _ in self.calls[name]]
        if node.name == "__init__":
            for call, cls, _ in self.calls["__init__"]:
                target = getattr(call.func, "value", None)
                if isinstance(target, ast.Call) and _callee(target) == "super":
                    if cls is not None and self._base_init(cls) is owner:
                        found.append((call, 0))
                elif isinstance(target, ast.Name) \
                        and target.id in self.classes \
                        and self.init_owner(self.classes[target.id]) is owner:
                    found.append((call, 1))
            found += [(call, 0) for call, cls, in_classmethod
                      in self.calls["cls"]
                      if in_classmethod and self.init_owner(cls) is owner]
        for call, _ in found:
            if any(isinstance(arg, ast.Starred) for arg in call.args) \
                    or any(keyword.arg is None for keyword in call.keywords):
                return None
        return found


def _literal(node: ast.AST):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _UNSET


def _options(owner, node):
    """``(name, default node, position)`` for each parameter with a
    default; ``position`` is ``None`` for a keyword-only one."""
    positional = [*node.args.posonlyargs, *node.args.args]
    if owner is not None and not _decorated(node, "staticmethod"):
        positional = positional[1:]
    defaults = node.args.defaults
    for index, arg in enumerate(positional):
        offset = index - (len(positional) - len(defaults))
        if offset >= 0:
            yield arg.arg, defaults[offset], index
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg, default, None


def _passed(call: ast.Call, shift: int, name: str, position):
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    if position is not None and position + shift < len(call.args):
        return call.args[position + shift]
    return None


def single_value_options(repo: pathlib.Path) -> list:
    """``"path:line qualname(param)"`` of every option no program caller
    sets to a second value."""
    program = _Program(repo)
    found = []
    for rel, qualname, owner, node in program.defs:
        sites = program.sites(owner, node)
        if sites is None:
            continue
        for name, default, position in _options(owner, node):
            passed = [_passed(call, shift, name, position)
                      for call, shift in sites]
            values = [_literal(default if p is None else p) for p in passed]
            if all(p is None for p in passed) or (
                    all(v is not _UNSET for v in values)
                    and all(v == values[0] for v in values)):
                found.append(f"{rel}:{node.lineno} {qualname}({name})")
    return found


def test_every_option_has_a_second_value_in_use():
    found = single_value_options(REPO)
    assert not found, (
        "parameters that no src/repro, "
        f"{'/, '.join(SCRIPTS)}/ call sets to a second value (fold each "
        "into its value, or set it from the program):\n  "
        + "\n  ".join(found))


def test_the_rule_on_a_synthetic_tree(tmp_path):
    """Unset, one-literal and test-only options fail; keyword, positional,
    ``super().__init__``, inherited and ``cls(...)`` settings pass; a def
    used as a value or called with ``**kwargs`` is skipped."""
    repo = _tree(tmp_path, {
        "model.py": """
            class Base:
                def __init__(self, rate=1.0, depth=4):
                    self.rate = rate
            class Model(Base):
                def __init__(self, width=8):
                    super().__init__(rate=2.0)
                    self.width = width
                @classmethod
                def wide(cls):
                    return cls(width=16)
            class Plain(Base):
                pass
            def keyed(x, scale=1, *, mode="a"):
                return x
            def positional(x, scale=1):
                return x
            def tabled(x, scale=1):
                return x
            def starred(x, scale=1):
                return x
            def literal(x, scale=1):
                return x
            def tested(x, size=3):
                return x
            TABLE = {"t": tabled}
        """,
    }, """
        from repro.model import *
        Model()
        Model.wide()
        Plain()
        keyed(1, scale=2, mode="b")
        keyed(1)
        positional(1, 2)
        positional(1)
        tabled(1)
        starred(1, **{})
        literal(1, 5)
        literal(1, scale=5)
        tested(1)
    """)
    (repo / "tests").mkdir()
    (repo / "tests" / "test_model.py").write_text(
        "from repro.model import tested\ntested(1, size=9)\n")
    assert single_value_options(repo) == [
        "repro/model.py:3 Base.__init__(depth)",
        "repro/model.py:22 literal(scale)",
        "repro/model.py:24 tested(size)",
    ]


def test_fails_on_a_one_value_option_in_the_real_tree(tmp_path):
    """On a copy of the real tree, a model option its one caller leaves
    at the default fails the guard, even when a test sets it."""
    ignore = shutil.ignore_patterns("__pycache__")
    for top in ("src", *SCRIPTS):
        shutil.copytree(REPO / top, tmp_path / top, ignore=ignore)
    cpu = tmp_path / "src" / "repro" / "hw" / "cpu.py"
    lines = len(cpu.read_text().splitlines())
    cpu.write_text(cpu.read_text() + textwrap.dedent('''

        def _scaled(x, factor=2.0):
            """Scale ``x``."""
            return x * factor


        SCALED = _scaled(1.0)
    '''))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_cpu.py").write_text(
        "from repro.hw.cpu import _scaled\n\n"
        "assert _scaled(1.0, factor=3.0) == 3.0\n")
    added = set(single_value_options(tmp_path)) \
        - set(single_value_options(REPO))
    assert added == {f"repro/hw/cpu.py:{lines + 3} _scaled(factor)"}


if __name__ == "__main__":
    found = single_value_options(pathlib.Path(sys.argv[1])
                                 if len(sys.argv) > 1 else REPO)
    print("\n".join(found))
    sys.exit(1 if found else 0)
