"""Every public name in the simulation kernel has a caller in the program.

``repro.sim`` is the engine every model runs on, and each entry point it
offers is code to trust, document and keep fast. One that no model,
campaign or benchmark calls is upkeep with no user, and often per-event
work besides: a process interrupt needs a stale-wait check on every
resume, an early stop a ``try`` around every dispatch. So each public
function, class, method and property defined in ``src/repro/sim`` must be
named somewhere in the program: as an ``ast.Name`` or an ``ast.Attribute``
in ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``. Tests are
not callers, and neither are the definition itself or the re-exports in
``sim/__init__.py``.

The check is by name, so a name the program uses anywhere (``get``,
``clear``) passes for every definition that shares it; it catches only
names the program never says.
"""

import ast
import pathlib

import repro

SIM = pathlib.Path(repro.__file__).parent / "sim"
REPO = SIM.parents[2]
PROGRAM = ("src", "examples", "benchmarks", "perfbench")


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions(sim: pathlib.Path) -> list:
    """``(name, "path:line qualname")`` for every public module-level
    function or class in ``sim``, and every public method or property of
    a class there."""
    found = []
    for path in sorted(sim.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and _public(node.name):
                found.append((node.name,
                              f"{path.name}:{node.lineno} {node.name}"))
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and _public(member.name):
                    found.append((member.name, f"{path.name}:"
                                  f"{member.lineno} {node.name}."
                                  f"{member.name}"))
    return found


def used_names(repo: pathlib.Path) -> set:
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in the program,
    ``sim/__init__.py`` left out."""
    reexports = SIM / "__init__.py"
    names = set()
    for top in PROGRAM:
        for path in sorted((repo / top).rglob("*.py")):
            if path == reexports:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_sim_name_has_a_program_caller():
    used = used_names(REPO)
    uncalled = [where for name, where in definitions(SIM)
                if name not in used]
    assert not uncalled, (
        "public repro.sim names nothing in "
        f"{'/, '.join(PROGRAM)}/ uses (delete them, or call them):\n  "
        + "\n  ".join(uncalled))
