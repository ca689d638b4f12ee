"""Each model decision lives in one function.

Every function body in ``src/repro`` is compared with every other one, its
docstring dropped, as an ``ast.dump``. Two equal bodies of at least
``MIN_STATEMENTS`` statements or ``MIN_NODES`` AST nodes are two copies of
one decision, and copies drift: of four NIC receive paths that each DMA a
payload, one forgot to count ``dma_bytes``. Shorter bodies (a one-line
delegation, a getter) are left alone.

A copy need not be a whole function. Every run of ``RUN_STATEMENTS``
consecutive statements inside a function, at any nesting depth, is
compared the same way; two equal runs of at least ``MIN_NODES`` nodes are
a copy too. Overlapping equal runs are reported once, at their first
statement.
"""

import ast
import pathlib
from collections import defaultdict

import repro

MIN_STATEMENTS = 3
MIN_NODES = 40
RUN_STATEMENTS = 4


def _body(fn: ast.AST) -> list:
    """``fn``'s statements without its docstring."""
    body = fn.body
    first = body[0]
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
            and isinstance(first.value.value, str):
        return body[1:]
    return body


def _nodes(stmts: list) -> int:
    return sum(1 for stmt in stmts for _ in ast.walk(stmt))


def _modules(root: pathlib.Path):
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root), ast.parse(path.read_text(), str(path))


def duplicate_bodies(root: pathlib.Path) -> list:
    """Groups of ``path:line name`` sites whose function bodies are equal."""
    groups = defaultdict(list)
    for path, tree in _modules(root):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = _body(node)
            if len(body) < MIN_STATEMENTS and _nodes(body) < MIN_NODES:
                continue
            key = "\n".join(ast.dump(stmt) for stmt in body)
            groups[key].append(f"{path}:{node.lineno} {node.name}")
    return [sites for sites in groups.values() if len(sites) > 1]


def _blocks(node: ast.AST, fn: str = ""):
    """``(function name, statements)`` for every statement list inside a
    function, nested blocks included, docstrings dropped."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        fn = node.name
        yield fn, _body(node)
    elif fn:
        for value in vars(node).values():
            if isinstance(value, list) and value \
                    and isinstance(value[0], ast.stmt):
                yield fn, value
    for child in ast.iter_child_nodes(node):
        yield from _blocks(child, fn)


def duplicate_runs(root: pathlib.Path) -> list:
    """Groups of ``path:line name`` sites that start the same run of
    ``RUN_STATEMENTS`` statements; a longer copied run is one group."""
    windows = defaultdict(list)
    blocks = ((path, fn, stmts) for path, tree in _modules(root)
              for fn, stmts in _blocks(tree))
    for block, (path, fn, stmts) in enumerate(blocks):
        for i in range(len(stmts) - RUN_STATEMENTS + 1):
            run = stmts[i:i + RUN_STATEMENTS]
            if _nodes(run) < MIN_NODES:
                continue
            key = "\n".join(ast.dump(stmt) for stmt in run)
            windows[key].append(
                (block, i, f"{path}:{run[0].lineno} {fn}"))
    copied = [sites for sites in windows.values() if len(sites) > 1]
    # A run one statement longer than the window matches twice, at i and
    # i + 1 in every copy: keep only the window no earlier one continues.
    starts = {frozenset((block, i) for block, i, _ in sites)
              for sites in copied}
    return [[where for _, _, where in sites] for sites in copied
            if frozenset((block, i - 1) for block, i, _ in sites)
            not in starts]


def _report(title: str, groups: list) -> str:
    return title + "\n" + "\n".join(
        "  " + " == ".join(sites) for sites in groups)


def test_no_two_functions_share_a_body():
    groups = duplicate_bodies(pathlib.Path(repro.__file__).parent)
    assert not groups, _report("functions with the same body:", groups)


def test_no_run_of_statements_is_copied():
    groups = duplicate_runs(pathlib.Path(repro.__file__).parent)
    assert not groups, _report(
        f"runs of {RUN_STATEMENTS} equal statements:", groups)
