"""Each model decision lives in one function.

Every function body in ``src/repro`` is compared with every other one, its
docstring dropped, as an ``ast.dump``. Two equal bodies of at least
``MIN_STATEMENTS`` statements or ``MIN_NODES`` AST nodes are two copies of
one decision, and copies drift: of four NIC receive paths that each DMA a
payload, one forgot to count ``dma_bytes``. Shorter bodies (a one-line
delegation, a getter) are left alone.
"""

import ast
import pathlib
from collections import defaultdict

import repro

MIN_STATEMENTS = 3
MIN_NODES = 40


def _body(fn: ast.AST) -> list:
    """``fn``'s statements without its docstring."""
    body = fn.body
    first = body[0]
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
            and isinstance(first.value.value, str):
        return body[1:]
    return body


def duplicate_bodies(root: pathlib.Path) -> list:
    """Groups of ``path:line name`` sites whose function bodies are equal."""
    groups = defaultdict(list)
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = _body(node)
            nodes = sum(1 for stmt in body for _ in ast.walk(stmt))
            if len(body) < MIN_STATEMENTS and nodes < MIN_NODES:
                continue
            key = "\n".join(ast.dump(stmt) for stmt in body)
            where = f"{path.relative_to(root)}:{node.lineno} {node.name}"
            groups[key].append(where)
    return [sites for sites in groups.values() if len(sites) > 1]


def test_no_two_functions_share_a_body():
    groups = duplicate_bodies(pathlib.Path(repro.__file__).parent)
    assert not groups, "functions with the same body:\n" + "\n".join(
        "  " + " == ".join(sites) for sites in groups)
