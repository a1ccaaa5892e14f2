"""Every value in ``src/qminv`` is exact: the source has no float arithmetic.

The check reads the syntax tree of each module.  It finds no true division
(``/`` or ``/=``), no float literal, and exactly one ``float(`` call: the
``--decimal`` approximation in ``cli._cmd_invariant``, which is printed
beside the exact value and never feeds a computation.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "qminv"


def _is_inexact(node: ast.AST) -> bool:
    return (
        isinstance(getattr(node, "op", None), ast.Div)
        or (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
    )


def _inexact_sites(tree: ast.Module):
    """Yield (innermost enclosing function, source text) of each inexact node."""
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for node in filter(_is_inexact, ast.walk(tree)):
        names = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
        yield names[-1] if names else None, ast.unparse(node)


def test_source_has_no_float_arithmetic():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    sites = [
        (path.name, *site)
        for path in modules
        for site in _inexact_sites(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sites == [("cli.py", "_cmd_invariant", "float(result.value_t)")]
