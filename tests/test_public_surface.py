"""The package's public surface: every name in ``qminv.__all__`` resolves.

A stale entry in ``__all__`` does not break ``import qminv``; it breaks
only ``from qminv import *``, so both are checked here.  The README's
library example is run here too, against the values its comments state.
"""

import ast
import importlib
import io
import sys
import tokenize
from pathlib import Path

import pytest

import qminv


def test_every_exported_name_resolves():
    assert [name for name in qminv.__all__ if not hasattr(qminv, name)] == []
    assert len(set(qminv.__all__)) == len(qminv.__all__)


def test_exported_names():
    # a name joins or leaves the API only on purpose, and shows in this diff
    assert set(qminv.__all__) == {
        "ChernClass",
        "InvariantQuery",
        "InvariantResult",
        "QSeries",
        "ROUTE_CLOSED",
        "ROUTE_ORACLE",
        "SeriesIdentity",
        "UnsupportedQueryError",
        "WallComponent",
        "qm_degree_zero",
        "qm_elliptic",
        "qm_elliptic_closed",
        "qm_elliptic_oracle",
        "qm_moduli",
        "series_identity_even",
        "series_identity_odd",
        "unproven_reason",
        "wall_components",
        "__version__",
    }


@pytest.mark.parametrize(
    "module, name",
    [
        ("arith", "canonical_u_choice"),
        ("arith", "divisor_sum"),
        ("arith", "divisors"),
        ("arith", "factorise"),
        ("arith", "is_prime"),
        ("arith", "solve_base_degrees"),
        ("arith", "torsion_order"),
        ("exactalg", "EquivCoeff"),
        ("exactalg", "laurent_residue"),
        ("exactalg", "series_log_product"),
        ("exactalg", "sigma_sieve"),
        ("invariants", "degree_congruent"),
        ("quotloc", "component_residue_degree"),
        ("quotloc", "normal_bundle_inverse_expansion"),
        ("quotloc", "quot_dimension"),
        ("quotloc", "slice_euler_bruteforce"),
    ],
)
def test_pipeline_steps_stay_in_their_modules(module, name):
    # the pipeline's own steps are not exported, but stay importable
    home = importlib.import_module(f"qminv.{module}")
    assert callable(getattr(home, name))
    assert name not in qminv.__all__ and not hasattr(qminv, name)


def test_star_import():
    namespace = {}
    exec("from qminv import *", namespace)
    assert set(qminv.__all__) <= set(namespace)


def test_one_exception_class_per_exit_code():
    # invalid input is a plain ValueError (exit 4) and an internal failure a
    # RuntimeError (exit 2); only the unsupported query (exit 3) has a class
    exported = [getattr(qminv, name) for name in qminv.__all__]
    exceptions = [obj for obj in exported if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert exceptions == [qminv.UnsupportedQueryError]


def test_private_names_stay_private():
    # dunders such as __version__ aside; e.g. arith's bound on rank and
    # degree is not public API
    assert [name for name in qminv.__all__ if name[:1] == "_" and name[:2] != "__"] == []
    assert not hasattr(qminv, "_MAX_SIZE")


README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text("utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example():
    # a comment after code states the value of that line's expression;
    # a comment on a line of its own is prose
    source = _library_example()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "qminv":
            assert {alias.name for alias in node.names} <= set(qminv.__all__)
        elif isinstance(node, ast.ImportFrom):
            assert node.module in sys.stdlib_module_names
        else:
            assert not isinstance(node, ast.Import)
    stated = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT and not token.line.lstrip().startswith("#")
    }
    namespace, checked = {}, 0
    for statement in tree.body:
        if statement.end_lineno not in stated:
            exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
            continue
        assert isinstance(statement, ast.Expr)
        value = eval(compile(ast.Expression(statement.value), str(README), "eval"), namespace)
        expected = eval(stated[statement.end_lineno], namespace)
        assert (type(value), value) == (type(expected), expected), stated[statement.end_lineno]
        checked += 1
    assert checked == len(stated) == 4
