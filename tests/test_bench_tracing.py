"""The benchmark's tracer still finds every function it wraps.

``bench/tracing.py`` patches qminv functions by module and attribute name.
A refactor in ``src/`` that renames or moves one of them breaks the traced
benchmark run; these tests catch that in the fast suite instead.  They
read ``bench/tracing.py`` as it is and change nothing under ``bench/``.
"""

from fractions import Fraction

import pytest

import qminv.invariants as invariants
from qminv.arith import InvariantQuery
from qminv.exactalg import QSeries


@pytest.fixture(scope="module")
def tracing(bench_import):
    return bench_import("tracing")


def test_traced_functions_resolve(tracing):
    for home, attr, name in tracing.FUNCTIONS:
        assert callable(getattr(home, attr, None)), f"{name}: {home.__name__}.{attr} is gone"
    for attr in tracing.QSERIES_OPERATORS:
        assert callable(QSeries.__dict__.get(attr)), f"QSeries.{attr} is gone"


def test_install_wraps_one_oracle_call_and_restores(tracing):
    original = invariants.qm_elliptic_oracle
    tracer = tracing.Tracer()
    with tracer.install():
        assert invariants.qm_elliptic_oracle is not original
        result = invariants.qm_elliptic_oracle(InvariantQuery(r=2, d=1, a=1, w=3, g=2))
    assert invariants.qm_elliptic_oracle is original
    assert result.value_t == Fraction(8, 3)
    stats = tracer.aggregate()
    assert stats["invariants.qm_elliptic_oracle"]["calls"] == 1
    assert stats["quotloc.wall_components"]["calls"] == 1
    assert stats["quotloc.component_residue_degree"]["calls"] == len(result.breakdown)
