"""The package's public surface: every name in ``qminv.__all__`` resolves.

A stale entry in ``__all__`` does not break ``import qminv``; it breaks
only ``from qminv import *``, so both are checked here.
"""

import qminv


def test_every_exported_name_resolves():
    assert [name for name in qminv.__all__ if not hasattr(qminv, name)] == []
    assert len(set(qminv.__all__)) == len(qminv.__all__)


def test_exported_name_count():
    # 35 names since qm_elliptic, the one route dispatch, joined; a name
    # joins or leaves the API only on purpose
    assert len(qminv.__all__) == 35
    assert "qm_elliptic" in qminv.__all__


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
