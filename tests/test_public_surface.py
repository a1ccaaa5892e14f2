"""The package's public surface: every name in ``qminv.__all__`` resolves.

A stale entry in ``__all__`` does not break ``import qminv``; it breaks
only ``from qminv import *``, so both are checked here.
"""

import qminv


def test_every_exported_name_resolves():
    assert [name for name in qminv.__all__ if not hasattr(qminv, name)] == []
    assert len(set(qminv.__all__)) == len(qminv.__all__)


def test_star_import():
    namespace = {}
    exec("from qminv import *", namespace)
    assert set(qminv.__all__) <= set(namespace)
