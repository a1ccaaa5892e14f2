"""Shared fixtures."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="session")
def bench_import():
    """Import a module of ``bench/`` as it is, without editing anything there."""

    def load(name):
        # bench modules import their siblings (workloads, reference) by bare name
        sys.path.insert(0, str(BENCH))
        try:
            return importlib.import_module(name)
        finally:
            sys.path.remove(str(BENCH))

    return load
