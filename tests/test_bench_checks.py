"""The benchmark's exactness checks hold on every workload.

Each benchmark operation carries a check against ``bench/reference.py``,
which does not import qminv.  Running every operation of the tiny
workloads once here makes an arithmetic change that breaks those checks
fail the fast suite, not only a full benchmark run.  Nothing under
``bench/`` is changed.
"""

import pytest

WORKLOADS = ("oracle_grid", "rank_deep", "series", "cli")


@pytest.fixture(scope="module")
def workloads(bench_import):
    return bench_import("workloads")


def test_workload_list_is_complete(workloads):
    assert WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_operation_passes_its_check(workloads, name):
    ops = workloads.build(name, 5, "tiny")
    assert ops
    for op in ops:
        message = op.check((op.run_in_process or op.run)())
        assert message is None, f"{op.label}: {message}"
