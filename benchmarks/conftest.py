"""The one row fixture of the bench harness.

A bench test computes a row once, hands it to ``record_row`` and asserts
on the returned object, so the row it checks is the row ``run_all.py``
writes to ``BENCH_results.json``.  Run standalone under pytest, a bench
records nothing.
"""

import pytest


@pytest.fixture
def record_row(request):
    """``record_row(path, row) -> row``: file ``row`` under ``microbench.<path>``."""
    sink = request.config.pluginmanager.get_plugin("bench_rows")

    def record(path: str, row: dict) -> dict:
        if sink is not None:
            sink.rows[path] = row
        return row

    return record
