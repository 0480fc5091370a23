"""Shared fixtures."""

import pytest

from heegaard import scalars


@pytest.fixture
def cold_process_memos():
    """Every process memo table emptied in place, found through the
    registry, so each module's table stays the registry's one; the saved
    entries come back after the test.  Calling the fixture's value empties
    the tables again, for a test that fills them before its cold part."""
    tables = [table for _, scope, table in list(scalars._REGISTRY.values()) if scope == scalars.PROCESS_SCOPE]
    saved = [dict(table) for table in tables]

    def empty():
        for table in tables:
            table.clear()

    empty()
    yield empty
    for table, entries in zip(tables, saved):
        table.clear()
        table.update(entries)
