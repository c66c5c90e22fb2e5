"""Collects the acceptance criterion results and prints them as a summary
section, so the one-line-per-criterion report survives output capture, and
provides the fixtures that empty the count ladder's memos, empty the graph
memo, and forbid reads of A."""

import pytest

import offdiag.counts
import offdiag.matrices
import offdiag.paths
import offdiag.pfaffian

ACCEPTANCE_LINES = []


@pytest.fixture
def empty_ladders(monkeypatch):
    """Start the per-process count memos, the ladder's pass and the
    deletion vectors read off it, empty and restore them afterwards, so a
    test that fakes `_a_block` or counts condensation passes neither leaves
    rungs behind nor reads rungs an earlier test computed."""
    monkeypatch.setattr(offdiag.counts, "_even_nearly_pass",
                        offdiag.pfaffian._LeadingPass())
    monkeypatch.setattr(offdiag.counts, "_o_vectors", {})


@pytest.fixture
def empty_memos():
    """Empty the graph memo (`paths.staircase`) before and after the test,
    so a test that counts graph builds sees only its own and leaves none
    behind."""
    offdiag.paths.staircase.cache_clear()
    yield
    offdiag.paths.staircase.cache_clear()


@pytest.fixture
def forbid_a(monkeypatch):
    """A function that, once called, makes every read of A fail the test:
    the counts and `matrix_a` read A only through `matrices._a_block`."""
    def refuse(*args):
        raise AssertionError("read A for a request that should be refused")

    def arm():
        for module in (offdiag.counts, offdiag.matrices):
            monkeypatch.setattr(module, "_a_block", refuse)
    return arm


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
