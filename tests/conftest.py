"""Collects the acceptance criterion results and prints them as a summary
section, so the one-line-per-criterion report survives output capture, and
provides the fixtures that empty the count ladder's memos, empty the graph
memo and the point tables, and forbid reads of A and X."""

import shutil
import tempfile

import pytest

import offdiag.counts
import offdiag.matrices
import offdiag.paths

ACCEPTANCE_LINES = []


def pytest_configure(config):
    """Give hypothesis a temporary home, removed when the run ends: it
    caches what it reads of the package's source there (from collection
    on), and would otherwise write it into the checkout."""
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    home = tempfile.mkdtemp(prefix="offdiag-hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


@pytest.fixture
def empty_ladders(monkeypatch):
    """Start the per-process count memos, the ladder's rungs with the row
    of X it keeps and the kernel vectors read off them, empty (the ladder
    at rung 0, with X(1)'s row) and restore them afterwards, so a test that
    fakes `_x_row` or counts the ladder's work neither leaves rungs or a
    row behind nor reads those an earlier test computed."""
    monkeypatch.setattr(offdiag.counts, "_rungs", [(1,)])
    monkeypatch.setattr(offdiag.counts, "_row", [0])
    monkeypatch.setattr(offdiag.counts, "_kernels", {})


@pytest.fixture
def empty_memos():
    """Empty the graph memo (`paths.staircase`) and the point tables
    (`paths._COUNTS`, `paths._PATHS`) before and after the test, so a test
    that counts graph builds sees only its own, a test that perturbs a
    route reads no table filled before it, and neither leaves any behind.
    The test gets the function that empties them, to call again."""
    def empty():
        offdiag.paths.staircase.cache_clear()
        offdiag.paths._COUNTS.clear()
        offdiag.paths._PATHS.clear()

    empty()
    yield empty
    empty()


@pytest.fixture
def forbid_a(monkeypatch):
    """A function that, once called, makes every read of A or X fail the
    test: the counts and `matrix_a` read A only through `matrices._a_block`,
    and the ladder reads X only through `matrices._x_row`."""
    def refuse(arg):
        raise AssertionError("read A or X for a request that should be "
                             "refused")

    def arm():
        for module in (offdiag.counts, offdiag.matrices):
            monkeypatch.setattr(module, "_a_block", refuse)
        monkeypatch.setattr(offdiag.counts, "_x_row", refuse)
    return arm


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
