"""Collects the acceptance criterion results and prints them as a summary
section, so the one-line-per-criterion report survives output capture, and
provides the fixture that empties the count ladder's memos."""

import pytest

import offdiag.counts
import offdiag.pfaffian

ACCEPTANCE_LINES = []


@pytest.fixture
def empty_ladders(monkeypatch):
    """Start the per-process count memos (the ladder's pass and the
    deletion vectors read off it), and the A its rows are read off, empty
    and restore them afterwards, so a test that fakes `matrix_a` or counts
    condensation passes neither leaves rungs behind nor reads rungs an
    earlier test computed."""
    monkeypatch.setattr(offdiag.counts, "_even_nearly_pass",
                        offdiag.pfaffian._LeadingPass())
    monkeypatch.setattr(offdiag.counts, "_o_vectors", {})
    monkeypatch.setattr(offdiag.counts, "_a_upper", ())


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
