"""Shared pytest wiring: collects the acceptance-criterion verdicts and
prints one PASS/FAIL line per criterion in the terminal summary. Also
holds ``recorded_ops``, which the tape-census tests share."""
from __future__ import annotations

ACCEPTANCE_RESULTS: dict[int, str] = {}


def record_criterion(number: int, passed: bool) -> str:
    line = f"ACCEPTANCE criterion {number} {'PASS' if passed else 'FAIL'}"
    ACCEPTANCE_RESULTS[number] = line
    return line


def recorded_ops(tape) -> list[str]:
    """The op nodes (nodes with parents) on ``tape`` in recording order,
    each named by the function that recorded it: the one whose closure
    is its VJP."""
    return [s.vjp.__qualname__.split(".")[0] for s in tape._nodes if s.parents]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for number in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(ACCEPTANCE_RESULTS[number])
