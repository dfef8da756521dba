import os

import pytest

import countreg

import _acceptance_report

# the CLI runs, backend probes and fitbench smoke runs are subprocesses:
# pyproject's filter reaches only this process, so pass it on to them
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, (os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning"))
)


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # JIT compilation must not bleed into timed assertions
    countreg.warm_up()


def pytest_terminal_summary(terminalreporter):
    if _acceptance_report.LINES:
        terminalreporter.section("acceptance checks")
        for line in _acceptance_report.LINES:
            terminalreporter.write_line(line)
