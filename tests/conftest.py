import os

import pytest

import countreg

import _acceptance_report

# the CLI runs, backend probes and fitbench smoke runs are subprocesses:
# pyproject's filter and source path reach only this process, so pass them
# on to them, the source path made absolute
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, (os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning"))
)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # JIT compilation must not bleed into timed assertions
    countreg.warm_up()


def pytest_terminal_summary(terminalreporter):
    if _acceptance_report.LINES:
        terminalreporter.section("acceptance checks")
        for line in _acceptance_report.LINES:
            terminalreporter.write_line(line)
