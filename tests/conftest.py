"""Shared fixtures."""

import contextlib
import io

import pytest

from padic_oscillator import cli, propagator


@pytest.fixture
def solve_calls(monkeypatch):
    """The orders of every classical solve the kernel builders make, in call order."""
    calls = []
    solve = propagator.solve_amplitude_phase

    def counted(model, order):
        calls.append(order)
        return solve(model, order)

    monkeypatch.setattr(propagator, "solve_amplitude_phase", counted)
    return calls


@pytest.fixture
def run_cli():
    """Run the command line in process: run_cli(*argv) -> (exit code, stdout, stderr).

    argparse's SystemExit becomes its exit code.  Tests that check the process
    itself (the `python -m` entry, a closed pipe, imports, timeouts, bytes
    across processes) start a real one instead.
    """
    def run(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    return run
