"""Shared fixtures."""

import pytest

from padic_oscillator import propagator


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
