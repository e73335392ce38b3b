"""Fixtures shared by the test modules."""

import pytest

from ratosc import system


@pytest.fixture
def recurrence_points(monkeypatch):
    """A list that collects the points of every oscillator recurrence pass
    of the basis kernel as the passes run."""
    seen = []
    real = system._phi_orders

    def spy(x, wanted):
        seen.append(x.copy())
        return real(x, wanted)

    monkeypatch.setattr(system, "_phi_orders", spy)
    return seen
