"""Shared fixtures."""

import pytest

from nodalcheck import admissibility


@pytest.fixture
def window_stacks(monkeypatch):
    """``[(n, S, stacks)]``, one entry per window classifier the 2D fine
    pass builds from now on: the step count n of its lattice, its window
    width S and the ``(a, b)`` of every stack of windows it classifies."""
    built = []
    window_classifier = admissibility._window_classifier

    def recording(r, A1, blocks, zero_tol):
        classify, stacks = window_classifier(r, A1, blocks, zero_tol), []
        # A1 holds the lattice's n + 1 points in whole blocks of S rows,
        # n a multiple of S
        built.append((len(A1) - blocks.shape[-1], blocks.shape[-1], stacks))

        def record(a, b):
            stacks.append((a, b))
            return classify(a, b)
        return record

    monkeypatch.setattr(admissibility, "_window_classifier", recording)
    return built
