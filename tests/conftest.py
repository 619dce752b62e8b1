"""Anchors the tests directory on sys.path so `import oracles` works, and
holds fixtures shared by several test modules."""

import pytest

from perfplan.gridworld import GridMap


@pytest.fixture(scope="session")
def isolated_pair_grid():
    """201x201 grid whose free cells are (3i, 3j) plus (1, 0): 4490 free
    cells, and {(0,0), (1,0)} is the only mutually reachable pair, so a
    rejection sampler accepts about one draw in 10 million."""
    return GridMap(201, 201, frozenset(
        (x, y) for y in range(201) for x in range(201)
        if (x % 3 or y % 3) and (x, y) != (1, 0)))
