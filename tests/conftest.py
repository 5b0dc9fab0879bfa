from __future__ import annotations

import pytest

from geodetic import EmbeddedSpec, Graph, build, cycle_with_chord, petersen_graph
from geodetic.graphs import _bfs_counts

# The two embedded even graphs used as running fixtures: H1 is the smallest
# interesting two-chord instance (7 vertices, geodetic), H2 the all-unit-arc
# three-chord instance on a 6-cycle (9 vertices, bigeodetic).
H1_SPEC = EmbeddedSpec(3, 2, (1, 2, 2, 1), (2, 1))
H2_SPEC = EmbeddedSpec(3, 3, (1, 1, 1, 1, 1, 1), (2, 2, 2))


def engine_rows(g: Graph) -> tuple[list[list[int | None]], list[list[int]]]:
    """The BFS engine's per-source rows: ``dist[u][v]`` and ``count[u][v]``
    for every ordered pair, from one unbounded search per source."""
    rows = [_bfs_counts(g, s, g.vertex_count) for s in g.vertices()]
    return [d for d, _ in rows], [c for _, c in rows]


@pytest.fixture(scope="session")
def h1():
    return build(H1_SPEC)


@pytest.fixture(scope="session")
def h2():
    return build(H2_SPEC)


@pytest.fixture(scope="session")
def petersen():
    return petersen_graph()


@pytest.fixture(scope="session")
def c8_chord():
    """C8 plus a unit chord joining the antipodal pair (0, 4)."""
    return cycle_with_chord(8, 0, 4)


@pytest.fixture(scope="session")
def corpus():
    from corpus import standard_corpus

    return standard_corpus()
