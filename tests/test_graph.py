import numpy as np
import pytest

from neseek.errors import ScenarioError
from neseek.graph import CommGraph, check_acyclic, check_connected, neighbors, strong_components


def adjacency(g):
    M = np.zeros((g.agent_count, g.agent_count))
    for j, i in g.edges:
        M[i - 1, j - 1] = 1.0
    return M


def random_dag(rng, n):
    # Edges only from lower to higher label, then scrambled.
    perm = rng.permutation(n) + 1
    edges = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if rng.random() < 0.4:
                edges.append((int(perm[a - 1]), int(perm[b - 1])))
    return CommGraph(n, directed=True, edges=edges)


def random_digraph(rng, n, p):
    # Each ordered pair is an edge with probability p: cycles are common.
    return CommGraph(n, directed=True, edges=[(a, b) for a in range(1, n + 1)
                                              for b in range(1, n + 1)
                                              if a != b and rng.random() < p])


def test_neighbors_directed():
    g = CommGraph(4, directed=True, edges=[(1, 2), (1, 3)])
    assert neighbors(g, 2) == {1}
    assert neighbors(g, 3) == {1}
    assert neighbors(g, 1) == set()


def test_neighbors_empty():
    g = CommGraph(3, directed=True, edges=[])
    for i in (1, 2, 3):
        assert neighbors(g, i) == set()


def test_neighbors_undirected_symmetric():
    g = CommGraph(2, directed=False, edges=[(1, 2), (2, 1)])
    assert neighbors(g, 1) == {2}
    assert neighbors(g, 2) == {1}


def test_no_self_edges():
    with pytest.raises(ScenarioError, match=r"^self-edge \(2,2\) is not allowed$"):
        CommGraph(3, directed=True, edges=[(2, 2)])


def test_edge_endpoints_in_range():
    with pytest.raises(ScenarioError, match=r"^edge \(1,4\) endpoint out of range 1\.\.3$"):
        CommGraph(3, directed=True, edges=[(1, 4)])


def test_undirected_requires_symmetry():
    with pytest.raises(ScenarioError, match=r"\(2,1\) missing$"):
        CommGraph(3, directed=False, edges=[(1, 2)])


def test_acyclic_diamond():
    g = CommGraph(4, directed=True, edges=[(1, 2), (1, 3), (2, 4), (3, 4)])
    ok, order = check_acyclic(g)
    assert ok
    assert list(order) == [1, 2, 3, 4]


def test_acyclic_two_cycle():
    g = CommGraph(2, directed=True, edges=[(1, 2), (2, 1)])
    ok, cycle = check_acyclic(g)
    assert not ok
    # The witness walks a closed directed loop.
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {1, 2}


def test_acyclic_empty_graph():
    g = CommGraph(5, directed=True, edges=[])
    ok, order = check_acyclic(g)
    assert ok
    assert list(order) == [1, 2, 3, 4, 5]


def test_acyclic_undirected_edge_is_a_two_cycle():
    g = CommGraph(2, directed=False, edges=[(1, 2), (2, 1)])
    assert check_acyclic(g) == (False, [1, 2, 1])


def test_acyclic_iff_relabeled_strictly_lower_triangular():
    rng = np.random.default_rng(17)
    graphs = [random_dag(rng, int(rng.integers(2, 13))) for _ in range(50)]
    graphs += [random_digraph(rng, int(rng.integers(1, 10)), 0.2) for _ in range(200)]
    verdicts = []
    for g in graphs:
        n = g.agent_count
        ok, witness = check_acyclic(g)
        # Warshall: an edge (j, i) closes a cycle exactly when i reaches j
        R = reachability([[i - 1 for j, i in g.edges if j == k + 1] for k in range(n)])
        assert ok == (not any(R[i - 1, j - 1] for j, i in g.edges))
        verdicts.append(ok)
        if not ok:
            assert witness[0] == witness[-1] and len(set(witness)) == len(witness) - 1
            assert all(step in g.edges for step in zip(witness, witness[1:]))
            continue
        assert sorted(witness) == list(range(1, n + 1))
        # Relabel agents by the topological order: receiving agents get
        # higher indices, so the adjacency becomes strictly lower
        # triangular (exact-zero pattern, not a tolerance test).
        pos = {agent: k for k, agent in enumerate(witness)}
        P = np.zeros((n, n))
        for agent, k in pos.items():
            P[k, agent - 1] = 1.0
        M = P @ adjacency(g) @ P.T
        assert np.array_equal(np.triu(M), np.zeros((n, n)))
    assert all(verdicts[:50]) and not all(verdicts[50:])


def test_cycle_detected_on_random_dag_plus_back_edge():
    rng = np.random.default_rng(23)
    found = 0
    for _ in range(50):
        n = int(rng.integers(3, 10))
        g = random_dag(rng, n)
        ok, order = check_acyclic(g)
        assert ok
        if len(g.edges) == 0:
            continue
        # Close a loop: add the reverse of a path endpoint pair.
        j, i = sorted(g.edges)[0]
        g2 = CommGraph(n, directed=True, edges=list(g.edges) + [(i, j)])
        ok2, cycle = check_acyclic(g2)
        assert not ok2
        assert cycle[0] == cycle[-1]
        found += 1
    assert found > 0


def test_connected_undirected_path():
    g = CommGraph(3, directed=False,
                  edges=[(1, 2), (2, 1), (2, 3), (3, 2)])
    assert check_connected(g) == "connected-undirected"


def test_disconnected_undirected():
    g = CommGraph(3, directed=False, edges=[(1, 2), (2, 1)])
    assert check_connected(g) == "disconnected"


def test_strongly_connected_ring():
    g = CommGraph(3, directed=True, edges=[(1, 2), (2, 3), (3, 1)])
    assert check_connected(g) == "strongly-connected"


def test_weakly_connected_chain():
    g = CommGraph(3, directed=True, edges=[(1, 2), (2, 3)])
    assert check_connected(g) == "weakly-connected"


def test_disconnected_digraph():
    g = CommGraph(4, directed=True, edges=[(1, 2)])
    assert check_connected(g) == "disconnected"


def test_strong_implies_weak_on_random_digraphs():
    rng = np.random.default_rng(29)
    strong_seen = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        g = random_digraph(rng, n, 0.35)
        verdict = check_connected(g)
        if verdict == "strongly-connected":
            strong_seen += 1
            skeleton = CommGraph(n, directed=True,
                                 edges=g.edges | {(b, a) for a, b in g.edges})
            assert check_connected(skeleton) != "disconnected"
    assert strong_seen > 0


def reachability(reads):
    """R[i, j]: j is reachable from i along ``i -> reads[i]``, i itself included."""
    n = len(reads)
    R = np.eye(n, dtype=bool)
    for i, targets in enumerate(reads):
        R[i, list(targets)] = True
    for k in range(n):  # Warshall
        R |= R[:, [k]] & R[[k], :]
    return R


def test_strong_components_match_mutual_reachability():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        reads = [np.flatnonzero(rng.random(n) < rng.random() * 0.5).tolist() for _ in range(n)]
        found = strong_components(reads)
        R = reachability(reads)
        assert sorted(v for c in found for v in c) == list(range(n))
        block = {v: k for k, c in enumerate(found) for v in c}
        for c in found:
            assert list(c) == sorted(c)
        for i in range(n):
            for j in range(n):
                assert (block[i] == block[j]) == (R[i, j] and R[j, i])
                # topological: a node reaches only its own and earlier blocks
                assert not R[i, j] or block[j] <= block[i]


@pytest.mark.parametrize("reads, found", [
    ([], []),
    ([[]], [(0,)]),
    ([[0], [0, 1], [1, 3], [2]], [(0,), (1,), (2, 3)]),
    ([[2], [0], [0], [1]], [(0, 2), (1,), (3,)]),
], ids=["empty", "one node", "tail then cycle", "cycle then tail"])
def test_strong_components_small(reads, found):
    assert strong_components(reads) == found


@pytest.mark.parametrize("reads", [
    [[i + 1] for i in range(4999)] + [[]],
    [[(i + 1) % 5000] for i in range(5000)],
], ids=["path", "ring"])
def test_strong_components_of_a_long_path_need_no_recursion(reads):
    # the depth-first search runs 5000 nodes deep, past Python's recursion limit
    found = strong_components(reads)
    assert found == ([(i,) for i in reversed(range(5000))] if reads[-1] == []
                     else [tuple(range(5000))])


def test_connectivity_classes_match_reachability():
    rng = np.random.default_rng(37)
    seen = set()
    for _ in range(200):
        n = int(rng.integers(1, 8))
        directed = bool(rng.integers(2))
        edges = {(int(a), int(b)) for a, b in rng.integers(1, n + 1, (int(rng.integers(0, 12)), 2))
                 if a != b}
        if not directed:
            edges |= {(b, a) for a, b in edges}
        g = CommGraph(n, directed=directed, edges=edges)
        reads = [[i - 1 for j, i in edges if j == k + 1] for k in range(n)]
        skeleton = [[k for k in range(n) if k in r or j in reads[k]] for j, r in enumerate(reads)]
        want = ("disconnected" if not reachability(skeleton).all() else
                "connected-undirected" if not directed else
                "strongly-connected" if reachability(reads).all() else "weakly-connected")
        assert check_connected(g) == want
        seen.add(want)
    assert len(seen) == 4
