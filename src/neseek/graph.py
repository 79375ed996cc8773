"""Communication topology and the structural gates of Assumptions 5 and 6.

Agents are numbered 1..N.  An edge (j, i) means "agent i receives agent
j's output", i.e. j is a neighbor of i and y_j enters J_i.
"""

from dataclasses import dataclass
from itertools import count

from .errors import ScenarioError

__all__ = ["CommGraph", "neighbors", "check_acyclic", "strong_components", "check_connected"]


@dataclass(frozen=True)
class CommGraph:
    """Immutable communication graph on agents 1..N, N >= 1.

    ``edges`` holds ordered (source, sink) pairs; for an undirected graph
    the set must be symmetric (both orientations present).
    """

    agent_count: int
    directed: bool
    edges: frozenset

    def __post_init__(self):
        edges = frozenset((int(j), int(i)) for j, i in self.edges)
        object.__setattr__(self, "edges", edges)
        for j, i in edges:
            if j == i:
                raise ScenarioError(f"self-edge ({j},{i}) is not allowed")
            if not (1 <= j <= self.agent_count and 1 <= i <= self.agent_count):
                raise ScenarioError(f"edge ({j},{i}) endpoint out of range 1..{self.agent_count}")
        if not self.directed:
            for j, i in edges:
                if (i, j) not in edges:
                    raise ScenarioError(
                        f"undirected graph needs symmetric edges; ({i},{j}) missing"
                    )


def neighbors(g, i):
    """Neighbor set N_i = {j : (j, i) in edges}."""
    return {j for j, k in g.edges if k == i}


def _reads(n, edges):
    """Predecessor lists on 0..n-1: ``reads[i - 1]`` holds j - 1 per edge (j, i)."""
    reads = [[] for _ in range(n)]
    for j, i in sorted(edges):
        reads[i - 1].append(j - 1)
    return reads


def check_acyclic(g):
    """Assumption 5 read off ``strong_components`` of the digraph.

    Returns ``(True, order)`` when every component holds one agent: the
    components' order is a topological one (sources first; relabeling by
    it makes the closed-loop matrix block lower triangular).  Otherwise
    returns ``(False, cycle)`` with one directed cycle as witness, found
    inside the first component of more than one agent.  An undirected
    graph holds both orientations of each edge, so any edge of it is a
    2-cycle.
    """
    reads = _reads(g.agent_count, g.edges)
    found = strong_components(reads)
    loop = next((set(c) for c in found if len(c) > 1), None)
    if loop is None:
        return True, [c[0] + 1 for c in found]
    # a walk to the lowest predecessor in the component must repeat
    path, node = [], min(loop)
    while node not in path:
        path.append(node)
        node = min(j for j in reads[node] if j in loop)
    return False, [j + 1 for j in reversed(path[path.index(node):] + [node])]


def strong_components(reads):
    """Strongly connected components of the digraph ``i -> reads[i]`` on 0..n-1.

    Tarjan's algorithm (1972) on explicit stacks.  Each component is a
    sorted tuple, after every component it reaches.
    """
    n = len(reads)
    # a node's index reads n once its component is found: it lowers no link
    index, low, slot = [None] * n, [0] * n, [0] * n
    stack, work, found, visits = [], [], [], count()

    def visit(node):
        index[node] = low[node] = next(visits)
        slot[node] = len(stack)
        stack.append(node)
        work.append((node, iter(reads[node])))

    for root in range(n):
        if index[root] is None:
            visit(root)
        while work:
            node, targets = work[-1]
            for nxt in targets:
                if index[nxt] is None:
                    visit(nxt)
                    break
                low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component, stack[slot[node]:] = stack[slot[node]:], []
                    for member in component:
                        index[member] = n
                    found.append(tuple(sorted(component)))
    return found


def check_connected(g):
    """Classify connectivity.

    Returns one of ``"disconnected"``, ``"connected-undirected"``,
    ``"weakly-connected"``, ``"strongly-connected"``.  Undirected graphs
    only ever map to the first two; digraphs to the rest.  The skeleton
    holds every edge both ways, so its strong components are connected ones.
    """
    skeleton = _reads(g.agent_count, g.edges | {(i, j) for j, i in g.edges})
    if len(strong_components(skeleton)) > 1:
        return "disconnected"
    if not g.directed:
        return "connected-undirected"
    reads = _reads(g.agent_count, g.edges)
    return "strongly-connected" if len(strong_components(reads)) == 1 else "weakly-connected"
