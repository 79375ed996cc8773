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


def check_acyclic(g):
    """Kahn's algorithm on a digraph.

    Returns ``(True, order)`` with a topological order (sources first;
    relabeling by it makes the closed-loop matrix block lower
    triangular), or ``(False, cycle)`` with one directed cycle as
    witness.  An undirected graph holds both orientations of each edge,
    so any edge of it is a 2-cycle.
    """
    succ = {i: [] for i in range(1, g.agent_count + 1)}
    indeg = {i: 0 for i in range(1, g.agent_count + 1)}
    for j, i in sorted(g.edges):
        succ[j].append(i)
        indeg[i] += 1

    ready = sorted(i for i in indeg if indeg[i] == 0)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        inserted = False
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
                inserted = True
        if inserted:
            ready.sort()

    if len(order) == g.agent_count:
        return True, order

    # strip leftover nodes with no successor among the leftovers; a cycle
    # always survives, and walking min-successors inside it must repeat
    core = {i for i in indeg if indeg[i] > 0}
    changed = True
    while changed:
        changed = False
        for node in sorted(core):
            if not any(n in core for n in succ[node]):
                core.remove(node)
                changed = True
    seen = {}
    path = []
    node = min(core)
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = min(n for n in succ[node] if n in core)
    cycle = path[seen[node]:] + [node]
    return False, cycle


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
    succ = [[] for _ in range(g.agent_count)]
    skeleton = [[] for _ in range(g.agent_count)]
    for j, i in g.edges:
        succ[j - 1].append(i - 1)
        skeleton[j - 1].append(i - 1)
        skeleton[i - 1].append(j - 1)
    if len(strong_components(skeleton)) > 1:
        return "disconnected"
    if not g.directed:
        return "connected-undirected"
    return "strongly-connected" if len(strong_components(succ)) == 1 else "weakly-connected"
