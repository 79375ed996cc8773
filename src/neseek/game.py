"""Quadratic network games: costs, pseudo-gradient, and the unique NE.

Agent i's cost is

    J_i(y) = y_i' R_ii y_i + Q_ii y_i + q_i
             + sum over j in N_i of (y_i' R_ij y_j + y_j' Q_ij y_j)

so the stacked pseudo-gradient is affine, F(y) = Rbar y + Qbar, with
diagonal blocks R_ii + R_ii' and off-diagonal blocks R_ij.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NeseekError, ScenarioError
from .graph import CommGraph, neighbors

__all__ = [
    "LocalCost",
    "NetworkGame",
    "PseudoGradientData",
    "assemble_pseudo_gradient",
    "check_assumption_1",
    "solve_ne",
    "cost_from_targets",
]


@dataclass(frozen=True)
class LocalCost:
    """Quadratic cost data of one agent.

    ``Q_ii`` is stored as the 1 x p_i row of the linear term; ``R_ij``
    and ``Q_ij`` are keyed by neighbor index.
    """

    R_ii: np.ndarray
    Q_ii: np.ndarray
    q_i: float = 0.0
    R_ij: dict = field(default_factory=dict)
    Q_ij: dict = field(default_factory=dict)

    def __post_init__(self):
        R = np.atleast_2d(np.asarray(self.R_ii, dtype=float))
        p = R.shape[0]
        if R.shape != (p, p) or not p:
            raise ScenarioError(f"R_ii must be square and non-empty, got {R.shape}")
        Q = np.asarray(self.Q_ii, dtype=float).reshape(-1)
        if Q.shape != (p,):
            raise ScenarioError(f"Q_ii must have {p} entries, got {Q.shape}")
        with np.errstate(over="ignore"):
            Rw = R + R.T
        if np.isinf(Rw).any():
            raise ScenarioError("R_ii + R_ii' overflows")
        sym_min = np.min(np.linalg.eigvalsh(0.5 * Rw))
        if not sym_min > 0:
            raise ScenarioError(
                f"R_ii must have positive-definite symmetric part (min eig {sym_min:.3e})"
            )
        object.__setattr__(self, "R_ii", R)
        object.__setattr__(self, "Q_ii", Q)
        object.__setattr__(self, "q_i", float(self.q_i))
        object.__setattr__(
            self, "R_ij", {int(j): np.atleast_2d(np.asarray(M, dtype=float))
                           for j, M in self.R_ij.items()}
        )
        object.__setattr__(
            self, "Q_ij", {int(j): np.atleast_2d(np.asarray(M, dtype=float))
                           for j, M in self.Q_ij.items()}
        )

    @property
    def p(self):
        return self.R_ii.shape[0]


@dataclass(frozen=True)
class NetworkGame:
    """A graph plus one LocalCost per agent.

    Agent i's couplings are keyed by its neighbors j, with R_ij of shape
    p_i x p_j and Q_ij of shape p_j x p_j.
    """

    graph: CommGraph
    costs: tuple

    def __post_init__(self):
        costs = tuple(self.costs)
        if len(costs) != self.graph.agent_count:
            raise ScenarioError(
                f"{len(costs)} costs for {self.graph.agent_count} agents"
            )
        for i, cost in enumerate(costs, start=1):
            nbrs = neighbors(self.graph, i)
            if set(cost.R_ij) != nbrs or set(cost.Q_ij) != nbrs:
                raise ScenarioError(
                    f"agent {i}: coupling keys {sorted(cost.R_ij)} must equal "
                    f"neighbor set {sorted(nbrs)}"
                )
            for j in sorted(nbrs):
                p_j = costs[j - 1].p
                for name, M, shape in (("R", cost.R_ij[j], (cost.p, p_j)),
                                       ("Q", cost.Q_ij[j], (p_j, p_j))):
                    if M.shape != shape:
                        raise ScenarioError(
                            f"{name}_{i}{j} must be {shape[0]}x{shape[1]}, got {M.shape}"
                        )
        object.__setattr__(self, "costs", costs)

    @property
    def dims(self):
        return [c.p for c in self.costs]

    @property
    def offsets(self):
        """Start index of each agent's output block in the stacked y."""
        return np.concatenate([[0], np.cumsum(self.dims)]).astype(int)

    def block(self, y, i):
        """Agent i's slice of a stacked output vector."""
        off = self.offsets
        return np.asarray(y)[off[i - 1]:off[i]]


@dataclass(frozen=True)
class PseudoGradientData:
    Rbar: np.ndarray
    Qbar: np.ndarray


def assemble_pseudo_gradient(game):
    """Stack F(y) = Rbar y + Qbar from the per-agent cost blocks."""
    off = game.offsets
    p_total = off[-1]
    Rbar = np.zeros((p_total, p_total))
    Qbar = np.zeros(p_total)
    for i, cost in enumerate(game.costs, start=1):
        rows = slice(off[i - 1], off[i])
        Rbar[rows, rows] = cost.R_ii + cost.R_ii.T
        Qbar[rows] = cost.Q_ii
        for j, R_ij in cost.R_ij.items():
            Rbar[rows, off[j - 1]:off[j]] = R_ij
    return PseudoGradientData(Rbar=Rbar, Qbar=Qbar)


def check_assumption_1(pg):
    """Strong monotonicity of F: is (Rbar + Rbar')/2 positive definite?

    Returns (bool, lambda_min, cut); lambda_min is the monotonicity
    modulus.  It must exceed ``cut``, ``linalg.singular_cut`` of Rbar, at
    which ``solve_ne`` would call Rbar singular: sigma_min(Rbar) >=
    lambda_min, so a passing game has an NE that ``solve_ne`` can solve
    for.  Each half is scaled before the sum, which then cannot overflow.
    """
    sym = 0.5 * pg.Rbar + 0.5 * pg.Rbar.T
    lam_min = float(np.min(np.linalg.eigvalsh(sym)))
    cut = linalg.singular_cut(len(sym), np.linalg.norm(pg.Rbar, 2))
    return lam_min > cut, lam_min, cut


def solve_ne(pg):
    """Unique NE: the solution of Rbar y + Qbar = 0."""
    y_star = linalg.solve_linear(pg.Rbar, -pg.Qbar)
    # an overflowing residual or scale fails the gate below
    with np.errstate(over="ignore", invalid="ignore"):
        residual = linalg.frobenius(pg.Rbar @ y_star + pg.Qbar)
        scale = (linalg.frobenius(pg.Rbar) * linalg.frobenius(y_star)
                 + linalg.frobenius(pg.Qbar))
    if not (scale < np.inf and residual <= 1e-10 * scale):
        raise NeseekError(f"NE residual {residual:.3e} " + (
            "is not certified: the scale ||Rbar|| ||y*|| + ||Qbar|| of its bound overflows"
            if scale == np.inf else "exceeds 1e-10 scaled bound"))
    return y_star


def cost_from_targets(targets, graph):
    """Target-tracking-plus-consensus game of the sensor-network example.

    Expands J_i = ||y_i - r_i||^2 + sum over j in N_i of ||y_i - y_j||^2
    into the quadratic blocks: R_ii = (1 + |N_i|) I, Q_ii = -2 r_i',
    q_i = r_i'r_i, R_ij = -2 I, Q_ij = I.
    """
    targets = [np.asarray(r, dtype=float).reshape(-1) for r in targets]
    if len(targets) != graph.agent_count:
        raise ScenarioError(
            f"{len(targets)} targets for {graph.agent_count} agents"
        )
    costs = []
    for i, r_i in enumerate(targets, start=1):
        p = r_i.size
        nbrs = neighbors(graph, i)
        for j in nbrs:
            if targets[j - 1].size != p:
                raise ScenarioError(
                    f"targets of coupled agents {i} and {j} must have equal length"
                )
        costs.append(
            LocalCost(
                R_ii=(1 + len(nbrs)) * np.eye(p),
                Q_ii=-2.0 * r_i,
                q_i=float(r_i @ r_i),
                R_ij={j: -2.0 * np.eye(p) for j in nbrs},
                Q_ij={j: np.eye(p) for j in nbrs},
            )
        )
    return NetworkGame(graph=graph, costs=tuple(costs))
