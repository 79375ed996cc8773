"""The oracles the simulation is checked against, which no command runs.

``simulate`` collects the blocks of the stacked propagator into one
Trajectory.  ``simulate_distributed`` is the per-agent reference loop:
it takes the same RK4 stages agent by agent, each agent reading its
neighbors only through a NeighborView read gate.  It is built from the
game, plants, exosystems, controllers and strategy its caller passes,
never from the stacked loop's matrices, and it imports nothing from
``neseek.synthesis`` and no private library name
(``tests/test_library.py`` checks both).
"""

from dataclasses import dataclass

import numpy as np

from neseek.errors import NeseekError
from neseek.game import assemble_pseudo_gradient
from neseek.graph import neighbors
from neseek.linalg import expm
from neseek.sim import block_outputs, propagate


@dataclass(frozen=True)
class Trajectory:
    """Recorded series, one row per record, stacked agent-major.

    ``Z`` is in the loop's z layout (``[x_i; xi_i; zeta_i]`` per agent),
    ``Y`` and ``E`` in the game's output layout, and ``W`` holds each
    agent's disturbance w_i in agent order; ``cl.x_slices`` (with the
    controller state up to the next agent's) and ``cl.out_slices`` pick
    out one agent.
    """

    times: np.ndarray
    Z: np.ndarray
    Y: np.ndarray
    E: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        for name in ("Z", "Y", "E", "W"):
            if getattr(self, name).shape[0] != len(self.times):
                raise ValueError(f"{name} has {getattr(self, name).shape[0]} rows, "
                                 f"times has {len(self.times)}")


def simulate(cl, cfg):
    """Integrate the stacked closed loop into one Trajectory; v is advanced exactly.

    Collects the blocks of ``propagate``, then takes the y, e and w of
    each block; raises the NeseekError of a state that became non-finite.
    """
    times, X = zip(*propagate(cl, cfg))
    Y, E, W = (np.concatenate(a) for a in zip(*(block_outputs(cl, block) for block in X)))
    return Trajectory(np.concatenate(times), np.concatenate(X)[:, :cl.dim_z], Y, E, W)


class FirewallViolation(NeseekError):
    """An agent tried to read data from a non-neighbor."""


class NeighborView:
    """Agent i's read gate for incoming data during one stage evaluation.

    Only outputs (and, for the observer strategy, observer outputs
    C_j xi_j) of declared neighbors are readable; any other index raises
    FirewallViolation.  This is the information constraint made
    structural: agent code literally cannot see non-neighbor data.
    """

    def __init__(self, i, nbrs, y_all, cxi_all):
        self._i = i
        self._nbrs = frozenset(nbrs)
        self._y = y_all
        self._cxi = cxi_all

    def output(self, j):
        if j not in self._nbrs:
            raise FirewallViolation(
                f"agent {self._i} read y_{j} but {j} is not a neighbor"
            )
        return self._y[j - 1]

    def observer_output(self, j):
        if j not in self._nbrs:
            raise FirewallViolation(
                f"agent {self._i} read C_{j} xi_{j} but {j} is not a neighbor"
            )
        if self._cxi is None:
            raise FirewallViolation(
                f"agent {self._i} read observer data outside the observer strategy"
            )
        return self._cxi[j - 1]


def _agent_rate(plant, cost, c, view, observer_mode):
    """Agent i's rate of ``s = [x_i; xi_i; zeta_i]``, with its matrices built once.

    The rate reads the agent's own state, output and disturbance, and
    its neighbors' outputs (for the general strategy also their
    observer outputs) through ``view`` only.
    """
    n, p, v = plant.n, plant.p, c.G1.shape[0]
    Rw = cost.R_ii + cost.R_ii.T
    couplings = [(j, cost.R_ij[j]) for j in sorted(cost.R_ij)]
    # plant rows, observer rows (u = K1 xi + K2 zeta, and ehat's own
    # term Rw C xi), internal-model rows
    F = np.block([
        [plant.A_mu, plant.B_mu @ c.K1, plant.B_mu @ c.K2],
        [np.zeros((n, n)), plant.A + plant.B @ c.K1 - c.L @ Rw @ plant.C, plant.B @ c.K2],
        [np.zeros((v, 2 * n)), c.G1],
    ])
    P = np.vstack([plant.P_mu, np.zeros((n + v, plant.q))])
    H = np.vstack([np.zeros((n, p)), c.L, c.G2])  # e drives observer and internal model
    # ehat has no affine term: it estimates only the output-dependent part;
    # only the general strategy reads neighbors' observer outputs
    obs = [(j, c.L @ R) for j, R in couplings] if observer_mode else []

    def rate(s, w, y):
        e = Rw @ y + cost.Q_ii
        for j, R in couplings:
            e = e + R @ view.output(j)
        ds = F @ s + P @ w + H @ e
        for j, LR in obs:
            ds[n:2 * n] -= LR @ view.observer_output(j)
        return ds

    return rate


def simulate_distributed(game, plants, exos, controllers, strategy, cfg):
    """Integrate the loop agent by agent behind NeighborView read gates.

    Agent i's state is ``[x_i; xi_i; zeta_i]``, started at its plant's
    ``x0`` with zero controller state; its exosystem starts at ``w0``.
    Each stage first broadcasts every agent's y_i (and C_i xi_i for the
    ``"general"`` strategy), then evaluates each agent's rate from its
    own state plus gated neighbor reads only.  Matches simulate() of the
    loop ``assemble_closed_loop`` builds from the same inputs within
    1e-9 per sample.
    """
    observer_mode = strategy == "general"

    # read gates over output buffers that every stage refills in place
    ys = [None] * len(plants)
    cxis = [None] * len(plants) if observer_mode else None
    rates = [
        _agent_rate(p, cost, c,
                    NeighborView(i, neighbors(game.graph, i), ys, cxis), observer_mode)
        for i, (p, cost, c) in enumerate(zip(plants, game.costs, controllers), start=1)
    ]
    ns = [p.n for p in plants]
    C_mus = [p.C_mu for p in plants]
    # exact per-agent exogenous steppers
    E_halfs = [expm(e.S * (cfg.dt / 2.0)) for e in exos]
    E_fulls = [E @ E for E in E_halfs]

    def stage(states, ws):
        ys[:] = [C @ s[:n] for C, s, n in zip(C_mus, states, ns)]
        if observer_mode:
            cxis[:] = [p.C @ s[n:2 * n] for p, s, n in zip(plants, states, ns)]
        return [f(s, w, y) for f, s, w, y in zip(rates, states, ws, ys)]

    s = [np.concatenate([p.x0, np.zeros(c.ctrl_dim)]) for p, c in zip(plants, controllers)]
    w = [e.w0 for e in exos]
    records = [(np.concatenate(s), np.concatenate(w))]
    dt, n_steps, stride = cfg.dt, cfg.n_steps, cfg.record_stride
    for k in range(1, n_steps + 1):
        # an overflowing step is reported by the finiteness test below
        with np.errstate(over="ignore", invalid="ignore"):
            wh = [E @ wi for E, wi in zip(E_halfs, w)]
            wf = [E @ wi for E, wi in zip(E_fulls, w)]
            r1 = stage(s, w)
            r2 = stage([si + 0.5 * dt * ri for si, ri in zip(s, r1)], wh)
            r3 = stage([si + 0.5 * dt * ri for si, ri in zip(s, r2)], wh)
            r4 = stage([si + dt * ri for si, ri in zip(s, r3)], wf)
            s = [si + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for si, a, b, c, d in zip(s, r1, r2, r3, r4)]
        w = wf
        if not all(np.isfinite(si[:n]).all() for si, n in zip(s, ns)):
            raise NeseekError(f"state became non-finite at t = {k * dt:.6g}")
        if k % stride == 0 or k == n_steps:
            records.append((np.concatenate(s), np.concatenate(w)))

    Z, W = (np.array(a) for a in zip(*records))
    offsets = np.cumsum([0] + [si.size for si in s])
    Y = np.hstack([Z[:, o:o + n] @ C.T for o, n, C in zip(offsets, ns, C_mus)])
    pg = assemble_pseudo_gradient(game)
    return Trajectory(cfg.record_step_range(0, cfg.n_records) * dt,
                      Z, Y, Y @ pg.Rbar.T + pg.Qbar, W)
