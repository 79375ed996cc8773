"""Gain synthesis, the per-agent controller, and closed-loop certificates.

Both distributed strategies run the same per-agent controller: a plant
observer xi_i and a p-copy internal model zeta_i,

    xidot_i   = A_i xi_i + B_i u_i - L_i (ehat_i - e_i)
    zetadot_i = G1_i zeta_i + G2_i e_i
    u_i       = K1_i xi_i + K2_i zeta_i

with the same gains L_i, (G1_i, G2_i), (K1_i, K2_i).  The error e is the
game's pseudo-gradient at the plant outputs, Rbar y + Qbar, and its
estimate is ehat = Rhat C_obs z, where C_obs places each nominal C_i on
xi_i.  The strategy is the choice of Rhat: the own-agent diagonal blocks
Rw_i of Rbar for digraph (acyclic) topologies, all of Rbar for general
(connected) ones.  The stacked closed loop is per-agent blocks, agent-major
([x_i; xi_i; zeta_i] per agent), plus that error:
zdot = A_c(mu) z + P_c(mu) v, e = Rbar C_out z + Q_c v, vdot = Shat v;
stability, regulator-equation, and steady-state certificates are
computed on it.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import AssumptionError, DimensionError, SynthesisError
from .game import assemble_pseudo_gradient
from .graph import check_acyclic, check_connected
from .internal_model import build_p_copy
from .plant import _pbh_witnesses, _regulation_pencil_rank_ok, _unique

__all__ = [
    "STRATEGIES",
    "SynthesisWeights",
    "Controller",
    "ClosedLoopSystem",
    "RegulatorSolution",
    "observer_gain",
    "augmented_stabilizer",
    "build_controller",
    "assemble_closed_loop",
    "certify_stability",
    "worst_agent",
    "solve_regulator",
    "steady_state",
]

STRATEGIES = ("digraph", "general")


@dataclass(frozen=True)
class SynthesisWeights:
    """Scalar CARE weight overrides; all default to identity scaling.

    ``stabilizer_q_im`` weights the internal-model states of the
    augmented stabilizer separately, which is the knob that restores a
    usable coupled stability margin on general graphs.
    """

    observer_q: float = 1.0
    observer_r: float = 1.0
    stabilizer_q_state: float = 1.0
    stabilizer_q_im: float = 1.0
    stabilizer_r: float = 1.0


@dataclass(frozen=True)
class Controller:
    """One agent's gains, shared by both strategies.

    The controller state is [xi; zeta]: an observer copy of the plant
    (size n) followed by the p-copy internal model (size p*s).  The
    observer's plant copy is the agent's nominal (A, B, C), its error
    weight Rw = R_ii + R_ii' comes from the cost, and the strategy from
    the closed loop, so none of them is stored here.
    """

    L: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    K1: np.ndarray
    K2: np.ndarray

    @property
    def n(self):
        return self.L.shape[0]

    @property
    def p(self):
        return self.L.shape[1]

    @property
    def m(self):
        return self.K1.shape[0]

    @property
    def s(self):
        return self.G1.shape[0] // self.p

    @property
    def K(self):
        return np.hstack([self.K1, self.K2])

    @property
    def ctrl_dim(self):
        return self.n + self.G1.shape[0]


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Stacked closed loop with per-agent index bookkeeping.

    ``x_slices`` locate each agent's plant state inside z; ``ctrl_slices``
    its controller state [xi_i; zeta_i], which directly follows x_i;
    ``v_slices`` its extended exogenous block.
    ``C_out`` maps z to the stacked output y through each plant's C_mu.
    """

    strategy: str
    A_c: np.ndarray
    P_c: np.ndarray
    C_c: np.ndarray
    Q_c: np.ndarray
    S_hat: np.ndarray
    v0: np.ndarray
    C_out: np.ndarray
    x_slices: tuple
    ctrl_slices: tuple
    v_slices: tuple
    out_slices: tuple
    topo_order: tuple = None
    game: object = field(default=None, repr=False)
    plants: tuple = field(default=None, repr=False)
    exos: tuple = field(default=None, repr=False)
    controllers: tuple = field(default=None, repr=False)

    @property
    def dim_z(self):
        return self.A_c.shape[0]

    @property
    def dim_v(self):
        return self.S_hat.shape[0]

    @cached_property
    def spectra(self):
        """Eigenvalues of A_c, grouped by the diagonal blocks they come from.

        A digraph loop is block-triangular in ``topo_order``: agent i
        reads only agents before it.  Its spectrum is then the union of
        the spectra of the per-agent diagonal blocks [x_i; xi_i; zeta_i],
        one array per agent in agent order, which avoids the dense
        eigensolve whose error on the long chain of equal blocks exceeds
        the stability margin.  Any other loop gives one array for the
        whole A_c.  Computed once per loop.
        """
        blocks = [slice(x.start, c.stop)
                  for x, c in zip(self.x_slices, self.ctrl_slices)]
        if self.topo_order is not None and _block_triangular(
                self.A_c, blocks, self.topo_order):
            return tuple(linalg.eigenvalues(self.A_c[b, b]) for b in blocks)
        return (linalg.eigenvalues(self.A_c),)

    def initial_state(self):
        """Plant states from x0, controller states zero."""
        z0 = np.zeros(self.dim_z)
        for plant, sl in zip(self.plants, self.x_slices):
            z0[sl] = plant.x0
        return z0


@dataclass(frozen=True)
class RegulatorSolution:
    X_c: np.ndarray
    residual_dyn: float
    residual_err: float
    scale_dyn: float
    scale_err: float


def _weight(base_dim, scale):
    return float(scale) * np.eye(base_dim)


def observer_gain(A, Cw, q_scale=1.0, r_scale=1.0):
    """Output-injection gain L with A - L Cw certified Hurwitz.

    Solves the dual CARE on (A', Cw'), whose Hurwitz certificate on
    A' - Cw' L' is the observer's.  Detectability of (A, Cw) is what's
    required; it is checked first and a failing PBH eigenvalue is named
    in the error.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Cw = np.atleast_2d(np.asarray(Cw, dtype=float))
    n = A.shape[0]
    bad = _pbh_witnesses(A, Cw, np.vstack)
    if bad:
        raise SynthesisError(f"(A, Cw) not detectable at eigenvalue {bad[0]}")
    K_dual = linalg.solve_care(A.T, Cw.T, _weight(n, q_scale), _weight(Cw.shape[0], r_scale))
    return -K_dual.T


def augmented_stabilizer(A, B, Cw, G1, G2, q_state=1.0, q_im=1.0, r_scale=1.0):
    """Stabilizing gain [K1 K2] for the plant/internal-model cascade.

    The design pair is ([A 0; G2 Cw G1], [B; 0]); its stabilizability
    needs the transmission-zero-free condition at every eigenvalue of
    G1, which is re-verified here before solving the CARE.  The CARE
    certifies the augmented loop Hurwitz.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Cw = np.atleast_2d(np.asarray(Cw, dtype=float))
    n, m = B.shape
    v = G1.shape[0]

    failures = [
        lam for lam in _unique(linalg.eigenvalues(G1))
        if not _regulation_pencil_rank_ok(A, B, Cw, lam)
    ]
    if failures:
        raise SynthesisError(
            "rank condition fails at internal-model eigenvalue(s) "
            + ", ".join(f"{lam:.6g}" for lam in failures)
        )

    A_aug = np.block([[A, np.zeros((n, v))], [G2 @ Cw, G1]])
    B_aug = np.vstack([B, np.zeros((v, m))])
    Qw = np.block([[_weight(n, q_state), np.zeros((n, v))],
                   [np.zeros((v, n)), _weight(v, q_im)]])
    K = linalg.solve_care(A_aug, B_aug, Qw, _weight(m, r_scale))
    return K[:, :n], K[:, n:]


def build_controller(plant, cost, exo, weights=None):
    """Per-agent gains, the same for both strategies.

    The observer gain, p-copy internal model and augmented stabilizer
    are designed on the nominal plant with Rw = R_ii + R_ii'.
    """
    weights = weights or SynthesisWeights()
    bad = _pbh_witnesses(plant.A, plant.B, np.hstack)
    if bad:
        raise SynthesisError(f"(A, B) not stabilizable at eigenvalue {bad[0]}")
    Rw = cost.R_ii + cost.R_ii.T
    if Rw.shape[0] != plant.p:
        raise DimensionError(
            f"cost output dimension {Rw.shape[0]} != plant output dimension {plant.p}"
        )
    Cw = Rw @ plant.C
    G1, G2 = build_p_copy(exo.S_tilde, plant.p)
    L = observer_gain(plant.A, Cw, weights.observer_q, weights.observer_r)
    K1, K2 = augmented_stabilizer(
        plant.A, plant.B, Cw, G1, G2,
        weights.stabilizer_q_state, weights.stabilizer_q_im, weights.stabilizer_r,
    )
    return Controller(L=L, G1=G1, G2=G2, K1=K1, K2=K2)


def _offsets(dims):
    return np.concatenate([[0], np.cumsum(dims)]).astype(int)


def _gain_mismatch(c, plant):
    """The first gain whose shape does not fit ``plant``, as a message, or None."""
    n, m, p, v = plant.n, plant.m, plant.p, c.G1.shape[0]
    for name, want in (("L", (n, p)), ("G1", (v, v)), ("G2", (v, p)),
                       ("K1", (m, n)), ("K2", (m, v))):
        got = getattr(c, name).shape
        if got != want:
            return f"{name}: shape {got}, plant implies {want}"
    return None


def _assemble(game, plants, exos, controllers, strategy_kind):
    """The module docstring's loop, agent-major: agent i owns z-block
    [x_i; xi_i; zeta_i] and output rows out_i of e, C_c and Q_c."""
    pg = assemble_pseudo_gradient(game)
    N = len(plants)
    z_off = _offsets([p.n + c.ctrl_dim for p, c in zip(plants, controllers)])
    v_off = _offsets([e.q + 1 for e in exos])
    out_off = game.offsets
    dz, dv, dp = z_off[-1], v_off[-1], out_off[-1]
    x_sl = [slice(o, o + p.n) for o, p in zip(z_off, plants)]
    xi_sl = [slice(s.stop, s.stop + p.n) for s, p in zip(x_sl, plants)]
    zeta_sl = [slice(s.stop, z_off[i + 1]) for i, s in enumerate(xi_sl)]
    out_sl = [slice(out_off[i], out_off[i + 1]) for i in range(N)]
    v_sl = [slice(v_off[i], v_off[i + 1]) for i in range(N)]

    # e reads the actual outputs, ehat the nominal C the gains assume
    C_out = np.zeros((dp, dz))
    C_obs = np.zeros((dp, dz))
    for plant, x, xi, out in zip(plants, x_sl, xi_sl, out_sl):
        C_out[out, x] = plant.C_mu
        C_obs[out, xi] = plant.C
    C_c = pg.Rbar @ C_out
    # the strategy: a digraph agent reads its own observer alone
    agent = np.repeat(np.arange(N), game.dims)
    R_hat = pg.Rbar if strategy_kind == "general" else np.where(
        agent[:, None] == agent, pg.Rbar, 0.0)

    A_c = np.zeros((dz, dz))
    P_c = np.zeros((dz, dv))
    Q_c = np.zeros((dp, dv))
    S_hat = np.zeros((dv, dv))
    v0 = np.zeros(dv)
    for c, plant, exo, x, xi, zeta, out, vi in zip(
            controllers, plants, exos, x_sl, xi_sl, zeta_sl, out_sl, v_sl):
        A_c[x, x] = plant.A_mu
        A_c[x, xi] = plant.B_mu @ c.K1
        A_c[x, zeta] = plant.B_mu @ c.K2
        A_c[xi] = c.L @ (C_c[out] - R_hat[out] @ C_obs)
        A_c[xi, xi] += plant.A + plant.B @ c.K1
        A_c[xi, zeta] = plant.B @ c.K2
        A_c[zeta] = c.G2 @ C_c[out]
        A_c[zeta, zeta] = c.G1
        P_c[x, vi.start:vi.stop - 1] = plant.P_mu
        # Qbar enters through the agent's constant channel, its last v entry
        Q_c[out, vi.stop - 1] = pg.Qbar[out]
        P_c[xi, vi] = c.L @ Q_c[out, vi]
        P_c[zeta, vi] = c.G2 @ Q_c[out, vi]
        S_hat[vi, vi] = exo.S_tilde
        v0[vi] = exo.v0

    return dict(
        A_c=A_c, P_c=P_c, C_c=C_c, Q_c=Q_c, S_hat=S_hat, v0=v0, C_out=C_out,
        x_slices=tuple(x_sl),
        ctrl_slices=tuple(slice(s.stop, z_off[i + 1]) for i, s in enumerate(x_sl)),
        v_slices=tuple(v_sl),
        out_slices=tuple(out_sl),
    )


def assemble_closed_loop(game, plants, exos, controllers, strategy_kind):
    """Stack plant + controller dynamics into one LTI closed loop.

    ``strategy_kind`` is ``"digraph"`` or ``"general"``; the matching
    graph assumption (5 or 6) is gated here, and every controller's
    gains must fit its plant.  Plant blocks use each plant's actual
    matrices ``A_mu, B_mu, C_mu, P_mu`` (nominal plus its stated
    perturbation); observer blocks use the nominal ``A, B, C``.
    """
    N = game.graph.agent_count
    if not (len(plants) == len(exos) == len(controllers) == N):
        raise DimensionError("plants, exosystems, controllers must match agent count")

    topo_order = None
    if strategy_kind == "digraph":
        if not game.graph.directed:
            raise AssumptionError(5, "strategy 'digraph' needs a directed graph")
        ok, witness = check_acyclic(game.graph)
        if not ok:
            raise AssumptionError(
                5, "communication digraph has a cycle: " + "->".join(map(str, witness))
            )
        topo_order = tuple(witness)
    elif strategy_kind == "general":
        if check_connected(game.graph) == "disconnected":
            raise AssumptionError(6, "communication graph is disconnected")
    else:
        raise DimensionError(f"unknown strategy kind {strategy_kind!r}")

    for i, (c, plant) in enumerate(zip(controllers, plants), start=1):
        bad = _gain_mismatch(c, plant)
        if bad:
            raise DimensionError(f"agent {i}: controller gain {bad}")

    for i, (plant, exo, cost) in enumerate(zip(plants, exos, game.costs), start=1):
        if plant.q != exo.q:
            raise DimensionError(
                f"agent {i}: plant has {plant.q} disturbance columns but "
                f"exosystem dimension is {exo.q}"
            )
        if plant.p != cost.p:
            raise DimensionError(
                f"agent {i}: plant has {plant.p} outputs but its cost "
                f"has output dimension {cost.p}"
            )

    return ClosedLoopSystem(
        strategy=strategy_kind,
        **_assemble(game, plants, exos, controllers, strategy_kind),
        topo_order=topo_order,
        game=game, plants=tuple(plants), exos=tuple(exos),
        controllers=tuple(controllers),
    )


def _block_triangular(A, blocks, order):
    """Whether each agent's block row of ``A`` is zero on every later agent's columns."""
    later = np.zeros(A.shape[1], dtype=bool)
    for i in reversed(order):
        rows = blocks[i - 1]
        if A[rows][:, later].any():
            return False
        later[rows] = True
    return True


def certify_stability(cl):
    """Hurwitz certificate of A_c from ``cl.spectra``: (verdict, spectral abscissa)."""
    eigs = np.concatenate(cl.spectra)
    abscissa = float(np.max(eigs.real)) if eigs.size else -np.inf
    return abscissa < 0.0, abscissa


def worst_agent(cl):
    """Agent (1-based) whose diagonal block has the largest abscissa.

    None unless ``cl.spectra`` is split by agent (a digraph loop).
    """
    if len(cl.spectra) < 2:
        return None
    return 1 + int(np.argmax([np.max(e.real) for e in cl.spectra]))


def solve_regulator(cl):
    """Solve X_c Shat = A_c X_c + P_c and report both residuals.

    The separation gate of the solve reuses ``cl.spectra``.
    ``residual_err`` is the Frobenius norm of C_c X_c + Q_c: at zero the
    invariant subspace carries zero regulated error, which is the
    regulation certificate.
    """
    X_c = linalg.solve_sylvester(cl.A_c, cl.S_hat, cl.P_c,
                                 eig_a=np.concatenate(cl.spectra))
    # overflowing norms read inf or NaN, which the certificate gates refuse
    with np.errstate(over="ignore", invalid="ignore"):
        residual_dyn = float(np.linalg.norm(X_c @ cl.S_hat - cl.A_c @ X_c - cl.P_c))
        residual_err = float(np.linalg.norm(cl.C_c @ X_c + cl.Q_c))
        norm_x = np.linalg.norm(X_c)
        scale_dyn = float(
            (np.linalg.norm(cl.A_c) + np.linalg.norm(cl.S_hat)) * norm_x
            + np.linalg.norm(cl.P_c)
        )
        scale_err = float(np.linalg.norm(cl.C_c) * norm_x + np.linalg.norm(cl.Q_c))
    return RegulatorSolution(
        X_c=X_c, residual_dyn=residual_dyn, residual_err=residual_err,
        scale_dyn=scale_dyn, scale_err=scale_err,
    )


def steady_state(reg, cl, v):
    """Steady state induced by exogenous vector v on the regulated subspace.

    Returns stacked (x_ss, u_ss, y_ss); y_ss equals the game NE whenever
    the constant channels of v are 1 and residual_err is (numerically)
    zero, which cross-checks the synthesis against the equilibrium solve.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (cl.dim_v,):
        raise DimensionError(f"v must have {cl.dim_v} entries, got {v.shape}")
    z_ss = reg.X_c @ v
    x_ss = np.concatenate([z_ss[sl] for sl in cl.x_slices])
    y_ss = cl.C_out @ z_ss

    u_ss = np.concatenate([
        c.K @ z_ss[sl] for c, sl in zip(cl.controllers, cl.ctrl_slices)
    ])
    return x_ss, u_ss, y_ss
