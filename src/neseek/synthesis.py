"""Gain synthesis, the per-agent controller, and closed-loop certificates.

Both distributed strategies run the same per-agent controller: a plant
observer xi_i and a p-copy internal model zeta_i,

    xidot_i   = A_i xi_i + B_i u_i - L_i (ehat_i - e_i)
    zetadot_i = G1_i zeta_i + G2_i e_i
    u_i       = K1_i xi_i + K2_i zeta_i

with the same gains L_i, (G1_i, G2_i), (K1_i, K2_i).  They differ in
one coupling only, the error estimate ehat_i:

    digraph (acyclic topologies):   ehat_i = Rw_i C_i xi_i
    general (connected topologies): ehat_i = Rw_i C_i xi_i
                                             + sum_j R_ij C_j xi_j

so in the stacked loop the general strategy adds exactly the blocks
A_c[xi_i, xi_j] = -L_i R_ij C_j for each neighbor j and is otherwise
identical.  The stacked closed loop is
zdot = A_c(mu) z + P_c(mu) v, e = C_c(mu) z + Q_c v, vdot = Shat v,
with z agent-major ([x_i; xi_i; zeta_i] per agent); stability,
regulator-equation, and steady-state certificates are computed on it.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import linalg
from .errors import AssumptionError, DimensionError, SynthesisError
from .graph import check_acyclic, check_connected, neighbors
from .internal_model import build_p_copy
from .plant import (
    _pbh_witnesses,
    _regulation_pencil_rank_ok,
    _unique,
    extend_exosystem,
    sample_perturbation,
)

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
    "solve_regulator",
    "steady_state",
    "largest_stable_scale",
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

    @property
    def agent_count(self):
        return len(self.x_slices)

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


def augmented_stabilizer(A, B, Cw, im, q_state=1.0, q_im=1.0, r_scale=1.0):
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
    v = im.G1.shape[0]

    failures = [
        lam for lam in _unique(linalg.eigenvalues(im.G1))
        if not _regulation_pencil_rank_ok(A, B, Cw, lam)
    ]
    if failures:
        raise SynthesisError(
            "rank condition fails at internal-model eigenvalue(s) "
            + ", ".join(f"{lam:.6g}" for lam in failures)
        )

    A_aug = np.block([[A, np.zeros((n, v))], [im.G2 @ Cw, im.G1]])
    B_aug = np.vstack([B, np.zeros((v, m))])
    Qw = scipy.linalg.block_diag(_weight(n, q_state), _weight(v, q_im))
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
        raise SynthesisError(f"(A, B) not stabilizable at {bad}")
    Rw = cost.R_ii + cost.R_ii.T
    if Rw.shape[0] != plant.p:
        raise DimensionError(
            f"cost output dimension {Rw.shape[0]} != plant output dimension {plant.p}"
        )
    Cw = Rw @ plant.C
    im = build_p_copy(extend_exosystem(exo).S_tilde, plant.p)
    L = observer_gain(plant.A, Cw, weights.observer_q, weights.observer_r)
    K1, K2 = augmented_stabilizer(
        plant.A, plant.B, Cw, im,
        weights.stabilizer_q_state, weights.stabilizer_q_im, weights.stabilizer_r,
    )
    return Controller(L=L, G1=im.G1, G2=im.G2, K1=K1, K2=K2)


def _q_tilde(cost, q):
    """Cost's exogenous channel [0 Q_ii'] of shape p x (q + 1)."""
    p = cost.p
    Qt = np.zeros((p, q + 1))
    Qt[:, q] = cost.Q_ii
    return Qt


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
    """Agent-major stacking: agent i owns z-block [x_i; xi_i; zeta_i]."""
    z_off = _offsets([p.n + c.ctrl_dim for p, c in zip(plants, controllers)])
    v_off = _offsets([e.q + 1 for e in exos])
    out_off = game.offsets
    dz, dv, dp = z_off[-1], v_off[-1], out_off[-1]
    A_c = np.zeros((dz, dz))
    P_c = np.zeros((dz, dv))
    C_c = np.zeros((dp, dz))
    Q_c = np.zeros((dp, dv))
    S_hat = np.zeros((dv, dv))
    C_out = np.zeros((dp, dz))
    v0 = np.zeros(dv)
    x_sl = [slice(o, o + p.n) for o, p in zip(z_off, plants)]
    xi_sl = [slice(s.stop, s.stop + p.n) for s, p in zip(x_sl, plants)]
    zeta_sl = [slice(s.stop, z_off[i + 1]) for i, s in enumerate(xi_sl)]

    for i, (c, plant, cost, exo) in enumerate(zip(controllers, plants, game.costs, exos)):
        x, xi, zeta = x_sl[i], xi_sl[i], zeta_sl[i]
        out, vi = slice(out_off[i], out_off[i + 1]), slice(v_off[i], v_off[i + 1])
        # e_i reads the actual plant outputs; the observer blocks use
        # the nominal matrices the gains were designed for
        couplings = [(i, cost.R_ii + cost.R_ii.T)] + [
            (j - 1, cost.R_ij[j]) for j in neighbors(game.graph, i + 1)
        ]
        for k, R in couplings:
            RC = R @ plants[k].C_mu
            A_c[xi, x_sl[k]] = c.L @ RC
            A_c[zeta, x_sl[k]] = c.G2 @ RC
            C_c[out, x_sl[k]] = RC
            if strategy_kind == "general" and k != i:
                # the one strategy-dependent block: ehat_i reads C_k xi_k
                A_c[xi, xi_sl[k]] = -c.L @ (R @ plants[k].C)
        Rw = couplings[0][1]
        A_c[x, x] = plant.A_mu
        A_c[x, xi] = plant.B_mu @ c.K1
        A_c[x, zeta] = plant.B_mu @ c.K2
        A_c[xi, xi] = plant.A + plant.B @ c.K1 - c.L @ (Rw @ plant.C)
        A_c[xi, zeta] = plant.B @ c.K2
        A_c[zeta, zeta] = c.G1
        C_out[out, x] = plant.C_mu

        Qt = _q_tilde(cost, exo.q)
        P_c[x, vi.start:vi.stop - 1] = plant.P_mu
        P_c[xi, vi] = c.L @ Qt
        P_c[zeta, vi] = c.G2 @ Qt
        Q_c[out, vi] = Qt
        ext = extend_exosystem(exo)
        S_hat[vi, vi] = ext.S_tilde
        v0[vi] = ext.v0

    N = len(plants)
    return dict(
        A_c=A_c, P_c=P_c, C_c=C_c, Q_c=Q_c, S_hat=S_hat, v0=v0, C_out=C_out,
        x_slices=tuple(x_sl),
        ctrl_slices=tuple(slice(s.stop, z_off[i + 1]) for i, s in enumerate(x_sl)),
        v_slices=tuple(slice(v_off[i], v_off[i + 1]) for i in range(N)),
        out_slices=tuple(slice(out_off[i], out_off[i + 1]) for i in range(N)),
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

    for i, (plant, exo) in enumerate(zip(plants, exos), start=1):
        if plant.q != exo.q:
            raise DimensionError(
                f"agent {i}: plant has {plant.q} disturbance columns but "
                f"exosystem dimension is {exo.q}"
            )

    return ClosedLoopSystem(
        strategy=strategy_kind,
        **_assemble(game, plants, exos, controllers, strategy_kind),
        topo_order=topo_order,
        game=game, plants=tuple(plants), exos=tuple(exos),
        controllers=tuple(controllers),
    )


def certify_stability(cl):
    """Hurwitz certificate of A_c: (verdict, spectral abscissa)."""
    return linalg.is_hurwitz(cl.A_c)


def solve_regulator(cl):
    """Solve X_c Shat = A_c X_c + P_c and report both residuals.

    ``residual_err`` is the Frobenius norm of C_c X_c + Q_c: at zero the
    invariant subspace carries zero regulated error, which is the
    regulation certificate.
    """
    X_c = linalg.solve_sylvester(cl.A_c, cl.S_hat, cl.P_c)
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


def largest_stable_scale(cl, scales, draws=20, seed=0):
    """Largest sampled perturbation scale keeping A_c(mu) Hurwitz.

    Samples ``draws`` entrywise-uniform perturbation sets per scale
    (all four plant matrices, replacing any stated perturbation),
    assembles each sampled loop with ``cl``'s controllers, and returns
    the largest scale where every draw stays Hurwitz, or None if none
    does.
    """
    def sampled_loop_hurwitz(scale, rng):
        plants = tuple(
            p.with_perturbation(**sample_perturbation(p, scale, rng))
            for p in cl.plants
        )
        sampled = assemble_closed_loop(
            cl.game, plants, cl.exos, cl.controllers, cl.strategy
        )
        return certify_stability(sampled)[0]

    best = None
    for scale in sorted(scales):
        rng = np.random.default_rng(seed)
        if all(sampled_loop_hurwitz(scale, rng) for _ in range(draws)):
            best = scale
    return best
