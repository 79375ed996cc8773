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
    _real_embedded_rank,
    _regulation_pencil_rank_ok,
    check_assumption_3,
    extend_exosystem,
)

__all__ = [
    "STRATEGIES",
    "SynthesisWeights",
    "Controller",
    "ClosedLoopSystem",
    "RegulatorSolution",
    "observer_gain",
    "augmented_stabilizer",
    "build_strategy",
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
    """One agent's gains, shared by both strategies, plus the strategy tag.

    The controller state is [xi; zeta]: an observer copy of the plant
    (size n) followed by the p-copy internal model (size p*s).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    L: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    K1: np.ndarray
    K2: np.ndarray
    Rw: np.ndarray
    strategy: str

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def p(self):
        return self.C.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

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
    ``C_out`` maps z to the stacked output y (perturbed C when the loop
    was assembled perturbed).
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
    perturbed: bool = False
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

    Solves the dual CARE on (A', Cw'), so detectability of (A, Cw) is
    what's required; it is checked first and a failing PBH eigenvalue is
    named in the error.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Cw = np.atleast_2d(np.asarray(Cw, dtype=float))
    n = A.shape[0]
    for lam in linalg.eigenvalues(A):
        if lam.real < 0:
            continue
        pencil = np.vstack([A - lam * np.eye(n), Cw.astype(complex)])
        rank, factor = _real_embedded_rank(pencil)
        if rank != factor * n:
            raise SynthesisError(f"(A, Cw) not detectable at eigenvalue {lam}")
    K_dual = linalg.solve_care(A.T, Cw.T, _weight(n, q_scale), _weight(Cw.shape[0], r_scale))
    L = -K_dual.T
    ok, abscissa = linalg.is_hurwitz(A - L @ Cw)
    if not ok:
        raise SynthesisError(f"observer not stabilizing (abscissa {abscissa:.3e})")
    return L


def augmented_stabilizer(A, B, Cw, im, q_state=1.0, q_im=1.0, r_scale=1.0):
    """Stabilizing gain [K1 K2] for the plant/internal-model cascade.

    The design pair is ([A 0; G2 Cw G1], [B; 0]); its stabilizability
    needs the transmission-zero-free condition at every eigenvalue of
    G1, which is re-verified here before solving the CARE.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Cw = np.atleast_2d(np.asarray(Cw, dtype=float))
    n, m = B.shape
    v = im.G1.shape[0]

    checked = []
    failures = []
    for lam in linalg.eigenvalues(im.G1):
        lam = complex(lam)
        if any(abs(lam - u) <= 1e-9 for u in checked):
            continue
        checked.append(lam)
        if not _regulation_pencil_rank_ok(A, B, Cw, lam):
            failures.append(lam)
    if failures:
        raise SynthesisError(
            "rank condition fails at internal-model eigenvalue(s) "
            + ", ".join(f"{lam:.6g}" for lam in failures)
        )

    A_aug = np.block([[A, np.zeros((n, v))], [im.G2 @ Cw, im.G1]])
    B_aug = np.vstack([B, np.zeros((v, m))])
    Qw = scipy.linalg.block_diag(_weight(n, q_state), _weight(v, q_im))
    K = linalg.solve_care(A_aug, B_aug, Qw, _weight(m, r_scale))
    K1, K2 = K[:, :n], K[:, n:]
    ok, abscissa = linalg.is_hurwitz(A_aug + B_aug @ K)
    if not ok:
        raise SynthesisError(f"augmented matrix not Hurwitz (abscissa {abscissa:.3e})")
    return K1, K2


def build_strategy(plant, cost, exo, strategy, weights=None):
    """Per-agent controller for ``strategy`` ("digraph" or "general").

    Both strategies use the same observer gain, p-copy internal model
    and augmented stabilizer; only the tag differs.
    """
    if strategy not in STRATEGIES:
        raise DimensionError(f"unknown strategy kind {strategy!r}")
    weights = weights or SynthesisWeights()
    result = check_assumption_3(plant)
    if not result["stabilizable"]:
        raise SynthesisError(
            f"(A, B) not stabilizable at {result['witnesses']['stabilizable']}"
        )
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
    return Controller(
        A=plant.A, B=plant.B, C=plant.C, L=L, G1=im.G1, G2=im.G2,
        K1=K1, K2=K2, Rw=Rw, strategy=strategy,
    )


def _q_tilde(cost, q):
    """Cost's exogenous channel [0 Q_ii'] of shape p x (q + 1)."""
    p = cost.p
    Qt = np.zeros((p, q + 1))
    Qt[:, q] = cost.Q_ii
    return Qt


def _plant_matrices(plant, perturbed):
    if perturbed:
        return plant.A_mu, plant.B_mu, plant.C_mu, plant.P_mu
    return plant.A, plant.B, plant.C, plant.P


def _offsets(dims):
    return np.concatenate([[0], np.cumsum(dims)]).astype(int)


def _assemble(game, plants, exos, controllers, strategy_kind, perturbed):
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
    meas = [_plant_matrices(p, perturbed) for p in plants]
    x_sl = [slice(o, o + p.n) for o, p in zip(z_off, plants)]
    xi_sl = [slice(s.stop, s.stop + c.n) for s, c in zip(x_sl, controllers)]
    zeta_sl = [slice(s.stop, z_off[i + 1]) for i, s in enumerate(xi_sl)]

    for i, (c, cost, exo) in enumerate(zip(controllers, game.costs, exos)):
        A, B, Cm, P = meas[i]
        x, xi, zeta = x_sl[i], xi_sl[i], zeta_sl[i]
        out, vi = slice(out_off[i], out_off[i + 1]), slice(v_off[i], v_off[i + 1])
        # e_i reads the (perturbed) plant outputs; the controller's own
        # blocks use the nominal matrices it was designed for
        couplings = [(i, cost.R_ii + cost.R_ii.T)] + [
            (j - 1, cost.R_ij[j]) for j in neighbors(game.graph, i + 1)
        ]
        for k, R in couplings:
            RC = R @ meas[k][2]
            A_c[xi, x_sl[k]] = c.L @ RC
            A_c[zeta, x_sl[k]] = c.G2 @ RC
            C_c[out, x_sl[k]] = RC
            if strategy_kind == "general" and k != i:
                # the one strategy-dependent block: ehat_i reads C_k xi_k
                A_c[xi, xi_sl[k]] = -c.L @ (R @ controllers[k].C)
        A_c[x, x] = A
        A_c[x, xi] = B @ c.K1
        A_c[x, zeta] = B @ c.K2
        A_c[xi, xi] = c.A + c.B @ c.K1 - c.L @ (c.Rw @ c.C)
        A_c[xi, zeta] = c.B @ c.K2
        A_c[zeta, zeta] = c.G1
        C_out[out, x] = Cm

        Qt = _q_tilde(cost, exo.q)
        P_c[x, vi.start:vi.stop - 1] = P
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


def assemble_closed_loop(game, plants, exos, controllers, strategy_kind, perturbed=False):
    """Stack plant + controller dynamics into one LTI closed loop.

    ``strategy_kind`` is ``"digraph"`` or ``"general"`` and must match
    every controller's tag; the matching graph assumption (5 or 6) is
    gated here.  With ``perturbed=True`` plant blocks use the perturbed
    matrices; controller blocks always use nominals.
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

    for i, c in enumerate(controllers, start=1):
        if c.strategy != strategy_kind:
            raise DimensionError(
                f"agent {i}: controller strategy {c.strategy!r} does not match "
                f"strategy {strategy_kind!r}"
            )

    for i, (plant, exo) in enumerate(zip(plants, exos), start=1):
        if plant.q != exo.q:
            raise DimensionError(
                f"agent {i}: plant has {plant.q} disturbance columns but "
                f"exosystem dimension is {exo.q}"
            )

    return ClosedLoopSystem(
        strategy=strategy_kind,
        **_assemble(game, plants, exos, controllers, strategy_kind, perturbed),
        topo_order=topo_order, perturbed=perturbed,
        game=game, plants=tuple(plants), exos=tuple(exos),
        controllers=tuple(controllers),
    )


def certify_stability(cl, perturbations=None):
    """Hurwitz certificate of A_c, optionally under plant perturbations.

    ``perturbations`` is a per-agent list of dicts with any of the keys
    dA, dB, dC, dP; the loop is reassembled with them applied to the
    plant blocks only.
    """
    if perturbations is None:
        return linalg.is_hurwitz(cl.A_c)
    plants = tuple(
        p.with_perturbation(**d) for p, d in zip(cl.plants, perturbations)
    )
    perturbed_cl = assemble_closed_loop(
        cl.game, plants, cl.exos, cl.controllers, cl.strategy, perturbed=True
    )
    return linalg.is_hurwitz(perturbed_cl.A_c)


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
    (all four plant matrices) and returns the largest scale where every
    draw stays Hurwitz, or None if none does.
    """
    from .plant import sample_perturbation

    best = None
    for scale in sorted(scales):
        rng = np.random.default_rng(seed)
        ok_all = True
        for _ in range(draws):
            perts = [sample_perturbation(p, scale, rng) for p in cl.plants]
            ok, _ = certify_stability(cl, perts)
            if not ok:
                ok_all = False
                break
        if ok_all:
            best = scale
    return best
