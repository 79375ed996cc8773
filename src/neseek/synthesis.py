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
the stability and regulator-equation certificates are computed on it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import SynthesisError
from .game import assemble_pseudo_gradient
from .graph import strong_components
from .internal_model import build_p_copy

__all__ = [
    "STRATEGIES",
    "SynthesisWeights",
    "Controller",
    "ClosedLoopSystem",
    "RegulatorSolution",
    "build_controller",
    "gain_mismatch",
    "assemble_closed_loop",
    "certify_stability",
    "worst_agent",
    "solve_regulator",
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
    the scenario, so none of them is stored here.
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
    def ctrl_dim(self):
        return self.n + self.G1.shape[0]


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Stacked closed loop: matrices, start state ``[z0; v0]`` and per-agent slices.

    ``x_slices`` locate each agent's plant state inside z, which its
    controller state [xi_i; zeta_i] directly follows up to the next
    agent's; ``v_slices`` its exogenous block [w_i; 1], the constant channel
    last.  z0 holds each plant's x0 and zero controller states.
    ``C_out`` maps z to the stacked output y through each plant's C_mu.
    """

    A_c: np.ndarray
    P_c: np.ndarray
    C_c: np.ndarray
    Q_c: np.ndarray
    S_hat: np.ndarray
    z0: np.ndarray
    v0: np.ndarray
    C_out: np.ndarray
    x_slices: tuple
    v_slices: tuple
    out_slices: tuple

    @property
    def dim_z(self):
        return self.A_c.shape[0]

    @property
    def dim_v(self):
        return self.S_hat.shape[0]

    @cached_property
    def components(self):
        """Agents (0-based) of the diagonal blocks of A_c's block-triangular form.

        Agent i reads agent j when A_c is nonzero on agent i's rows
        [x_i; xi_i; zeta_i] and agent j's columns.  The blocks are the
        strongly connected components of that relation, each after every
        one it reads (Duff & Reid 1978), from exact zeros, whatever the strategy.
        """
        starts = [x.start for x in self.x_slices]
        reads = np.logical_or.reduceat(
            np.logical_or.reduceat(self.A_c != 0, starts, axis=0), starts, axis=1)
        return tuple(strong_components([np.flatnonzero(row).tolist() for row in reads]))

    @cached_property
    def spectra(self):
        """Eigenvalues of A_c, one array per block of ``components``, computed once.

        A block of every agent holds all of A_c.  A loop whose agents read
        no cycle has a block per agent, avoiding the dense eigensolve whose
        error on a long chain of equal blocks exceeds the stability margin.
        """
        bounds = [x.start for x in self.x_slices] + [self.dim_z]
        spectra = []
        for agents in self.components:
            idx = np.concatenate([np.arange(bounds[a], bounds[a + 1]) for a in agents])
            spectra.append(linalg.eigenvalues(self.A_c[np.ix_(idx, idx)]))
        return tuple(spectra)


@dataclass(frozen=True)
class RegulatorSolution:
    X_c: np.ndarray
    residual_dyn: float
    residual_err: float
    scale_dyn: float
    scale_err: float


def _weight(base_dim, scale):
    return float(scale) * np.eye(base_dim)


def _observer_gain(A, Cw, weights):
    """Output-injection gain L with A - L Cw certified Hurwitz.

    Solves the dual CARE on (A', Cw') with the observer weights of
    ``weights``; its Hurwitz certificate on A' - Cw' L' is the
    observer's.
    """
    n = A.shape[0]
    K_dual = linalg.solve_care(A.T, Cw.T, _weight(n, weights.observer_q),
                               _weight(Cw.shape[0], weights.observer_r))
    return -K_dual.T


def _augmented_stabilizer(A, B, Cw, G1, G2, weights):
    """Stabilizing gain [K1 K2] for the plant/internal-model cascade.

    The design pair is ([A 0; G2 Cw G1], [B; 0]), stabilizable when the
    plant meets A3 and A4; the CARE with the stabilizer weights of
    ``weights`` certifies the augmented loop Hurwitz.
    """
    n, m = B.shape
    v = G1.shape[0]
    A_aug = np.block([[A, np.zeros((n, v))], [G2 @ Cw, G1]])
    B_aug = np.vstack([B, np.zeros((v, m))])
    Qw = np.block([[_weight(n, weights.stabilizer_q_state), np.zeros((n, v))],
                   [np.zeros((v, n)), _weight(v, weights.stabilizer_q_im)]])
    K = linalg.solve_care(A_aug, B_aug, Qw, _weight(m, weights.stabilizer_r))
    return K[:, :n], K[:, n:]


def build_controller(plant, cost, exo, weights):
    """Per-agent gains, the same for both strategies.

    The observer gain, p-copy internal model and augmented stabilizer
    are designed on the nominal plant with Rw = R_ii + R_ii' and the
    CARE weights of ``weights``.  ``synth``'s ``run_checks`` refuses a plant
    failing A3 or A4 first (Rw is nonsingular, so (A, Rw C) passes exactly
    when (A, C) does, and G1's eigenvalues are A4's spec(S) plus {0}).  A
    direct call trusts its plant: ``linalg.solve_care``'s gates refuse the
    unstable cases, but a mode that A3 or A4 flag at -1e-9 <= Re lam < 0
    (``plant._EIG_TOL``) can still get a gain.
    """
    Cw = (cost.R_ii + cost.R_ii.T) @ plant.C
    G1, G2 = build_p_copy(exo.S_tilde, plant.p)
    L = _observer_gain(plant.A, Cw, weights)
    K1, K2 = _augmented_stabilizer(plant.A, plant.B, Cw, G1, G2, weights)
    return Controller(L=L, G1=G1, G2=G2, K1=K1, K2=K2)


def _offsets(dims):
    return np.concatenate([[0], np.cumsum(dims)]).astype(int)


def gain_mismatch(c, plant):
    """The first gain whose shape does not fit ``plant``, as a message, or None."""
    n, m, p, v = plant.n, plant.m, plant.p, c.G1.shape[0]
    for name, want in (("L", (n, p)), ("G1", (v, v)), ("G2", (v, p)),
                       ("K1", (m, n)), ("K2", (m, v))):
        got = getattr(c, name).shape
        if got != want:
            return f"{name}: shape {got}, plant implies {want}"
    return None


def assemble_closed_loop(game, plants, exos, controllers, strategy_kind):
    """Stack plant + controller dynamics into one LTI closed loop.

    The loop is the module docstring's, agent-major: agent i owns z-block
    [x_i; xi_i; zeta_i] and output rows out_i of e, C_c and Q_c.
    ``strategy_kind``, ``"digraph"`` or ``"general"``, chooses ``R_hat``
    only; the certificates read their block-triangular form from A_c
    (``ClosedLoopSystem.components``).  The inputs are trusted:
    ``load_scenario`` fits the plants, exosystems and game together,
    ``load_controllers`` the gains to their plants and the scenario's
    strategy, and ``run_checks`` gates A5 and A6.  Plant blocks use each
    plant's actual ``A_mu, B_mu, C_mu, P_mu`` (nominal plus its stated
    perturbation); observer blocks use the nominal ``A, B, C``.
    """
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
    z0 = np.zeros(dz)
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
        z0[x] = plant.x0
        v0[vi] = exo.v0

    return ClosedLoopSystem(
        A_c=A_c, P_c=P_c, C_c=C_c, Q_c=Q_c, S_hat=S_hat, z0=z0, v0=v0, C_out=C_out,
        x_slices=tuple(x_sl),
        v_slices=tuple(v_sl),
        out_slices=tuple(out_sl),
    )


def certify_stability(cl):
    """Hurwitz certificate of A_c from ``cl.spectra``: (verdict, spectral abscissa)."""
    eigs = np.concatenate(cl.spectra)
    abscissa = float(np.max(eigs.real)) if eigs.size else -np.inf
    return abscissa < 0.0, abscissa


def worst_agent(cl):
    """Agents (1-based) of the block of ``cl.spectra`` with the largest abscissa,
    the lowest-numbered agent's of a tie; None when A_c is one block."""
    if len(cl.components) < 2:
        return None
    blocks = sorted(zip(cl.components, cl.spectra), key=lambda block: block[0])
    agents, _ = blocks[int(np.argmax([np.max(e.real) for _, e in blocks]))]
    return tuple(a + 1 for a in agents)


def solve_regulator(cl):
    """Solve X_c Shat = A_c X_c + P_c and report both residuals.

    The separation gate of the solve reuses ``cl.spectra``.
    ``residual_err`` is the Frobenius norm of C_c X_c + Q_c: at zero the
    invariant subspace carries zero regulated error, which is the
    regulation certificate.
    """
    # an overflowing solution or norm reads inf or NaN, which the gates refuse
    with np.errstate(over="ignore", invalid="ignore"):
        X_c = linalg.solve_sylvester(cl.A_c, cl.S_hat, cl.P_c,
                                     eig_a=np.concatenate(cl.spectra))
        norm = linalg.frobenius
        residual_dyn = float(norm(X_c @ cl.S_hat - cl.A_c @ X_c - cl.P_c))
        residual_err = float(norm(cl.C_c @ X_c + cl.Q_c))
        norm_x = norm(X_c)
        scale_dyn = float((norm(cl.A_c) + norm(cl.S_hat)) * norm_x + norm(cl.P_c))
        scale_err = float(norm(cl.C_c) * norm_x + norm(cl.Q_c))
    return RegulatorSolution(
        X_c=X_c, residual_dyn=residual_dyn, residual_err=residual_err,
        scale_dyn=scale_dyn, scale_err=scale_err,
    )
