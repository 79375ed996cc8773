"""Closed-loop trajectories: the stacked propagator and the per-agent reference loop.

Both paths take classic RK4 steps with the exogenous vector advanced by
its exact matrix exponential.  The stacked path applies one RK4 step as
a precomputed matrix on [z; v], and its powers between recorded samples;
the distributed path runs the same stages agent by agent behind neighbor
read gates and is the reference loop the stacked path is compared with.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, DivergenceError, DomainError, FirewallViolation
from .game import assemble_pseudo_gradient, solve_ne
from .graph import neighbors
from .plant import extend_exosystem
from .synthesis import STRATEGIES

__all__ = [
    "SimConfig",
    "Trajectory",
    "NeighborView",
    "simulate",
    "simulate_distributed",
    "convergence_metrics",
    "write_csv",
]


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_end: float
    record_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise DomainError(f"t_end {self.t_end} must be at least dt {self.dt}")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
            raise DomainError(f"record_stride must be a positive integer")

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """Recorded series; x, ctrl, y, e, w are per-agent tuples of arrays."""

    times: np.ndarray
    x: tuple
    ctrl: tuple
    y: tuple
    e: tuple
    w: tuple
    y_star: np.ndarray

    def __post_init__(self):
        K = len(self.times)
        for name in ("x", "ctrl", "y", "e", "w"):
            for i, arr in enumerate(getattr(self, name), start=1):
                if arr.shape[0] != K:
                    raise DimensionError(
                        f"{name}[{i}] has {arr.shape[0]} samples, times has {K}"
                    )

    @property
    def agent_count(self):
        return len(self.x)

    def y_stacked(self):
        return np.hstack(self.y)

    def e_stacked(self):
        return np.hstack(self.e)


def _exo_steppers(S_hat, dt):
    E_half = scipy.linalg.expm(np.asarray(S_hat, dtype=float) * (dt / 2.0))
    return E_half, E_half @ E_half


def record_steps(n_steps, stride):
    """Step indices recorded: 0, stride, 2*stride, ..., n_steps."""
    steps = np.arange(0, n_steps + 1, stride)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return steps


def _rk4_map(A_c, P_c, E_half, E_full, dt):
    """One RK4 step of zdot = A_c z + P_c v as a matrix on [z; v].

    Each stage k_j is written as a linear map of [z; v], with v at the
    half and full step given exactly by E_half and E_full; the v-block
    of the result is E_full and its lower-left block is zero.
    """
    dz, dv = P_c.shape
    ident = np.eye(dz, dz + dv)  # [I 0] picks z out of [z; v]
    k1 = np.hstack([A_c, P_c])
    P_half = np.hstack([np.zeros((dz, dz)), P_c @ E_half])
    k2 = A_c @ (ident + 0.5 * dt * k1) + P_half
    k3 = A_c @ (ident + 0.5 * dt * k2) + P_half
    k4 = A_c @ (ident + dt * k3) + np.hstack([np.zeros((dz, dz)), P_c @ E_full])
    top = ident + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.block([[top], [np.zeros((dv, dz)), E_full]])


def simulate(cl, cfg, z0=None, v0=None):
    """Integrate the stacked closed loop; v is advanced exactly.

    Samples follow one another by powers of the RK4 step map.  Raises
    DivergenceError at the first step whose state is non-finite, which
    is how an unstable assembly surfaces.
    """
    z0 = cl.initial_state() if z0 is None else np.asarray(z0, dtype=float)
    v0 = cl.v0 if v0 is None else np.asarray(v0, dtype=float)
    if z0.shape != (cl.dim_z,) or v0.shape != (cl.dim_v,):
        raise DimensionError(
            f"z0/v0 must have dims {cl.dim_z}/{cl.dim_v}, "
            f"got {z0.shape}/{v0.shape}"
        )
    dz = cl.dim_z
    M = _rk4_map(cl.A_c, cl.P_c, *_exo_steppers(cl.S_hat, cfg.dt), cfg.dt)
    steps = record_steps(cfg.n_steps, cfg.record_stride)
    jumps = np.diff(steps).tolist()
    X = np.empty((len(steps), dz + cl.dim_v))
    X[0] = np.concatenate([z0, v0])
    with np.errstate(over="ignore", invalid="ignore"):
        powers = {n: np.linalg.matrix_power(M, n) for n in set(jumps)}
        for r, n in enumerate(jumps, start=1):
            X[r] = powers[n] @ X[r - 1]
            if np.isfinite(X[r, :dz]).all():
                continue
            # the state or only M^n overflowed: replay one step at a time
            x = X[r - 1]
            for k in range(int(steps[r - 1]) + 1, int(steps[r]) + 1):
                x = M @ x
                if not np.isfinite(x[:dz]).all():
                    raise DivergenceError(
                        f"state became non-finite at t = {k * cfg.dt:.6g}",
                        t_bad=k * cfg.dt,
                    )
            X[r] = x
    Z, V = X[:, :dz], X[:, dz:]
    times = steps * cfg.dt

    x = tuple(Z[:, sl] for sl in cl.x_slices)
    ctrl = tuple(Z[:, sl] for sl in cl.ctrl_slices)
    y_full = Z @ cl.C_out.T
    e_full = Z @ cl.C_c.T + V @ cl.Q_c.T
    y = tuple(y_full[:, sl] for sl in cl.out_slices)
    e = tuple(e_full[:, sl] for sl in cl.out_slices)
    w = tuple(
        V[:, sl][:, : exo.q] for sl, exo in zip(cl.v_slices, cl.exos)
    )
    y_star = solve_ne(assemble_pseudo_gradient(cl.game))
    return Trajectory(times=times, x=x, ctrl=ctrl, y=y, e=e, w=w, y_star=y_star)


class NeighborView:
    """Agent i's read gate for incoming data during one stage evaluation.

    Only outputs (and, for the observer strategy, observer outputs
    C_j xi_j) of declared neighbors are readable; any other index raises
    FirewallViolation.  This is the information constraint made
    structural: agent code literally cannot see non-neighbor data.
    """

    def __init__(self, i, nbrs, y_all, cxi_all=None):
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


def _error_from_view(cost, Rw, y_i, view):
    e_i = Rw @ y_i + cost.Q_ii
    for j in sorted(cost.R_ij):
        e_i = e_i + cost.R_ij[j] @ view.output(j)
    return e_i


def _deriv(plant_mats, nominal, c, cost, x_i, st_i, v_i, view, y_i, observer_mode):
    A, B, _, P = plant_mats
    A_n, B_n, C_n, Rw = nominal
    q = P.shape[1]
    xi_i, zeta_i = st_i[:c.n], st_i[c.n:]
    e_i = _error_from_view(cost, Rw, y_i, view)
    # ehat has no affine term: it estimates only the output-dependent part;
    # only the general strategy reads neighbors' observer outputs
    ehat_i = Rw @ (C_n @ xi_i)
    if observer_mode:
        for j in sorted(cost.R_ij):
            ehat_i = ehat_i + cost.R_ij[j] @ view.observer_output(j)
    u_i = c.K1 @ xi_i + c.K2 @ zeta_i
    dx = A @ x_i + B @ u_i + P @ v_i[:q]
    dxi = A_n @ xi_i + B_n @ u_i - c.L @ (ehat_i - e_i)
    dzeta = c.G1 @ zeta_i + c.G2 @ e_i
    return dx, np.concatenate([dxi, dzeta])


def simulate_distributed(game, plants, exos, controllers, strategy, cfg,
                         x0=None, w0=None):
    """Integrate agent-by-agent behind NeighborView read gates.

    Each stage first broadcasts every agent's y_i (and C_i xi_i for the
    general strategy), then evaluates each agent's derivative from its
    own states plus gated neighbor reads only.  Matches simulate() on
    the assembled stacked system within 1e-9 per sample.
    """
    if strategy not in STRATEGIES:
        raise DimensionError(f"unknown strategy kind {strategy!r}")
    observer_mode = strategy == "general"
    N = game.graph.agent_count

    x0 = [p.x0 for p in plants] if x0 is None else [np.asarray(v, float) for v in x0]
    w0 = [e.w0 for e in exos] if w0 is None else [np.asarray(v, float) for v in w0]

    plant_mats = [(p.A_mu, p.B_mu, p.C_mu, p.P_mu) for p in plants]
    # the observer's plant copy and error weight, read once per agent
    nominal = [(p.A, p.B, p.C, cost.R_ii + cost.R_ii.T)
               for p, cost in zip(plants, game.costs)]
    nbr_sets = [neighbors(game.graph, i) for i in range(1, N + 1)]
    ctrl_dims = [c.ctrl_dim for c in controllers]

    # exact per-agent exogenous steppers on the extended blocks
    exts = [extend_exosystem(e) for e in exos]
    E_halfs = [_exo_steppers(e.S_tilde, cfg.dt)[0] for e in exts]
    E_fulls = [E @ E for E in E_halfs]

    x = [np.asarray(v, float).copy() for v in x0]
    st = [np.zeros(d) for d in ctrl_dims]
    v = [np.concatenate([w, [1.0]]) for w in w0]

    def stage_rates(xs, sts, vs):
        ys = [pm[2] @ xi for pm, xi in zip(plant_mats, xs)]
        cxis = None
        if observer_mode:
            cxis = [nom[2] @ s[: c.n]
                    for nom, c, s in zip(nominal, controllers, sts)]
        rates = []
        for i in range(N):
            view = NeighborView(i + 1, nbr_sets[i], ys, cxis)
            rates.append(
                _deriv(plant_mats[i], nominal[i], controllers[i], game.costs[i],
                       xs[i], sts[i], vs[i], view, ys[i], observer_mode)
            )
        return rates

    steps = record_steps(cfg.n_steps, cfg.record_stride)
    times = steps * cfg.dt
    rec_x = [np.empty((len(steps), len(x[i]))) for i in range(N)]
    rec_st = [np.empty((len(steps), ctrl_dims[i])) for i in range(N)]
    rec_w = [np.empty((len(steps), exos[i].q)) for i in range(N)]
    rec_set = set(steps.tolist())

    def record(row):
        for i in range(N):
            rec_x[i][row] = x[i]
            rec_st[i][row] = st[i]
            rec_w[i][row] = v[i][: exos[i].q]

    record(0)
    row = 1
    dt = cfg.dt
    for k in range(cfg.n_steps):
        vh = [E @ vi for E, vi in zip(E_halfs, v)]
        vf = [E @ vi for E, vi in zip(E_fulls, v)]
        r1 = stage_rates(x, st, v)
        x2 = [x[i] + 0.5 * dt * r1[i][0] for i in range(N)]
        s2 = [st[i] + 0.5 * dt * r1[i][1] for i in range(N)]
        r2 = stage_rates(x2, s2, vh)
        x3 = [x[i] + 0.5 * dt * r2[i][0] for i in range(N)]
        s3 = [st[i] + 0.5 * dt * r2[i][1] for i in range(N)]
        r3 = stage_rates(x3, s3, vh)
        x4 = [x[i] + dt * r3[i][0] for i in range(N)]
        s4 = [st[i] + dt * r3[i][1] for i in range(N)]
        r4 = stage_rates(x4, s4, vf)
        for i in range(N):
            x[i] = x[i] + (dt / 6.0) * (
                r1[i][0] + 2.0 * r2[i][0] + 2.0 * r3[i][0] + r4[i][0]
            )
            st[i] = st[i] + (dt / 6.0) * (
                r1[i][1] + 2.0 * r2[i][1] + 2.0 * r3[i][1] + r4[i][1]
            )
        v = vf
        if not all(np.all(np.isfinite(xi)) for xi in x):
            raise DivergenceError(
                f"state became non-finite at t = {(k + 1) * dt:.6g}",
                t_bad=(k + 1) * dt,
            )
        if k + 1 in rec_set:
            record(row)
            row += 1

    y = tuple(rec_x[i] @ plant_mats[i][2].T for i in range(N))
    off = game.offsets
    y_full = np.hstack(y)
    pg = assemble_pseudo_gradient(game)
    e_full = y_full @ pg.Rbar.T + pg.Qbar
    e = tuple(e_full[:, off[i]:off[i + 1]] for i in range(N))
    return Trajectory(
        times=times, x=tuple(np.asarray(r) for r in rec_x),
        ctrl=tuple(np.asarray(r) for r in rec_st),
        y=y, e=e, w=tuple(np.asarray(r) for r in rec_w),
        y_star=solve_ne(pg),
    )


def convergence_metrics(tr, tol):
    """T_conv, final gap, and tail statistics of a recorded trajectory.

    T_conv is the first recorded time after which the output gap stays
    within tol for the rest of the horizon (None if it never does); the
    tail statistics cover the last 10% of samples.
    """
    if len(tr.times) == 0:
        raise DomainError("empty trajectory")
    gap = np.linalg.norm(tr.y_stacked() - tr.y_star, axis=1)
    err = np.linalg.norm(tr.e_stacked(), axis=1)
    K = len(tr.times)

    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(gap <= tol)))
    idx = np.argmax(suffix_ok) if suffix_ok.any() else None
    tail = max(1, K // 10)
    return {
        "T_conv": float(tr.times[idx]) if idx is not None else None,
        "final_output_gap": float(gap[-1]),
        "max_error_tail": float(np.max(err[-tail:])),
        "steady_oscillation": float(np.ptp(gap[-tail:])),
    }


def write_csv(tr, path):
    """One row per recorded sample; floats printed in round-trip form."""
    cols = ["t"]
    for name, series in (("y", tr.y), ("e", tr.e), ("w", tr.w)):
        for i, arr in enumerate(series, start=1):
            cols.extend(f"{name}_{i}_{k + 1}" for k in range(arr.shape[1]))
    table = np.column_stack([tr.times, *tr.y, *tr.e, *tr.w])
    with open(path, "w") as fh:
        fh.write(", ".join(cols) + "\n")
        # row by row: a list of every value at once would raise peak memory
        fh.writelines(", ".join(map(repr, row.tolist())) + "\n" for row in table)
