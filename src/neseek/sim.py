"""Closed-loop trajectories: the stacked propagator and the per-agent reference loop.

Both paths take classic RK4 steps with the exogenous vector advanced by
its exact matrix exponential.  The stacked path applies one RK4 step as
a precomputed matrix on [z; v], and its powers between recorded samples;
``propagate`` yields its records in blocks of BLOCK_ROWS, which
``simulate`` collects and ``write_records`` streams to a CSV.  The
distributed path runs the same stages agent by agent behind neighbor
read gates and is the reference loop the stacked path is compared with.
"""

import functools
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DimensionError, DivergenceError, DomainError, FirewallViolation
from .game import assemble_pseudo_gradient, solve_ne
from .graph import neighbors
from .linalg import expm

__all__ = [
    "SimConfig",
    "Trajectory",
    "NeighborView",
    "rk4_radius",
    "rk4_dt_limit",
    "propagate",
    "block_outputs",
    "simulate",
    "simulate_distributed",
    "series_metrics",
    "csv_rows",
    "write_records",
]


@dataclass(frozen=True)
class SimConfig:
    """Step, horizon and recording stride; ``t_end`` is 0 or a whole number of steps."""

    dt: float
    t_end: float
    record_stride: int = 1

    def __post_init__(self):
        dt, t_end = self.dt, self.t_end
        if not (isinstance(dt, Real) and 0 < dt < np.inf):
            raise DomainError(f"dt must be positive and finite, got {dt!r}")
        if not (isinstance(t_end, Real) and 0 <= t_end < np.inf):
            raise DomainError(f"t_end must be non-negative and finite, got {t_end!r}")
        if 0 < t_end < dt:
            raise DomainError(f"t_end {t_end!r} is shorter than dt {dt!r}")
        steps = t_end / dt
        if not steps < np.inf:
            raise DomainError(f"t_end {t_end!r} at dt {dt!r} is more steps than a float can count")
        nearest = float(np.rint(steps))
        if not abs(steps - nearest) <= 1e-9 * steps:
            raise DomainError(
                f"t_end {t_end!r} is not a whole number of dt {dt!r} steps; "
                f"the nearest reachable t_end is {nearest * dt:.6g}"
            )
        stride = self.record_stride
        if not (isinstance(stride, Real) and 1 <= stride < np.inf and stride % 1 == 0):
            raise DomainError(f"record_stride {stride!r} is not a positive integer")
        object.__setattr__(self, "record_stride", int(stride))

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))

    @property
    def n_records(self):
        return -(-self.n_steps // self.record_stride) + 1

    def record_step_range(self, start, stop):
        """Steps of records start..stop-1; record k is at ``min(k * stride, n_steps)``."""
        n, stride = self.n_steps, self.record_stride  # Python ints: k * stride is exact
        return np.array([min(k * stride, n) for k in range(start, stop)], dtype=np.int64)


@dataclass(frozen=True)
class Trajectory:
    """Recorded series, one row per record, stacked agent-major.

    ``Z`` is in the loop's z layout (``[x_i; xi_i; zeta_i]`` per agent),
    ``Y`` and ``E`` in the game's output layout, and ``W`` holds each
    agent's disturbance w_i in agent order; ``cl.x_slices``,
    ``cl.ctrl_slices`` and ``cl.out_slices`` pick out one agent.
    """

    times: np.ndarray
    Z: np.ndarray
    Y: np.ndarray
    E: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        for name in ("Z", "Y", "E", "W"):
            if getattr(self, name).shape[0] != len(self.times):
                raise DimensionError(f"{name} has {getattr(self, name).shape[0]} rows, "
                                     f"times has {len(self.times)}")


# records propagated and tested for finiteness at once, and CSV rows
# formatted at once; at 64 a block's strings (about 0.2 MB) do not raise
# sim's peak memory
BLOCK_ROWS = 64


def _exo_steppers(S_hat, dt):
    E_half = expm(S_hat * (dt / 2.0))
    return E_half, E_half @ E_half


# RK4's stability polynomial T4(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, ascending
RK4_T4 = np.array([1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0])


def rk4_radius(eigs, dt):
    """Spectral radius of the z-block of the RK4 step map, ``max |T4(dt lam)|``.

    The z-block is ``T4(dt A_c)``, so its eigenvalues are ``T4(dt lam)``
    over the eigenvalues ``eigs`` of A_c.  A step so long that T4
    overflows reads as an infinite radius.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.abs(np.polyval(RK4_T4[::-1], dt * np.asarray(eigs)))
    return float(np.max(np.where(np.isfinite(values), values, np.inf), initial=0.0))


def rk4_dt_limit(eigs):
    """Largest step below which every ``|T4(dt lam)| < 1``, for Hurwitz ``eigs``.

    For each eigenvalue the first step where ``|T4(dt lam)|^2 - 1``, a
    degree-8 polynomial in dt with a root at 0, returns to zero.  T4
    depends on ``dt lam`` only, so the roots are found in ``dt |lam|``
    for the unit ``lam / |lam|`` and divided by ``|lam|``: no power of
    a large ``lam`` overflows.
    """
    limit = np.inf
    eigs = np.asarray(eigs)
    for lam in np.unique(eigs[eigs != 0]):
        a = RK4_T4 * (lam / abs(lam)) ** np.arange(5)
        p = np.convolve(a, a.conj()).real
        roots = np.roots(p[:0:-1])  # p(tau) / tau, highest power first
        real = roots[(np.abs(roots.imag) <= 1e-9 * np.abs(roots)) & (roots.real > 0)]
        if real.size:
            limit = min(limit, float(np.min(real.real)) / abs(lam))
    return limit


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


def propagate(cl, cfg, z0=None):
    """Yield the recorded ``(times, [z; v])`` of the stacked loop, one block at a time.

    Blocks hold at most BLOCK_ROWS records; records follow one another by
    powers of the RK4 step map, v advancing exactly.  A block is yielded
    only once its z-part is finite; otherwise DivergenceError names the
    first step whose state is non-finite, which is how an unstable
    assembly surfaces.  Only the current block and the record before it
    are held.  A horizon of more steps than an int64 holds raises DomainError.
    """
    z0 = cl.initial_state() if z0 is None else np.asarray(z0, dtype=float)
    if z0.shape != (cl.dim_z,):
        raise DimensionError(f"z0 must have {cl.dim_z} entries, got {z0.shape}")
    if cfg.n_steps > np.iinfo(np.int64).max:
        raise DomainError(f"t_end {cfg.t_end!r} at dt {cfg.dt!r} is {cfg.n_steps} steps, "
                          "more than an int64 can count")
    dz = cl.dim_z
    # huge gains may overflow M itself; the replay below reports the step
    with np.errstate(over="ignore", invalid="ignore"):
        M = _rk4_map(cl.A_c, cl.P_c, *_exo_steppers(cl.S_hat, cfg.dt), cfg.dt)
    # two powers at most: the stride's, and the last record's partial stride's
    power = functools.cache(lambda n: np.linalg.matrix_power(M, n))
    x = np.concatenate([z0, cl.v0])
    last = 0  # the step of the record before the block
    for start in range(0, cfg.n_records, BLOCK_ROWS):
        steps = cfg.record_step_range(start, min(start + BLOCK_ROWS, cfg.n_records))
        jumps = np.diff(steps, prepend=last).tolist()  # steps from the record before
        last = steps[-1]
        block = np.empty((len(steps), x.size))
        # the record before the block; the first block starts with it
        prev = block[0] = x
        r = 1 if start == 0 else 0
        # errors stay ignored only while the block is computed, never
        # while its consumer runs
        with np.errstate(over="ignore", invalid="ignore"):
            while r < len(block):
                # propagate the rest of the block, then test its z-part once
                for j in range(r, len(block)):
                    x = block[j] = power(jumps[j]) @ x
                finite = np.isfinite(block[r:, :dz]).all(axis=1)
                if finite.all():
                    break
                # at the first non-finite record the state or only M^n
                # overflowed: replay its stride one step at a time
                r += int(np.argmin(finite))
                x = block[r - 1] if r else prev
                for step in range(int(steps[r]) - jumps[r] + 1, int(steps[r]) + 1):
                    x = M @ x
                    if not np.isfinite(x[:dz]).all():
                        raise DivergenceError(
                            f"state became non-finite at t = {step * cfg.dt:.6g}",
                            t_bad=step * cfg.dt,
                        )
                block[r] = x
                r += 1
        yield steps * cfg.dt, block


def block_outputs(cl, X):
    """Stacked y, e and w of a block of ``[z; v]`` records."""
    Z, V = X[:, :cl.dim_z], X[:, cl.dim_z:]
    w = np.hstack([V[:, sl.start:sl.start + exo.q] for sl, exo in zip(cl.v_slices, cl.exos)])
    return Z @ cl.C_out.T, Z @ cl.C_c.T + V @ cl.Q_c.T, w


def simulate(cl, cfg, z0=None):
    """Integrate the stacked closed loop into one Trajectory; v is advanced exactly.

    Collects the blocks of ``propagate``, then takes the y, e and w of
    each block; raises its DivergenceError.
    """
    times, X = zip(*propagate(cl, cfg, z0))
    Y, E, W = (np.concatenate(a) for a in zip(*(block_outputs(cl, block) for block in X)))
    return Trajectory(np.concatenate(times), np.concatenate(X)[:, :cl.dim_z], Y, E, W)


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


def _agent_rate(plant, cost, c, view, observer_mode):
    """Agent i's rate of ``s = [x_i; xi_i; zeta_i]``, with its matrices built once.

    The rate reads the agent's own state, output and disturbance, and
    its neighbors' outputs (for the general strategy also their
    observer outputs) through ``view`` only.
    """
    n, p, v = plant.n, c.p, c.G1.shape[0]
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


def simulate_distributed(cl, cfg):
    """Integrate the loop of ``cl`` agent by agent behind NeighborView read gates.

    Reads the game, plants, exosystems, controllers and strategy that
    ``assemble_closed_loop`` checked, never the matrices it built.
    Agent i's state is ``[x_i; xi_i; zeta_i]``, started at its plant's
    ``x0`` with zero controller state; its exosystem starts at ``w0``.
    Each stage first broadcasts every agent's y_i (and C_i xi_i for the
    general strategy), then evaluates each agent's rate from its own
    state plus gated neighbor reads only.  Matches simulate() within
    1e-9 per sample.
    """
    game, plants, exos, controllers = cl.game, cl.plants, cl.exos, cl.controllers
    observer_mode = cl.strategy == "general"

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
    E_halfs = [_exo_steppers(e.S, cfg.dt)[0] for e in exos]
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
            raise DivergenceError(f"state became non-finite at t = {k * dt:.6g}",
                                  t_bad=k * dt)
        if k % stride == 0 or k == n_steps:
            records.append((np.concatenate(s), np.concatenate(w)))

    Z, W = (np.array(a) for a in zip(*records))
    offsets = np.cumsum([0] + [si.size for si in s])
    Y = np.hstack([Z[:, o:o + n] @ C.T for o, n, C in zip(offsets, ns, C_mus)])
    pg = assemble_pseudo_gradient(game)
    return Trajectory(cfg.record_step_range(0, cfg.n_records) * dt,
                      Z, Y, Y @ pg.Rbar.T + pg.Qbar, W)


def series_metrics(times, gap, err, tol):
    """T_conv, final and peak gap, and tail statistics of recorded series.

    ``gap`` is the output gap ||y - y*|| and ``err`` the stacked error
    norm ||e|| at each of ``times``.  T_conv is the first recorded time
    after which the gap stays within tol for the rest of the horizon
    (None if it never does); t_peak is the first recorded time of the
    largest gap; the tail statistics cover the last 10% of samples.
    """
    K = len(times)
    if K == 0:
        raise DomainError("empty trajectory")
    suffix_ok = np.flip(np.logical_and.accumulate(np.flip(gap <= tol)))
    idx = np.argmax(suffix_ok) if suffix_ok.any() else None
    tail = max(1, K // 10)
    peak = int(np.argmax(gap))
    # a tail that overflowed reports inf, not the NaN of inf - inf
    finite_tail = np.isfinite(gap[-tail:]).all()
    return {
        "T_conv": float(times[idx]) if idx is not None else None,
        "final_output_gap": float(gap[-1]),
        "peak_output_gap": float(gap[peak]),
        "t_peak": float(times[peak]),
        "max_error_tail": float(np.max(err[-tail:])),
        "steady_oscillation": float(np.ptp(gap[-tail:])) if finite_tail else np.inf,
    }


def csv_rows(arrays):
    """CSV lines of a block of records, given as 2-D arrays of its columns.

    Every field is the repr of its float.  Each column is formatted
    once, and a column bitwise equal to an earlier one in the block
    (agents sharing an exosystem and w0) reuses its strings.
    """
    formatted = {}
    columns = []
    for arr in arrays:
        for col in arr.T:
            key = col.tobytes()
            if key not in formatted:
                formatted[key] = list(map(repr, col.tolist()))
            columns.append(formatted[key])
    return "".join(", ".join(row) + "\n" for row in zip(*columns))


def write_records(cl, cfg, fh):
    """Stream the stacked loop's records to ``fh`` as CSV; return the kept series.

    The header names t, then each agent's y, e and w columns; each block
    of ``propagate`` becomes its ``csv_rows``.  Only the series a summary
    or a plot reads are kept, as rows: times, ||y - y*||, ||e||, then
    each agent's ||e_i||.  Raises the DivergenceError of ``propagate``,
    and DomainError when the kept rows cannot be allocated.
    """
    y_star = solve_ne(assemble_pseudo_gradient(cl.game))
    # a horizon of more records than can be allocated fails before a record is taken
    try:
        kept = np.empty((3 + len(cl.out_slices), cfg.n_records))
    except (MemoryError, ValueError):
        raise DomainError(f"t_end {cfg.t_end!r} at dt {cfg.dt!r} is {cfg.n_records} "
                          "records, more than can be allocated") from None
    cols = ["t"]
    widths = [sl.stop - sl.start for sl in cl.out_slices]
    for name, ws in (("y", widths), ("e", widths), ("w", [exo.q for exo in cl.exos])):
        for i, width in enumerate(ws, start=1):
            cols.extend(f"{name}_{i}_{k + 1}" for k in range(width))
    fh.write(", ".join(cols) + "\n")
    k = 0
    for t, X in propagate(cl, cfg):
        rows = slice(k, k + len(t))
        k = rows.stop
        kept[0, rows] = t
        # a diverging loop's last finite blocks may overflow these;
        # propagate reports the divergence
        with np.errstate(over="ignore", invalid="ignore"):
            y, e, w = block_outputs(cl, X)
            kept[1, rows] = np.linalg.norm(y - y_star, axis=1)
            kept[2, rows] = np.linalg.norm(e, axis=1)
            for i, sl in enumerate(cl.out_slices, start=3):
                kept[i, rows] = np.linalg.norm(e[:, sl], axis=1)
        fh.write(csv_rows([t[:, None], y, e, w]))
    return kept
