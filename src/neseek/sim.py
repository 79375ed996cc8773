"""Closed-loop trajectories of the stacked loop, streamed to a CSV.

RK4 steps with the exogenous vector advanced by its exact matrix
exponential, applied as one precomputed matrix on [z; v] and its powers
between recorded samples.  ``propagate`` yields the records in blocks
of BLOCK_ROWS, which ``write_records`` streams to a CSV.
"""

import functools
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import NeseekError, ScenarioError
from .linalg import expm

__all__ = [
    "SimConfig",
    "rk4_radius",
    "rk4_dt_limit",
    "propagate",
    "block_outputs",
    "series_metrics",
    "csv_rows",
    "write_records",
]


@dataclass(frozen=True)
class SimConfig:
    """Step, horizon and recording stride; ``t_end`` is 0 or a whole number of steps."""

    dt: float
    t_end: float
    record_stride: int

    def __post_init__(self):
        dt, t_end = self.dt, self.t_end
        if not (isinstance(dt, Real) and 0 < dt < np.inf):
            raise ScenarioError(f"dt must be positive and finite, got {dt!r}")
        if not (isinstance(t_end, Real) and 0 <= t_end < np.inf):
            raise ScenarioError(f"t_end must be non-negative and finite, got {t_end!r}")
        if 0 < t_end < dt:
            raise ScenarioError(f"t_end {t_end!r} is shorter than dt {dt!r}")
        steps = t_end / dt
        if not steps < np.inf:
            raise ScenarioError(f"t_end {t_end!r} at dt {dt!r} is more steps than a float can count")
        nearest = float(np.rint(steps))
        if not abs(steps - nearest) <= 1e-9 * steps:
            raise ScenarioError(
                f"t_end {t_end!r} is not a whole number of dt {dt!r} steps; "
                f"the nearest reachable t_end is {nearest * dt:.6g}"
            )
        stride = self.record_stride
        if not (isinstance(stride, Real) and 1 <= stride < np.inf and stride % 1 == 0):
            raise ScenarioError(f"record_stride {stride!r} is not a positive integer")
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
    of the result is E_full and its lower-left block is zero.  The z-rows
    are ``[I 0] + dt/6 ((k1 + 2 k2 + 2 k3) + k4)``, summed in that order
    in the result's own rows while the stages are formed one at a time:
    besides the result, two dz x (dz + dv) buffers are held, the stage's
    argument and the stage.
    """
    dz, dv = P_c.shape
    M = np.zeros((dz + dv, dz + dv))
    M[dz:, dz:] = E_full
    acc = M[:dz]
    acc[:, :dz], acc[:, dz:] = A_c, P_c  # k1
    diag = np.arange(dz)
    arg, k = np.empty_like(acc), np.empty_like(acc)
    PE_half = P_c @ E_half
    stages = ((0.5 * dt, PE_half), (0.5 * dt, PE_half), (dt, P_c @ E_full))
    for j, (h, P_v) in enumerate(stages, start=1):
        prev = acc if j == 1 else k  # k_j
        np.multiply(prev, h, out=arg)
        arg[diag, diag] += 1.0  # [I 0] + h k_j
        if j > 1:  # k2 and k3 enter the sum twice
            k *= 2.0
            acc += k
        np.matmul(A_c, arg, out=k)
        k[:, dz:] += P_v  # k_{j+1}
    acc += k  # k4
    acc *= dt / 6.0
    acc[diag, diag] += 1.0
    return M


def propagate(cl, cfg):
    """Yield the recorded ``(times, [z; v])`` of the stacked loop, one block at a time.

    The loop starts at ``cl.z0`` and ``cl.v0``.  Blocks hold at most
    BLOCK_ROWS records; records follow one another by powers of the RK4
    step map, v advancing exactly.  A block is yielded only once its
    z-part is finite; otherwise NeseekError names the first step whose
    state is non-finite, which is how an unstable assembly surfaces.
    Only the current block and the record before it are held.  A horizon
    of more steps than an int64 holds raises NeseekError too.
    """
    if cfg.n_steps > np.iinfo(np.int64).max:
        raise NeseekError(f"t_end {cfg.t_end!r} at dt {cfg.dt!r} is {cfg.n_steps} steps, "
                          "more than an int64 can count")
    dz = cl.dim_z
    # huge gains may overflow M itself; the replay below reports the step
    with np.errstate(over="ignore", invalid="ignore"):
        M = _rk4_map(cl.A_c, cl.P_c, *_exo_steppers(cl.S_hat, cfg.dt), cfg.dt)
    # two powers at most: the stride's, and the last record's partial stride's
    power = functools.cache(lambda n: np.linalg.matrix_power(M, n))
    x = np.concatenate([cl.z0, cl.v0])
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
                        raise NeseekError(
                            f"state became non-finite at t = {step * cfg.dt:.6g}")
                block[r] = x
                r += 1
        yield steps * cfg.dt, block


def block_outputs(cl, X):
    """Stacked y, e and w of a block of ``[z; v]`` records; w omits the constant channels."""
    Z, V = X[:, :cl.dim_z], X[:, cl.dim_z:]
    w = np.hstack([V[:, sl.start:sl.stop - 1] for sl in cl.v_slices])
    return Z @ cl.C_out.T, Z @ cl.C_c.T + V @ cl.Q_c.T, w


def series_metrics(times, gap, err, tol):
    """T_conv, final and peak gap, and tail statistics of recorded series.

    ``gap`` is the output gap ||y - y*|| and ``err`` the stacked error
    norm ||e|| at each of ``times``.  T_conv is the first recorded time
    after which the gap stays within tol for the rest of the horizon
    (None if it never does); t_peak is the first recorded time of the
    largest gap; the tail statistics cover the last 10% of samples.
    """
    K = len(times)
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


def write_records(cl, cfg, fh, y_star):
    """Stream the stacked loop's records to ``fh`` as CSV; return the kept series.

    The header names t, then each agent's y, e and w columns; each block
    of ``propagate`` becomes its ``csv_rows``.  Only the series a summary
    or a plot reads are kept, as rows: times, ||y - y_star||, ||e||,
    then each agent's ||e_i||.  Raises NeseekError as ``propagate``
    does, and when the kept rows cannot be allocated.
    """
    # a horizon of more records than can be allocated fails before a record is taken
    try:
        kept = np.empty((3 + len(cl.out_slices), cfg.n_records))
    except (MemoryError, ValueError):
        raise NeseekError(f"t_end {cfg.t_end!r} at dt {cfg.dt!r} is {cfg.n_records} "
                          "records, more than can be allocated") from None
    cols = ["t"]
    widths = [sl.stop - sl.start for sl in cl.out_slices]
    w_widths = [sl.stop - sl.start - 1 for sl in cl.v_slices]
    for name, ws in (("y", widths), ("e", widths), ("w", w_widths)):
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
