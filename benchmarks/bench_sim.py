"""Time the RK4 integration loop with and without the compiled kernel.

Builds the five-agent sensor-network scenario, synthesizes the
observer-based strategy, and integrates the closed loop for 1e5 steps
through both kernel paths.  Prints a small comparison table and checks
that the two paths agree bit for bit.

Run from the repository root:

    python benchmarks/bench_sim.py
"""

import time

import numpy as np
import scipy.linalg

from neseek._kernels import HAS_NUMBA, rk4_run
from neseek.game import cost_from_targets
from neseek.graph import CommGraph
from neseek.plant import AgentPlant, Exosystem
from neseek.synthesis import assemble_closed_loop, build_strategy

N_STEPS = 100_000
DT = 1.0e-3
STRIDE = 100
REPEATS = 5


def build_closed_loop():
    edges = [(1, 2), (1, 3), (2, 4), (3, 4), (3, 5)]
    graph = CommGraph(5, directed=True, edges=edges)
    targets = [(-1.0, 0.0), (1.0, -1.0), (2.0, -1.0), (-1.0, 2.0), (-2.0, 2.0)]
    game = cost_from_targets(targets, graph)

    A = np.block(
        [[np.zeros((2, 2)), np.eye(2)], [np.zeros((2, 2)), -0.2 * np.eye(2)]]
    )
    B = np.vstack([np.zeros((2, 2)), np.eye(2)])
    C = np.hstack([np.eye(2), np.zeros((2, 2))])
    P = np.vstack([np.zeros((2, 2)), np.eye(2)])
    S = np.array([[0.0, np.pi / 10.0], [-np.pi / 10.0, 0.0]])
    positions = [(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (2.0, 1.0), (2.0, -1.0)]

    plants = []
    exos = []
    for pos in positions:
        x0 = np.array([pos[0], pos[1], 0.0, 0.0])
        plants.append(AgentPlant(A=A, B=B, C=C, P=P, x0=x0))
        exos.append(Exosystem(S=S, w0=np.array([1.0, 0.0])))

    controllers = [
        build_strategy(plants[i], game.costs[i], exos[i], "digraph")
        for i in range(5)
    ]
    return assemble_closed_loop(game, plants, exos, controllers, "digraph")


def time_path(cl, use_numba):
    z0 = cl.initial_state()
    E_half = scipy.linalg.expm(cl.S_hat * (DT / 2.0))
    E_full = E_half @ E_half

    # Warm up: triggers JIT compilation on the numba path.
    rk4_run(cl.A_c, cl.P_c, E_half, E_full, z0, cl.v0, DT, 1000, STRIDE,
            use_numba=use_numba)

    best = np.inf
    out = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        Z, V, bad = rk4_run(cl.A_c, cl.P_c, E_half, E_full, z0, cl.v0,
                            DT, N_STEPS, STRIDE, use_numba=use_numba)
        best = min(best, time.perf_counter() - t0)
        out = (Z, V, bad)
    return best, out


def main():
    cl = build_closed_loop()
    print(f"state dimension {cl.dim_z}, exosystem dimension {cl.dim_v}, "
          f"{N_STEPS} steps of dt={DT}")

    t_numpy, (Z_np, V_np, bad_np) = time_path(cl, use_numba=False)
    rows = [("numpy", t_numpy)]

    if HAS_NUMBA:
        t_numba, (Z_nb, V_nb, bad_nb) = time_path(cl, use_numba=True)
        rows.append(("numba", t_numba))
        assert bad_np == bad_nb == 0
        dz = np.max(np.abs(Z_np - Z_nb))
        dv = np.max(np.abs(V_np - V_nb))
        print(f"max |Z_numpy - Z_numba| = {dz:.3e}, "
              f"max |V_numpy - V_numba| = {dv:.3e}")
    else:
        print("numba not importable; timing the numpy path only")

    print()
    print(f"{'kernel':<8} {'best of ' + str(REPEATS):>12} {'steps/s':>12}")
    for name, t in rows:
        print(f"{name:<8} {t:>11.3f}s {N_STEPS / t:>12.0f}")
    if len(rows) == 2:
        print(f"\nspeedup: {rows[0][1] / rows[1][1]:.2f}x")


if __name__ == "__main__":
    main()
