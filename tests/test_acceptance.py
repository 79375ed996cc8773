"""Acceptance gate: ten end-to-end criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line;
each test fails if its criterion (including the runtime budget) fails.
"""

import dataclasses
import json
import time

import numpy as np

from conftest import (
    _build,
    evaluate_cost,
    sensor_exos,
    sensor_plants,
    sensor_scenario_doc,
    steady_state,
    verify_internal_model,
)
from reference_loop import simulate, simulate_distributed
from neseek.cli import main
from neseek.game import solve_ne
from neseek.internal_model import build_p_copy
from neseek.linalg import minimal_polynomial
from neseek.plant import check_assumption_4, sample_perturbation
from neseek.sim import SimConfig
from neseek.synthesis import assemble_closed_loop, certify_stability


def report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {label} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def tail_gap(tr, y_star, window=10.0):
    mask = tr.times >= tr.times[-1] - window
    gap = np.linalg.norm(tr.Y - y_star, axis=1)
    return float(np.max(gap[mask]))


def test_criterion_01_ne_reproduction():
    b = _build("digraph")
    t0 = time.perf_counter()
    y = solve_ne(b.pg)
    elapsed = time.perf_counter() - t0
    expected = np.array([-1.0, 0.0, 0.0, -0.5, 0.5, -0.5, -0.166, 0.333])
    dev = float(np.max(np.abs(y[:8] - expected)))
    ok = dev <= 1e-3 and np.all(np.isfinite(y[8:])) and elapsed < 0.1
    report(1, "equilibrium reproduction (agents 1-4)", ok,
           f"max dev {dev:.2e}, agent 5 = {y[8]:.4f},{y[9]:.4f}, {elapsed:.3f} s")


def test_criterion_02_ne_certificate():
    t0 = time.perf_counter()
    worst_resid = 0.0
    worst_drop = 0.0
    for strategy in ("digraph", "general"):
        b = _build(strategy)
        y_star = solve_ne(b.pg)
        resid = np.linalg.norm(b.pg.Rbar @ y_star + b.pg.Qbar)
        scale = np.linalg.norm(b.pg.Rbar) * np.linalg.norm(y_star)
        scale += np.linalg.norm(b.pg.Qbar)
        worst_resid = max(worst_resid, float(resid / scale))
        rng = np.random.default_rng(7)
        offset = 0
        for i in range(1, len(b.game.costs) + 1):
            p = b.game.costs[i - 1].R_ii.shape[0]
            base = evaluate_cost(b.game, i, y_star)
            for _ in range(100):
                y_dev = y_star.copy()
                y_dev[offset:offset + p] += rng.normal(size=p)
                drop = base - evaluate_cost(b.game, i, y_dev)
                worst_drop = max(worst_drop, float(drop))
            offset += p
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-10 and worst_drop <= 1e-9 and elapsed < 1.0
    report(2, "equilibrium certificate + unilateral deviations", ok,
           f"scaled residual {worst_resid:.2e}, best drop {worst_drop:.2e}, "
           f"{elapsed:.3f} s")


def test_criterion_03_synthesis_certificates():
    t0 = time.perf_counter()
    details = []
    ok = True
    for strategy in ("digraph", "general"):
        b = _build(strategy)
        hurwitz, abscissa = certify_stability(b.cl)
        ok &= hurwitz and abscissa < 0.0
        ok &= b.reg.residual_dyn <= 1e-8 * b.reg.scale_dyn
        ok &= b.reg.residual_err <= 1e-8 * b.reg.scale_err
        details.append(f"{strategy} abscissa {abscissa:.4f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(3, "synthesis certificates (both strategies)", ok,
           f"{'; '.join(details)}, {elapsed:.3f} s")


def test_criterion_04_regulation_under_disturbance():
    t0 = time.perf_counter()
    cfg = SimConfig(dt=1e-3, t_end=100.0, record_stride=100)
    worst_e = 0.0
    worst_y = 0.0
    w_floor = np.inf
    for strategy in ("digraph", "general"):
        b = _build(strategy)
        tr = simulate(b.cl, cfg)
        mask = tr.times >= 90.0
        e_norm = np.linalg.norm(tr.E, axis=1)
        worst_e = max(worst_e, float(np.max(e_norm[mask])))
        worst_y = max(worst_y, tail_gap(tr, solve_ne(b.pg)))
        w_norm = np.linalg.norm(tr.W, axis=1)
        w_floor = min(w_floor, float(np.min(w_norm) / w_norm[0]))
    elapsed = time.perf_counter() - t0
    ok = worst_e <= 1e-3 and worst_y <= 1e-3 and w_floor >= 0.9
    ok &= elapsed < 30.0
    report(4, "regulation with persistent disturbance", ok,
           f"tail error {worst_e:.2e}, tail gap {worst_y:.2e}, "
           f"disturbance floor {w_floor:.3f}, {elapsed:.1f} s")


def test_criterion_05_robust_convergence_sampling():
    t0 = time.perf_counter()
    scale = 0.02
    cfg = SimConfig(dt=1e-3, t_end=100.0, record_stride=100)
    certified = 0
    worst = 0.0
    rng = np.random.default_rng(2026)
    for strategy in ("digraph", "general"):
        b = _build(strategy)
        for _ in range(10):
            perts = [sample_perturbation(p, scale, rng) for p in b.plants]
            plants_mu = tuple(
                dataclasses.replace(p, **d) for p, d in zip(b.plants, perts)
            )
            cl_mu = assemble_closed_loop(
                b.game, plants_mu, b.exos, b.controllers, strategy
            )
            hurwitz, _ = certify_stability(cl_mu)
            if not hurwitz:
                continue
            certified += 1
            worst = max(worst, tail_gap(simulate(cl_mu, cfg), solve_ne(b.pg)))
    elapsed = time.perf_counter() - t0
    ok = certified == 20 and worst <= 1e-3 and elapsed < 120.0
    report(5, f"robustness sampling at scale {scale}", ok,
           f"{certified}/20 draws certified, worst tail gap {worst:.2e}, "
           f"{elapsed:.1f} s")


def test_criterion_06_strategy_gates(tmp_path, capsys):
    doc = sensor_scenario_doc("digraph")
    doc["graph"]["edges"].append([4, 1])
    cyc = tmp_path / "cycle.json"
    cyc.write_text(json.dumps(doc))
    rc_cycle = main(["check", str(cyc)])

    doc = sensor_scenario_doc("general")
    doc["graph"]["edges"] = [[1, 2], [2, 1]]
    disc = tmp_path / "disconnected.json"
    disc.write_text(json.dumps(doc))
    rc_disc = main(["check", str(disc)])
    capsys.readouterr()

    ok = rc_cycle == 15 and rc_disc == 16
    report(6, "strategy gates reject cycle / disconnection", ok,
           f"cycle exit {rc_cycle}, disconnected exit {rc_disc}")


def test_criterion_07_internal_model_properties():
    S_hat = sensor_exos()[0].S_tilde
    want = minimal_polynomial(S_hat)
    s = want.size - 1
    ok = True
    details = []
    for p in (1, 2, 3):
        G1, G2 = build_p_copy(S_hat, p)
        ok &= G1.shape == (p * s, p * s) and G2.shape == (p * s, p)
        ok &= verify_internal_model(G1, G2, S_hat)
        for k in range(p):
            rows = slice(k * s, (k + 1) * s)
            beta, sigma = G1[rows, rows], G2[rows, k:k + 1]
            char = np.poly(beta)[::-1]
            ok &= float(np.max(np.abs(char - want))) <= 1e-8
            krylov = np.hstack(
                [np.linalg.matrix_power(beta, j) @ sigma for j in range(s)]
            )
            ok &= np.linalg.matrix_rank(krylov) == s
    details.append(f"dim {s} per copy")
    G1, G2 = build_p_copy(np.zeros((1, 1)), 2)
    ok &= np.array_equal(G1, np.zeros((2, 2)))
    ok &= np.array_equal(G2, np.eye(2))
    details.append("constant-only model is (0, I)")
    report(7, "internal-model structure", ok, ", ".join(details))


def test_criterion_08_rank_invariance_suite():
    t0 = time.perf_counter()
    plants = sensor_plants()
    exos = sensor_exos()
    ok = not any(check_assumption_4(p, e) for p, e in zip(plants, exos))
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(100):
        D = rng.normal(size=(2, 2))
        while abs(np.linalg.det(D)) < 1e-3:
            D = rng.normal(size=(2, 2))
        for plant, exo in zip(plants, exos):
            # the A4 pencil with C replaced by D C
            ok &= not check_assumption_4(dataclasses.replace(plant, C=D @ plant.C), exo)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(8, "output-scaling rank invariance", ok,
           f"{checked} scaled pencils held rank, {elapsed:.2f} s")


def test_criterion_09_distributed_matches_stacked():
    t0 = time.perf_counter()
    cfg = SimConfig(dt=1e-3, t_end=10.0, record_stride=100)
    worst = 0.0
    for strategy in ("digraph", "general"):
        b = _build(strategy)
        tr_s = simulate(b.cl, cfg)
        tr_d = simulate_distributed(b.game, b.plants, b.exos, b.controllers, strategy, cfg)
        for field in ("Z", "Y", "E", "W"):
            dev = np.max(np.abs(getattr(tr_s, field) - getattr(tr_d, field)))
            worst = max(worst, float(dev))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    report(9, "distributed equals stacked simulation", ok,
           f"max per-sample deviation {worst:.2e}, {elapsed:.1f} s")


def test_criterion_10_steady_state_cross_oracle():
    ok = True
    details = []
    for strategy in ("digraph", "general"):
        b = _build(strategy)
        _, _, y_ss = steady_state(b.reg, b.cl, b.controllers, b.cl.v0)
        gap = float(np.max(np.abs(y_ss - solve_ne(b.pg))))
        ok &= gap <= 1e-6
        details.append(f"{strategy} gap {gap:.2e}")
    report(10, "invariant-subspace output equals equilibrium", ok,
           ", ".join(details))
