"""Command-line pipeline: check -> ne -> synth -> sim.

Exit status contract:
  0   success
  1   unexpected error
  2   scenario parse/validation error
  3   controller file does not match the scenario (stale hash)
  4   synthesis failure
  1k  assumption k in 1..6 failed (11..16); lowest number wins
"""

import argparse
import math
import sys

import numpy as np

from .errors import (
    AssumptionError,
    NeseekError,
    ScenarioError,
    StaleControllerError,
    SynthesisError,
)
from .game import assemble_pseudo_gradient, check_assumption_1, solve_ne
from .graph import check_acyclic, check_connected
from .plant import (
    check_assumption_2,
    check_assumption_3,
    check_assumption_4,
    sample_perturbation,
)
# scenario_hash stays importable here: perfbench's tracer wraps it by this name
from .scenario import (  # noqa: F401
    load_controllers,
    load_scenario,
    save_controllers,
    scenario_hash,
)
from .sim import SimConfig, Trajectory, convergence_metrics, simulate, write_csv
from .svgplot import line_plot
from .synthesis import (
    assemble_closed_loop,
    build_controller,
    certify_stability,
    solve_regulator,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_SCENARIO = 2
EXIT_STALE = 3
EXIT_SYNTH = 4

# bound on the regulator residuals, relative to their scales
REGULATOR_REL_TOL = 1e-8


def _exit_assumption(k):
    return 10 + k


def _fmt_eigs(eigs):
    return ", ".join(f"{complex(lam):.4g}" for lam in eigs)


def run_checks(scn, strategy):
    """Evaluate every assumption; returns (report rows, failing numbers).

    Rows are (label, status, detail) with status PASS/FAIL/n-a; the
    graph assumption not needed by ``strategy`` is reported n/a and
    never fails the run.
    """
    rows = []
    failures = []

    pg = assemble_pseudo_gradient(scn.game)
    ok, lam_min = check_assumption_1(pg)
    rows.append(("A1 pseudo-gradient strong monotonicity",
                 "PASS" if ok else "FAIL", f"lambda_min={lam_min:.6g}"))
    if not ok:
        failures.append(1)

    bad = [(i, offending) for i, exo in enumerate(scn.exos, start=1)
           for offending in [check_assumption_2(exo)[1]] if offending]
    rows.append(("A2 disturbance persistence (no decaying modes)",
                 "FAIL" if bad else "PASS",
                 "; ".join(f"agent {i}: {_fmt_eigs(o)}" for i, o in bad)))
    if bad:
        failures.append(2)

    bad = []
    for i, plant in enumerate(scn.plants, start=1):
        res = check_assumption_3(plant)
        for prop in ("stabilizable", "detectable"):
            if not res[prop]:
                bad.append(f"agent {i} not {prop} at "
                           f"{_fmt_eigs(res['witnesses'][prop])}")
    rows.append(("A3 stabilizability and detectability",
                 "FAIL" if bad else "PASS", "; ".join(bad)))
    if bad:
        failures.append(3)

    bad = []
    for i, (plant, exo) in enumerate(zip(scn.plants, scn.exos), start=1):
        ok, failing = check_assumption_4(plant, exo)
        if not ok:
            bad.append(f"agent {i} at {_fmt_eigs(failing)}")
    rows.append(("A4 rank condition at exosystem modes",
                 "FAIL" if bad else "PASS", "; ".join(bad)))
    if bad:
        failures.append(4)

    if strategy == "digraph":
        if not scn.graph.directed:
            rows.append(("A5 acyclic digraph", "FAIL", "graph is undirected"))
            failures.append(5)
        else:
            ok, witness = check_acyclic(scn.graph)
            rows.append(("A5 acyclic digraph", "PASS" if ok else "FAIL",
                         "order " + "->".join(map(str, witness)) if ok
                         else "cycle " + "->".join(map(str, witness))))
            if not ok:
                failures.append(5)
        rows.append(("A6 connected graph", "n/a", "general strategy only"))
    else:
        rows.append(("A5 acyclic digraph", "n/a", "digraph strategy only"))
        kind = check_connected(scn.graph)
        ok = kind != "disconnected"
        rows.append(("A6 connected graph", "PASS" if ok else "FAIL", kind))
        if not ok:
            failures.append(6)

    return rows, sorted(failures)


def cmd_check(path):
    scn = load_scenario(path)
    rows, failures = run_checks(scn, scn.strategy)
    width = max(len(r[0]) for r in rows)
    print(f"scenario: {scn.name or path} (strategy {scn.strategy})")
    for label, status, detail in rows:
        line = f"  {label:<{width}}  {status:<4}"
        if detail:
            line += f"  {detail}"
        print(line)
    if failures:
        print(f"failed assumptions: {failures}")
        return _exit_assumption(failures[0])
    print("all applicable assumptions hold")
    return EXIT_OK


def cmd_ne(path):
    scn = load_scenario(path)
    pg = assemble_pseudo_gradient(scn.game)
    ok, lam_min = check_assumption_1(pg)
    if not ok:
        print(
            f"error: pseudo-gradient not strongly monotone "
            f"(lambda_min={lam_min:.6g}); no unique NE certificate",
            file=sys.stderr,
        )
        return _exit_assumption(1)
    y_star = solve_ne(pg)
    residual = float(np.linalg.norm(pg.Rbar @ y_star + pg.Qbar))
    print(f"lambda_min = {lam_min!r}")
    for i in range(1, scn.agent_count + 1):
        block = scn.game.block(y_star, i)
        print(f"y*_{i} = [{', '.join(repr(float(v)) for v in block)}]")
    print(f"residual = {residual!r}")
    return EXIT_OK


def cmd_synth(path, out, strategy=None):
    scn = load_scenario(path)
    strategy = strategy or scn.strategy
    _, failures = run_checks(scn, strategy)
    if failures:
        print(
            f"error: assumptions {failures} fail; run the check command "
            f"for details",
            file=sys.stderr,
        )
        return _exit_assumption(failures[0])
    controllers = [
        build_controller(plant, cost, exo, scn.weights)
        for plant, cost, exo in zip(scn.plants, scn.game.costs, scn.exos)
    ]
    cl = assemble_closed_loop(scn.game, scn.plants, scn.exos, controllers, strategy)
    ok, abscissa = certify_stability(cl)
    if not ok:
        print(
            f"error: closed loop not Hurwitz (abscissa {abscissa:.6g}); "
            f"adjust the synthesis weights in the scenario",
            file=sys.stderr,
        )
        return EXIT_SYNTH
    reg = solve_regulator(cl)
    for name, residual, scale in (
        ("residual_dyn", reg.residual_dyn, reg.scale_dyn),
        ("residual_err", reg.residual_err, reg.scale_err),
    ):
        if not residual <= REGULATOR_REL_TOL * scale:
            print(
                f"error: regulator certificate fails: {name}={residual!r} "
                f"exceeds {REGULATOR_REL_TOL:g} * scale={scale!r}",
                file=sys.stderr,
            )
            return EXIT_SYNTH
    certificates = {
        "abscissa": abscissa,
        "residual_dyn": reg.residual_dyn,
        "residual_err": reg.residual_err,
        "scale_dyn": reg.scale_dyn,
        "scale_err": reg.scale_err,
    }
    save_controllers(out, scn, strategy, controllers, certificates)
    print(
        f"synthesized {len(controllers)} {strategy} controllers: "
        f"abscissa={abscissa!r}, residual_err={reg.residual_err!r}"
    )
    print(f"wrote {out}")
    return EXIT_OK


def _empty_trajectory(scn):
    y_star = solve_ne(assemble_pseudo_gradient(scn.game))
    dims = [c.p for c in scn.game.costs]
    return Trajectory(
        times=np.zeros(0),
        x=tuple(np.zeros((0, p.n)) for p in scn.plants),
        ctrl=tuple(np.zeros((0, 0)) for _ in scn.plants),
        y=tuple(np.zeros((0, d)) for d in dims),
        e=tuple(np.zeros((0, d)) for d in dims),
        w=tuple(np.zeros((0, e.q)) for e in scn.exos),
        y_star=y_star,
    )


def _bad_override(t_end, dt, perturb_scale):
    """Message naming the first sim override outside its domain, or None."""
    if dt is not None and not (0 < dt < math.inf):
        return f"--dt must be positive and finite, got {dt!r}"
    if t_end is not None and not (0 <= t_end < math.inf):
        return f"--t-end must be non-negative and finite, got {t_end!r}"
    if perturb_scale is not None and not (0 <= perturb_scale < math.inf):
        return f"--perturb-scale must be non-negative and finite, got {perturb_scale!r}"
    return None


def cmd_sim(path, controllers_path, out, svg=None, t_end=None, dt=None,
            perturb_scale=None, seed=0):
    bad = _bad_override(t_end, dt, perturb_scale)
    if bad:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_SCENARIO
    scn = load_scenario(path)
    bundle = load_controllers(controllers_path, scn)
    strategy, controllers = bundle["strategy"], bundle["controllers"]
    dt = scn.sim["dt"] if dt is None else float(dt)
    t_end = scn.sim["t_end"] if t_end is None else float(t_end)
    if 0 < t_end < dt:
        print(f"error: t_end {t_end!r} is shorter than dt {dt!r}", file=sys.stderr)
        return EXIT_SCENARIO

    plants = scn.plants
    if perturb_scale is not None:
        rng = np.random.default_rng(seed)
        plants = tuple(
            p.with_perturbation(**sample_perturbation(p, perturb_scale, rng))
            for p in plants
        )

    # overflowing gains are reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        cl = assemble_closed_loop(scn.game, plants, scn.exos, controllers, strategy)
    if not (np.all(np.isfinite(cl.A_c)) and np.all(np.isfinite(cl.P_c))):
        print(f"error: {controllers_path}: gains overflow the assembled "
              "closed loop (non-finite entries)", file=sys.stderr)
        return EXIT_SCENARIO
    ok, abscissa = certify_stability(cl)
    print(f"closed-loop abscissa: {abscissa!r}"
          + ("" if ok else " (NOT Hurwitz)"), file=sys.stderr)

    if t_end == 0:
        tr = _empty_trajectory(scn)
        write_csv(tr, out)
        print(f"wrote {out} (header only, zero horizon)", file=sys.stderr)
        return EXIT_OK

    cfg = SimConfig(dt=dt, t_end=t_end, record_stride=scn.sim["record_stride"])
    tr = simulate(cl, cfg)
    write_csv(tr, out)

    metrics = convergence_metrics(tr, tol=1e-3)
    t_conv = metrics["T_conv"]
    print(
        "summary: T_conv="
        + (f"{t_conv:.6g}" if t_conv is not None else "none")
        + f" final_output_gap={metrics['final_output_gap']:.6g}"
        + f" max_error_tail={metrics['max_error_tail']:.6g}"
        + f" steady_oscillation={metrics['steady_oscillation']:.6g}",
        file=sys.stderr,
    )
    print(f"wrote {out}", file=sys.stderr)

    if svg is not None:
        gap = np.linalg.norm(tr.y_stacked() - tr.y_star, axis=1)
        line_plot(
            tr.times, [gap], ["||y - y*||"],
            "Output gap vs NE", "||y - y*||", path=svg,
        )
        err_path = (
            svg[:-4] + ".errors.svg" if svg.endswith(".svg")
            else svg + ".errors.svg"
        )
        err_series = [np.linalg.norm(e_i, axis=1) for e_i in tr.e]
        labels = [f"||e_{i}||" for i in range(1, len(err_series) + 1)]
        line_plot(
            tr.times, err_series, labels,
            "Regulated errors", "||e_i||", path=err_path,
        )
        print(f"wrote {svg} and {err_path}", file=sys.stderr)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="neseek",
        description=(
            "Synthesize and simulate distributed NE-seeking output-feedback "
            "controllers for network games of uncertain linear agents."
        ),
        epilog=(
            "exit status: 0 ok, 1 unexpected, 2 scenario error, "
            "3 stale controllers, 4 synthesis failure, 11-16 assumption 1-6"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run every assumption checker")
    p.add_argument("scenario")

    p = sub.add_parser("ne", help="print the Nash equilibrium")
    p.add_argument("scenario")

    p = sub.add_parser("synth", help="synthesize controllers + certificates")
    p.add_argument("scenario")
    p.add_argument("--strategy", choices=["digraph", "general"], default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sim", help="simulate a synthesized closed loop")
    p.add_argument("scenario")
    p.add_argument("--controllers", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--perturb-scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args.scenario)
        if args.command == "ne":
            return cmd_ne(args.scenario)
        if args.command == "synth":
            return cmd_synth(args.scenario, args.out, strategy=args.strategy)
        if args.command == "sim":
            return cmd_sim(
                args.scenario, args.controllers, args.out, svg=args.svg,
                t_end=args.t_end, dt=args.dt,
                perturb_scale=args.perturb_scale, seed=args.seed,
            )
        return EXIT_UNEXPECTED
    except StaleControllerError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_STALE
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCENARIO
    except SynthesisError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SYNTH
    except AssumptionError as err:
        print(f"error: {err}", file=sys.stderr)
        return _exit_assumption(err.number)
    except NeseekError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNEXPECTED
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
