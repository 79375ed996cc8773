"""Command-line pipeline: check -> ne -> synth -> sim.

A command that fails raises a typed error; ``main`` alone prints its one
``error:`` line on stderr and maps it to the exit status by EXIT_CODES:
  0   success
  1   unexpected error (a diverging simulation, a horizon too long to
      record, an OS error)
  2   scenario parse/validation error
  3   controller file does not match the scenario (stale hash)
  4   synthesis failure, or a certified loop whose RK4 step map is unstable
  1k  assumption k in 1..6 failed (11..16); lowest number wins
``check`` reports failing assumptions in its table instead, and exits
1k with no ``error:`` line.
"""

import argparse
import contextlib
import dataclasses
import errno
import math
import os
import sys

import numpy as np

from .errors import (
    AssumptionError,
    DomainError,
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
from .rng import Generator
from .scenario import load_controllers, load_scenario, save_controllers
from .sim import rk4_dt_limit, rk4_radius, series_metrics, write_records
from .svgplot import line_plot
from .synthesis import (
    STRATEGIES,
    assemble_closed_loop,
    build_controller,
    certify_stability,
    solve_regulator,
    worst_agent,
)

EXIT_OK = 0
EXIT_ASSUMPTION = 10  # plus the number of the failing assumption

# first matching type wins
EXIT_CODES = (
    (StaleControllerError, 3),
    (ScenarioError, 2),
    (SynthesisError, 4),
    (AssumptionError, EXIT_ASSUMPTION),
    (NeseekError, 1),
    (OSError, 1),
)

# bound on the regulator residuals, relative to their scales
REGULATOR_REL_TOL = 1e-8

# bound on a bundle's stored abscissa vs the one sim recomputes,
# relative to max(1, |stored|)
CERTIFICATE_REL_TOL = 1e-9

# domains of the sim overrides: (rule, test)
POSITIVE_FINITE = ("positive and finite", lambda v: 0 < v < math.inf)
NON_NEGATIVE_FINITE = ("non-negative and finite", lambda v: 0 <= v < math.inf)
NON_NEGATIVE = ("non-negative", lambda v: v >= 0)


def exit_code(err):
    """Exit status of an error listed in EXIT_CODES."""
    code = next(code for kind, code in EXIT_CODES if isinstance(err, kind))
    return code + err.number if isinstance(err, AssumptionError) else code


def _fmt_eigs(eigs):
    return ", ".join(f"{complex(lam):.4g}" for lam in eigs)


def _verdict(ok):
    return "n/a" if ok is None else "PASS" if ok else "FAIL"


def run_checks(scn, strategy):
    """Evaluate every assumption; returns (report rows, failing numbers).

    Rows are (label, status, detail) with status PASS/FAIL/n-a; the
    graph assumption not needed by ``strategy`` is reported n/a and
    never fails the run.
    """
    a1_ok, lam_min = check_assumption_1(assemble_pseudo_gradient(scn.game))
    a2 = [f"agent {i}: {_fmt_eigs(offending)}"
          for i, exo in enumerate(scn.exos, start=1)
          for offending in [check_assumption_2(exo)[1]] if offending]
    a3 = [f"agent {i} not {prop} at {_fmt_eigs(res['witnesses'][prop])}"
          for i, res in enumerate(map(check_assumption_3, scn.plants), start=1)
          for prop in ("stabilizable", "detectable") if not res[prop]]
    a4 = [f"agent {i} at {_fmt_eigs(failing)}"
          for i, (ok, failing) in enumerate(
              map(check_assumption_4, scn.plants, scn.exos), start=1) if not ok]
    if strategy != "digraph":
        kind = check_connected(scn.graph)
        a5, a6 = (None, "digraph strategy only"), (kind != "disconnected", kind)
    elif scn.graph.directed:
        ok, witness = check_acyclic(scn.graph)
        a5 = (ok, ("order " if ok else "cycle ") + "->".join(map(str, witness)))
        a6 = (None, "general strategy only")
    else:
        a5, a6 = (False, "graph is undirected"), (None, "general strategy only")
    checks = [(k, label, _verdict(ok), detail) for k, label, ok, detail in (
        (1, "A1 pseudo-gradient strong monotonicity", a1_ok,
         f"lambda_min={lam_min:.6g}"),
        (2, "A2 disturbance persistence (no decaying modes)", not a2, "; ".join(a2)),
        (3, "A3 stabilizability and detectability", not a3, "; ".join(a3)),
        (4, "A4 rank condition at exosystem modes", not a4, "; ".join(a4)),
        (5, "A5 acyclic digraph", *a5),
        (6, "A6 connected graph", *a6),
    )]
    return ([row[1:] for row in checks],
            [k for k, _, status, _ in checks if status == "FAIL"])


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
        return EXIT_ASSUMPTION + failures[0]
    print("all applicable assumptions hold")
    return EXIT_OK


def cmd_ne(path):
    scn = load_scenario(path)
    pg = assemble_pseudo_gradient(scn.game)
    ok, lam_min = check_assumption_1(pg)
    if not ok:
        raise AssumptionError(
            1, f"pseudo-gradient not strongly monotone "
               f"(lambda_min={lam_min:.6g}); no unique NE certificate",
        )
    y_star = solve_ne(pg)
    residual = float(np.linalg.norm(pg.Rbar @ y_star + pg.Qbar))
    print(f"lambda_min = {lam_min!r}")
    for i in range(1, scn.agent_count + 1):
        block = scn.game.block(y_star, i)
        print(f"y*_{i} = [{', '.join(repr(float(v)) for v in block)}]")
    print(f"residual = {residual!r}")
    return EXIT_OK


def cmd_synth(path, out, strategy=None):
    _refuse_clobbering([("scenario file", path)], [("--out", out, "the bundle", out)])
    scn = load_scenario(path)
    strategy = strategy or scn.strategy
    _, failures = run_checks(scn, strategy)
    if failures:
        raise AssumptionError(
            failures[0],
            f"assumptions {failures} fail; run the check command for details",
        )
    controllers = [
        build_controller(plant, cost, exo, scn.weights)
        for plant, cost, exo in zip(scn.plants, scn.game.costs, scn.exos)
    ]
    cl = assemble_closed_loop(scn.game, scn.plants, scn.exos, controllers, strategy)
    ok, abscissa = certify_stability(cl)
    if not ok:
        agent = worst_agent(cl)
        raise SynthesisError(
            f"closed loop not Hurwitz (abscissa {abscissa:.6g}"
            + ("" if agent is None else f" at agent {agent}")
            + "); adjust the synthesis weights in the scenario"
        )
    reg = solve_regulator(cl)
    for name, residual, scale in (
        ("residual_dyn", reg.residual_dyn, reg.scale_dyn),
        ("residual_err", reg.residual_err, reg.scale_err),
    ):
        # an infinite scale passes no residual
        if not (scale < math.inf and residual <= REGULATOR_REL_TOL * scale):
            raise SynthesisError(
                f"regulator certificate fails: {name}={residual!r} "
                f"exceeds {REGULATOR_REL_TOL:g} * scale={scale!r}"
            )
    certificates = {
        "abscissa": abscissa,
        "residual_dyn": reg.residual_dyn,
        "residual_err": reg.residual_err,
        "scale_dyn": reg.scale_dyn,
        "scale_err": reg.scale_err,
    }
    with _replacing(out) as tmp:
        save_controllers(tmp, scn, strategy, controllers, certificates)
    print(
        f"synthesized {len(controllers)} {strategy} controllers: "
        f"abscissa={abscissa!r}, residual_err={reg.residual_err!r}"
    )
    print(f"wrote {out}")
    return EXIT_OK


def _refuse_clobbering(inputs, writes):
    """Refuse, before anything is read, ``writes`` (flag, argument, what, path) onto a
    directory or a path that ``inputs`` (name, path) or an earlier write holds."""
    taken = {os.path.realpath(path): name for name, path in inputs}
    for flag, arg, what, path in writes:
        real = os.path.realpath(path)
        if real in taken:
            raise ScenarioError(f"{flag} {arg} would write {what} to {path}, the {taken[real]}")
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        taken[real] = f"{flag} file"


@contextlib.contextmanager
def _replacing(path):
    """Temporary path beside ``path``, moved onto it only on success.

    On any error the temporary file is removed and ``path`` is left as
    it was; an OS error on the temporary file names ``path``.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException as err:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(err, OSError) and err.filename == tmp:
            raise type(err)(err.errno, err.strerror, path) from None
        raise


def cmd_sim(path, controllers_path, out, svg=None, t_end=None, dt=None,
            perturb_scale=None, seed=0):
    for flag, value, (rule, ok) in (
        ("--dt", dt, POSITIVE_FINITE),
        ("--t-end", t_end, NON_NEGATIVE_FINITE),
        ("--perturb-scale", perturb_scale, NON_NEGATIVE_FINITE),
        ("--seed", seed, NON_NEGATIVE),
    ):
        if value is not None and not ok(value):
            raise ScenarioError(f"{flag} must be {rule}, got {value!r}")
    writes = [("--out", out, "the CSV", out)]
    if svg is not None:
        err_path = (svg[:-4] if svg.endswith(".svg") else svg) + ".errors.svg"
        writes += [("--svg", svg, "a plot", plot) for plot in (svg, err_path)]
    _refuse_clobbering([("scenario file", path), ("--controllers file", controllers_path)],
                       writes)
    scn = load_scenario(path)
    bundle = load_controllers(controllers_path, scn)
    strategy, controllers = bundle["strategy"], bundle["controllers"]
    overrides = {k: float(v) for k, v in (("dt", dt), ("t_end", t_end))
                 if v is not None}
    try:
        cfg = dataclasses.replace(scn.sim, **overrides)
    except DomainError as err:
        raise ScenarioError(str(err)) from err

    plants = scn.plants
    if perturb_scale is not None:
        rng = Generator(seed)
        plants = tuple(dataclasses.replace(p, **sample_perturbation(p, perturb_scale, rng))
                       for p in plants)

    # overflowing gains are reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        cl = assemble_closed_loop(scn.game, plants, scn.exos, controllers, strategy)
    if not (np.all(np.isfinite(cl.A_c)) and np.all(np.isfinite(cl.P_c))):
        culprit = (f"{controllers_path}: gains" if perturb_scale is None else
                   f"--perturb-scale {perturb_scale!r} --seed {seed}: the perturbed plants")
        raise ScenarioError(f"{culprit} overflow the assembled closed loop "
                            "(non-finite entries)")
    ok, abscissa = certify_stability(cl)
    print(f"closed-loop abscissa: {abscissa!r}"
          + ("" if ok else " (NOT Hurwitz)"), file=sys.stderr)
    # an infinite abscissa is an overflowing loop, reported when simulated
    stored = bundle["certificates"]["abscissa"]
    if perturb_scale is None and math.isfinite(abscissa) and not (
            abs(abscissa - stored) <= CERTIFICATE_REL_TOL * max(1.0, abs(stored))):
        print(f"warning: {controllers_path}: stored abscissa {stored!r} differs "
              f"from the recomputed {abscissa!r}", file=sys.stderr)
    if ok:
        eigs = np.concatenate(cl.spectra)
        radius = rk4_radius(eigs, cfg.dt)
        if not radius < 1.0:
            limit = rk4_dt_limit(eigs)
            # below the limit the map contracts in exact arithmetic: its
            # radius reads 1 only because 1 + dt lam + ... rounds to 1
            problem = (f"dt {cfg.dt!r} is too small for its RK4 step map to "
                       "contract in double precision" if cfg.dt < limit else
                       f"its RK4 step map at dt {cfg.dt!r} is not")
            raise SynthesisError(
                f"the closed loop is Hurwitz but {problem} (spectral radius "
                f"{radius:.6g}); the largest stable dt is {limit:.6g}"
            )

    # the plots are written before the CSV is moved into place, so a
    # failed run leaves none of the three
    with _replacing(out) as csv_tmp:
        with open(csv_tmp, "w") as fh:
            times, gap, err, *err_series = write_records(cl, cfg, fh)
        if svg is not None:
            labels = [f"||e_{i}||" for i in range(1, len(err_series) + 1)]
            with _replacing(svg) as gap_tmp, _replacing(err_path) as err_tmp:
                line_plot(
                    times, [gap], ["||y - y*||"],
                    "Output gap vs NE", "||y - y*||", path=gap_tmp,
                )
                line_plot(
                    times, err_series, labels,
                    "Regulated errors", "||e_i||", path=err_tmp,
                )

    metrics = series_metrics(times, gap, err, tol=1e-3)
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
    p.set_defaults(run=lambda a: cmd_check(a.scenario))

    p = sub.add_parser("ne", help="print the Nash equilibrium")
    p.add_argument("scenario")
    p.set_defaults(run=lambda a: cmd_ne(a.scenario))

    p = sub.add_parser("synth", help="synthesize controllers + certificates")
    p.add_argument("scenario")
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_synth(a.scenario, a.out, a.strategy))

    p = sub.add_parser("sim", help="simulate a synthesized closed loop")
    p.add_argument("scenario")
    p.add_argument("--controllers", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--perturb-scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=lambda a: cmd_sim(
        a.scenario, a.controllers, a.out, a.svg, a.t_end, a.dt,
        a.perturb_scale, a.seed,
    ))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except tuple(kind for kind, _ in EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return exit_code(err)


if __name__ == "__main__":
    sys.exit(main())
