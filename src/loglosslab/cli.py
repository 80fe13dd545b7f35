"""Command-line front end: one subcommand per pipeline.

Output is either a JSON report (``--format report``, the default) or a
tab-separated table (``--format table``).  Reports are deterministic given
identical inputs, flags, and seed, except for the wall-clock field.  Exit
codes: 0 success, 1 any other refusal of the library (infeasible,
degenerate, non-convergent, too large, failed verification), 2 bad input
(flags, files, malformed values).  A verification that runs and fails
(``equiv``'s FAIL, an ``sr`` layer's failed check) still writes the full
report; the command then exits 1 with one stderr line naming the check.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .equivalence import (
    _COINCIDENCE_ATOL,
    _FLOOR_TOL,
    ROW_MATCH_TOL,
    build_corresponding,
    identity_bound,
    identity_sweep,
    verify_optimum_coincidence,
)
from .errors import InstanceTooLargeError, LoglossLabError, ValidationError
from .oneshot import (
    _FEASIBILITY_SLACK,
    floor_exp,
    logloss_avg_optimum,
    logloss_codebook,
    logloss_excess_optimum,
    logloss_excess_oracle,
    solve_avg,
    solve_avg_oracle,
    solve_codebook,
    solve_excess,
)
from .probability import Pmf, entropy, varentropy
from .problemio import (
    dump_report,
    load_problem,
    parse_float_list,
    render_table,
)
from .ratedistortion import (_DEFAULT_MAX_ITER, _DEFAULT_TOL, _certificate_tol,
                             rd_at_distortion, tilted_information, verify_csiszar_identity)
from .refinement import (
    _SR_CHECK_TOL,
    construct_sr,
    construct_sr_chain,
    timeshare_simulate,
    timeshare_two_decoders,
    verify_sr,
)

__all__ = ["main", "entrypoint"]

# Oracle cross-checks run only when the brute-force side stays this cheap.
_AVG_ORACLE_BUDGET = 100_000
# A zero sigma counts a deviation this small as none.
_SIGMA_FLOOR = 1e-12
# --bits divides each nat-valued output by ln 2.
_LN2 = math.log(2.0)


@dataclass
class _CommandOutput:
    inputs: dict
    outputs: dict
    tolerances: dict
    table_header: list = field(default_factory=list)
    table_rows: list = field(default_factory=list)
    # The failed verification, named: main writes the report, then exits 1.
    failure: str | None = None


def _in_unit(value, args):
    """A nat-valued output in the report's unit: under --bits, value / ln 2.

    A float converts alone and a sequence entry by entry.  A slope, nats per
    unit of distortion, becomes bits per unit of distortion.
    """
    if not args.bits:
        return value
    return value / _LN2 if isinstance(value, float) else [v / _LN2 for v in value]


# ----------------------------------------------------------------------
# rd
# ----------------------------------------------------------------------


def _cmd_rd(args) -> _CommandOutput:
    loaded = load_problem(args.problem)
    targets = ([args.distortion] if args.grid is None
               else parse_float_list(args.grid, "--grid"))

    points = []
    rows = []
    for d in targets:
        point = rd_at_distortion(loaded.problem, d, tol=args.tol, max_iter=args.max_iter)
        residual = verify_csiszar_identity(loaded.problem, point)
        diag = point.diagnostics
        points.append({
            "target_distortion": d,
            "achieved_distortion": diag.achieved_distortion,
            "rate": _in_unit(point.rate, args),
            "lambda_star": _in_unit(point.lambda_star, args),
            "kept_columns": list(point.kept_columns),
            "output_marginal": point.output_marginal.probs,
            "tilted_information": _in_unit(tilted_information(loaded.problem, point), args),
            "csiszar_residual": _in_unit(residual, args),
            "ba_iterations": diag.ba_iterations,
        })
        rows.append([d, point.rate, point.lambda_star])

    return _CommandOutput(
        inputs={"problem": loaded.echo(),
                "flags": {"targets": targets, "tol": args.tol, "max_iter": args.max_iter}},
        outputs={"points": points},
        tolerances={"distortion_tol": args.tol,
                    "fixed_point_tol": _certificate_tol(args.tol)},
        table_header=["D", "rate", "lambda"],
        table_rows=rows,
    )


# ----------------------------------------------------------------------
# oneshot
# ----------------------------------------------------------------------


# The flags each criterion takes, in the order its solvers take them.
_ONESHOT_FLAGS = {"avg": ("messages",), "excess": ("messages", "distortion"),
                  "codebook": ("distortion", "epsilon")}
# Each criterion's solvers: on the distortion matrix, then under log loss.
_ONESHOT_SOLVERS = {"avg": (solve_avg, logloss_avg_optimum),
                    "excess": (solve_excess, logloss_excess_optimum),
                    "codebook": (solve_codebook, logloss_codebook)}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _code_doc(code) -> dict:
    return {"encoder": list(code.encoder), "decoder": list(code.decoder)}


def _cmd_oneshot(args) -> _CommandOutput:
    loaded = load_problem(args.problem)
    problem = loaded.problem
    px = problem.px
    crit = args.criterion

    takes = _ONESHOT_FLAGS[crit]
    for name in ("messages", "distortion", "epsilon"):
        if name not in takes:
            _require(getattr(args, name) is None, f"oneshot {crit}: --{name} does not apply")
            continue
        _require(getattr(args, name) is not None, f"oneshot {crit}: --{name} is required")

    flags = {name: getattr(args, name) for name in takes}
    code, value = _ONESHOT_SOLVERS[crit][args.logloss](px if args.logloss else problem,
                                                        *flags.values())
    d = args.distortion
    m = code.n_messages if crit == "codebook" else args.messages
    oracle = None

    if crit == "avg" and args.logloss:
        scheme = {"encoder": list(code.encoder),
                  "cell_masses": np.bincount(code.encoder, weights=px.probs,
                                             minlength=code.n_messages),
                  "reproduction_rows": [q.probs for q in code.decoder_rows]}
    elif args.logloss:
        scheme = {"sort_order": np.argsort(-px.probs, kind="stable"),
                  "cell_size": floor_exp(d),
                  "encoder": list(code.encoder)}
        if crit == "excess":  # a codebook report gives neither rows nor oracle
            scheme["reproduction_rows"] = [q.probs for q in code.decoder_rows]
            # Past its guard the oracle is skipped, as equiv skips the sweep.
            with contextlib.suppress(InstanceTooLargeError):
                oracle = logloss_excess_oracle(px, m, d)
    else:
        scheme = _code_doc(code)
        if crit == "avg" and m ** px.n <= _AVG_ORACLE_BUDGET:
            oracle = solve_avg_oracle(problem, m)

    if crit == "codebook":
        outputs = {"criterion": crit, "m_star": m, "achieved_epsilon": value}
        header = ["criterion", "D", "eps", "M_star", "achieved_epsilon"]
        row = [crit, d, args.epsilon, m, value]
    else:
        # Only the log-loss average is in nats; the others are a distortion or a probability.
        outputs = {"criterion": crit, "optimal_value": (
            _in_unit(value, args) if crit == "avg" and args.logloss else value)}
        header, row = ["criterion", "M", "value"], [crit, m, value]
        if crit == "excess":
            header, row = ["criterion", "M", "D", "epsilon"], [crit, m, d, value]
    outputs["scheme"] = scheme
    outputs["oracle"] = None if oracle is None else {"value": oracle, "agrees": oracle == value}
    return _CommandOutput(
        inputs={"problem": loaded.echo(),
                "flags": {"criterion": crit, "logloss": bool(args.logloss), **flags}},
        outputs=outputs,
        tolerances={"feasibility_slack": _FEASIBILITY_SLACK},
        table_header=header,
        table_rows=[row],
        failure=(f"oneshot: the oracle's value {oracle} differs from the solver's {value}"
                 if oracle is not None and oracle != value else None),
    )


# ----------------------------------------------------------------------
# equiv
# ----------------------------------------------------------------------


def _cmd_equiv(args) -> _CommandOutput:
    loaded = load_problem(args.problem)
    cp = build_corresponding(loaded.problem, args.messages, tol=args.tol)
    bound = identity_bound(cp)
    # Past the column-set guard both blocks are null: the two checks read one
    # pass over the sets of at most M kept columns, so both fit or neither.
    sweep = rep = None
    with contextlib.suppress(InstanceTooLargeError):
        sweep = identity_sweep(cp)
        rep = verify_optimum_coincidence(cp)
    coincidence = None if rep is None else {
        "matched": rep.matched,
        "min_distortion": rep.min_distortion,
        "min_log_loss": _in_unit(rep.min_loss, args),
        # len() refuses a size past sys.maxsize; __len__ returns it whole.
        "n_distortion_argmin": rep.distortion_argmin.__len__(),
        "n_loss_argmin": rep.loss_argmin.__len__(),
        "scored_sets": rep.scored_sets,
    }
    identity = {"residual_bound": _in_unit(bound, args), "skipped": sweep is None,
                "n_codes": sweep and sweep.n_codes,
                "max_residual": sweep and _in_unit(sweep.max_residual, args),
                "min_log_loss": coincidence and coincidence["min_log_loss"],
                "min_distortion": coincidence and coincidence["min_distortion"]}
    outputs = {
        "d_star_m": cp.d_star_m,
        "lambda_star": _in_unit(cp.lambda_star, args),
        "h_x_given_xhat": _in_unit(cp.h_x_given_xhat, args),
        "reproduction_rows": [q.probs for q in cp.y_rows],
        "optimal_code": _code_doc(cp.optimal_code),
        "identity": identity,
        "coincidence": coincidence,
    }
    verdict = "skipped" if coincidence is None else (
        "pass" if coincidence["matched"] else "FAIL")
    # Each check that ran and failed, named; a NaN fails.  A residual_bound
    # that is not finite bounds nothing, also where the sweep is skipped.
    checks = [(math.isfinite(bound), f"the identity check failed: residual_bound "
               f"{identity['residual_bound']!r} is not finite")]
    if rep is not None:
        checks += [
            (sweep.max_residual <= bound or not math.isfinite(bound), f"the identity check "
             f"failed: max_residual {identity['max_residual']!r} exceeds residual_bound "
             f"{identity['residual_bound']!r}"),
            (rep.matched, "the coincidence check failed: the distortion and log-loss argmin "
             "sets differ"),
            (rep.min_loss >= cp.h_x_given_xhat - _FLOOR_TOL, f"the floor check failed: "
             f"min_log_loss {coincidence['min_log_loss']!r} lies more than "
             f"{_in_unit(_FLOOR_TOL, args)!r} below h_x_given_xhat "
             f"{outputs['h_x_given_xhat']!r}"),
            (rep.min_distortion <= cp.d_star_m, f"the ceiling check failed: min_distortion "
             f"{rep.min_distortion!r} exceeds d_star_m {cp.d_star_m!r}")]
    failed = [message for ok, message in checks if not ok]
    return _CommandOutput(
        inputs={"problem": loaded.echo(),
                "flags": {"messages": args.messages, "tol": args.tol}},
        outputs=outputs,
        tolerances={"solver_tol": args.tol, "row_match_tol": ROW_MATCH_TOL,
                    "coincidence_atol": _COINCIDENCE_ATOL},
        table_header=["M", "d_star", "lambda", "h_cond", "max_residual",
                      "residual_bound", "coincidence"],
        table_rows=[[args.messages, cp.d_star_m, cp.lambda_star, cp.h_x_given_xhat,
                     identity["max_residual"], bound, verdict]],
        failure=f"equiv: {'; '.join(failed)}" if failed else None,
    )


# ----------------------------------------------------------------------
# sr
# ----------------------------------------------------------------------


def _cmd_sr(args) -> _CommandOutput:
    loaded = load_problem(args.problem)
    if args.chain is not None:
        targets = parse_float_list(args.chain, "--chain")
        layers = construct_sr_chain(loaded.problem, targets, args.d2, tol=args.tol)
    else:
        targets = [args.d1]
        layers = [construct_sr(loaded.problem, args.d1, args.d2, tol=args.tol)]

    # The residuals of a rate or a log loss; the others are a probability or a distortion.
    nat_checks = {"coarse_rate", "coarse_loss", "fine_rate"}
    layer_docs = []
    rows = []
    failed = []
    for layer in layers:
        report = verify_sr(layer)
        failed += [f"{c.name} at d1 = {layer.d1!r}" for c in report.checks if not c.ok]
        worst = max(c.value for c in report.checks)
        layer_docs.append({
            "d1": _in_unit(layer.d1, args),
            "delta": layer.delta,
            "rates": _in_unit(list(layer.rates), args),
            "z_alphabet": [str(z) for z in layer.z_alphabet],
            "reproduction_rows": [q.probs for q in layer.q_rows],
            "row_of_z": {str(z): idx for z, idx in layer.q_index.items()},
            "checks": [{"name": c.name, "ok": c.ok, "residual": (
                _in_unit(c.value, args) if c.name in nat_checks else c.value)}
                for c in report.checks],
            "all_checks_pass": report.ok,
        })
        rows.append([layer.d1, layer.delta, worst, report.ok])

    first = layers[0]
    return _CommandOutput(
        inputs={"problem": loaded.echo(),
                "flags": {"targets": targets, "d2": args.d2, "tol": args.tol}},
        outputs={"d2": first.d2,
                 "fine_rate": _in_unit(first.second_point.rate, args),
                 "fine_lambda": _in_unit(first.second_point.lambda_star, args),
                 "layers": layer_docs},
        tolerances={"solver_tol": args.tol, "check_tol": _SR_CHECK_TOL},
        table_header=["d1", "delta", "max_residual", "ok"],
        table_rows=rows,
        failure=f"sr: failed checks: {', '.join(failed)}" if failed else None,
    )


# ----------------------------------------------------------------------
# timeshare
# ----------------------------------------------------------------------


def _sigma_units(diff: float, sigma: float) -> float:
    if sigma == 0.0:
        return 0.0 if abs(diff) <= _SIGMA_FLOOR else math.inf
    return abs(diff) / sigma


def _cmd_timeshare(args) -> _CommandOutput:
    # Not an argparse group: a stray value would fill the positional and read as a conflict.
    if (args.problem is None) == (args.px is None):
        raise ValidationError("timeshare: give exactly one of a problem file or --px")
    if args.px is not None:
        px = Pmf(parse_float_list(args.px, "--px"))
        problem_echo = {"px": px.probs.tolist(), "source": "inline"}
    else:
        loaded = load_problem(args.problem)
        px = loaded.problem.px
        problem_echo = loaded.echo()

    if args.d2 is None:
        targets = [args.distortion]
        reports = [timeshare_simulate(px, args.distortion, args.n, args.seed)]
    else:
        targets = [args.distortion, args.d2]
        reports = list(timeshare_two_decoders(px, args.distortion, args.d2,
                                              args.n, args.seed))

    h = entropy(px)
    v = varentropy(px)
    decoders = []
    rows = []
    for target, rep in zip(targets, reports):
        k = rep.lossless_prefix
        # The prefix contributes zero loss, so the block mean varies only
        # through the n - k tail draws; symmetrically for the ideal rate.
        loss_sigma = math.sqrt((rep.n - k) * v) / rep.n
        rate_sigma = math.sqrt(k * v) / rep.n
        # Each deviation is centered on the scheme's exact mean at this k,
        # which a uniform source (sigma 0) meets up to summation rounding.
        loss_dev = _sigma_units(rep.empirical_loss - (rep.n - k) * h / rep.n, loss_sigma)
        rate_dev = _sigma_units(rep.ideal_rate - k * h / rep.n, rate_sigma)
        decoders.append({
            "target_distortion": _in_unit(target, args),
            "lossless_prefix": k,
            "empirical_loss": _in_unit(rep.empirical_loss, args),
            "ideal_rate": _in_unit(rep.ideal_rate, args),
            "loss_deviation_sigma": loss_dev,
            "rate_deviation_sigma": rate_dev,
        })
        rows.append([target, k, rep.empirical_loss, rep.ideal_rate,
                     loss_dev, rate_dev])

    flags = {"distortion": args.distortion, "n": args.n, "seed": args.seed}
    if args.d2 is not None:
        flags["d2"] = args.d2
    return _CommandOutput(
        inputs={"problem": problem_echo, "flags": flags},
        outputs={"entropy": _in_unit(h, args), "n": args.n, "seed": args.seed,
                 "decoders": decoders},
        tolerances={"sigma_floor": _SIGMA_FLOOR},
        table_header=["D", "k", "empirical_loss", "ideal_rate",
                      "loss_dev_sigma", "rate_dev_sigma"],
        table_rows=rows,
    )


# ----------------------------------------------------------------------
# Wiring
# ----------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loglosslab",
        description="Finite-alphabet lossy compression under logarithmic loss.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")

    # Every subcommand takes the output flags; only those that solve an R(D)
    # point take --tol.
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                        help=f"solver tolerance (default {_DEFAULT_TOL})")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")
    common.add_argument("--format", choices=("report", "table"),
                        default="report")
    common.add_argument("--bits", action="store_true",
                        help="give rates and log losses in bits and slopes in "
                             "bits per unit of distortion (report format only)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rd", parents=[solver, common],
                       help="rate-distortion point(s) at fixed distortion")
    p.add_argument("problem", help="problem file (YAML)")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--distortion", "-D", type=float)
    target.add_argument("--grid", help="comma-separated distortion targets")
    p.add_argument("--max-iter", type=int, default=_DEFAULT_MAX_ITER,
                   help="iteration budget of the one solve behind each point")
    p.set_defaults(handler=_cmd_rd)

    p = sub.add_parser("oneshot", parents=[common],
                       help="exact one-shot optima for small instances")
    p.add_argument("problem")
    p.add_argument("--criterion", choices=("avg", "excess", "codebook"),
                   required=True)
    p.add_argument("--messages", "-M", type=int, default=None)
    p.add_argument("--distortion", "-D", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--logloss", action="store_true",
                   help="use the log-loss closed forms; the distortion "
                        "matrix is ignored")
    p.set_defaults(handler=_cmd_oneshot)

    p = sub.add_parser("equiv", parents=[solver, common],
                       help="log-loss surrogate of a one-shot problem")
    p.add_argument("problem")
    p.add_argument("--messages", "-M", type=int, required=True)
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("sr", parents=[solver, common],
                       help="coarse/fine two-decoder construction")
    p.add_argument("problem")
    coarse = p.add_mutually_exclusive_group(required=True)
    coarse.add_argument("--d1", type=float, help="coarse log-loss target (nats)")
    coarse.add_argument("--chain", help="comma-separated non-increasing coarse targets")
    p.add_argument("--d2", type=float, required=True, help="fine-stage distortion target")
    p.set_defaults(handler=_cmd_sr)

    p = sub.add_parser("timeshare", parents=[common],
                       help="simulate the prefix-lossless time-sharing scheme")
    p.add_argument("problem", nargs="?", default=None)
    p.add_argument("--seed", type=int, required=True, help="seed for randomized steps")
    p.add_argument("--px", default=None,
                   help="inline pmf, comma-separated (alternative to a file)")
    p.add_argument("--distortion", "-D", type=float, required=True)
    p.add_argument("--d2", type=float, default=None,
                   help="second decoder target (requires d2 <= D)")
    p.add_argument("--n", type=int, required=True, help="blocklength")
    p.set_defaults(handler=_cmd_timeshare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        if args.format == "table" and args.bits:
            raise ValidationError("--bits applies to report format only")
        result = args.handler(args)
        if args.format == "table":
            text = render_table(result.table_header, result.table_rows)
        else:
            report = {
                "version": __version__,
                "command": args.command,
                "units": "bits" if args.bits else "nats",
                "inputs": result.inputs,
                "outputs": result.outputs,
                "tolerances": result.tolerances,
                "wall_clock_seconds": time.perf_counter() - start,
            }
            text = dump_report(report)
        if args.output is not None:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
        if result.failure is not None:
            print(f"error: {result.failure}", file=sys.stderr)
            return 1
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LoglossLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())
