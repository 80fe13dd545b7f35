"""Command-line front end: one subcommand per pipeline.

Output is either a JSON report (``--format report``, the default) or a
tab-separated table (``--format table``).  Reports are deterministic given
identical inputs, flags, and seed, except for the wall-clock field.  Exit
codes: 0 success, 1 infeasible / degenerate / non-convergent instance,
2 bad input (flags, files, malformed values).
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

from . import __version__
from .equivalence import (
    _COINCIDENCE_ATOL,
    ROW_MATCH_TOL,
    build_corresponding,
    identity_bound,
    identity_sweep,
    verify_optimum_coincidence,
)
from .errors import InstanceTooLargeError, LoglossLabError, ValidationError
from .oneshot import (
    _FEASIBILITY_SLACK,
    excess_witness,
    logloss_avg_optimum,
    logloss_codebook,
    logloss_excess_optimum,
    logloss_excess_oracle,
    solve_avg,
    solve_avg_oracle,
    solve_codebook,
)
from .probability import Pmf, entropy, varentropy
from .problemio import (
    dump_report,
    load_problem,
    parse_float_list,
    render_table,
)
from .ratedistortion import (_DEFAULT_TOL, _certificate_tol, rd_at_distortion,
                             verify_csiszar_identity)
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


@dataclass
class _CommandOutput:
    inputs: dict
    outputs: dict
    tolerances: dict
    nat_keys: frozenset = frozenset()
    table_header: list = field(default_factory=list)
    table_rows: list = field(default_factory=list)


# ----------------------------------------------------------------------
# rd
# ----------------------------------------------------------------------


def _cmd_rd(args) -> _CommandOutput:
    loaded = load_problem(args.problem)
    if (args.distortion is None) == (args.grid is None):
        raise ValidationError("rd: give exactly one of --distortion or --grid")
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
            "rate": point.rate,
            "lambda_star": point.lambda_star,
            "kept_columns": list(point.kept_columns),
            "output_marginal": point.output_marginal.probs,
            "tilted_information": point.tilted,
            "csiszar_residual": residual,
            "ba_iterations": diag.ba_iterations,
        })
        rows.append([d, point.rate, point.lambda_star])

    return _CommandOutput(
        inputs={"problem": loaded.echo(),
                "flags": {"targets": targets, "tol": args.tol, "max_iter": args.max_iter}},
        outputs={"points": points},
        tolerances={"distortion_tol": args.tol,
                    "fixed_point_tol": _certificate_tol(args.tol)},
        nat_keys=frozenset({"rate", "tilted_information", "csiszar_residual"}),
        table_header=["D", "rate", "lambda"],
        table_rows=rows,
    )


# ----------------------------------------------------------------------
# oneshot
# ----------------------------------------------------------------------


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

    if crit in ("avg", "excess"):
        _require(args.messages is not None, f"oneshot {crit}: --messages is required")
        _require(args.messages >= 1, "oneshot: --messages must be >= 1")
        _require(args.epsilon is None, f"oneshot {crit}: --epsilon does not apply")
    if crit in ("excess", "codebook"):
        _require(args.distortion is not None, f"oneshot {crit}: --distortion is required")
    if crit == "codebook":
        _require(args.epsilon is not None, "oneshot codebook: --epsilon is required")
        _require(args.messages is None,
                 "oneshot codebook: --messages is computed, not given")
    if crit == "avg":
        _require(args.distortion is None, "oneshot avg: --distortion does not apply")

    # codebook is excess at the least M whose optimum meets epsilon.
    d = args.distortion
    m = args.messages
    if crit == "codebook":
        m = (logloss_codebook(px, d, args.epsilon) if args.logloss
             else solve_codebook(problem, d, args.epsilon))
    oracle = None

    if crit == "avg" and args.logloss:
        partition, value = logloss_avg_optimum(px, m)
        scheme = {"encoder": list(partition.encoder),
                  "cell_masses": partition.cell_masses,
                  "reproduction_rows": [q.probs for q in partition.posterior_rows]}
    elif crit == "avg":
        code, value = solve_avg(problem, m)
        scheme = _code_doc(code)
        if m ** px.n <= _AVG_ORACLE_BUDGET:
            oracle = solve_avg_oracle(problem, m)
    elif args.logloss:
        cells, value = logloss_excess_optimum(px, m, d)
        scheme = {"sort_order": list(cells.sort_order),
                  "cell_size": cells.cell_size,
                  "encoder": list(cells.encoder())}
        if crit == "excess":  # a codebook report gives neither rows nor oracle
            scheme["reproduction_rows"] = [q.probs for q in cells.decoder_rows()]
            # Past its guard the oracle is skipped, as equiv skips the sweep.
            with contextlib.suppress(InstanceTooLargeError):
                oracle = logloss_excess_oracle(px, m, d)
    else:
        code, value = excess_witness(problem, m, d)
        scheme = _code_doc(code)

    if crit == "codebook":
        outputs = {"criterion": crit, "m_star": m, "achieved_epsilon": value}
        header = ["criterion", "D", "eps", "M_star", "achieved_epsilon"]
        row = [crit, d, args.epsilon, m, value]
    else:
        outputs = {"criterion": crit, "optimal_value": value}
        header, row = ["criterion", "M", "value"], [crit, m, value]
        if crit == "excess":
            header, row = ["criterion", "M", "D", "epsilon"], [crit, m, d, value]
    outputs["scheme"] = scheme
    outputs["oracle"] = None if oracle is None else {"value": oracle, "agrees": oracle == value}
    flags = {"criterion": crit, "logloss": bool(args.logloss)}
    for name in ("messages", "distortion", "epsilon"):
        if getattr(args, name) is not None:
            flags[name] = getattr(args, name)
    return _CommandOutput(
        inputs={"problem": loaded.echo(), "flags": flags},
        outputs=outputs,
        tolerances={"feasibility_slack": _FEASIBILITY_SLACK},
        nat_keys=frozenset({"optimal_value"} if crit == "avg" and args.logloss else ()),
        table_header=header,
        table_rows=[row],
    )


# ----------------------------------------------------------------------
# equiv
# ----------------------------------------------------------------------


def _cmd_equiv(args) -> _CommandOutput:
    loaded = load_problem(args.problem)
    _require(args.messages is not None, "equiv: --messages is required")
    _require(args.messages >= 1, "equiv: --messages must be >= 1")

    cp = build_corresponding(loaded.problem, args.messages, tol=args.tol)
    bound = identity_bound(cp)
    # Past the enumeration guard the bound stands alone: the sweep and the
    # coincidence check are skipped.
    try:
        sweep = identity_sweep(cp)
    except InstanceTooLargeError:
        sweep = None
    identity = {"residual_bound": bound, "skipped": sweep is None,
                "n_codes": None, "max_residual": None,
                "min_log_loss": None, "min_distortion": None}
    coincidence = None
    if sweep is not None:
        identity.update(n_codes=sweep.n_codes, max_residual=sweep.max_residual,
                        min_log_loss=sweep.min_loss, min_distortion=sweep.min_distortion)
        rep = verify_optimum_coincidence(cp)
        coincidence = {
            "matched": rep.matched,
            "min_distortion": rep.min_distortion,
            "min_log_loss": rep.min_loss,
            "n_distortion_argmin": len(rep.distortion_argmin),
            "n_loss_argmin": len(rep.loss_argmin),
            "pairs_summed": rep.pairs_summed,
        }
    outputs = {
        "d_star_m": cp.d_star_m,
        "lambda_star": cp.lambda_star,
        "h_x_given_xhat": cp.h_x_given_xhat,
        "reproduction_rows": [q.probs for q in cp.y_rows],
        "optimal_code": _code_doc(cp.optimal_code),
        "identity": identity,
        "coincidence": coincidence,
    }
    verdict = "skipped" if coincidence is None else (
        "pass" if coincidence["matched"] else "FAIL")
    return _CommandOutput(
        inputs={"problem": loaded.echo(),
                "flags": {"messages": args.messages, "tol": args.tol}},
        outputs=outputs,
        tolerances={"solver_tol": args.tol, "row_match_tol": ROW_MATCH_TOL,
                    "coincidence_atol": _COINCIDENCE_ATOL},
        nat_keys=frozenset({"h_x_given_xhat", "max_residual", "residual_bound",
                            "min_log_loss"}),
        table_header=["M", "d_star", "lambda", "h_cond", "max_residual",
                      "residual_bound", "coincidence"],
        table_rows=[[args.messages, cp.d_star_m, cp.lambda_star, cp.h_x_given_xhat,
                     identity["max_residual"], bound, verdict]],
    )


# ----------------------------------------------------------------------
# sr
# ----------------------------------------------------------------------


def _cmd_sr(args) -> _CommandOutput:
    loaded = load_problem(args.problem)
    _require(args.d2 is not None, "sr: --d2 is required")
    if (args.d1 is None) == (args.chain is None):
        raise ValidationError("sr: give exactly one of --d1 or --chain")

    if args.chain is not None:
        targets = parse_float_list(args.chain, "--chain")
        layers = construct_sr_chain(loaded.problem, targets, args.d2, tol=args.tol)
    else:
        targets = [args.d1]
        layers = [construct_sr(loaded.problem, args.d1, args.d2, tol=args.tol)]

    layer_docs = []
    rows = []
    for layer in layers:
        report = verify_sr(layer)
        worst = max(c.residual for c in report.checks)
        layer_docs.append({
            "d1": layer.d1,
            "delta": layer.delta,
            "rates": list(layer.rates),
            "z_alphabet": [str(z) for z in layer.z_alphabet],
            "reproduction_rows": [q.probs for q in layer.q_rows],
            "row_of_z": {str(z): idx for z, idx in layer.q_index.items()},
            "checks": [{"name": c.name, "residual": c.residual, "ok": c.ok}
                       for c in report.checks],
            "all_checks_pass": report.ok,
        })
        rows.append([layer.d1, layer.delta, worst, report.ok])

    first = layers[0]
    return _CommandOutput(
        inputs={"problem": loaded.echo(),
                "flags": {"targets": targets, "d2": args.d2, "tol": args.tol}},
        outputs={"d2": first.d2,
                 "fine_rate": first.second_point.rate,
                 "fine_lambda": first.second_point.lambda_star,
                 "layers": layer_docs},
        tolerances={"solver_tol": args.tol, "check_tol": _SR_CHECK_TOL},
        nat_keys=frozenset({"d1", "rates", "fine_rate"}),
        table_header=["d1", "delta", "max_residual", "ok"],
        table_rows=rows,
    )


# ----------------------------------------------------------------------
# timeshare
# ----------------------------------------------------------------------


def _sigma_units(diff: float, sigma: float) -> float:
    if sigma == 0.0:
        return 0.0 if abs(diff) <= _SIGMA_FLOOR else math.inf
    return abs(diff) / sigma


def _cmd_timeshare(args) -> _CommandOutput:
    if (args.problem is None) == (args.px is None):
        raise ValidationError("timeshare: give a problem file or --px, not both")
    if args.px is not None:
        px = Pmf(parse_float_list(args.px, "--px"))
        problem_echo = {"px": px.probs.tolist(), "source": "inline"}
    else:
        loaded = load_problem(args.problem)
        px = loaded.problem.px
        problem_echo = loaded.echo()
    _require(args.distortion is not None, "timeshare: --distortion is required")
    _require(args.n is not None and args.n >= 1, "timeshare: --n must be >= 1")
    _require(args.seed is not None, "timeshare: --seed is required")

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
        loss_dev = _sigma_units(rep.empirical_loss - target, loss_sigma)
        rate_dev = _sigma_units(rep.ideal_rate - (h - target), rate_sigma)
        decoders.append({
            "target_distortion": target,
            "lossless_prefix": k,
            "empirical_loss": rep.empirical_loss,
            "ideal_rate": rep.ideal_rate,
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
        outputs={"entropy": h, "n": args.n, "seed": args.seed,
                 "decoders": decoders},
        tolerances={"sigma_floor": _SIGMA_FLOOR},
        nat_keys=frozenset({"entropy", "empirical_loss", "ideal_rate",
                            "target_distortion"}),
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
                        help="convert rates and log losses to bits "
                             "(report format only)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rd", parents=[solver, common],
                       help="rate-distortion point(s) at fixed distortion")
    p.add_argument("problem", help="problem file (YAML)")
    p.add_argument("--distortion", "-D", type=float, default=None)
    p.add_argument("--grid", default=None,
                   help="comma-separated distortion targets")
    p.add_argument("--max-iter", type=int, default=300_000,
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
    p.add_argument("--messages", "-M", type=int, default=None)
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("sr", parents=[solver, common],
                       help="coarse/fine two-decoder construction")
    p.add_argument("problem")
    p.add_argument("--d1", type=float, default=None,
                   help="coarse log-loss target (nats)")
    p.add_argument("--chain", default=None,
                   help="comma-separated non-increasing coarse targets")
    p.add_argument("--d2", type=float, default=None,
                   help="fine-stage distortion target")
    p.set_defaults(handler=_cmd_sr)

    p = sub.add_parser("timeshare", parents=[common],
                       help="simulate the prefix-lossless time-sharing scheme")
    p.add_argument("problem", nargs="?", default=None)
    p.add_argument("--seed", type=int, default=None, help="seed for randomized steps")
    p.add_argument("--px", default=None,
                   help="inline pmf, comma-separated (alternative to a file)")
    p.add_argument("--distortion", "-D", type=float, default=None)
    p.add_argument("--d2", type=float, default=None,
                   help="second decoder target (requires d2 <= D)")
    p.add_argument("--n", type=int, default=None, help="blocklength")
    p.set_defaults(handler=_cmd_timeshare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        result = args.handler(args)
        if args.format == "table":
            if args.bits:
                raise ValidationError("--bits applies to report format only")
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
            # --bits converts the command's nat-valued fields, all of them outputs.
            text = dump_report(report, result.nat_keys if args.bits else frozenset())
        if args.output is not None:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LoglossLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())
