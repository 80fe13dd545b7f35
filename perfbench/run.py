"""Run one loglosslab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rd_scatter --seed 0 --seconds 35 --trace 0

Run it from the root of a loglosslab checkout; it imports the library from
``src/`` there.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced (``--trace 0``), the per-layer metrics traced
(``--trace 1``).  The line before it records the run: workload, seed,
machine, versions and every failed op.  The full record, with the spans of a
traced run, is written to ``perfbench/out/``.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rd_scatter", "rd_breakpoint", "lab_pipeline")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}
LAYERS = ("ratedistortion", "oneshot", "equivalence", "refinement", "problemio", "cli",
          "benchmark")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; recorded, since a workload's work is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs, for the benchmark's self-check")
    parser.add_argument("--draw-base", type=int, default=0,
                        help="numpy seed of rd_scatter's draws")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child_argv(args) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--draw-base", str(args.draw_base)]
    return argv + (["--small"] if args.small else [])


def _setup_seconds(args) -> float:
    """Median time from spawning a fresh process to its first op being ready.

    Covers interpreter start, importing loglosslab, making the inputs and
    loading the problem files.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(_child_argv(args), stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited {child.returncode}")
    return statistics.median(samples)


def _import_library():
    """Import loglosslab from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "loglosslab" / "__init__.py").is_file() or not (ROOT / "problems").is_dir():
        raise RuntimeError(f"{ROOT} is not a loglosslab checkout (src/loglosslab, problems/)")
    sys.path.insert(0, str(src))
    import loglosslab
    if Path(loglosslab.__file__).resolve().parent != src / "loglosslab":
        raise RuntimeError(f"imported loglosslab from {loglosslab.__file__}, not {src}")
    return loglosslab


def _build(args, rec):
    import workloads
    return workloads.build(args.workload, rec, ROOT, args.seed, args.small, args.draw_base)


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten ops beyond it."""
    ordered = sorted(latencies)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, when it can be asked."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                return int(getattr(ctypes.CDLL(str(lib)), symbol)())
            except (AttributeError, OSError):
                continue
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _environment(args, library) -> dict:
    import numpy
    import yaml
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "loglosslab": library.__version__,
        "git_commit": _git_commit(),
        "seed": args.seed,
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _per_layer(rec) -> dict[str, tuple[float, str]]:
    c = rec.counters

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    solve_s = rec.seconds_in("rd_at_distortion", "rd_curve")
    partitions_s = rec.seconds_in("logloss_avg_optimum")
    encoders_s = rec.seconds_in("solve_avg_oracle")
    sweep_s = rec.seconds_in("identity_sweep")
    coincidence_s = rec.seconds_in("verify_optimum_coincidence")
    timeshare_s = rec.seconds_in("timeshare_simulate")
    metrics = {
        "rd.points": (c["rd.points"], "count"),
        "rd.solve_s": (solve_s, "s"),
        "rd.ba_iterations": (c["rd.ba_iterations"], "count"),
        "rd.max_point_iterations": (c["rd.max_point_iterations"], "count"),
        "rd.ba_calls": (c["rd.ba_calls"], "count"),
        "rd.ba_calls_per_point": (per(c["rd.ba_calls"], c["rd.points"]), "calls/point"),
        "rd.prune_rounds": (c["rd.prune_rounds"], "count"),
        "rd.us_per_ba_iteration": (per(solve_s, c["rd.ba_iterations"], 1e6), "us"),
        "rd.verify_s": (rec.seconds_in("verify_csiszar_identity", "tilted_information"), "s"),
        "rd.max_csiszar_residual": (c["rd.max_csiszar_residual"], "nat"),
        "rd.max_oracle_rate_err": (c["rd.max_oracle_rate_err"], "nat"),
        "oneshot.solve_s": (rec.seconds_in("solve_avg", "logloss_avg_optimum",
                                           "logloss_excess_optimum"), "s"),
        "oneshot.oracle_s": (rec.seconds_in("solve_avg_oracle", "logloss_excess_oracle"), "s"),
        "oneshot.partitions": (c["oneshot.partitions"], "count"),
        "oneshot.partitions_per_s": (per(c["oneshot.partitions"], partitions_s), "1/s"),
        "oneshot.encoders": (c["oneshot.encoders"], "count"),
        "oneshot.encoders_per_s": (per(c["oneshot.encoders"], encoders_s), "1/s"),
        "equiv.build_s": (rec.seconds_in("build_corresponding"), "s"),
        "equiv.sweep_s": (sweep_s, "s"),
        "equiv.sweep_codes": (c["equiv.sweep_codes"], "count"),
        "equiv.sweep_codes_per_s": (per(c["equiv.sweep_codes"], sweep_s), "1/s"),
        "equiv.max_identity_residual": (c["equiv.max_identity_residual"], "nat"),
        "equiv.coincidence_s": (coincidence_s, "s"),
        "equiv.coincidence_codes_per_s": (per(c["equiv.coincidence_codes"], coincidence_s),
                                          "1/s"),
        "sr.construct_s": (rec.seconds_in("construct_sr", "construct_sr_chain"), "s"),
        "sr.verify_s": (rec.seconds_in("verify_sr"), "s"),
        "sr.layers": (c["sr.layers"], "count"),
        "timeshare.s": (timeshare_s, "s"),
        "timeshare.samples": (c["timeshare.samples"], "count"),
        "timeshare.ns_per_sample": (per(timeshare_s, c["timeshare.samples"], 1e9), "ns"),
        "io.loads": (c["io.loads"], "count"),
        "io.load_s": (rec.seconds_in("load_problem"), "s"),
        "cli.commands": (rec.calls_to("main"), "count"),
        "cli.s": (rec.seconds_in("main"), "s"),
        "trace.overhead_s": (rec.overhead_s, "s"),
    }
    self_s = rec.self_seconds()
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = (self_s[layer], "s")
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads; children inherit it
    try:
        library = _import_library()
        from spans import Recorder
        if args.setup_only:
            _build(args, Recorder(trace=False))
            print("ready", flush=True)
            return 0
        setup_s = _setup_seconds(args)
        rec = Recorder(trace=bool(args.trace))
        ops = _build(args, rec)
    except Exception as exc:  # no result is printed for a run that cannot start
        print(f"error: benchmark set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    # Round k runs every op that runs more than k times, so the runs of an op
    # are spread over the whole run.
    for repeat in range(max(runs for _, _, runs in ops)):
        for op, (name, body, runs) in enumerate(ops):
            if repeat < runs:
                rec.run_op(op, name, body, repeat)

    rec.finish()

    def p50_and_tail(latencies):
        per_op = [statistics.median(latencies[op]) for op in range(len(ops))]
        tail_s, tail_pct = _tail(per_op)
        return 1e3 * statistics.median(per_op), 1e3 * tail_s, tail_pct

    corrected = rec.corrected_latencies()
    p50_ms, tail_ms, tail_pct = p50_and_tail(corrected)
    measured_p50_ms, measured_tail_ms, _ = p50_and_tail(rec.latencies)
    # An op adds its number of runs times its median speed-corrected run.
    wall_s = sum(len(runs) * statistics.median(runs) for runs in corrected.values())
    failed_ops = {failure["op_id"] for failure in rec.failures}
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_p50_ms": p50_ms,
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in _per_layer(rec).items()}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in end_to_end.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "small": args.small,
        "trace": args.trace,
        "ops_attempted": len(ops),
        "ops_failed": len(failed_ops),
        "op_runs": sum(len(runs) for runs in rec.latencies.values()),
        "op_tail_percentile": tail_pct,
        "slowdown_median": statistics.median(rec.slowdowns),
        "measured_op_p50_ms": measured_p50_ms,
        "measured_op_tail_ms": measured_tail_ms,
        "measured_wall_s": rec.wall_s,
        "first_run_wall_s": sum(rec.latencies[op][0] for op in range(len(ops))),
        "end_to_end": end_to_end,
        "failures": rec.failures,
        "environment": _environment(args, library),
    }
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({**record, "metrics": metrics,
                                    "op_latencies_s": [rec.latencies[op]
                                                       for op in range(len(ops))],
                                    "slowdowns": rec.slowdowns,
                                    "spans": rec.span_dicts()}) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": not failed_ops, "attempted": len(ops),
                      "failed": len(failed_ops), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
