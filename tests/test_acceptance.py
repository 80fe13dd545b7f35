"""End-to-end acceptance suite: one test per release criterion.

Each test checks a documented guarantee at its stated tolerance and
enforces its runtime budget; `pytest -v` therefore prints one pass/fail
line per criterion.  Expected values come from closed forms, exhaustive
oracles, or cross-route identities, never from the solver under test.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from loglosslab import (
    DegenerateInstanceError,
    Pmf,
    SourceProblem,
    conditional_entropy,
    construct_sr,
    construct_sr_chain,
    distortion_bounds,
    entropy,
    build_corresponding,
    hamming_distortion,
    identity_bound,
    identity_sweep,
    joint_from_source_and_channel,
    logloss_avg_optimum,
    logloss_codebook,
    logloss_excess_optimum,
    logloss_excess_oracle,
    rd_at_distortion,
    solve_avg,
    solve_avg_oracle,
    tilted_information,
    timeshare_simulate,
    timeshare_two_decoders,
    varentropy,
    verify_csiszar_identity,
    verify_optimum_coincidence,
    verify_sr,
)
from loglosslab.cli import main

LN2 = math.log(2.0)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

SUITE = {
    "uniform3": SourceProblem(px=Pmf.uniform(3), distortion=hamming_distortion(3)),
    "uniform4": SourceProblem(px=Pmf.uniform(4), distortion=hamming_distortion(4)),
    "skewA": SourceProblem(px=Pmf([0.4, 0.3, 0.2, 0.1]),
                           distortion=hamming_distortion(4)),
    "skewB": SourceProblem(px=Pmf([0.35, 0.30, 0.20, 0.15]),
                           distortion=np.abs(np.subtract.outer(np.arange(4.0),
                                                               np.arange(4.0)))),
}

# shared lazily between criteria 3 and 4; the first caller pays the build
_BUILT: dict = {}


def h_b(d: float) -> float:
    return -d * math.log(d) - (1.0 - d) * math.log(1.0 - d)


def _built_suite():
    if not _BUILT:
        degenerate = set()
        for name, prob in SUITE.items():
            for n_messages in (2, 3):
                try:
                    cp = build_corresponding(prob, n_messages, tol=1e-10)
                except DegenerateInstanceError:
                    degenerate.add((name, n_messages))
                    continue
                _BUILT[(name, n_messages)] = cp
        # uniform-3 at three messages is the lone endpoint instance:
        # its best expected distortion is exactly zero
        assert degenerate == {("uniform3", 3)}
    return _BUILT


def test_criterion_1_binary_hamming_closed_form():
    start = time.perf_counter()
    binary = SourceProblem(px=Pmf([0.5, 0.5]), distortion=hamming_distortion(2))
    worst_rate = worst_slope = 0.0
    for d in (0.05, 0.1, 0.2, 0.3):
        point = rd_at_distortion(binary, d, tol=1e-10)
        worst_rate = max(worst_rate, abs(point.rate - (LN2 - h_b(d))))
        worst_slope = max(worst_slope, abs(point.lambda_star - math.log((1 - d) / d)))
    elapsed = time.perf_counter() - start
    assert worst_rate < 1e-6
    assert worst_slope < 1e-6
    assert elapsed < 1.0
    print(f"[criterion 1] rate err {worst_rate:.2e}, slope err {worst_slope:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_2_identity_residuals_on_random_problems():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_residual = worst_tilt = 0.0
    for _ in range(50):
        r = int(rng.integers(2, 7))
        s = int(rng.integers(2, 7))
        weights = rng.random(r)
        problem = SourceProblem(px=Pmf(weights / weights.sum()),
                                distortion=rng.random((r, s)))
        d_min, d_max = distortion_bounds(problem)
        target = d_min + rng.uniform(0.2, 0.8) * (d_max - d_min)
        point = rd_at_distortion(problem, target, tol=1e-10)
        worst_residual = max(worst_residual, verify_csiszar_identity(problem, point))
        mean_tilt = float(problem.px.probs @ tilted_information(problem, point))
        worst_tilt = max(worst_tilt, abs(mean_tilt - point.rate))
    elapsed = time.perf_counter() - start
    assert worst_residual < 1e-6
    assert worst_tilt < 1e-8
    assert elapsed < 30.0
    print(f"[criterion 2] identity residual {worst_residual:.2e}, "
          f"mean-tilt gap {worst_tilt:.2e}, {elapsed:.2f}s")


def test_criterion_3_equivalence_identity_exhaustive():
    start = time.perf_counter()
    built = _built_suite()
    worst_residual = 0.0
    worst_floor = math.inf
    total_codes = 0
    for cp in built.values():
        sweep = identity_sweep(cp)
        assert not sweep.sampled
        total_codes += sweep.n_codes
        worst_residual = max(worst_residual, sweep.max_residual)
        worst_floor = min(worst_floor,
                          verify_optimum_coincidence(cp).min_loss - cp.h_x_given_xhat)
    elapsed = time.perf_counter() - start
    assert worst_residual < 1e-6
    assert worst_floor >= -1e-9
    assert elapsed < 60.0
    print(f"[criterion 3] {total_codes} codes, residual {worst_residual:.2e}, "
          f"loss floor margin {worst_floor:+.2e}, {elapsed:.2f}s")


def test_identity_bound_certifies_the_suite():
    # The O(r k) bound dominates the exhaustive residuals of criterion 3
    # and stays within criterion 3's own scale.
    worst_bound = 0.0
    for cp in _built_suite().values():
        bound = identity_bound(cp)
        assert bound >= identity_sweep(cp).max_residual
        worst_bound = max(worst_bound, bound)
    assert worst_bound <= 1e-9
    print(f"[criterion 3] residual bound {worst_bound:.2e}")


def test_criterion_4_optimum_sets_coincide():
    start = time.perf_counter()
    built = _built_suite()
    for (name, n_messages), cp in built.items():
        report = verify_optimum_coincidence(cp)
        assert report.matched, (name, n_messages)
        assert len(report.loss_argmin) == len(report.distortion_argmin)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[criterion 4] argmin sets match on {len(built)} instances, {elapsed:.2f}s")


def test_criterion_5_enumeration_matches_oracles():
    start = time.perf_counter()
    for prob in SUITE.values():
        for n_messages in (1, 2, 3):
            _, value = solve_avg(prob, n_messages)
            assert value == solve_avg_oracle(prob, n_messages)

    pmfs = [prob.px for prob in SUITE.values()]
    rng = np.random.default_rng(7)
    for r in range(2, 11):
        weights = rng.random(r)
        pmfs.append(Pmf(weights / weights.sum()))
    checked = 0
    for px in pmfs:
        for n_messages in (1, 2, 3):
            for d in (0.0, 0.5, LN2, 1.2):
                _, eps = logloss_excess_optimum(px, n_messages, d)
                assert eps == logloss_excess_oracle(px, n_messages, d)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"[criterion 5] exact oracle agreement on {checked + 12} cases, {elapsed:.2f}s")


def test_criterion_6_closed_form_partition_optima():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = int(rng.integers(2, 11))
        n_messages = int(rng.integers(1, 5))
        weights = rng.random(r)
        px = Pmf(weights / weights.sum())
        _, value = logloss_avg_optimum(px, n_messages)
        slack = value - (entropy(px) - math.log(n_messages))
        assert slack >= -1e-12
        if 2 <= n_messages <= r:
            # continuous draws almost surely admit no equal-mass partition
            assert slack > 1e-12

    for r in range(2, 9):
        px = Pmf.uniform(r)
        for n_messages in range(1, 5):
            _, value = logloss_avg_optimum(px, n_messages)
            gap = value - (entropy(px) - math.log(n_messages))
            assert (abs(gap) <= 1e-12) == (r % n_messages == 0), (r, n_messages)

    for r in (2, 3, 4, 6, 10):
        ramp = np.arange(1.0, r + 1.0)
        for px in (Pmf.uniform(r), Pmf(ramp / ramp.sum())):
            for n_messages in (1, 2, 3):
                for d in (0.0, 0.2, 0.5, LN2, 1.2):
                    _, eps = logloss_excess_optimum(px, n_messages, d)
                    assert logloss_codebook(px, d, eps)[0].n_messages <= n_messages
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"[criterion 6] bound, equality cases, and codebook consistency hold, "
          f"{elapsed:.2f}s")


def test_criterion_7_refinement_constructions_verify():
    start = time.perf_counter()
    cases = [
        (SourceProblem(px=Pmf([0.5, 0.5]), distortion=hamming_distortion(2)), 0.1),
        (SourceProblem(px=Pmf([0.5, 0.3, 0.2]), distortion=hamming_distortion(3)), 0.15),
    ]
    worst = 0.0
    for prob, d2 in cases:
        point = rd_at_distortion(prob, d2, tol=1e-10)
        h2 = conditional_entropy(joint_from_source_and_channel(prob.px, point.forward))
        for d1 in np.linspace(h2, entropy(prob.px), 5):
            report = verify_sr(construct_sr(prob, float(d1), d2, tol=1e-10))
            assert report.ok
            worst = max(worst, max(ch.value for ch in report.checks))
    chain = construct_sr_chain(cases[0][0], (0.65, 0.5, 0.35), 0.1, tol=1e-10)
    for layer in chain:
        report = verify_sr(layer)
        assert report.ok
        worst = max(worst, max(ch.value for ch in report.checks))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"[criterion 7] 13 constructions verified, worst check {worst:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_8_timeshare_monte_carlo():
    start = time.perf_counter()
    px = Pmf.uniform(4)
    h = entropy(px)
    n = 100_000

    def scheme_sigma(k: int) -> float:
        # per-sample deviation of the scheme: a sample costs 0 nats inside
        # the lossless prefix and its information density outside it
        tail = 1.0 - k / n
        second_moment = tail * (varentropy(px) + h * h)
        return math.sqrt(second_moment - (tail * h) ** 2)

    losses, rates = [], []
    for seed in range(30):
        report = timeshare_simulate(px, LN2, n, seed=seed)
        assert report.lossless_prefix == 50_000
        losses.append(report.empirical_loss)
        rates.append(report.ideal_rate)
    band = 4.0 * scheme_sigma(50_000) / math.sqrt(30 * n)
    loss_dev = abs(float(np.mean(losses)) - LN2)
    rate_dev = abs(float(np.mean(rates)) - LN2)
    assert loss_dev < band
    assert rate_dev < band

    coarse, fine = timeshare_two_decoders(px, LN2, math.log(4.0) / 4.0, n, seed=123)
    assert fine.lossless_prefix == 75_000
    band1 = 4.0 * scheme_sigma(coarse.lossless_prefix) / math.sqrt(n)
    band2 = 4.0 * scheme_sigma(fine.lossless_prefix) / math.sqrt(n)
    assert abs(coarse.empirical_loss - LN2) < band1
    assert abs(fine.empirical_loss - math.log(4.0) / 4.0) < band2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[criterion 8] mean loss dev {loss_dev:.2e} and rate dev {rate_dev:.2e} "
          f"vs band {band:.2e}, {elapsed:.2f}s")


def test_criterion_9_cli_reports_deterministic(tmp_path, capsys):
    binary = str(PROBLEMS / "binary_hamming.yaml")
    skew3 = str(PROBLEMS / "skewed3.yaml")
    commands = [
        ["rd", binary, "--distortion", "0.2"],
        ["oneshot", skew3, "--criterion", "avg", "--messages", "2"],
        ["equiv", skew3, "--messages", "2"],
        ["sr", binary, "--d1", "0.5", "--d2", "0.1"],
        ["timeshare", "--px", "0.25,0.25,0.25,0.25", "--distortion", "0.4",
         "--n", "1000", "--seed", "11"],
    ]
    for argv in commands:
        paths = [tmp_path / f"{argv[0]}_a.json", tmp_path / f"{argv[0]}_b.json"]
        for path in paths:
            assert main(argv + ["--output", str(path)]) == 0
        first, second = (
            "\n".join(line for line in path.read_text().splitlines()
                      if '"wall_clock_seconds"' not in line)
            for path in paths
        )
        assert first == second, argv[0]
    capsys.readouterr()
    print(f"[criterion 9] {len(commands)} commands re-run byte-identical")
