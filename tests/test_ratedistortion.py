import dataclasses
import math
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglosslab import (
    Channel,
    ConvergenceError,
    InfeasibleError,
    Pmf,
    SourceProblem,
    ValidationError,
    build_corresponding,
    distortion_bounds,
    entropy,
    hamming_distortion,
    logloss_rd,
    posterior,
    rd_at_distortion,
    rd_curve,
    solve_avg,
    tilted_information,
    verify_csiszar_identity,
    verify_lemma1,
    verify_optimum_coincidence,
)
from loglosslab import ratedistortion
from loglosslab.ratedistortion import PRUNE_EPS

import test_rd_ledger

LN2 = math.log(2.0)
# The certificate tol min(1e-10, tol / 100) of a solve at tol = 1e-10.
CERT_TOL = 1e-12


def h_b(p: float) -> float:
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def binary_hamming() -> SourceProblem:
    return SourceProblem(px=Pmf([0.5, 0.5]), distortion=hamming_distortion(2))


def uniform_hamming(r: int) -> SourceProblem:
    return SourceProblem(px=Pmf.uniform(r), distortion=hamming_distortion(r))


def random_problem(rng, r: int, s: int) -> SourceProblem:
    while True:
        w = rng.uniform(0.05, 1.0, size=r)
        dist = rng.uniform(0.0, 2.0, size=(r, s))
        dist -= dist.min(axis=1, keepdims=True)  # keep D_min = 0 rows
        try:
            return SourceProblem(px=Pmf(w / w.sum()), distortion=dist)
        except ValidationError:
            continue  # duplicate columns; astronomically rare, redraw


def interior_target(problem: SourceProblem, frac: float) -> float:
    d_min, d_max = distortion_bounds(problem)
    return d_min + frac * (d_max - d_min)


class TestSourceProblem:
    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            SourceProblem(px=Pmf([0.5, 0.5]), distortion=np.zeros((3, 2)))

    def test_negative_entries(self):
        with pytest.raises(ValidationError):
            SourceProblem(px=Pmf([0.5, 0.5]), distortion=np.array([[0.0, -1.0],
                                                                   [1.0, 0.0]]))

    def test_duplicate_columns_rejected(self):
        dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValidationError):
            SourceProblem(px=Pmf([0.5, 0.5]), distortion=dist)

    def test_duplicate_pair_named(self):
        dist = np.random.default_rng(3).random((4, 300))
        dist[:, 250] = dist[:, 3]
        with pytest.raises(ValidationError, match="columns 3 and 250 are identical"):
            SourceProblem(px=Pmf.uniform(4), distortion=dist)

    def test_hamming_matrix(self):
        d = hamming_distortion(3)
        assert d.shape == (3, 3)
        assert d.trace() == 0.0
        assert d.sum() == 6.0


class TestBounds:
    def test_binary(self):
        assert distortion_bounds(binary_hamming()) == (0.0, 0.5)

    def test_skewed_absdiff(self):
        dist = np.abs(np.subtract.outer(np.arange(4), np.arange(4))).astype(float)
        prob = SourceProblem(px=Pmf([0.35, 0.30, 0.20, 0.15]), distortion=dist)
        d_min, d_max = distortion_bounds(prob)
        assert d_min == 0.0
        # best single column is j=1: 0.35*1 + 0.20*1 + 0.15*2
        assert d_max == pytest.approx(0.85, abs=1e-15)


class TestBinaryHammingAnalytic:
    # rate ln2 - h_b(D), slope ln((1-D)/D): the standard closed form
    @pytest.mark.parametrize("d", [0.05, 0.1, 0.2, 0.3])
    def test_rate_and_slope(self, d):
        point = rd_at_distortion(binary_hamming(), d)
        assert point.rate == pytest.approx(LN2 - h_b(d), abs=1e-6)
        assert point.lambda_star == pytest.approx(math.log((1 - d) / d), abs=1e-6)

    @pytest.mark.parametrize("d", [0.1, 0.3])
    def test_reverse_is_bsc(self, d):
        point = rd_at_distortion(binary_hamming(), d)
        expected = np.array([[1 - d, d], [d, 1 - d]])
        assert np.max(np.abs(point.reverse.rows - expected)) < 1e-6


class TestUniformHammingAnalytic:
    # rate ln r - h_b(D) - D ln(r-1), slope ln((1-D)(r-1)/D)
    @pytest.mark.parametrize("r,d", [(3, 1 / 3), (3, 0.2), (4, 0.3), (5, 0.5)])
    def test_rate_and_slope(self, r, d):
        point = rd_at_distortion(uniform_hamming(r), d)
        expected_rate = math.log(r) - h_b(d) - d * math.log(r - 1)
        expected_lam = math.log((1 - d) * (r - 1) / d)
        assert point.rate == pytest.approx(expected_rate, abs=1e-6)
        assert point.lambda_star == pytest.approx(expected_lam, abs=1e-6)

    def test_frozen_ternary_point(self):
        # r=3, D=1/3: rate = ln3 - h_b(1/3) - (1/3)ln2 = 0.23104906018664842,
        # slope = ln((2/3)*2/(1/3)) = ln4
        point = rd_at_distortion(uniform_hamming(3), 1 / 3)
        assert point.rate == pytest.approx(0.23104906018664842, abs=1e-6)
        assert point.lambda_star == pytest.approx(math.log(4.0), abs=1e-6)


class TestRdAtDistortion:
    def test_achieved_matches_target(self):
        prob = random_problem(np.random.default_rng(9), 5, 5)
        d = interior_target(prob, 0.4)
        point = rd_at_distortion(prob, d, tol=1e-9)
        assert point.diagnostics.achieved_distortion == pytest.approx(d, abs=1e-9)

    def test_infeasible_targets(self):
        prob = binary_hamming()
        with pytest.raises(InfeasibleError):
            rd_at_distortion(prob, -0.01)
        with pytest.raises(InfeasibleError):
            rd_at_distortion(prob, 0.51)

    def test_endpoints_clamp(self):
        prob = binary_hamming()
        lo = rd_at_distortion(prob, 0.0)
        assert lo.rate == pytest.approx(LN2, abs=1e-6)
        hi = rd_at_distortion(prob, 0.5)
        assert hi.rate == pytest.approx(0.0, abs=1e-8)

    def test_zero_rate_knee_is_exact(self):
        # column 1 is best for both symbols, so D_min = D_max
        dist = np.array([[0.5, 0.2, 0.9], [0.4, 0.1, 0.3]])
        prob = SourceProblem(px=Pmf([0.3, 0.7]), distortion=dist)
        point = rd_at_distortion(prob, distortion_bounds(prob)[1])
        assert point.rate == 0.0
        assert point.lambda_star == 0.0
        assert point.kept_columns == (1,)

    def test_diagnostics_repeat(self):
        prob = SourceProblem(px=Pmf([0.4, 0.3, 0.2, 0.1]), distortion=hamming_distortion(4))
        first, second = (rd_at_distortion(prob, 0.3, tol=1e-10).diagnostics
                         for _ in range(2))
        assert first == second
        assert first.ba_calls == 1

    @pytest.mark.parametrize("max_iter", [0, -3, False, True, 1.0, 2.5, None, "10"])
    def test_bad_budget_is_a_validation_error(self, max_iter):
        # Also at the knee, which needs no iteration at all.
        for d in (0.1, 0.5):
            with pytest.raises(ValidationError, match="max_iter"):
                rd_at_distortion(binary_hamming(), d, max_iter=max_iter)

    def test_smallest_budget_is_accepted(self):
        point = rd_at_distortion(binary_hamming(), 0.1, max_iter=np.int64(2))
        assert point.diagnostics.ba_iterations == 2
        # On binary Hamming the uniform first iterate is already optimal: a
        # budget of one iteration ends on its duality gap, which is rounding.
        point = rd_at_distortion(binary_hamming(), 0.1, max_iter=1)
        assert point.diagnostics.ba_iterations == 1
        assert point.rate == pytest.approx(LN2 - h_b(0.1), abs=1e-14)
        assert verify_csiszar_identity(binary_hamming(), point) <= 1e-12
        # On SKEW3 the first iterate is far from R(D), so the budget runs
        # out, and the refusal carries that iterate's duality gap.
        skew3 = SourceProblem(px=Pmf([0.5, 0.3, 0.2]), distortion=hamming_distortion(3))
        with pytest.raises(ConvergenceError) as err:
            rd_at_distortion(skew3, 0.2, max_iter=1)
        gap = err.value.gap
        assert gap > 1e-10
        assert f"duality gap {gap:.3e}" in str(err.value)

    def test_forward_rows_are_pmfs(self):
        prob = random_problem(np.random.default_rng(12), 4, 6)
        point = rd_at_distortion(prob, interior_target(prob, 0.5))
        assert point.forward.rows.sum(axis=1) == pytest.approx([1.0] * 4)
        assert point.forward.n_out == len(point.kept_columns)

    def test_dominated_column_pruned(self):
        # column 2 = column 0 shifted up by 0.5; it can never help
        dist = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.5]])
        prob = SourceProblem(px=Pmf([0.5, 0.5]), distortion=dist)
        point = rd_at_distortion(prob, 0.2)
        assert point.kept_columns == (0, 1)
        assert point.rate == pytest.approx(LN2 - h_b(0.2), abs=1e-6)

    def test_zero_mass_symbol_ignored(self):
        prob = SourceProblem(px=Pmf([0.5, 0.5, 0.0]),
                             distortion=hamming_distortion(3))
        point = rd_at_distortion(prob, 0.1)
        assert point.rate == pytest.approx(LN2 - h_b(0.1), abs=1e-6)
        # dead symbols still get a defined forward row
        assert point.forward.rows.sum(axis=1) == pytest.approx([1.0] * 3)

    def test_reverse_bayes_consistency(self):
        prob = random_problem(np.random.default_rng(21), 4, 4)
        point = rd_at_distortion(prob, interior_target(prob, 0.35))
        px = prob.px.probs
        joint = px[:, None] * point.forward.rows
        back = point.output_marginal.probs[:, None] * point.reverse.rows
        assert np.max(np.abs(joint - back.T)) < 1e-12

    # px = (0.5, 0.3, 0.2) with the 3x3 0/1 matrix scaled by c, at D = 0.2c.
    # Scaling the unit of distortion leaves the rate.
    SCALED_RATE = 0.390621154414396

    @staticmethod
    def scaled(c: float) -> SourceProblem:
        return SourceProblem(px=Pmf([0.5, 0.3, 0.2]), distortion=c * hamming_distortion(3))

    @pytest.mark.parametrize("c", [1e-7, 1.0, 1e9])
    def test_scaled_problem_keeps_its_rate(self, c):
        point = rd_at_distortion(self.scaled(c), 0.2 * c)
        assert point.rate == pytest.approx(self.SCALED_RATE, rel=2e-14)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 10: at c = 1e-8 the spread D_max - D_min is below the absolute tol, "
        "so the solve takes the zero-rate knee (rate 0.0, kept columns (0,))"))
    def test_a_spread_below_tol_keeps_its_rate(self):
        point = rd_at_distortion(self.scaled(1e-8), 0.2e-8)
        assert point.rate == pytest.approx(0.39062115441439654, rel=1e-9)

    @pytest.mark.parametrize("c", [1e50, 1e100])
    def test_missed_target_raises(self, c):
        # The solve reaches distortion 0.0 (rate H(X)) here; it must not
        # return that point as the one at 0.2c.
        d = 0.2 * c
        with pytest.raises(ConvergenceError,
                           match=rf"achieved distortion 0\.0 misses the target "
                                 rf"{re.escape(repr(d))} by more than tol = 1e-08"):
            rd_at_distortion(self.scaled(c), d)

    def test_rate_equals_mutual_information(self):
        prob = random_problem(np.random.default_rng(22), 4, 5)
        point = rd_at_distortion(prob, interior_target(prob, 0.5))
        p = prob.px.probs
        fwd = point.forward.rows
        m = point.output_marginal.probs
        mask = fwd > 0.0
        mi = float((p[:, None] * np.where(mask, fwd * (np.log(np.where(mask, fwd, 1.0))
                                                       - np.log(m)[None, :]), 0.0)).sum())
        assert point.rate == pytest.approx(mi, abs=1e-10)


def erokhin_rd(px, d: float) -> tuple[float, float, tuple[int, ...], np.ndarray]:
    """Closed-form R(D), slope, output support and output masses under Hamming distortion.

    Erokhin (1958), "epsilon-entropy of a discrete random variable".  With
    the masses sorted in descending order and beta = exp(-lam), the optimal
    output support is the k most probable symbols.  At distortion D, with
    c = 1 - D and S_k the mass of the top k, beta = (S_k / c - 1) / (k - 1)
    for the largest k whose smallest member keeps p_k >= beta c.  The output
    mass of a support symbol is (p_x / c - beta) / (1 - beta), and
    R = -lam D - sum_x p_x ln z_x with z_x = p_x / c on the support and
    beta off it.
    """
    p = np.asarray(px, dtype=float)
    order = np.argsort(-p, kind="stable")
    ps = p[order]
    c = 1.0 - d
    for k in range(ps.size, 1, -1):
        beta = (ps[:k].sum() / c - 1.0) / (k - 1)
        if ps[k - 1] >= beta * c:
            break
    top = np.arange(ps.size) < k
    lam = -math.log(beta)
    rate = -lam * d - float(ps @ np.log(np.where(top, ps / c, beta)))
    mass = np.where(top, (ps / c - beta) / (1.0 - beta), 0.0)
    masses = np.empty_like(mass)
    masses[order] = mass
    return rate, lam, tuple(np.flatnonzero(masses >= PRUNE_EPS).tolist()), masses


def dual_gap(problem: SourceProblem, point) -> float:
    """The point's rate less Blahut's (1972) lower bound on R at its D.

    For any slope lam >= 0 and marginal q, with z_x = sum_j q_j
    exp(-lam d_xj) and t_j = sum_x px exp(-lam d_xj) / z_x over every
    column, R(D) >= -lam D - sum_x px ln z_x - ln max_j t_j.  Evaluated at
    the point's own slope, marginal and achieved distortion; rows are
    shifted by their minima, which leaves the bound unchanged.
    """
    live = problem.px.probs > 0.0
    px = problem.px.probs[live]
    dist = problem.distortion[live]
    shift = dist.min(axis=1)
    lam = point.lambda_star
    tilt = np.exp(-lam * (dist - shift[:, None]))
    q = np.zeros(problem.n_reconstruction)
    q[list(point.kept_columns)] = point.output_marginal.probs
    z = tilt @ q
    t = px @ (tilt / z[:, None])
    d_shifted = point.diagnostics.achieved_distortion - float(px @ shift)
    bound = -lam * d_shifted - float(px @ np.log(z)) - math.log(float(t.max()))
    return point.rate - bound


def erokhin_breakpoints(px) -> list[float]:
    """Distortions where the output support shrinks, D_max last.

    The k-th most probable symbol leaves the support at
    D_k = 1 - S_k + (k - 1) p_k; at k = 2 that is D_max = 1 - p_1.
    """
    ps = np.sort(np.asarray(px, dtype=float))[::-1]
    return [1.0 - float(ps[:k].sum()) + (k - 1) * float(ps[k - 1])
            for k in range(ps.size, 1, -1)]


class TestHammingClosedForm:
    # Each point solves within 1 s, also at a support change and within
    # 1e-6 of one, where plain Blahut-Arimoto converges only sublinearly.
    BUDGET_S = 1.0

    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=8),
           st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    @example(weights=[1.0, 0.99999, 1.0, 1.0, 0.99999], fracs=[0.5])
    def test_rate_slope_and_support(self, weights, fracs):
        w = np.array(weights)
        px = w / w.sum()
        problem = SourceProblem(px=Pmf(px), distortion=hamming_distortion(px.size))
        d_max = distortion_bounds(problem)[1]
        targets = [b + off for b in erokhin_breakpoints(px)
                   for off in (0.0, -1e-6, 1e-6, -1e-3, 1e-3)]
        targets += [f * d_max for f in fracs]
        for d in targets:
            # At the knee D_max itself the slope is any value down to the
            # closed form's left slope; the solver answers 0 there.
            if not 0.0 < d < d_max - 1e-9:
                continue
            start = time.perf_counter()
            point = rd_at_distortion(problem, d, tol=1e-10)
            elapsed = time.perf_counter() - start
            achieved = point.diagnostics.achieved_distortion
            rate, lam, support, closed = erokhin_rd(px, achieved)
            assert abs(achieved - d) <= 1e-10
            assert abs(point.rate - rate) <= 1e-9, (d, point.rate, rate)
            assert abs(point.lambda_star - lam) <= 1e-8, (d, point.lambda_star, lam)
            # A column the two supports disagree on carries, in both, a mass
            # the scores cannot resolve (test_unresolved_masses_at_a_breakpoint).
            got = np.zeros(px.size)
            got[list(point.kept_columns)] = point.output_marginal.probs
            unresolved = np.spacing(1.0) / (lam ** 2 * px)
            for j in set(point.kept_columns) ^ set(support):
                assert max(got[j], closed[j]) < unresolved[j], (d, point.kept_columns, support)
            assert abs(dual_gap(problem, point)) <= CERT_TOL, d
            assert elapsed < self.BUDGET_S, (d, elapsed)

    def test_unresolved_masses_at_a_breakpoint(self):
        # Both lighter symbols, tied, leave the support at D = 0.7999951999807999,
        # 4e-6 below the knee, where the slope is 3.0e-5.  The solver makes each
        # column's score t_j = sum_x px exp(-lam d_xj) / z_x stationary at 1, a
        # float resolved to about an ulp; a mass m moved onto column j moves t_j
        # against the others by about lam^2 px_j m, here 1.8e-10 m.  So a mass
        # below ulp(1) / (lam^2 px_j), 1.2e-6 here, is not determined: the scores
        # of the solver's marginal, and of it with every column off the closed
        # form's support emptied into column 0, are all within two ulps of 1.
        px = np.array([1.0, 0.99999, 1.0, 1.0, 0.99999])
        px /= px.sum()
        problem = SourceProblem(px=Pmf(px), distortion=hamming_distortion(5))
        d = erokhin_breakpoints(px)[0]
        assert d == 0.7999951999807999
        point = rd_at_distortion(problem, d, tol=1e-10)
        rate, lam, support, closed = erokhin_rd(px, d)
        assert support == (0, 2, 3)
        assert abs(point.rate - rate) <= 1e-16 and abs(dual_gap(problem, point)) <= CERT_TOL
        got = np.zeros(5)
        got[list(point.kept_columns)] = point.output_marginal.probs
        emptied = got.copy()
        emptied[[1, 4]] = 0.0
        emptied[0] += got[1] + got[4]
        expd = np.exp(-point.lambda_star * problem.distortion)
        for q in (got, emptied):
            scores = px.dot(expd / expd.dot(q)[:, None])
            assert np.abs(scores - 1.0).max() <= 2 * np.spacing(1.0), scores - 1.0
        unresolved = np.spacing(1.0) / (lam ** 2 * px)
        assert 1.2e-6 < unresolved.min()
        assert max(got[1], got[4], closed[1], closed[4]) < unresolved.min()

    def test_skewed_support_changes(self):
        # px = (.4, .3, .2, .1): the lightest column leaves at D = 0.3
        # (slope ln 7), the next at D = 0.5.  Just below each, the leaving
        # column's optimal mass is under PRUNE_EPS and the column is pruned.
        px = [0.4, 0.3, 0.2, 0.1]
        assert erokhin_breakpoints(px)[:2] == pytest.approx([0.3, 0.5], abs=1e-15)
        problem = SourceProblem(px=Pmf(px), distortion=hamming_distortion(4))
        for d, kept in ((0.3, (0, 1, 2)), (0.5, (0, 1)),
                        (0.3 - 1e-10, (0, 1, 2)), (0.5 - 1e-10, (0, 1))):
            start = time.perf_counter()
            point = rd_at_distortion(problem, d, tol=1e-10)
            assert time.perf_counter() - start < 0.1
            rate, lam, support, _ = erokhin_rd(px, d)
            assert point.kept_columns == kept == support
            assert point.rate == pytest.approx(rate, abs=1e-12)
            assert point.lambda_star == pytest.approx(lam, abs=1e-9)

    def test_binary_at_full_precision(self):
        point = rd_at_distortion(binary_hamming(), 0.1, tol=1e-10)
        assert abs(point.rate - (LN2 - h_b(0.1))) <= 1e-13
        assert abs(point.lambda_star - math.log(9.0)) <= 1e-12


def criterion2_draws():
    """The 50 seeded random problems and targets of acceptance criterion 2."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = int(rng.integers(2, 7))
        s = int(rng.integers(2, 7))
        weights = rng.random(r)
        problem = SourceProblem(px=Pmf(weights / weights.sum()),
                                distortion=rng.random((r, s)))
        d_min, d_max = distortion_bounds(problem)
        yield problem, d_min + rng.uniform(0.2, 0.8) * (d_max - d_min)


class TestIterationCounts:
    # Counters do not depend on the machine: each of these points finishes
    # with the polish first attempted, at iteration 2.
    def test_criterion2_draws_finish_at_iteration_two(self):
        solved = 0
        for problem, d in criterion2_draws():
            point = rd_at_distortion(problem, d, tol=1e-10)
            assert abs(dual_gap(problem, point)) <= CERT_TOL, d
            diag = point.diagnostics
            if d >= distortion_bounds(problem)[1] - 1e-10:
                # D_min = D_max: the zero-rate knee is exact without a solve.
                assert (diag.ba_calls, diag.ba_iterations) == (0, 0), d
                continue
            assert diag.ba_calls == 1, d
            assert diag.ba_iterations <= 2, (d, diag.ba_iterations)
            solved += 1
        assert solved == 47

    def test_skewed_grid_finishes_at_iteration_two(self):
        px = [0.4, 0.3, 0.2, 0.1]
        problem = SourceProblem(px=Pmf(px), distortion=hamming_distortion(4))
        for i in range(1, 24):
            d = round(0.025 * i, 3)
            point = rd_at_distortion(problem, d, tol=1e-10)
            assert point.diagnostics.ba_calls == 1, d
            assert point.diagnostics.ba_iterations <= 2, (d, point.diagnostics)
            _, _, support, _ = erokhin_rd(px, point.diagnostics.achieved_distortion)
            assert point.kept_columns == support, (d, point.kept_columns, support)
            assert abs(dual_gap(problem, point)) <= CERT_TOL, d

    @pytest.mark.parametrize("frac", [0.05, 0.5, 0.95])
    def test_wide_problem_finishes_at_iteration_two(self, frac):
        # Iteration 2 keeps all 100 columns; the polish must be able to
        # remove most of them one Newton step at a time.
        problem = random_problem(np.random.default_rng(21), 100, 100)
        point = rd_at_distortion(problem, interior_target(problem, frac))
        assert point.diagnostics.ba_calls == 1
        assert point.diagnostics.ba_iterations == 2, point.diagnostics
        assert len(point.kept_columns) < 60
        assert verify_csiszar_identity(problem, point) < 1e-9


class TestDualGapStop:
    # Points where every polish attempt fails, so only the duality gap can
    # end the solve.  In the first two, D*(2) is, to the last bit, the D_min
    # of a sub-support, and the polish's merit is infinite on the support it
    # needs.
    # Each point also pins its work: (BA iterations, prune rounds, _polish
    # calls, _merit calls).  These counts do not depend on the machine.
    BUDGET_S = 1.0
    # The failed polish attempts of the low-mass-column instance make about
    # 2,100 slope matches; it takes about 1.2 s.
    SLOW_BUDGET_S = 5.0

    FIRST = SourceProblem(px=Pmf.uniform(4), distortion=np.array(
        [[0, 0, 0, 0], [1, 0, 1, 0.5], [0, 1, 1, 1], [1, 0.015625, 0, 0]], dtype=float))
    SECOND = SourceProblem(px=Pmf.uniform(5), distortion=np.array(
        [[1, 0.5, 0.0078125, 0], [1, 1, 0.5, 1], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
        dtype=float))

    @staticmethod
    def counted_solve(problem, d, budget_s):
        """rd_at_distortion at tol 1e-10 within budget_s: (point, work counts)."""
        with mock.patch.object(ratedistortion, "_polish", wraps=ratedistortion._polish) as polish, \
                mock.patch.object(ratedistortion, "_merit", wraps=ratedistortion._merit) as merit:
            start = time.perf_counter()
            point = rd_at_distortion(problem, d, tol=1e-10)
            assert time.perf_counter() - start < budget_s
        diag = point.diagnostics
        return point, (diag.ba_iterations, diag.prune_rounds, polish.call_count, merit.call_count)

    def solve(self, problem, d_star, rate, work):
        assert solve_avg(problem, 2)[1] == d_star
        point, counts = self.counted_solve(problem, d_star, self.BUDGET_S)
        assert counts == work
        assert abs(point.rate - rate) <= 1e-9, point.rate
        assert abs(point.diagnostics.achieved_distortion - d_star) <= 1e-10
        assert abs(dual_gap(problem, point)) <= CERT_TOL
        assert verify_csiszar_identity(problem, point) < 1e-9
        return point

    def test_first_instance(self):
        point = self.solve(self.FIRST, 1 / 256, 0.477385626221, (95, 1, 6, 514))
        assert point.kept_columns == (0, 1)
        start = time.perf_counter()
        cp = build_corresponding(self.FIRST, 2, tol=1e-10)
        assert time.perf_counter() - start < self.BUDGET_S
        assert verify_optimum_coincidence(cp).matched

    def test_second_instance(self):
        # The gap stop drops a column: one prune round.
        point = self.solve(self.SECOND, 0.1015625, 0.381908500977, (114, 1, 8, 644))
        assert point.kept_columns == (0, 1, 2)

    def test_low_mass_column_that_meets_the_target_stays(self):
        # D*(2) is the D_min of columns (0, 1, 3) up to rounding, which in
        # shifted units puts it 1.2e-18 below that D_min.  The iterate gives
        # column 2 a mass of 2e-11; dropping it would leave a support that
        # cannot meet the target, so the point keeps it.
        problem = SourceProblem(px=Pmf.uniform(3), distortion=np.array(
            [[0, 1, 1, 0], [0.125, 0.0625, 1, 1], [1, 2.0 ** -24, 0, 1]], dtype=float))
        d_star = solve_avg(problem, 2)[1]
        point, counts = self.counted_solve(problem, d_star, self.SLOW_BUDGET_S)
        assert point.kept_columns == (0, 1, 2, 3)
        # The gap stop keeps every column: no prune round.
        assert counts == (45, 0, 3, 2170)
        assert abs(point.rate - 0.636514168308) <= 1e-9, point.rate
        assert abs(point.diagnostics.achieved_distortion - d_star) <= 1e-10
        assert abs(dual_gap(problem, point)) <= CERT_TOL

    def test_low_mass_columns_that_keep_a_row_alive_stay(self):
        # Columns (0, 3) meet D*(2) only 3e-13 (relative) above their D_min,
        # at a slope near 1e14 that underflows every entry of row 1 on them.
        # The iterate gives columns 1 and 2 masses of 5e-12 and 1e-10;
        # dropping them would empty that row's tilt, so the point keeps them.
        # Its 12 failed polish attempts take 2.3-3.3 s per solve on a
        # two-core Intel Xeon.
        w = np.array([0.20581508, 0.16874697, 0.19420598, 0.1343432, 0.14871017, 0.1481786])
        problem = SourceProblem(px=Pmf(w / w.sum()), distortion=np.array([
            [0.0, 0.0, 0.297534502, 1e-14],
            [0.651075986, 0.394739053, 1e-08, 1e-05],
            [1e-08, 1e-12, 0.819896008, 0.791765899],
            [0.8607992, 0.0, 0.419772983, 0.0],
            [0.0, 0.594162619, 0.0, 0.507574521],
            [0.110643319, 1.0, 0.653818919, 0.18493546]]))
        d_star = solve_avg(problem, 2)[1]
        point, counts = self.counted_solve(problem, d_star, self.SLOW_BUDGET_S)
        assert point.kept_columns == (0, 1, 2, 3)
        assert counts == (177, 0, 12, 2489)
        assert np.isfinite(point.forward.rows).all()
        assert abs(point.diagnostics.achieved_distortion - d_star) <= 1e-10
        assert abs(dual_gap(problem, point)) <= CERT_TOL
        assert build_corresponding(problem, 2, tol=1e-10).source_point.kept_columns == (0, 1, 2, 3)

    def test_target_just_below_the_knee(self):
        # 1 - 1e-8 of the way from D_min to D_max on a 2 x 9 problem.
        problem = SourceProblem(px=Pmf([0.7765408410060481, 0.2234591589939519]),
                                distortion=np.array([
            [0.059199576467395265, 0.13540961940258334, 0.48023496791252707,
             0.0878626243390086, 0.05305976262276668, 0.3513576568134932,
             0.7958012327902494, 0.07513682143312794, 0.38956224036370946],
            [0.10575968313715, 0.9171297675647386, 0.5131598136374369,
             0.4006130096921715, 0.6685216320485204, 0.06937914504293141,
             0.18404645564162958, 0.433287425671144, 0.6772505349540788]]))
        d = 0.06960385861751354
        start = time.perf_counter()
        point = rd_at_distortion(problem, d, tol=1e-10)
        assert time.perf_counter() - start < self.BUDGET_S
        assert point.diagnostics.ba_iterations > 2
        assert abs(point.diagnostics.achieved_distortion - d) <= 1e-10
        assert 0.0 <= point.rate < 1e-8
        assert abs(dual_gap(problem, point)) <= CERT_TOL


    def test_gap_stop_ends_ordinary_points(self, monkeypatch):
        # Hold off each solve's polish attempt at iteration 2 on every third
        # point of the rd ledger.  From iteration 3 on, the duality gap is
        # checked on every iterate: it ends 7 of the 55 solves before the
        # attempt at iteration 16, which ends the rest.
        cases = list(test_rd_ledger._cases())[::3]
        unpatched = [rd_at_distortion(problem, d, tol=1e-10) for _, problem, d in cases]
        polish = ratedistortion._polish
        attempts = []

        def late_polish(*args):
            attempts.append(args)
            return polish(*args) if len(attempts) > 1 else None

        monkeypatch.setattr(ratedistortion, "_polish", late_polish)
        iterations = []
        for (label, problem, d), ref in zip(cases, unpatched):
            attempts.clear()
            point = rd_at_distortion(problem, d, tol=1e-10)
            assert point.kept_columns == ref.kept_columns, label
            assert abs(point.rate - ref.rate) <= 1e-12, (label, point.rate, ref.rate)
            assert abs(dual_gap(problem, point)) <= CERT_TOL, label
            if ref.diagnostics.ba_iterations:  # not the zero-rate knee
                iterations.append(point.diagnostics.ba_iterations)
        assert len(iterations) == 55
        assert all(2 < it <= 16 for it in iterations), iterations
        assert sum(it < 16 for it in iterations) == 7, iterations


class TestPolishLineSearchExit:
    def test_failed_attempt_leaves_the_solve_to_a_later_one(self):
        # The attempt at iteration 2 shrinks the support to two columns and
        # its line search runs out of halvings at a slope of about 1.4e4; a
        # later attempt finishes on three columns.
        problem = SourceProblem(
            px=Pmf([0.21439001183323794, 0.2645453617070924, 0.1255354182411794,
                    0.33948251154816195, 0.056046696670328335]),
            distortion=np.array([[2, 0.0625, 0.0078125, 0.5], [1, 1, 2, 2.0 ** -24],
                                 [1, 0.0625, 0.5, 1], [2.0 ** -24, 0, 0.015625, 2.0 ** -24],
                                 [0.125, 0, 0.125, 2.0 ** -24]]))
        start = time.perf_counter()
        point = rd_at_distortion(problem, 0.021245355147783397, tol=1e-10)
        assert time.perf_counter() - start < 1.0
        assert point.kept_columns == (1, 2, 3)
        assert abs(point.rate - 0.413102784090) <= 1e-9, point.rate
        assert verify_csiszar_identity(problem, point) < 1e-9
        assert abs(dual_gap(problem, point)) <= CERT_TOL


def _bordered_gram(rng, r, k):
    """A polish system (jac, res): the Gram matrix of k exclusion scores
    on r source symbols, bordered by the slope's row and column."""
    pxp = rng.random(r)
    pxp /= pxp.sum()
    ds = rng.random((r, k))
    qs = rng.random(k)
    qs /= qs.sum()
    e = np.exp(-3.0 * ds)
    scores = e / (e @ qs)[:, None]
    w = scores * qs
    mean = (w * ds).sum(axis=1)
    dev = ds - mean[:, None]
    jac = np.empty((k + 1, k + 1))
    jac[:k, :k] = (scores * pxp[:, None]).T @ scores
    jac[k, :k] = jac[:k, k] = pxp @ (scores * dev)
    jac[k, k] = -float(pxp @ (w * dev * dev).sum(axis=1))
    res = np.append(pxp @ scores - 1.0, 0.1 - float(pxp @ mean))
    return jac, res


def _lstsq_cases():
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        for _ in range(5):
            yield f"random{n}", rng.standard_normal((n, n)), rng.standard_normal(n)
    for n in range(2, 9):
        a = rng.standard_normal((n, n))
        a[:, -1] = a[:, 0]
        yield f"repeated{n}", a, rng.standard_normal(n)
    # A smallest singular value on either side of lstsq's cutoff eps * n:
    # the solve keeps or drops it as lstsq does only at the same rcond.
    for n in range(2, 9):
        for c in (0.5, 0.9, 1.1, 2.0, 10.0):
            u = np.linalg.qr(rng.standard_normal((n, n)))[0]
            v = np.linalg.qr(rng.standard_normal((n, n)))[0]
            s = np.linspace(1.0, 0.5, n)
            s[-1] = c * np.finfo(float).eps * n
            yield f"cutoff{n}x{c}", (u * s) @ v.T, rng.standard_normal(n)
    for r in range(2, 7):
        for k in range(1, 7):
            yield f"gram{r}x{k}", *_bordered_gram(rng, r, k)


class TestDirectLstsq:
    """The polish's Newton solve gives the bytes of np.linalg.lstsq."""

    CASES = list(_lstsq_cases())

    def _check(self):
        for label, a, b in self.CASES:
            got = ratedistortion._lstsq(a, b)
            want = np.linalg.lstsq(a, b, rcond=None)[0]
            assert got.shape == want.shape, label
            assert got.tobytes() == want.tobytes(), label

    def test_direct_call_matches_lstsq(self):
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
            assert ratedistortion._LSTSQ is not None
        self._check()

    def test_fallback_matches_lstsq(self, monkeypatch):
        monkeypatch.setattr(ratedistortion, "_LSTSQ", None)
        self._check()

    def test_points_are_the_same_on_the_fallback(self, monkeypatch):
        problem = SourceProblem(px=Pmf([0.4, 0.3, 0.2, 0.1]), distortion=hamming_distortion(4))
        direct = [rd_at_distortion(problem, d, tol=1e-10) for d in (0.1, 0.3, 0.45)]
        monkeypatch.setattr(ratedistortion, "_LSTSQ", None)
        for d, point in zip((0.1, 0.3, 0.45), direct):
            again = rd_at_distortion(problem, d, tol=1e-10)
            assert again.rate.hex() == point.rate.hex()
            assert again.lambda_star.hex() == point.lambda_star.hex()
            assert again.forward.rows.tobytes() == point.forward.rows.tobytes()


class TestAffineStretch:
    # A binary Hamming source plus an erasure column of cost 0.3: the curve
    # is a straight segment into (0.3, 0), where a whole face of marginals is
    # optimal at one slope and only the distortion constraint picks a point.
    PROBLEM = SourceProblem(px=Pmf([0.5, 0.5]),
                            distortion=np.array([[0.0, 1.0, 0.3], [1.0, 0.0, 0.3]]))

    def test_points_on_the_segment(self):
        points = []
        for d in (0.2, 0.25, 0.29):
            start = time.perf_counter()
            point = rd_at_distortion(self.PROBLEM, d, tol=1e-10)
            assert time.perf_counter() - start < 1.0
            assert point.kept_columns == (0, 1, 2)
            points.append((d, point))
        lam = points[0][1].lambda_star
        for d, point in points:
            assert abs(point.lambda_star - lam) <= 1e-8
            assert abs(point.rate - lam * (0.3 - d)) <= 1e-10
        (d0, p0), (d1, p1) = points[0], points[-1]
        assert abs(p0.rate * (0.3 - d1) - p1.rate * (0.3 - d0)) <= 1e-10


class TestRdCurve:
    def test_rates_non_increasing(self):
        prob = uniform_hamming(4)
        grid = [0.1, 0.2, 0.3, 0.5, 0.7]
        points = rd_curve(prob, grid)
        rates = [p.rate for p in points]
        assert len(points) == 5
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_slopes_non_increasing(self):
        # The slope -R'(D) falls as the target distortion rises: R is convex.
        prob = random_problem(np.random.default_rng(3), 4, 4)
        points = rd_curve(prob, [interior_target(prob, f) for f in (0.1, 0.3, 0.5, 0.7)])
        slopes = [p.lambda_star for p in points]
        assert all(a > b for a, b in zip(slopes, slopes[1:])), slopes


class TestTiltedInformation:
    @pytest.mark.parametrize("seed", range(6))
    def test_expectation_is_rate(self, seed):
        prob = random_problem(np.random.default_rng(100 + seed), 5, 5)
        point = rd_at_distortion(prob, interior_target(prob, 0.45), tol=1e-9)
        expect = float(prob.px.probs @ tilted_information(prob, point))
        assert abs(expect - point.rate) < 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_csiszar_identity(self, seed):
        prob = random_problem(np.random.default_rng(200 + seed), 4, 6)
        point = rd_at_distortion(prob, interior_target(prob, 0.55), tol=1e-9)
        assert verify_csiszar_identity(prob, point) < 1e-6

    @staticmethod
    def near_dmin_point():
        # Draw 707 of a seeded stream of problems with tied distortions: a
        # 2x6 problem whose point 1e-7 of the way from D_min sits at slope
        # ~2812, where some forward entries are subnormal.
        rng = np.random.default_rng(3)
        for _ in range(708):
            r, s = rng.integers(1, 9, 2)
            w = rng.random(r)
            dist = rng.random((r, s))
            dist[rng.random((r, s)) < .3] = dist.min()
        prob = SourceProblem(px=Pmf(w / w.sum()), distortion=dist)
        assert tuple(prob.px.probs) == (0.2551126982075242, 0.7448873017924759)
        d_min, d_max = distortion_bounds(prob)
        point = rd_at_distortion(prob, d_min + 1e-7 * (d_max - d_min), tol=1e-10)
        assert point.lambda_star == pytest.approx(2812, abs=1)
        return prob, point

    def test_csiszar_identity_skips_subnormal_entries(self):
        prob, point = self.near_dmin_point()
        fwd = point.forward.rows
        assert np.any((fwd > 0.0) & (fwd < np.finfo(float).tiny))
        assert verify_csiszar_identity(prob, point) < 1e-10

    def test_csiszar_identity_reports_perturbed_entry(self):
        prob, point = self.near_dmin_point()
        rows = point.forward.rows.copy()
        x = int(np.argmax((rows > 0.1).sum(axis=1)))
        other, j = np.argsort(rows[x])[-2:]
        assert rows[x, other] > 0.1
        rows[x, j] -= 1e-3
        rows[x, other] += 1e-3
        broken = dataclasses.replace(point, forward=Channel(rows))
        assert verify_csiszar_identity(prob, broken) > 1e-3

    def test_binary_closed_form(self):
        # at the binary optimum the tilted information is ln2 - h_b(D) for
        # both symbols by symmetry
        d = 0.2
        prob = binary_hamming()
        point = rd_at_distortion(prob, d)
        assert np.max(np.abs(tilted_information(prob, point) - (LN2 - h_b(d)))) < 1e-6


class TestLoglossRd:
    def test_linear_form(self):
        px = Pmf([0.5, 0.3, 0.2])
        h = entropy(px)
        assert logloss_rd(px, 0.25) == pytest.approx(h - 0.25, abs=1e-15)
        assert logloss_rd(px, 0.0) == pytest.approx(h, abs=1e-15)
        assert logloss_rd(px, h) == pytest.approx(0.0, abs=1e-15)

    def test_domain(self):
        px = Pmf([0.5, 0.5])
        with pytest.raises(InfeasibleError):
            logloss_rd(px, -0.1)
        with pytest.raises(InfeasibleError):
            logloss_rd(px, LN2 + 0.1)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_non_finite_distortion(self, d):
        with pytest.raises(ValidationError, match="logloss_rd: d must be finite"):
            logloss_rd(Pmf([0.5, 0.5]), d)


def checks_of(report) -> dict:
    """A report's checks by name."""
    return {check.name: check for check in report.checks}


class TestLemma1:
    def test_posterior_family_passes(self):
        rng = np.random.default_rng(31)
        px = Pmf([0.4, 0.35, 0.25])
        rows = rng.uniform(0.05, 1.0, size=(3, 4))
        weights = Channel(rows / rows.sum(axis=1, keepdims=True))
        reverse, _ = posterior(px, weights)
        report = verify_lemma1(px, [reverse.row(k) for k in range(4)], weights)
        assert report.ok
        assert checks_of(report)["rate_identity"].value < 1e-12
        assert abs(report.expected_loss - report.conditional_entropy) < 1e-12

    def test_jittered_rows_fail_by_name(self):
        px = Pmf([0.5, 0.5])
        weights = Channel([[0.9, 0.1], [0.2, 0.8]])
        reverse, _ = posterior(px, weights)
        bad = [Pmf([0.5, 0.5]), reverse.row(1)]
        report = verify_lemma1(px, bad, weights)
        assert not report.ok
        assert not checks_of(report)["posterior_consistency"].ok

    def test_rate_identity_failure_is_named(self):
        px = Pmf([0.5, 0.5])
        weights = Channel([[0.9, 0.1], [0.2, 0.8]])
        reverse, _ = posterior(px, weights)
        entropy_of = ratedistortion.conditional_entropy
        with mock.patch.object(ratedistortion, "conditional_entropy",
                               lambda joint: entropy_of(joint) + 1e-3):
            report = verify_lemma1(px, [reverse.row(0), reverse.row(1)], weights)
        assert checks_of(report)["rate_identity"].value == pytest.approx(1e-3, rel=1e-6)
        assert not checks_of(report)["rate_identity"].ok
        assert not report.ok

    def test_row_missing_mass_has_infinite_loss(self):
        # Row 0 puts no mass on symbol 0, which the joint gives mass under
        # output 0, so its log loss is infinite.
        px = Pmf([0.5, 0.5])
        report = verify_lemma1(px, [Pmf([0.0, 1.0]), Pmf([0.5, 0.5])], Channel(np.eye(2)))
        assert report.expected_loss == math.inf
        assert checks_of(report)["expected_loss"].value == math.inf
        assert not checks_of(report)["expected_loss"].ok
        assert not report.ok

    def test_a_nan_deviation_fails(self):
        # NaN > tol is false, so a hand-built failure list once passed it.
        px = Pmf([0.5, 0.5])
        weights = Channel([[0.9, 0.1], [0.2, 0.8]])
        reverse, _ = posterior(px, weights)
        fit = ratedistortion._decoder_fit
        with mock.patch.object(ratedistortion, "_decoder_fit",
                               lambda table, rows: (*fit(table, rows)[:2], math.nan)):
            report = verify_lemma1(px, [reverse.row(0), reverse.row(1)], weights)
        assert not report.ok
        assert [check.name for check in report.checks if not check.ok] == [
            "posterior_consistency"]

    @pytest.mark.parametrize("rows, weights, match", [
        ([Pmf([0.5, 0.5])] * 3, Channel(np.eye(3)), "weights.n_in = 3 must equal px.n = 2"),
        ([Pmf([0.5, 0.5])], Channel(np.eye(2)), r"len\(q_rows\) = 1 must equal weights.n_out = 2"),
        ([Pmf([0.5, 0.5]), Pmf.uniform(3)], Channel(np.eye(2)),
         r"q_rows\[1\].n = 3 must equal px.n = 2"),
    ])
    def test_shapes_must_agree(self, rows, weights, match):
        with pytest.raises(ValidationError, match=f"verify_lemma1: {match}"):
            verify_lemma1(Pmf([0.5, 0.5]), rows, weights)

    def test_each_row_must_be_a_pmf(self):
        # A list of floats once failed as a raw AttributeError.
        with pytest.raises(ValidationError,
                           match=r"verify_lemma1: q_rows\[1\] must be a Pmf, got list"):
            verify_lemma1(Pmf([0.5, 0.5]), [Pmf([1.0, 0.0]), [0.0, 1.0]], Channel(np.eye(2)))

    def test_solver_point_satisfies_lemma1(self):
        # the solved reverse rows are posteriors of the forward channel, so
        # the log-loss identities hold with D = H(X | Xhat)
        prob = random_problem(np.random.default_rng(41), 4, 4)
        point = rd_at_distortion(prob, interior_target(prob, 0.5))
        kept_rows = [point.reverse.row(k) for k in range(point.reverse.n_in)]
        report = verify_lemma1(prob.px, kept_rows, point.forward, tol=1e-9)
        assert report.ok
