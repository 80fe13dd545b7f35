import itertools
import math
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loglosslab import (
    Channel,
    InfeasibleError,
    Pmf,
    SourceProblem,
    ValidationError,
    entropy,
    expected_distortion,
    expected_log_loss,
    floor_exp,
    hamming_distortion,
    log_loss,
    logloss_avg_optimum,
    logloss_codebook,
    logloss_excess_optimum,
    logloss_excess_oracle,
    renormalize,
    solve_avg,
    solve_avg_oracle,
    solve_codebook,
    solve_excess,
    verify_lemma1,
)
from loglosslab import oneshot
from loglosslab.oneshot import LogLossCode, OneShotCode

LN2 = math.log(2.0)


def uniform_hamming(r: int) -> SourceProblem:
    return SourceProblem(px=Pmf.uniform(r), distortion=hamming_distortion(r))


def random_pmf(rng, r: int) -> Pmf:
    w = rng.uniform(0.05, 1.0, size=r)
    return Pmf(w / w.sum())


def partition_oracle(px: Pmf, n_messages: int) -> float:
    """Independent route: min H(X | f(X)) over every labeling f."""
    p = px.probs
    best = math.inf
    for labels in itertools.product(range(n_messages), repeat=px.n):
        masses = [0.0] * n_messages
        for x, m in enumerate(labels):
            masses[m] += p[x]
        h = sum(p[x] * math.log(masses[m] / p[x])
                for x, m in enumerate(labels) if p[x] > 0.0)
        best = min(best, h)
    return best


def assert_code_attains(px: Pmf, code: LogLossCode, value: float) -> None:
    """The code's own expected log loss is ``value``, and its rows are its cells' posteriors."""
    assert expected_log_loss(px, code) == pytest.approx(value, abs=1e-12)
    one_hot = Channel(np.eye(code.n_messages)[list(code.encoder)])
    assert verify_lemma1(px, code.decoder_rows, one_hot).ok


class TestSolveAvg:
    def test_uniform3_m2(self):
        code, value = solve_avg(uniform_hamming(3), 2)
        assert value == pytest.approx(1 / 3, abs=1e-15)
        assert expected_distortion(uniform_hamming(3), code) == value

    def test_uniform4_m2(self):
        _, value = solve_avg(uniform_hamming(4), 2)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_m_at_least_s_reaches_floor(self):
        code, value = solve_avg(uniform_hamming(3), 5)
        assert value == 0.0
        assert len(code.decoder) == 3

    def test_m_zero_rejected(self):
        with pytest.raises(ValidationError):
            solve_avg(uniform_hamming(2), 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_encoder_enumeration(self, seed):
        rng = np.random.default_rng(500 + seed)
        r, s = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        dist = rng.uniform(0.0, 1.0, size=(r, s))
        prob = SourceProblem(px=random_pmf(rng, r), distortion=dist)
        for m in (1, 2, 3):
            _, value = solve_avg(prob, m)
            assert value == solve_avg_oracle(prob, m)

    @pytest.mark.parametrize("r", [63, 70])
    def test_oracle_with_one_message(self, r):
        # One cell holds every symbol; there are more symbols than numpy has
        # axes (64 on numpy 2, 32 on numpy 1).
        rng = np.random.default_rng(r)
        prob = SourceProblem(px=random_pmf(rng, r), distortion=rng.uniform(0.0, 1.0, (r, 4)))
        assert solve_avg_oracle(prob, 1) == solve_avg(prob, 1)[1]

    def test_oracle_guard(self, refused):
        prob = SourceProblem(px=random_pmf(np.random.default_rng(0), 10),
                             distortion=np.random.default_rng(1).uniform(
                                 0.0, 1.0, size=(10, 10)))
        assert refused(solve_avg_oracle, prob, 10) == (
            "solve_avg_oracle: 10000000000 encoders exceeds guard 10000000")


class TestSubsetGuard:
    @staticmethod
    def wide_problem() -> SourceProblem:
        rng = np.random.default_rng(30)
        return SourceProblem(px=random_pmf(rng, 30), distortion=rng.uniform(0.0, 1.0, (30, 30)))

    @pytest.mark.parametrize("solver, args", [(solve_avg, ()), (solve_excess, (0.5,))],
                             ids=["solve_avg", "solve_excess"])
    def test_scans_refuse_30_choose_15(self, refused, solver, args):
        # C(30, 15) subsets would take about 20 minutes to scan.
        assert refused(solver, self.wide_problem(), 15, *args) == (
            f"{solver.__name__}: 155117520 column subsets exceeds guard 1000000")

    def test_twenty_choose_ten_stays_allowed(self):
        # 184,756 subsets, about 2 s: within the guard.
        assert math.comb(20, 10) <= oneshot._SUBSET_GUARD < math.comb(30, 15)

    def test_codebook_refuses_before_its_first_scan(self, refused):
        # Covering every symbol at D = 0 needs all 12 columns, so the greedy
        # cover takes 12, and M = 1, ..., 12 count 2^12 - 1 subsets.  With
        # the guard at C(12, 3) no scan runs.
        with mock.patch.object(oneshot, "_SUBSET_GUARD", math.comb(12, 3)):
            assert refused(solve_codebook, uniform_hamming(12), 0.0, 0.0) == (
                "solve_codebook: 4095 column subsets exceeds guard 220")

    def test_codebook_refuses_hamming_30_at_once(self, refused):
        # The scans at M = 1, ..., 6 alone, within the guard, take about 8 s.
        assert refused(solve_codebook, uniform_hamming(30), 0.0, 0.0) == (
            "solve_codebook: 1073741823 column subsets exceeds guard 1000000")


class TestSolveExcess:
    def test_uniform4_examples(self):
        u4 = uniform_hamming(4)
        assert solve_excess(u4, 1, 0.0)[1] == pytest.approx(0.75, abs=1e-15)
        assert solve_excess(u4, 2, 0.0)[1] == pytest.approx(0.5, abs=1e-15)

    def test_everything_covered(self):
        assert solve_excess(uniform_hamming(3), 1, 1.0)[1] == 0.0

    def test_witness_attains_value(self):
        rng = np.random.default_rng(77)
        dist = rng.uniform(0.0, 1.0, size=(5, 4))
        prob = SourceProblem(px=random_pmf(rng, 5), distortion=dist)
        for m, d in [(1, 0.3), (2, 0.2), (3, 0.5)]:
            code, value = solve_excess(prob, m, d)
            achieved = sum(
                float(prob.px.probs[x])
                for x in range(5)
                if prob.distortion[x, code.decoder[code.encoder[x]]] > d
            )
            assert achieved == pytest.approx(value, abs=1e-12)


class TestSolveCodebook:
    def test_uniform4_d0(self):
        assert solve_codebook(uniform_hamming(4), 0.0, 0.5)[0].n_messages == 2
        assert solve_codebook(uniform_hamming(4), 0.0, 0.0)[0].n_messages == 4

    def test_infeasible_reports_best(self):
        # symbol 0 is covered by no column at D = 0.5
        prob = SourceProblem(px=Pmf([0.6, 0.4]),
                             distortion=np.array([[1.0, 2.0], [0.0, 3.0]]))
        with pytest.raises(InfeasibleError, match="best achievable"):
            solve_codebook(prob, 0.5, 0.5)

    def test_eps_domain(self):
        with pytest.raises(ValidationError):
            solve_codebook(uniform_hamming(2), 0.0, 1.5)

    def test_fewer_columns_than_the_greedy_cover(self):
        # Column 0 covers symbols 0-3, column 1 symbols 0, 1, 4 and column 2
        # symbols 2, 3, 5.  The greedy cover takes column 0 first and then
        # needs both others; columns 1 and 2 alone cover everything.
        dist = np.array([[0, 0, 1], [0, 0, 1], [0, 1, 0], [0, 1, 0], [1, 0, 1], [1, 1, 0]],
                        dtype=float)
        prob = SourceProblem(px=Pmf.uniform(6), distortion=dist)
        assert solve_excess(prob, 1, 0.0)[1] > 0.0
        assert solve_codebook(prob, 0.0, 0.0)[0].n_messages == 2

    @pytest.mark.parametrize("problem, d, eps, m_greedy", [
        # Each column covers one symbol at D = 0, so the greedy cover takes
        # all four; on skewed3 at D = 0.5 it takes columns 0 and 1.
        (uniform_hamming(4), 0.0, 0.0, 4),
        (SourceProblem(px=Pmf([0.5, 0.3, 0.2]), distortion=hamming_distortion(3)), 0.5, 0.25, 2),
    ], ids=["uniform4", "skewed3"])
    def test_greedy_bound_answer_scans_each_size_once(self, problem, d, eps, m_greedy):
        with mock.patch.object(oneshot, "_first_best_subset",
                               wraps=oneshot._first_best_subset) as scan:
            code, value = solve_codebook(problem, d, eps)
        assert [call.args[1] for call in scan.call_args_list] == list(range(1, m_greedy + 1))
        assert (code, value) == solve_excess(problem, m_greedy, d)


def brute_force_excess(problem: SourceProblem, n_messages: int, d: float) -> float:
    """Independent route: least Pr[d(X, g(f(X))) > D] over every encoder and decoder."""
    p = problem.px.probs
    r, s = problem.distortion.shape
    miss = problem.distortion > d
    encoders = np.array(list(itertools.product(range(n_messages), repeat=r)))
    decoders = np.array(list(itertools.product(range(s), repeat=n_messages)))
    columns = decoders[:, encoders]  # [decoder, encoder, x]: the column x is decoded to
    return float((miss[np.arange(r), columns] * p).sum(axis=2).min())


def small_excess_problem(rng) -> SourceProblem:
    """r <= 5 symbols, s <= 4 columns; tied distortion levels and zero masses.

    Draws that SourceProblem rejects (identical columns) are drawn again.
    """
    while True:
        r, s = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        w = rng.uniform(0.05, 1.0, size=r)
        w[rng.random(r) < 0.2] = 0.0
        w[rng.integers(r)] = 1.0
        if rng.random() < 0.5:
            dist = rng.choice([0.0, 0.5, 1.0], size=(r, s))
        else:
            dist = rng.uniform(0.0, 1.0, size=(r, s))
        try:
            return SourceProblem(px=Pmf(w / w.sum()), distortion=dist)
        except ValidationError:
            continue


class TestExcessBruteForce:
    # These check solve_excess, and solve_codebook on top of it, against
    # every code.
    D_LEVELS = (0.0, 0.25, 0.5, 1.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_solve_excess_and_witness(self, seed):
        prob = small_excess_problem(np.random.default_rng(1100 + seed))
        for m, d in itertools.product((1, 2, 3), self.D_LEVELS):
            oracle = brute_force_excess(prob, m, d)
            code, value = solve_excess(prob, m, d)
            assert value == pytest.approx(oracle, abs=1e-12)
            decoded = [code.decoder[code.encoder[x]] for x in range(prob.n_source)]
            achieved = float(prob.px.probs[prob.distortion[np.arange(prob.n_source),
                                                           decoded] > d].sum())
            assert achieved == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_solve_codebook_is_least(self, seed):
        prob = small_excess_problem(np.random.default_rng(1200 + seed))
        for d in self.D_LEVELS:
            # Each M's own optimum is a target that M just meets.
            optima = [min(brute_force_excess(prob, m, d), 1.0)
                      for m in range(1, prob.n_reconstruction + 1)]
            for eps in [0.0, 0.1, 0.3] + optima:
                if optima[-1] > eps + 1e-12:
                    with pytest.raises(InfeasibleError):
                        solve_codebook(prob, d, eps)
                    continue
                m = solve_codebook(prob, d, eps)[0].n_messages
                assert optima[m - 1] <= eps + 1e-12
                if m > 1:
                    assert optima[m - 2] > eps + 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_logloss_codebook_is_least(self, seed):
        rng = np.random.default_rng(1300 + seed)
        px = small_excess_problem(rng).px
        for d in (0.0, 0.5, LN2, 1.2):
            optima = [logloss_excess_oracle(px, m, d) for m in range(1, px.n + 1)]
            for eps in [0.0, 0.1, 0.3, float(rng.uniform(0.0, 1.0))] + optima:
                m = logloss_codebook(px, d, eps)[0].n_messages
                assert optima[m - 1] <= eps + 1e-12
                if m > 1:
                    assert optima[m - 2] > eps + 1e-12


class TestFloorExp:
    def test_small_values(self):
        assert floor_exp(0.0) == 1
        assert floor_exp(0.5) == 1
        assert floor_exp(LN2) == 2
        assert floor_exp(math.log(3.0)) == 3
        assert floor_exp(1.2) == 3

    @pytest.mark.parametrize("k", range(2, 21))
    def test_exact_log_thresholds(self, k):
        assert floor_exp(math.log(k)) == k
        assert floor_exp(math.log(k) - 1e-9) == k - 1

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            floor_exp(-0.1)

    @staticmethod
    def _by_unit_steps(d):
        # The former definition: walk k from floor(exp(D)) one integer at a
        # time; its step count grows like exp(D) * 1e-12.
        k = max(int(math.floor(math.exp(min(d, 700.0)))), 1)
        while math.log(k + 1) <= d + 1e-12:
            k += 1
        while k > 1 and math.log(k) > d + 1e-12:
            k -= 1
        return k

    def test_matches_unit_steps_up_to_forty(self):
        grid = [i / 100 for i in range(3601)] + [36.0 + i / 2 for i in range(1, 9)]
        grid += [math.log(k) + off for k in (10**6, 2**53 - 1, 2**53 + 1)
                 for off in (-1e-12, 0.0, 1e-12)]
        for d in grid:
            assert floor_exp(d) == self._by_unit_steps(d), d

    def test_first_guess_above_the_answer_is_bracketed_down(self):
        # math.exp overshooting by a relative 1e-9 puts the first guess
        # above floor(exp(D)) once D passes about 21, so the search must
        # step down before it bisects.
        grid = [i * 0.25 for i in range(2801)]
        expected = [floor_exp(d) for d in grid]
        exp = math.exp
        with mock.patch.object(oneshot.math, "exp", lambda x: exp(x) * (1.0 + 1e-9)):
            assert int(math.exp(30.0)) > expected[120]
            assert [floor_exp(d) for d in grid] == expected

    # The last lies ten slacks below ln of the largest float: inside
    # _FLOOR_EXP_MAX, which leaves two, and outside a bound that left twenty.
    @pytest.mark.parametrize("d", [50.0, 100.0, 700.0, oneshot._FLOOR_EXP_MAX,
                                   math.log(sys.float_info.max) - 1e-11])
    def test_large_values_return_quickly(self, d):
        start = time.perf_counter()
        k = floor_exp(d)
        assert time.perf_counter() - start < 0.1
        assert math.log(k) <= d + 1e-12 < math.log(k + 1)
        assert 1.0 / k > 0.0  # a float, as the log-loss excess code's cell masses need

    @pytest.mark.parametrize("d", [math.nextafter(oneshot._FLOOR_EXP_MAX, math.inf), 710.0,
                                   1e308])
    def test_past_the_largest_float_refused(self, d):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"^floor_exp: d must be at most 709\.783, got "):
            floor_exp(d)
        assert time.perf_counter() - start < 0.1


class TestLoglossAvg:
    def test_uniform4_m2(self):
        code, value = logloss_avg_optimum(Pmf.uniform(4), 2)
        assert value == pytest.approx(LN2, abs=1e-15)
        # canonical tie-break: first partition in enumeration order
        assert code.encoder == (0, 0, 1, 1)

    def test_m1_gives_entropy(self):
        px = Pmf([0.5, 0.3, 0.2])
        _, value = logloss_avg_optimum(px, 1)
        assert value == pytest.approx(entropy(px), abs=1e-12)

    def test_m_at_least_r_gives_zero(self):
        _, value = logloss_avg_optimum(Pmf([0.5, 0.3, 0.2]), 3)
        assert value == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_labeling_oracle(self, seed):
        rng = np.random.default_rng(600 + seed)
        r = int(rng.integers(2, 7))
        px = random_pmf(rng, r)
        for m in (1, 2, 3):
            code, value = logloss_avg_optimum(px, m)
            assert value == pytest.approx(partition_oracle(px, m), abs=1e-12)
            assert_code_attains(px, code, value)

    @pytest.mark.parametrize("seed", range(6))
    def test_entropy_gap_bound(self, seed):
        px = random_pmf(np.random.default_rng(700 + seed), 6)
        for m in (2, 3, 4):
            code, value = logloss_avg_optimum(px, m)
            assert value >= entropy(px) - math.log(m) - 1e-12
            assert_code_attains(px, code, value)

    def test_code_rows_live_on_cells(self):
        px = Pmf([0.4, 0.3, 0.2, 0.1])
        code, value = logloss_avg_optimum(px, 2)
        for m, row in enumerate(code.decoder_rows):
            for x in range(4):
                if code.encoder[x] != m:
                    assert row.probs[x] == 0.0
        assert_code_attains(px, code, value)

    @pytest.mark.parametrize("px", [Pmf.uniform(12), Pmf.uniform(13), Pmf.uniform(14),
                                    Pmf([1.0, 0.0])], ids=["u12", "u13", "u14", "point"])
    def test_zero_optimum_is_positive_zero(self, px):
        # Rounding leaves -4.4e-16 on the uniform sources and -0.0 on the
        # point mass; a loss is never negative.
        _, value = logloss_avg_optimum(px, px.n)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=8).filter(any), st.data())
    def test_every_cell_of_the_first_optimum_carries_mass(self, weights, data):
        # Zero and tied masses, and M up to r + 1.  A cell of zero-mass
        # symbols merges into cell 0 (or cell 1 into it, when it is cell 0)
        # with the same value, and that partition comes earlier in
        # restricted-growth order, so the first optimum has no such cell.
        n_messages = data.draw(st.integers(1, len(weights) + 1))
        px = renormalize(weights)
        code, _ = logloss_avg_optimum(px, n_messages)
        assert (np.bincount(code.encoder, weights=px.probs) > 0.0).all()

    def test_alphabet_guard(self, refused):
        assert refused(logloss_avg_optimum, Pmf.uniform(15), 2) == (
            "logloss_avg_optimum: 15 symbols exceeds guard 14")


class TestLoglossExcess:
    def test_uniform4_m2_d0(self):
        code, value = logloss_excess_optimum(Pmf.uniform(4), 2, 0.0)
        assert value == pytest.approx(0.5, abs=1e-15)
        assert code.encoder == (0, 1, 1, 1)

    def test_cell_size_doubles_coverage(self):
        _, value = logloss_excess_optimum(Pmf.uniform(4), 2, LN2)
        assert value == 0.0

    def test_scheme_consistency(self):
        rng = np.random.default_rng(42)
        px = random_pmf(rng, 7)
        code, value = logloss_excess_optimum(px, 2, 0.8)
        rows = code.decoder_rows
        enc = code.encoder
        assert len(enc) == 7
        for row in rows:
            assert row.probs.sum() == pytest.approx(1.0)
        # direct route: excess mass of symbols whose reproduction loss
        # exceeds D
        direct = sum(
            float(px.probs[x])
            for x in range(7)
            if log_loss(x, rows[enc[x]]) > 0.8 + 1e-9
        )
        assert direct == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [0.0, 0.5, LN2, 1.2, 2.0])
    def test_matches_cover_oracle(self, seed, d):
        rng = np.random.default_rng(800 + seed)
        r = int(rng.integers(3, 11))
        px = random_pmf(rng, r)
        # The same masses spread among zero-mass symbols, up to the oracle's
        # alphabet guard, and a source of which the closed form covers all
        # five zeros at d = 2, M = 2, and the oracle none: covering a zero
        # must not move epsilon.
        padded = np.zeros(12)
        padded[np.sort(rng.choice(12, r, replace=False))] = px.probs
        ninths = Pmf(np.array([1, 2, 2, 1, 0, 1, 0, 0, 2, 0, 0]) / 9)
        for source in (px, Pmf(padded), ninths):
            for m in (1, 2, 3):
                _, value = logloss_excess_optimum(source, m, d)
                assert value == logloss_excess_oracle(source, m, d)

    def test_oracle_guard(self, refused):
        assert refused(logloss_excess_oracle, Pmf.uniform(13), 2, 0.0) == (
            "logloss_excess_oracle: 13 symbols exceeds guard 12")


class TestUnusedMessages:
    # Past s columns, or past the ceil(r / floor(exp(D))) log-loss cells that
    # hold symbols, more messages change no optimum and no returned code.
    @pytest.mark.parametrize("seed", range(10))
    def test_subset_codes_stop_at_s_messages(self, seed):
        prob = small_excess_problem(np.random.default_rng(1400 + seed))
        s = prob.n_reconstruction
        solvers = [lambda m: solve_avg(prob, m)] + [
            lambda m, d=d: solve_excess(prob, m, d) for d in TestExcessBruteForce.D_LEVELS]
        for solve in solvers:
            code, value = solve(s)
            for m in (s + 1, 10**18):
                other, other_value = solve(m)
                assert other == code
                assert other_value.hex() == value.hex()
            for m in range(1, s + 1):
                assert len(solve(m)[0].decoder) == m

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("d", [0.0, 0.5, LN2, 1.2, 2.0, 50.0])
    def test_logloss_excess_scheme_stops_at_its_filled_cells(self, seed, d):
        px = small_excess_problem(np.random.default_rng(1500 + seed)).px
        cell = floor_exp(d)
        sort_order = np.argsort(-px.probs, kind="stable")
        filled = -(-px.n // cell)
        code, eps = logloss_excess_optimum(px, filled, d)
        for m in (filled + 1, 10**18):
            other, other_eps = logloss_excess_optimum(px, m, d)
            assert other_eps.hex() == eps.hex()
            assert other.encoder == code.encoder
        for m in (*range(1, filled + 2), 10**18):
            code = logloss_excess_optimum(px, m, d)[0]
            rows = code.decoder_rows
            assert code.n_messages == len(rows) == min(m, filled)
            for k, row in enumerate(rows):
                members = sort_order[k * cell:(k + 1) * cell]
                assert set(np.flatnonzero(row.probs).tolist()) == set(members)


class TestLoglossCodebook:
    def test_uniform4_d0(self):
        assert logloss_codebook(Pmf.uniform(4), 0.0, 0.5)[0].n_messages == 2
        assert logloss_codebook(Pmf.uniform(4), 0.0, 0.0)[0].n_messages == 4

    def test_cell_size_shrinks_codebook(self):
        assert logloss_codebook(Pmf.uniform(4), LN2, 0.0)[0].n_messages == 2
        assert logloss_codebook(Pmf.uniform(4), math.log(4.0), 0.0)[0].n_messages == 1

    def test_eps_one_needs_single_message(self):
        assert logloss_codebook(Pmf([0.7, 0.2, 0.1]), 0.0, 1.0)[0].n_messages == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_mutual_consistency_with_excess(self, seed):
        rng = np.random.default_rng(900 + seed)
        px = random_pmf(rng, int(rng.integers(3, 9)))
        for m in (1, 2, 3, 4):
            for d in (0.0, 0.5, LN2):
                _, eps = logloss_excess_optimum(px, m, d)
                assert logloss_codebook(px, d, eps)[0].n_messages <= m


_SKEW3 = SourceProblem(px=Pmf([0.5, 0.3, 0.2]), distortion=hamming_distortion(3))
# Each callable passes its argument as a message count.
_TAKES_N_MESSAGES = {
    "solve_avg": lambda m: solve_avg(_SKEW3, m),
    "solve_avg_oracle": lambda m: solve_avg_oracle(_SKEW3, m),
    "solve_excess": lambda m: solve_excess(_SKEW3, m, 0.5),
    "logloss_avg_optimum": lambda m: logloss_avg_optimum(_SKEW3.px, m),
    "logloss_excess_optimum": lambda m: logloss_excess_optimum(_SKEW3.px, m, 0.5),
    "logloss_excess_oracle": lambda m: logloss_excess_oracle(_SKEW3.px, m, 0.5),
    "OneShotCode": lambda m: OneShotCode(n_messages=m, encoder=(0, 0, 0), decoder=(0,)),
    "LogLossCode": lambda m: LogLossCode(n_messages=m, encoder=(0, 0, 0),
                                         decoder_rows=(_SKEW3.px,)),
}


@pytest.mark.parametrize("value", [0, 2.5, True, "3", None])
@pytest.mark.parametrize("name", sorted(_TAKES_N_MESSAGES))
def test_n_messages_must_be_an_integer_at_least_one(name, value):
    with pytest.raises(ValidationError, match=f"{name}: n_messages must be an integer >= 1"):
        _TAKES_N_MESSAGES[name](value)


@pytest.mark.parametrize("encoder, decoder, match", [
    ((0, 1), (0,), r"len\(decoder\) = 1 must equal n_messages = 2"),
    ((), (0, 1), "encoder must not be empty$"),
    ((0, 2), (0, 1), r"encoder\[1\] must be an integer in \[0, 1\], got 2"),
    ((0, -1), (0, 1), r"encoder\[1\] must be an integer >= 0, got -1"),
    # Entries that used to construct, then fail as TypeError or IndexError.
    ((0, 0.5, 1), (0, 1), r"encoder\[1\] must be an integer >= 0, got 0.5"),
    ((0, True), (0, 1), r"encoder\[1\] must be an integer >= 0, got True"),
    ((0, 1), (0, -1), r"decoder\[1\] must be an integer >= 0, got -1"),
    ((0, 1), (0, 1.5), r"decoder\[1\] must be an integer >= 0, got 1.5"),
])
def test_malformed_code_is_a_validation_error(encoder, decoder, match):
    with pytest.raises(ValidationError, match=f"OneShotCode: {match}"):
        OneShotCode(2, encoder, decoder)


@pytest.mark.parametrize("code", [OneShotCode(2, np.array([0, 1, 1]), [0, 1]),
                                  LogLossCode(2, np.array([0, 1, 1]), [_SKEW3.px, _SKEW3.px])],
                         ids=["OneShotCode", "LogLossCode"])
def test_a_code_keeps_python_integers(code):
    # Once kept as numpy integers: the repr printed encoder=(np.int64(0), ...).
    assert [type(m) for m in code.encoder] == [int, int, int]
    assert "encoder=(0, 1, 1)" in repr(code)


@pytest.mark.parametrize("code, match", [
    (OneShotCode(2, (0, 1), (0, 1)), r"len\(code.encoder\) = 2 must equal problem.n_source = 3"),
    (OneShotCode(2, (0, 1, 1), (0, 3)),
     r"code.decoder\[1\] must be an integer in \[0, 2\], got 3"),
])
def test_code_must_fit_the_problem(code, match):
    with pytest.raises(ValidationError, match=f"expected_distortion: {match}"):
        expected_distortion(_SKEW3, code)


def _uncovered_mass(problem: SourceProblem, code: OneShotCode, d: float) -> float:
    """Pr[d(X, g(f(X))) > D] under the code."""
    decoded = np.array(code.decoder)[list(code.encoder)]
    return float(problem.px.probs[problem.distortion[np.arange(problem.n_source), decoded] > d]
                 .sum())


def _log_loss_excess(px: Pmf, code: LogLossCode, d: float) -> float:
    """Pr[-ln q(X) > D] under the code, with floor_exp's slack of 1e-12 on D."""
    q = np.array([code.decoder_rows[m].probs[x] for x, m in enumerate(code.encoder)])
    with np.errstate(divide="ignore"):
        return float(px.probs[-np.log(q) > d + 1e-12].sum())


def _zero_masses_problem() -> SourceProblem:
    # Two zero-mass symbols; the codebook answers are M* = 3 and 2.
    rng = np.random.default_rng(18)
    w = rng.uniform(0.05, 1.0, 6)
    w[[1, 4]] = 0.0
    return SourceProblem(px=Pmf(w / w.sum()), distortion=rng.uniform(0.0, 1.0, (6, 4)))


_CONTRACT_PROBLEMS = {"skewed3": _SKEW3, "zero_masses": _zero_masses_problem()}
_D, _LOG_D, _EPS = 0.5, LN2, 0.1
# name: (the solver on a problem, the value its code attains, the tolerance)
_SOLVERS = {
    "solve_avg": (lambda p: solve_avg(p, 2), expected_distortion, 0.0),
    "solve_excess": (lambda p: solve_excess(p, 2, _D),
                     lambda p, code: _uncovered_mass(p, code, _D), 1e-12),
    "solve_codebook": (lambda p: solve_codebook(p, _D, _EPS),
                       lambda p, code: _uncovered_mass(p, code, _D), 1e-12),
    "logloss_avg_optimum": (lambda p: logloss_avg_optimum(p.px, 2),
                            lambda p, code: expected_log_loss(p.px, code), 1e-12),
    "logloss_excess_optimum": (lambda p: logloss_excess_optimum(p.px, 2, _LOG_D),
                               lambda p, code: _log_loss_excess(p.px, code, _LOG_D), 1e-12),
    "logloss_codebook": (lambda p: logloss_codebook(p.px, _LOG_D, _EPS),
                         lambda p, code: _log_loss_excess(p.px, code, _LOG_D), 1e-12),
}


@pytest.mark.parametrize("problem", sorted(_CONTRACT_PROBLEMS))
@pytest.mark.parametrize("name", sorted(_SOLVERS))
def test_every_solver_returns_a_code_that_attains_its_value(name, problem):
    solve, attained, tol = _SOLVERS[name]
    prob = _CONTRACT_PROBLEMS[problem]
    code, value = solve(prob)
    assert type(value) is float
    assert isinstance(code, LogLossCode if name.startswith("logloss") else OneShotCode)
    assert attained(prob, code) == pytest.approx(value, rel=0.0, abs=tol)


@pytest.mark.parametrize("problem", sorted(_CONTRACT_PROBLEMS))
@pytest.mark.parametrize("name, excess_at", [
    ("solve_codebook", lambda p, m: solve_excess(p, m, _D)),
    ("logloss_codebook", lambda p, m: logloss_excess_optimum(p.px, m, _LOG_D)),
], ids=["solve_codebook", "logloss_codebook"])
def test_a_codebook_code_has_the_least_message_count(name, excess_at, problem):
    prob = _CONTRACT_PROBLEMS[problem]
    code, value = _SOLVERS[name][0](prob)
    assert value <= _EPS + 1e-12
    assert code.n_messages > 1
    assert excess_at(prob, code.n_messages - 1)[1] > _EPS + 1e-12
