import dataclasses
import itertools
import json
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from loglosslab import (
    DegenerateInstanceError,
    InstanceTooLargeError,
    LogLossCode,
    MappingError,
    OneShotCode,
    Pmf,
    SourceProblem,
    ValidationError,
    VerificationError,
    build_corresponding,
    construct_sr,
    entropy,
    expected_distortion,
    expected_log_loss,
    hamming_distortion,
    identity_bound,
    identity_sweep,
    map_code,
    suboptimality_gap,
    unmap_code,
    verify_lemma1,
    verify_optimum_coincidence,
    verify_sr,
    verify_theorem1,
)
from loglosslab import equivalence, oneshot
from loglosslab.equivalence import _cell_cost_tables
from loglosslab.problemio import load_problem

LN2 = math.log(2.0)
LN3 = math.log(3.0)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def h_b(d: float) -> float:
    return -d * math.log(d) - (1 - d) * math.log(1 - d)


def uniform_hamming(r: int) -> SourceProblem:
    return SourceProblem(px=Pmf.uniform(r), distortion=hamming_distortion(r))


def skew_a() -> SourceProblem:
    return SourceProblem(px=Pmf([0.4, 0.3, 0.2, 0.1]),
                         distortion=hamming_distortion(4))


def skew_b() -> SourceProblem:
    absdiff = np.abs(np.subtract.outer(np.arange(4), np.arange(4))).astype(float)
    return SourceProblem(px=Pmf([0.35, 0.30, 0.20, 0.15]), distortion=absdiff)


@pytest.fixture(scope="module")
def cp_u3():
    return build_corresponding(uniform_hamming(3), 2, tol=1e-10)


@pytest.fixture(scope="module")
def cp_u4():
    return build_corresponding(uniform_hamming(4), 2, tol=1e-10)


@pytest.fixture(scope="module")
def cp_skew_a():
    return build_corresponding(skew_a(), 2, tol=1e-10)


@pytest.fixture(scope="module")
def cp_u20_m7():
    # Past the sweep's guard; the build takes about 0.66 s.
    return build_corresponding(uniform_hamming(20), 7)


class TestBuildCorresponding:
    def test_uniform3_point(self, cp_u3):
        # D*(2) puts two symbols in one cell: distortion 1/3.
        assert cp_u3.d_star_m == pytest.approx(1 / 3, abs=1e-15)
        assert cp_u3.lambda_star == pytest.approx(math.log(4.0), abs=1e-6)
        rate = LN3 - h_b(1 / 3) - LN2 / 3
        assert cp_u3.source_point.rate == pytest.approx(rate, abs=1e-8)
        assert cp_u3.h_x_given_xhat == pytest.approx(LN3 - rate, abs=1e-8)
        assert cp_u3.source_point.kept_columns == (0, 1, 2)
        assert len(cp_u3.y_rows) == 3
        for row in cp_u3.y_rows:
            assert row.n == 3

    def test_uniform4_point(self, cp_u4):
        assert cp_u4.d_star_m == pytest.approx(0.5, abs=1e-15)
        assert cp_u4.lambda_star == pytest.approx(LN3, abs=1e-6)
        assert cp_u4.h_x_given_xhat == pytest.approx(LN2 + LN3 / 2, abs=1e-8)
        assert cp_u4.source_point.kept_columns == (0, 1, 2, 3)

    def test_skewed_instance_prunes_a_column(self, cp_skew_a):
        # D*(2) = 0.3 sits past the slope ln 7 where the lightest symbol
        # leaves the output support, so only three columns remain.
        assert cp_skew_a.d_star_m == pytest.approx(0.3, abs=1e-15)
        assert cp_skew_a.lambda_star == pytest.approx(math.log(7.0), abs=1e-6)
        assert cp_skew_a.source_point.kept_columns == (0, 1, 2)
        assert len(cp_skew_a.y_rows) == 3
        h = entropy(cp_skew_a.px) - cp_skew_a.source_point.rate
        assert cp_skew_a.h_x_given_xhat == pytest.approx(h, abs=1e-10)

    def test_optimal_code_is_carried(self, cp_u4):
        code = cp_u4.optimal_code
        d = expected_distortion(cp_u4.problem, code)
        assert d == cp_u4.d_star_m

    def test_zero_distortion_point_is_degenerate(self):
        with pytest.raises(DegenerateInstanceError):
            build_corresponding(uniform_hamming(3), 3)
        with pytest.raises(DegenerateInstanceError):
            build_corresponding(uniform_hamming(2), 2)

    def test_max_distortion_point_is_degenerate(self):
        with pytest.raises(DegenerateInstanceError):
            build_corresponding(uniform_hamming(2), 1)

    @pytest.mark.parametrize("end", ["d_min", "d_max"])
    def test_the_endpoint_slack_is_pinned_from_both_sides(self, end):
        # Skewed3 at M = 3 spans [0, 0.5], and ln 3 exceeds H(X), so an
        # interior D*(M) passes every later check.  D*(M) within
        # ENDPOINT_TOL of an endpoint is degenerate, twice that is not.
        # The code is the one-shot optimum at that end, three messages at
        # D_min and one at D_max, so it decodes to columns the point keeps.
        problem = SourceProblem(px=Pmf([0.5, 0.3, 0.2]), distortion=hamming_distortion(3))
        code = equivalence.solve_avg(problem, 3 if end == "d_min" else 1)[0]
        at, inward = (0.0, 1.0) if end == "d_min" else (0.5, -1.0)

        def solved_at(d_star):
            return mock.patch.object(equivalence, "solve_avg", lambda *args: (code, d_star))

        with solved_at(at + inward * equivalence.ENDPOINT_TOL):
            with pytest.raises(DegenerateInstanceError, match="sits at a curve endpoint"):
                build_corresponding(problem, 3)
        d_star = at + inward * 2 * equivalence.ENDPOINT_TOL
        with solved_at(d_star):
            assert build_corresponding(problem, 3).d_star_m == d_star

    def test_coinciding_reverse_rows_are_refused(self):
        # Every two rows of a posterior lie within 2 of each other.
        with mock.patch.object(equivalence, "ROW_MATCH_TOL", 2.0):
            with pytest.raises(VerificationError,
                               match="^build_corresponding: reverse rows 0 and 1 coincide"):
                build_corresponding(uniform_hamming(3), 2)

    def test_rate_above_ln_m_is_refused(self):
        with solved_rate(math.log(2) + 1e-6):
            with pytest.raises(VerificationError,
                               match="^build_corresponding: rate .* exceeds ln M"):
                build_corresponding(uniform_hamming(3), 2)

    def test_a_rate_within_1e_9_of_ln_m_is_accepted(self):
        # The slack is pinned from both sides: ln 2 + 5e-10 passes, ln 2 + 2e-9 not.
        with solved_rate(math.log(2) + 5e-10):
            assert build_corresponding(uniform_hamming(3), 2).source_point.rate > math.log(2)
        with solved_rate(math.log(2) + 2e-9):
            with pytest.raises(VerificationError, match="exceeds ln M"):
                build_corresponding(uniform_hamming(3), 2)


def solved_rate(rate: float):
    """A patch under which build_corresponding's solved point reports ``rate``."""
    solve = equivalence._rd_point

    def solve_at_rate(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), rate=rate)

    return mock.patch.object(equivalence, "_rd_point", solve_at_rate)


class TestMapUnmap:
    def test_roundtrip(self, cp_u4):
        code = OneShotCode(n_messages=2, encoder=(0, 0, 1, 1), decoder=(0, 2))
        lcode = map_code(cp_u4, code)
        assert lcode.encoder == code.encoder
        back = unmap_code(cp_u4, lcode)
        assert back.encoder == code.encoder
        assert back.decoder == code.decoder

    def test_mapped_rows_are_posteriors(self, cp_u4):
        code = OneShotCode(n_messages=2, encoder=(0, 1, 0, 1), decoder=(1, 3))
        lcode = map_code(cp_u4, code)
        np.testing.assert_array_equal(lcode.decoder_rows[0].probs,
                                      cp_u4.y_rows[1].probs)
        np.testing.assert_array_equal(lcode.decoder_rows[1].probs,
                                      cp_u4.y_rows[3].probs)

    def test_map_rejects_pruned_column(self, cp_skew_a):
        code = OneShotCode(n_messages=2, encoder=(0, 0, 1, 1), decoder=(0, 3))
        with pytest.raises(MappingError, match="column 3"):
            map_code(cp_skew_a, code)

    def test_map_rejects_message_mismatch(self, cp_u4):
        code = OneShotCode(n_messages=3, encoder=(0, 1, 2, 0), decoder=(0, 1, 2))
        with pytest.raises(ValidationError):
            map_code(cp_u4, code)

    @pytest.mark.parametrize("call, match", [
        (lambda cp: LogLossCode(2, (0, 1, 0, 1), cp.y_rows[:1]),
         r"LogLossCode: len\(decoder_rows\) = 1 must equal n_messages = 2"),
        (lambda cp: LogLossCode(2, (0, 1, 0, 2), cp.y_rows[:2]),
         r"LogLossCode: encoder\[3\] must be an integer in \[0, 1\], got 2"),
        (lambda cp: map_code(cp, OneShotCode(2, (0, 1, 0), (0, 1))),
         r"map_code: len\(code.encoder\) = 3 must equal cp.px.n = 4"),
        (lambda cp: unmap_code(cp, LogLossCode(1, (0, 0, 0, 0), cp.y_rows[:1])),
         "unmap_code: lcode.n_messages = 1 must equal cp.n_messages = 2"),
        (lambda cp: unmap_code(cp, LogLossCode(2, (0, 1, 0, 1), (Pmf.uniform(3), cp.y_rows[0]))),
         r"unmap_code: lcode.decoder_rows\[0\].n = 3 must equal cp.px.n = 4"),
        (lambda cp: expected_log_loss(cp.px, LogLossCode(2, (0, 1), cp.y_rows[:2])),
         r"expected_log_loss: len\(lcode.encoder\) = 2 must equal px.n = 4"),
        # Each of these once constructed or ran on, then failed as a raw
        # AttributeError or IndexError.
        (lambda cp: LogLossCode(2, (0, 1, 0, 1), ("a", "b")),
         r"LogLossCode: decoder_rows\[0\] must be a Pmf, got str"),
        (lambda cp: LogLossCode(1, (), cp.y_rows[:1]),
         "^LogLossCode: encoder must not be empty$"),
        (lambda cp: expected_log_loss(Pmf.uniform(3), LogLossCode(2, (0, 1, 1),
                                                                  (Pmf.uniform(2),) * 2)),
         r"expected_log_loss: lcode.decoder_rows\[0\].n = 2 must equal px.n = 3"),
    ])
    def test_mismatched_code_is_a_validation_error(self, cp_u4, call, match):
        with pytest.raises(ValidationError, match=match):
            call(cp_u4)

    def test_unmap_rejects_foreign_row(self, cp_u4):
        probs = cp_u4.y_rows[0].probs.copy()
        probs[0] += 1e-5
        probs /= probs.sum()
        lcode = LogLossCode(n_messages=2, encoder=(0, 0, 1, 1),
                            decoder_rows=(cp_u4.y_rows[1], Pmf(probs)))
        with pytest.raises(MappingError, match="message 1"):
            unmap_code(cp_u4, lcode)


class TestTheorem1:
    def test_identity_over_every_code(self, cp_u3):
        kept = cp_u3.source_point.kept_columns
        for enc in itertools.product(range(2), repeat=3):
            for dec in itertools.product(kept, repeat=2):
                code = OneShotCode(n_messages=2, encoder=enc, decoder=dec)
                check = verify_theorem1(cp_u3, code)
                assert check.residual < 1e-9

    def test_optimal_code_attains_the_floor(self, cp_u4):
        check = verify_theorem1(cp_u4, cp_u4.optimal_code)
        assert check.expected_d == pytest.approx(cp_u4.d_star_m, abs=1e-15)
        assert check.lhs == pytest.approx(cp_u4.h_x_given_xhat, abs=1e-9)

    def test_loss_regret_equals_scaled_distortion_regret(self, cp_u4):
        for enc, dec in (((0, 1, 1, 0), (0, 3)), ((0, 0, 0, 1), (1, 2)),
                         ((1, 0, 1, 0), (2, 0))):
            code = OneShotCode(n_messages=2, encoder=enc, decoder=dec)
            loss_regret, scaled_d_regret = suboptimality_gap(cp_u4, code)
            assert loss_regret == pytest.approx(scaled_d_regret, abs=1e-9)
            assert loss_regret >= -1e-9

    def test_log_loss_of_truth_is_conditional_entropy(self, cp_u4):
        # Mapping the optimum and scoring it directly is the lhs route.
        lcode = map_code(cp_u4, cp_u4.optimal_code)
        lhs = expected_log_loss(cp_u4.px, lcode)
        assert lhs == pytest.approx(cp_u4.h_x_given_xhat, abs=1e-9)

    def test_zero_probability_row_scores_infinite(self):
        px = Pmf.uniform(2)
        lcode = LogLossCode(n_messages=1, encoder=(0, 0),
                            decoder_rows=(Pmf([1.0, 0.0]),))
        assert expected_log_loss(px, lcode) == math.inf


    def test_loss_below_the_optimum_is_refused(self, cp_u3):
        raised = dataclasses.replace(cp_u3, h_x_given_xhat=cp_u3.h_x_given_xhat + 1.0)
        with pytest.raises(VerificationError,
                           match="^verify_theorem1: expected log loss .* fell below"):
            verify_theorem1(raised, cp_u3.optimal_code)


class TestIdentitySweep:
    def test_uniform3_exhaustive(self, cp_u3):
        sweep = identity_sweep(cp_u3)
        assert not sweep.sampled
        # 2^3 encoders times 3^2 decoders.
        assert sweep.n_codes == 72
        assert sweep.max_residual < 1e-9
        report = verify_optimum_coincidence(cp_u3)
        assert report.min_distortion == pytest.approx(1 / 3, abs=1e-15)
        assert report.min_loss == pytest.approx(cp_u3.h_x_given_xhat, abs=1e-9)
        assert report.min_loss >= cp_u3.h_x_given_xhat - 1e-9

    def test_uniform4_exhaustive(self, cp_u4):
        sweep = identity_sweep(cp_u4)
        assert sweep.n_codes == 256
        assert sweep.max_residual < 1e-9

    def test_pruned_alphabet_shrinks_the_grid(self, cp_skew_a):
        sweep = identity_sweep(cp_skew_a)
        # decoders range over the three kept columns only: 2^4 * 3^2.
        assert sweep.n_codes == 144
        assert sweep.max_residual < 1e-9

    def test_code_count_is_a_python_int(self, cp_u4):
        sweep = identity_sweep(cp_u4)
        assert type(sweep.n_codes) is int
        assert json.loads(json.dumps(dataclasses.asdict(sweep)))["n_codes"] == sweep.n_codes

    def test_zero_mass_symbol_raises_no_warning(self):
        # Its posterior entries are zero: px * -log(rev) would form 0 * inf.
        px = Pmf([0.5, 0.3, 0.2, 0.0])
        cp = build_corresponding(SourceProblem(px=px, distortion=hamming_distortion(4)), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = identity_sweep(cp)
            report = verify_optimum_coincidence(cp)
            _, w_l = _cell_cost_tables(cp)
        assert sweep.max_residual < 1e-9
        assert report.matched
        rev = cp.source_point.reverse.rows
        with np.errstate(divide="ignore", invalid="ignore"):
            masked = np.where(px.probs[:, None] > 0.0, px.probs[:, None] * -np.log(rev.T), 0.0)
        assert w_l.tobytes() == masked.tobytes()


FAMILIES = ("uniform", "tied", "continuous", "zero_mass")


def draw_problem(family: str, n_messages: int, rng: np.random.Generator) -> SourceProblem:
    """A random r x r problem with M < r live symbols and a zero diagonal.

    Each live symbol then has its own best column, so D*(M) > D_min.
    """
    r = int(rng.integers(n_messages + 2, 7))
    dist = rng.integers(1, 4, (r, r)) if family == "tied" else rng.random((r, r))
    np.fill_diagonal(dist, 0)
    if family == "uniform":
        w = np.ones(r)
    elif family == "tied":
        w = rng.integers(1, 4, r)
    else:
        w = rng.uniform(0.05, 1.0, r)
        if family == "zero_mass":
            w[rng.permutation(r)[:int(rng.integers(1, r - n_messages))]] = 0.0
    return SourceProblem(px=Pmf(w / w.sum()), distortion=dist.astype(float))


# The draws of test_bound_dominates_the_sweep that build_corresponding
# refuses, per (family, M).
OFF_SUPPORT_DRAWS = {("uniform", 2): 2, ("uniform", 3): 1, ("tied", 2): 1,
                     ("continuous", 2): 1, ("zero_mass", 2): 1, ("zero_mass", 3): 1}


class TestIdentityBound:
    @pytest.mark.parametrize("n_messages", [2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bound_dominates_the_sweep(self, family, n_messages):
        # 30 draws per case, 240 in all.  Each is checked also with the
        # slope moved off the solved point, where the residuals are large
        # and the bound rests on its spread term.  Seven draws, counted in
        # OFF_SUPPORT_DRAWS, are refused: their one-shot optimum decodes to
        # a column the point at D*(M) prunes.
        rng = np.random.default_rng([FAMILIES.index(family), n_messages, 18])
        refused = 0
        for _ in range(30):
            try:
                cp = build_corresponding(draw_problem(family, n_messages, rng), n_messages)
            except MappingError:
                refused += 1
                continue
            for case in (cp, dataclasses.replace(cp, lambda_star=cp.lambda_star * 1.001)):
                assert identity_bound(case) >= identity_sweep(case).max_residual
        assert refused == OFF_SUPPORT_DRAWS.get((family, n_messages), 0)

    # binary_hamming reaches D_min = 0 at M = 2, where the problem degenerates.
    @pytest.mark.parametrize("name", ["skewed3", "skewed4_absdiff"])
    def test_bound_dominates_on_problem_files(self, name):
        problem = load_problem(str(PROBLEMS / f"{name}.yaml")).problem
        for n_messages in (2, 3):
            try:
                cp = build_corresponding(problem, n_messages, tol=1e-10)
            except DegenerateInstanceError:
                continue
            assert identity_bound(cp) >= identity_sweep(cp).max_residual

    def test_bound_holds_past_the_guard(self, cp_u20_m7):
        # 3^16 encoders times 16^3 decoders: 1.8e11 pairs, whose largest
        # residual the sweep takes from C(16, 3) = 560 column sets.  Uniform
        # Hamming 20 at M = 7 is past the sweep's guard, not the bound's.
        cp = build_corresponding(uniform_hamming(16), 3)
        assert identity_sweep(cp).max_residual <= identity_bound(cp) <= 1e-12
        with pytest.raises(InstanceTooLargeError):
            identity_sweep(cp_u20_m7)
        assert 0.0 < identity_bound(cp_u20_m7) <= 1e-12


def test_the_sweep_stops_at_the_decoder_guard(refused, cp_u20_m7):
    # Uniform Hamming keeps all r columns, so the sweep reads C(r, M) r M
    # cost entries: 10,852,800 on 20 symbols at M = 7.  On 10 at M = 6,
    # 6.0e13 code pairs, it reads 12,600.
    assert refused(identity_sweep, cp_u20_m7) == (
        "identity_sweep: 10852800 column-set cost entries exceeds guard 10000000")
    sweep = identity_sweep(build_corresponding(uniform_hamming(10), 6, tol=1e-10))
    assert sweep.n_codes == 6**10 * 10**6


def test_the_coincidence_check_stops_at_the_decoder_guard(refused):
    # It reads k^M * r * M costs on each side: 9^3 * 9 * 3 = 19,683 on 9
    # symbols at M = 3 (1.4e7 code pairs), and 10^6 * 10 * 6 on 10 at M = 6.
    assert verify_optimum_coincidence(build_corresponding(uniform_hamming(9), 3)).matched
    cp = build_corresponding(uniform_hamming(10), 6, tol=1e-10)
    assert refused(verify_optimum_coincidence, cp) == (
        "verify_optimum_coincidence: 60000000 decoder cost entries exceeds guard 10000000")


class TestOptimumCoincidence:
    def test_uniform3_sets_match(self, cp_u3):
        report = verify_optimum_coincidence(cp_u3)
        assert report.matched
        assert report.min_distortion == pytest.approx(1 / 3, abs=1e-15)
        assert report.min_loss == pytest.approx(cp_u3.h_x_given_xhat, abs=1e-9)
        assert len(report.distortion_argmin) == len(report.loss_argmin) == 12

    def test_uniform4_sets_match(self, cp_u4):
        report = verify_optimum_coincidence(cp_u4)
        assert report.matched
        assert len(report.distortion_argmin) == 48

    def test_skewed_sets_match_after_pruning(self, cp_skew_a):
        report = verify_optimum_coincidence(cp_skew_a)
        assert report.matched
        assert len(report.distortion_argmin) == 8

    def test_argmin_entries_name_encoder_and_kept_indices(self, cp_u3):
        report = verify_optimum_coincidence(cp_u3)
        for enc, dec in report.distortion_argmin:
            assert len(enc) == 3 and all(0 <= m < 2 for m in enc)
            assert len(dec) == 2 and all(0 <= j < 3 for j in dec)

    def test_a_one_shot_optimum_off_the_support_is_refused(self):
        # solve_avg decodes to columns (0, 3), and the point at D*(2) keeps
        # (0, 1, 2).  A problem built on those would leave the optimum out:
        # its least distortion misses D*(M).
        px = Pmf([0.03342033696893241, 0.22127550618592393, 0.09416457801968742,
                  0.16790961029966858, 0.20421016801652594, 0.27901980050926173])
        distortion = [[1, 1, 1, 0], [0, 3, 0, 0], [0, 3, 3, 3],
                      [0, 3, 0, 1], [3, 3, 1, 1], [1, 0, 3, 3]]
        with pytest.raises(MappingError) as err:
            build_corresponding(SourceProblem(px=px, distortion=distortion), 2)
        assert str(err.value) == (
            "build_corresponding: the one-shot optimum decodes message 1 to column 3, "
            "which the R(D) point at D*(2) prunes (kept columns (0, 1, 2))")

    def test_the_count_reads_no_cell_block(self, cp_u4):
        # The count works over decoders and the sweep over column sets;
        # neither sums the encoders' cells.
        with mock.patch.object(oneshot, "_cell_sum_blocks",
                               wraps=oneshot._cell_sum_blocks) as blocks:
            verify_optimum_coincidence(cp_u4)
            identity_sweep(cp_u4)
        assert blocks.call_count == 0

    def test_an_optimum_unique_up_to_the_swap_is_certified_at_atol_zero(self):
        # Its two pairs cost the same floats, and every other pair is
        # certified dearer, so the float optimum is theirs.
        problem = SourceProblem(px=Pmf([0.5, 0.3, 0.2]),
                                distortion=[[0, 0.7, 0.4], [0.6, 0, 0.9], [0.3, 0.8, 0]])
        report = verify_optimum_coincidence(build_corresponding(problem, 2, tol=1e-10), 0.0)
        assert report.matched
        assert sorted(report.distortion_argmin) == [((0, 1, 0), (0, 1)), ((1, 0, 1), (1, 0))]

    @pytest.mark.parametrize("problem, n_messages, atol, message", [
        # skewed3 at M = 2: decoder (0, 2) costs 0.3, 0.1 above the least
        # distortion, as floats 0.09999999999999998: a gap at the cut.
        (load_problem(str(PROBLEMS / "skewed3.yaml")).problem, 2, 0.1,
         "the distortion argmin set is not certified at atol 0.1: decoder (0, 2) lies "
         "0.09999999999999998 above the least cost; with its symbols' excesses that passes "
         "atol less the rounding allowance 2.664535259100376e-15, so rounding or their sum "
         "decides which of its pairs are optimal"),
        # Uniform Hamming 4 at M = 2: under an optimal decoder each symbol
        # may move at an excess of 0.25, within atol 0.3, but two may not.
        (uniform_hamming(4), 2, 0.3,
         "the distortion argmin set is not certified at atol 0.3: decoder (0, 1) lies 0.0 "
         "above the least cost and symbol 0 may take a message 0.25 dearer than its best; "
         "with its symbols' excesses that passes atol less the rounding allowance "
         "8.526512829121203e-15, so rounding or their sum decides which of its pairs are "
         "optimal"),
    ])
    def test_an_uncertified_set_is_refused(self, problem, n_messages, atol, message):
        cp = build_corresponding(problem, n_messages, tol=1e-10)
        with pytest.raises(VerificationError) as err:
            verify_optimum_coincidence(cp, atol)
        assert str(err.value) == f"verify_optimum_coincidence: {message}"


# Each verifier with its tolerance's name and a call on a skewed3 instance.
VERIFIERS = {
    "verify_optimum_coincidence": ("atol", lambda cp, tol: verify_optimum_coincidence(cp, tol)),
    "verify_theorem1": ("tol", lambda cp, tol: verify_theorem1(cp, cp.optimal_code, tol)),
    "verify_lemma1": ("tol", lambda cp, tol: verify_lemma1(cp.px, cp.y_rows,
                                                           cp.source_point.forward, tol)),
    "verify_sr": ("tol", lambda cp, tol: verify_sr(construct_sr(cp.problem, 0.9, 0.2), tol)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, None, "0.5", True])
@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_verifier_tolerance_must_be_finite_and_nonnegative(name, value):
    field, call = VERIFIERS[name]
    problem = SourceProblem(px=Pmf([0.5, 0.3, 0.2]), distortion=hamming_distortion(3))
    cp = build_corresponding(problem, 2, tol=1e-10)
    assert call(cp, 1e-9) is not None
    with pytest.raises(ValidationError, match=f"{name}: {field} must be finite and >= 0"):
        call(cp, value)
