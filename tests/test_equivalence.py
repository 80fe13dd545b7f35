import dataclasses
import itertools
import json
import math
import warnings

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
    build_corresponding,
    construct_sr,
    entropy,
    expected_distortion,
    expected_log_loss,
    hamming_distortion,
    identity_sweep,
    map_code,
    suboptimality_gap,
    unmap_code,
    verify_lemma1,
    verify_optimum_coincidence,
    verify_sr,
    verify_theorem1,
)
from loglosslab.equivalence import _cell_cost_tables

LN2 = math.log(2.0)
LN3 = math.log(3.0)


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
         "LogLossCode: 1 rows for 2 messages"),
        (lambda cp: LogLossCode(2, (0, 1, 0, 2), cp.y_rows[:2]),
         r"LogLossCode: encoder\[3\] must be an integer in \[0, 1\], got 2"),
        (lambda cp: map_code(cp, OneShotCode(2, (0, 1, 0), (0, 1))),
         "map_code: encoder length mismatch"),
        (lambda cp: unmap_code(cp, LogLossCode(1, (0, 0, 0, 0), cp.y_rows[:1])),
         "unmap_code: code has 1 messages, problem has 2"),
        (lambda cp: unmap_code(cp, LogLossCode(2, (0, 1, 0, 1), (Pmf.uniform(3), cp.y_rows[0]))),
         "unmap_code: row 0 has alphabet 3"),
        (lambda cp: expected_log_loss(cp.px, LogLossCode(2, (0, 1), cp.y_rows[:2])),
         "expected_log_loss: encoder length mismatch"),
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


class TestIdentitySweep:
    def test_uniform3_exhaustive(self, cp_u3):
        sweep = identity_sweep(cp_u3)
        assert not sweep.sampled
        # 2^3 encoders times 3^2 decoders.
        assert sweep.n_codes == 72
        assert sweep.max_residual < 1e-9
        assert sweep.min_distortion == pytest.approx(1 / 3, abs=1e-15)
        assert sweep.min_loss == pytest.approx(cp_u3.h_x_given_xhat, abs=1e-9)
        assert sweep.min_loss >= cp_u3.h_x_given_xhat - 1e-9

    def test_uniform4_exhaustive(self, cp_u4):
        sweep = identity_sweep(cp_u4)
        assert sweep.n_codes == 256
        assert sweep.max_residual < 1e-9

    def test_pruned_alphabet_shrinks_the_grid(self, cp_skew_a):
        sweep = identity_sweep(cp_skew_a)
        # decoders range over the three kept columns only: 2^4 * 3^2.
        assert sweep.n_codes == 144
        assert sweep.max_residual < 1e-9

    def test_sampled_is_deterministic(self, cp_u4):
        a = identity_sweep(cp_u4, samples=200, seed=7)
        b = identity_sweep(cp_u4, samples=200, seed=7)
        assert a == b
        assert a.sampled
        assert a.n_codes == 200
        assert a.max_residual < 1e-9

    @pytest.mark.parametrize("seed", [-1, True, 2.0, "7"])
    def test_bad_seed_is_a_validation_error(self, cp_u4, seed):
        with pytest.raises(ValidationError, match="seed"):
            identity_sweep(cp_u4, samples=5, seed=seed)

    def test_numpy_and_absent_seeds_are_accepted(self, cp_u4):
        assert identity_sweep(cp_u4, samples=5, seed=np.int64(7)) == \
            identity_sweep(cp_u4, samples=5, seed=7)
        assert identity_sweep(cp_u4, samples=5).n_codes == 5

    @pytest.mark.parametrize("samples", [None, 3, np.int64(3), np.uint8(3)])
    def test_code_count_is_a_python_int(self, cp_u4, samples):
        sweep = identity_sweep(cp_u4, samples=samples, seed=None if samples is None else 1)
        assert type(sweep.n_codes) is int
        assert json.loads(json.dumps(dataclasses.asdict(sweep)))["n_codes"] == sweep.n_codes

    def test_sampled_needs_a_positive_count(self, cp_u4):
        with pytest.raises(ValidationError):
            identity_sweep(cp_u4, samples=0)

    @pytest.mark.parametrize("samples", [2.5, "3", True])
    def test_non_integer_samples_is_a_validation_error(self, cp_u4, samples):
        with pytest.raises(ValidationError, match="samples"):
            identity_sweep(cp_u4, samples=samples, seed=7)

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


@pytest.mark.parametrize("check", [identity_sweep, verify_optimum_coincidence])
def test_exhaustive_checks_stop_at_the_pair_guard(check):
    # uniform9 at M = 3 keeps all 9 columns: 3^9 encoders times 9^3 decoders.
    cp = build_corresponding(uniform_hamming(9), 3, tol=1e-10)
    with pytest.raises(InstanceTooLargeError,
                       match=f"{check.__name__}: 14348907 code pairs exceeds guard 10000000"):
        check(cp)


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
