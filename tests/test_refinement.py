import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest

from loglosslab import refinement
from loglosslab import (
    ERASURE,
    InfeasibleError,
    InstanceTooLargeError,
    Pmf,
    SourceProblem,
    ValidationError,
    VerificationError,
    chain_step_channel,
    conditional_entropy,
    construct_sr,
    construct_sr_chain,
    entropy,
    hamming_distortion,
    joint_from_source_and_channel,
    rd_at_distortion,
    timeshare_simulate,
    timeshare_two_decoders,
    varentropy,
    verify_sr,
)

LN2 = math.log(2.0)

CHECK_NAMES = ("markov_factorization", "coarse_rate", "coarse_loss",
               "fine_rate", "fine_distortion", "posterior_rows")


def h_b(d: float) -> float:
    return -d * math.log(d) - (1 - d) * math.log(1 - d)


def binary_hamming() -> SourceProblem:
    return SourceProblem(px=Pmf.uniform(2), distortion=hamming_distortion(2))


def skew3() -> SourceProblem:
    return SourceProblem(px=Pmf([0.5, 0.3, 0.2]), distortion=hamming_distortion(3))


class TestConstructSr:
    def test_delta_zero_boundary(self):
        # Coarse target equal to the fine conditional entropy: no erasure,
        # and the coarse rows are the fine-stage posteriors themselves.
        c = construct_sr(binary_hamming(), h_b(0.1), 0.1, tol=1e-10)
        assert abs(c.delta) < 1e-8
        assert len(c.q_rows) == 3  # two posteriors plus the erasure row px
        np.testing.assert_allclose(c.q_rows[0].probs, [0.9, 0.1], atol=1e-6)
        np.testing.assert_allclose(c.q_rows[1].probs, [0.1, 0.9], atol=1e-6)
        # Both stages sit at the same rate here: ln 2 - h_b(0.1).
        assert c.rates[0] == pytest.approx(LN2 - h_b(0.1), abs=1e-12)
        assert c.rates[1] == pytest.approx(LN2 - h_b(0.1), abs=1e-8)

    def test_erasure_row_kept_at_exact_delta_zero(self):
        # d1 equal, to the last bit, to the fine stage's H(X | Xhat) gives
        # delta == 0.0; the erasure still gets its row px, as it does at a
        # delta a rounding error above zero.
        problem = binary_hamming()
        point = rd_at_distortion(problem, 0.1, tol=1e-10)
        h2 = conditional_entropy(joint_from_source_and_channel(problem.px, point.forward))
        c = construct_sr(problem, h2, 0.1, tol=1e-10)
        assert c.delta == 0.0
        assert len(c.q_rows) == 3
        assert ERASURE in c.q_index
        np.testing.assert_array_equal(c.q_rows[c.q_index[ERASURE]].probs, c.px.probs)
        assert verify_sr(c).ok

    def test_constant_column_merges_with_erasure_row(self):
        # Column 2 costs 0.25 from either symbol, so its posterior is px
        # itself and shares the erasure's row.
        problem = SourceProblem(px=Pmf([0.5, 0.5]), distortion=np.array(
            [[0.0, 1.0, 0.25], [1.0, 0.0, 0.25]]))
        point = rd_at_distortion(problem, 0.1, tol=1e-10)
        h2 = conditional_entropy(joint_from_source_and_channel(problem.px, point.forward))
        c = construct_sr(problem, (h2 + LN2) / 2, 0.1, tol=1e-10)
        assert point.kept_columns == (0, 1, 2)
        assert len(c.q_rows) == 3
        assert c.q_index[2] == c.q_index[ERASURE]
        assert verify_sr(c).ok

    def test_delta_one_boundary(self):
        # Coarse target H(X): full erasure, a single reproduction row px.
        c = construct_sr(binary_hamming(), LN2, 0.1, tol=1e-10)
        assert c.delta == pytest.approx(1.0, abs=1e-8)
        assert len(c.q_rows) == 1
        np.testing.assert_array_equal(c.q_rows[0].probs, c.px.probs)
        assert c.q_index == {ERASURE: 0}
        assert c.rates[0] == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_weight(self):
        # The weight is linear interpolation between the stage entropies,
        # both known analytically for the binary source.
        c = construct_sr(binary_hamming(), 0.5, 0.1, tol=1e-10)
        expected = (0.5 - h_b(0.1)) / (LN2 - h_b(0.1))
        assert c.delta == pytest.approx(expected, abs=1e-8)
        assert c.rates[0] == pytest.approx(LN2 - 0.5, abs=1e-12)

    def test_skewed_weight_against_independent_entropies(self):
        prob = skew3()
        point = rd_at_distortion(prob, 0.15, tol=1e-10)
        h2 = conditional_entropy(joint_from_source_and_channel(prob.px, point.forward))
        h = entropy(prob.px)
        d1 = h2 + 0.6 * (h - h2)
        c = construct_sr(prob, d1, 0.15, tol=1e-10)
        assert c.delta == pytest.approx(0.6, abs=1e-9)

    def test_alphabet_and_channel_shape(self):
        c = construct_sr(binary_hamming(), 0.5, 0.1, tol=1e-10)
        kept = c.second_point.kept_columns
        assert c.z_alphabet == kept + (ERASURE,)
        rows = c.pz_given_xhat.rows
        assert rows.shape == (len(kept), len(kept) + 1)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-15)
        assert set(c.q_index) == {0, 1, ERASURE}

    def test_infeasible_targets_state_the_interval(self):
        with pytest.raises(InfeasibleError, match="interval"):
            construct_sr(binary_hamming(), h_b(0.1) - 0.01, 0.1)
        with pytest.raises(InfeasibleError, match="interval"):
            construct_sr(binary_hamming(), LN2 + 0.01, 0.1)

    def test_zero_rate_fine_stage(self):
        # At d2 = 1/2 the fine stage says nothing: every posterior equals
        # px, all rows merge, and only d1 = H(X) remains feasible.
        c = construct_sr(binary_hamming(), LN2, 0.5)
        assert c.delta == 1.0
        assert len(c.q_rows) == 1
        assert set(c.q_index.values()) == {0}
        assert verify_sr(c).ok
        with pytest.raises(InfeasibleError, match="unreachable"):
            construct_sr(binary_hamming(), 0.5, 0.5)

    def test_fine_target_outside_curve(self):
        with pytest.raises(InfeasibleError):
            construct_sr(binary_hamming(), 0.4, 0.7)


class TestVerifySr:
    @pytest.mark.parametrize("d1", [h_b(0.1), 0.5, LN2])
    def test_binary_examples_pass(self, d1):
        c = construct_sr(binary_hamming(), d1, 0.1, tol=1e-10)
        report = verify_sr(c)
        assert report.ok
        for check in report.checks:
            assert check.value <= 1e-9

    def test_check_names_in_order(self):
        report = verify_sr(construct_sr(binary_hamming(), 0.5, 0.1, tol=1e-10))
        assert tuple(check.name for check in report.checks) == CHECK_NAMES

    def test_skewed_instance_passes(self):
        prob = skew3()
        h = entropy(prob.px)
        c = construct_sr(prob, 0.9 * h, 0.15, tol=1e-10)
        assert verify_sr(c).ok

    def test_jittered_rows_fail_posterior_check(self):
        c = construct_sr(binary_hamming(), 0.5, 0.1, tol=1e-10)
        jittered = []
        for row in c.q_rows:
            probs = row.probs.copy()
            probs[0] += 1e-3
            jittered.append(Pmf(probs / probs.sum()))
        bad = dataclasses.replace(c, q_rows=tuple(jittered))
        report = verify_sr(bad)
        assert not report.ok
        checks = {check.name: check for check in report.checks}
        assert checks["posterior_rows"].value > 1e-4
        # The joint itself is untouched, so the fine stage still verifies.
        assert checks["fine_rate"].value <= 1e-9
        assert checks["fine_distortion"].value <= 1e-9

    def test_a_nan_residual_fails(self):
        # A NaN compares false with its bound, so it fails the one pass rule.
        fit = refinement._decoder_fit
        with mock.patch.object(refinement, "_decoder_fit",
                               lambda table, rows: (*fit(table, rows)[:2], math.nan)):
            report = verify_sr(construct_sr(binary_hamming(), 0.5, 0.1, tol=1e-10))
        assert not report.ok
        assert [check.name for check in report.checks if not check.ok] == ["posterior_rows"]


class TestChain:
    def test_single_entry_matches_construct_sr(self):
        single = construct_sr(binary_hamming(), 0.5, 0.1, tol=1e-10)
        [layer] = construct_sr_chain(binary_hamming(), [0.5], 0.1, tol=1e-10)
        assert layer.delta == single.delta
        assert layer.d1 == single.d1
        np.testing.assert_array_equal(layer.pz_given_xhat.rows,
                                      single.pz_given_xhat.rows)
        for a, b in zip(layer.q_rows, single.q_rows):
            np.testing.assert_array_equal(a.probs, b.probs)

    def test_two_layer_closed_form_weights(self):
        layers = construct_sr_chain(binary_hamming(), [0.6, 0.4], 0.1, tol=1e-10)
        span = LN2 - h_b(0.1)
        assert layers[0].delta == pytest.approx((0.6 - h_b(0.1)) / span, abs=1e-8)
        assert layers[1].delta == pytest.approx((0.4 - h_b(0.1)) / span, abs=1e-8)
        for layer in layers:
            assert verify_sr(layer).ok

    def test_three_layer_chain_composes(self):
        layers = construct_sr_chain(binary_hamming(), [0.65, 0.5, 0.35], 0.1,
                                    tol=1e-10)
        deltas = [layer.delta for layer in layers]
        assert deltas == sorted(deltas, reverse=True)
        for coarse, fine in zip(layers, layers[1:]):
            step = chain_step_channel(coarse, fine)
            composed = fine.pz_given_xhat.rows @ step.rows
            np.testing.assert_allclose(composed, coarse.pz_given_xhat.rows,
                                       atol=1e-15)

    def test_equal_targets_give_identity_step(self):
        layers = construct_sr_chain(binary_hamming(), [0.5, 0.5], 0.1, tol=1e-10)
        step = chain_step_channel(layers[0], layers[1])
        np.testing.assert_array_equal(step.rows, np.eye(3))

    def test_full_erasure_layer_keeps_nothing(self):
        layers = construct_sr_chain(binary_hamming(), [LN2, 0.4], 0.1, tol=1e-10)
        step = chain_step_channel(layers[0], layers[1])
        # Everything funnels into the erasure column.
        np.testing.assert_allclose(step.rows[:, -1], 1.0, atol=1e-12)

    def test_step_between_all_erasure_layers(self):
        # Both layers at d1 = H(X) erase everything (delta = 1), so the step
        # maps every symbol, and the erasure, to the erasure.
        h = entropy(binary_hamming().px)
        layers = construct_sr_chain(binary_hamming(), [h, h], 0.1, tol=1e-10)
        assert [layer.delta for layer in layers] == [1.0, 1.0]
        step = chain_step_channel(layers[0], layers[1])
        np.testing.assert_array_equal(step.rows, [[0.0, 0.0, 1.0]] * 3)
        np.testing.assert_array_equal(layers[1].pz_given_xhat.rows @ step.rows,
                                      layers[0].pz_given_xhat.rows)

    def test_non_monotone_targets_rejected(self):
        with pytest.raises(ValidationError, match=r"^construct_sr_chain: ds\[2\] = 0.6 must "
                                                  r"not exceed ds\[1\] = 0.4$"):
            construct_sr_chain(binary_hamming(), [0.6, 0.4, 0.6], 0.1)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValidationError, match="^construct_sr_chain: ds must not be empty$"):
            construct_sr_chain(binary_hamming(), [], 0.1)

    def test_infeasible_layer_rejected(self):
        with pytest.raises(InfeasibleError):
            construct_sr_chain(binary_hamming(), [0.2], 0.1)

    def test_step_requires_shared_alphabet(self):
        a = construct_sr(binary_hamming(), 0.5, 0.1)
        b = construct_sr(skew3(), 0.9, 0.15)
        with pytest.raises(ValidationError, match=re.escape(
                "chain_step_channel: fine.z_alphabet = (0, 1, 2, 'erasure') must equal "
                "coarse.z_alphabet = (0, 1, 'erasure')")):
            chain_step_channel(a, b)

    def test_step_requires_weight_ordering(self):
        layers = construct_sr_chain(binary_hamming(), [0.6, 0.4], 0.1)
        with pytest.raises(ValidationError, match=re.escape(
                f"chain_step_channel: fine.delta = {layers[0].delta!r} must not exceed "
                f"coarse.delta = {layers[1].delta!r}")):
            chain_step_channel(layers[1], layers[0])


class TestLayerCheck:
    """Each SR layer's H(X | Z), from its joint alone, must meet its target."""

    @pytest.mark.parametrize("build, start", [
        (lambda p: construct_sr(p, 0.5, 0.1, tol=1e-10), "construct_sr: layer at d1 = 0.5"),
        (lambda p: construct_sr_chain(p, [0.5], 0.1, tol=1e-10),
         "construct_sr_chain: layer at ds[0] = 0.5"),
    ], ids=["construct_sr", "construct_sr_chain"])
    def test_a_wrong_erasure_weight_is_refused(self, build, start):
        # delta is about 0.39 here, so delta + 1e-3 is still a weight, and
        # moves H(X | Z) by 1e-3 (H(X) - H(X | Xhat)), about 3.7e-4.
        weight = refinement._erasure_weight
        with mock.patch.object(refinement, "_erasure_weight",
                               lambda *args: weight(*args) + 1e-3):
            with pytest.raises(VerificationError) as err:
                build(binary_hamming())
        assert str(err.value).startswith(start), str(err.value)
        assert "misses its conditional entropy target" in str(err.value)


class TestTimeshare:
    def test_zero_distortion_is_lossless(self):
        report = timeshare_simulate(Pmf.uniform(4), 0.0, 500, seed=3)
        assert report.lossless_prefix == 500
        assert report.empirical_loss == 0.0
        assert report.ideal_rate > 0.0

    def test_full_distortion_says_nothing(self):
        px = Pmf([0.3, 0.7])
        h = entropy(px)
        report = timeshare_simulate(px, h, 20_000, seed=11)
        assert report.lossless_prefix == 0
        assert report.ideal_rate == 0.0
        sigma = math.sqrt(varentropy(px))
        assert abs(report.empirical_loss - h) <= 5 * sigma / math.sqrt(20_000)

    def test_uniform_half_rate_point_is_exact(self):
        # Every uniform-4 symbol costs exactly ln 4, so at d = ln 2 the
        # block quantities are deterministic: half the symbols described.
        report = timeshare_simulate(Pmf.uniform(4), LN2, 100_000, seed=0)
        assert report.lossless_prefix == 50_000
        assert report.empirical_loss == pytest.approx(LN2, abs=1e-12)
        assert report.ideal_rate == pytest.approx(LN2, abs=1e-12)

    def test_prefix_length_rounds_to_nearest(self):
        assert timeshare_simulate(Pmf.uniform(4), LN2, 4, seed=0).lossless_prefix == 2
        # Ties round half to even.
        assert timeshare_simulate(Pmf.uniform(4), LN2, 5, seed=0).lossless_prefix == 2

    def test_point_mass_source(self):
        report = timeshare_simulate(Pmf.point_mass(3, 0), 0.0, 10, seed=1)
        assert report.lossless_prefix == 10
        assert report.empirical_loss == 0.0
        assert report.ideal_rate == 0.0

    def test_reproducible_and_seed_sensitive(self):
        px = Pmf([0.4, 0.35, 0.25])
        h = entropy(px)
        a = timeshare_simulate(px, h / 2, 1000, seed=42)
        b = timeshare_simulate(px, h / 2, 1000, seed=42)
        c = timeshare_simulate(px, h / 2, 1000, seed=43)
        assert a == b
        assert a != c

    def test_two_decoders_match_single_runs(self):
        px = Pmf.uniform(4)
        coarse, fine = timeshare_two_decoders(px, LN2, math.log(4) / 4,
                                              100_000, seed=9)
        assert coarse == timeshare_simulate(px, LN2, 100_000, seed=9)
        assert fine == timeshare_simulate(px, math.log(4) / 4, 100_000, seed=9)
        assert coarse.lossless_prefix <= fine.lossless_prefix

    def test_equal_targets_identical_reports(self):
        px = Pmf.uniform(4)
        a, b = timeshare_two_decoders(px, LN2, LN2, 1000, seed=5)
        assert a == b

    def test_two_decoder_ordering_enforced(self):
        with pytest.raises(ValidationError, match="^timeshare_two_decoders: d2 = 0.4 must not "
                                                  "exceed d1 = 0.2$"):
            timeshare_two_decoders(Pmf.uniform(4), 0.2, 0.4, 100, seed=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["d1", "d2"])
    def test_two_decoder_targets_must_be_finite(self, name, value):
        targets = {"d1": 0.5, "d2": 0.5, name: value}
        with pytest.raises(ValidationError,
                           match=f"timeshare_two_decoders: {name} must be finite"):
            timeshare_two_decoders(Pmf.uniform(4), targets["d1"], targets["d2"], 10, seed=0)

    @pytest.mark.parametrize("d1, d2, name", [(5.0, 0.5, "d1"), (0.5, -0.2, "d2")])
    def test_two_decoder_infeasible_target_names_its_argument(self, d1, d2, name):
        with pytest.raises(InfeasibleError, match=f"^timeshare_two_decoders: {name} = "):
            timeshare_two_decoders(Pmf.uniform(4), d1, d2, 10, seed=0)

    def test_two_decoder_seed_names_the_caller(self):
        with pytest.raises(ValidationError, match="^timeshare_two_decoders: seed "):
            timeshare_two_decoders(Pmf.uniform(4), 0.5, 0.5, 10, seed=-1)

    def test_domain_validation(self):
        px = Pmf.uniform(4)
        with pytest.raises(ValidationError):
            timeshare_simulate(px, 0.5, 0, seed=0)
        with pytest.raises(InfeasibleError):
            timeshare_simulate(px, -0.1, 10, seed=0)
        with pytest.raises(InfeasibleError):
            timeshare_simulate(px, entropy(px) + 0.1, 10, seed=0)

    @pytest.mark.parametrize("n", [0, 2.5, True, "3", None])
    def test_n_must_be_an_integer_at_least_one(self, n):
        with pytest.raises(ValidationError, match="n must be an integer >= 1"):
            timeshare_simulate(Pmf.uniform(4), 0.5, n, seed=0)

    @pytest.mark.parametrize("seed", [-1, None, True, 1.5, "3"])
    def test_seed_must_be_an_integer_at_least_zero(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            timeshare_simulate(Pmf.uniform(4), 0.5, 10, seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            timeshare_two_decoders(Pmf.uniform(4), 0.5, 0.5, 10, seed=seed)

    @pytest.mark.parametrize("n", [0, 2.5, True, "3", None])
    def test_two_decoder_n_must_be_an_integer_at_least_one(self, n):
        with pytest.raises(ValidationError,
                           match="timeshare_two_decoders: n must be an integer >= 1"):
            timeshare_two_decoders(Pmf.uniform(4), 0.5, 0.5, n, seed=0)

    def test_sample_guard(self, refused):
        # 10^9 samples take about 8 s; one more is refused before any draw.
        assert refused(timeshare_simulate, Pmf.uniform(4), 0.5, 10**9 + 1, 0) == (
            "timeshare_simulate: 1000000001 samples exceeds guard 1000000000")

    def test_two_decoder_sample_guard(self, refused):
        # Each run alone is within the guard; the two together are not.
        assert refused(timeshare_two_decoders, Pmf.uniform(4), 0.5, 0.5,
                       5 * 10**8 + 1, 0) == (
            "timeshare_two_decoders: 1000000002 samples exceeds guard 1000000000")

    def test_sample_guard_admits_its_limit(self):
        px = Pmf.uniform(4)
        with mock.patch.object(refinement, "_SAMPLE_GUARD", 1000):
            assert timeshare_simulate(px, 0.5, 1000, 0).n == 1000
            assert timeshare_two_decoders(px, 0.5, 0.5, 500, 0)[0].n == 500
            with pytest.raises(InstanceTooLargeError):
                timeshare_simulate(px, 0.5, 1001, 0)
            with pytest.raises(InstanceTooLargeError):
                timeshare_two_decoders(px, 0.5, 0.5, 501, 0)

    def test_numpy_integer_seed(self):
        px = Pmf([0.4, 0.35, 0.25])
        assert (timeshare_simulate(px, 0.5, 1000, seed=np.uint64(42))
                == timeshare_simulate(px, 0.5, 1000, seed=42))
