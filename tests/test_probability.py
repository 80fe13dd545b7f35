import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loglosslab import (
    Channel,
    Joint,
    Pmf,
    ValidationError,
    conditional_entropy,
    entropy,
    information_density,
    joint_from_source_and_channel,
    kl_divergence,
    log_loss,
    log_loss_seq,
    mutual_information,
    posterior,
    renormalize,
    varentropy,
)

LN2 = math.log(2.0)


def pmf_values(min_n=2, max_n=6):
    return st.lists(st.floats(min_value=1e-3, max_value=1.0),
                    min_size=min_n, max_size=max_n)


def as_pmf(values) -> Pmf:
    arr = np.array(values)
    return Pmf(arr / arr.sum())


def random_channel(rng, n_in, n_out) -> Channel:
    rows = rng.uniform(0.05, 1.0, size=(n_in, n_out))
    return Channel(rows / rows.sum(axis=1, keepdims=True))


# ----------------------------------------------------------------------
# Containers and validation
# ----------------------------------------------------------------------


class TestPmf:
    def test_accepts_list(self):
        p = Pmf([0.5, 0.5])
        assert p.n == 2

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            Pmf([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Pmf([1.5, -0.5])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            Pmf([math.nan, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Pmf([])

    def test_array_is_readonly(self):
        p = Pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 1.0

    def test_uniform(self):
        assert np.array_equal(Pmf.uniform(4).probs, np.full(4, 0.25))

    def test_point_mass(self):
        p = Pmf.point_mass(3, 1)
        assert p.probs.tolist() == [0.0, 1.0, 0.0]

    def test_support(self):
        assert Pmf([0.5, 0.0, 0.5]).support().tolist() == [0, 2]

    def test_is_a_value_error(self):
        # callers that only know ValueError still catch validation failures
        with pytest.raises(ValueError):
            Pmf([0.3, 0.3])


@pytest.mark.parametrize("call, match", [
    (lambda: Pmf(["a", "b"]), "Pmf: not convertible to a float array"),
    (lambda: Pmf([[0.5, 0.5]]), r"Pmf: expected 1-dimensional data, got shape \(1, 2\)"),
    (lambda: Pmf.uniform(0), "Pmf.uniform: n must be an integer >= 1, got 0"),
    (lambda: Pmf.point_mass(3, 3), r"Pmf.point_mass: x must be an integer in \[0, 2\], got 3"),
    (lambda: mutual_information(Pmf([0.5, 0.5]), Channel(np.eye(3))),
     "mutual_information: channel has 3 rows, pmf has 2"),
    (lambda: joint_from_source_and_channel(Pmf([0.5, 0.5]), Channel(np.eye(3))),
     "joint: channel has 3 rows, pmf has 2"),
    (lambda: information_density(Joint([[0.5, 0.5]]), 1, 0),
     r"information_density: x must be an integer in \[0, 0\], got 1"),
    (lambda: information_density(Joint([[0.5, 0.5], [0.0, 0.0]]), 1, 0),
     r"information_density: zero marginal at \(1, 0\)"),
    (lambda: log_loss_seq([], []), "log_loss_seq: empty block"),
])
def test_bad_input_is_a_validation_error(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


class TestChannel:
    def test_row_sums_checked(self):
        with pytest.raises(ValidationError):
            Channel([[0.5, 0.4], [0.5, 0.5]])

    def test_identity(self):
        ch = Channel.identity(3)
        assert np.array_equal(ch.rows, np.eye(3))

    def test_constant(self):
        ch = Channel.constant(Pmf([0.3, 0.7]), 2)
        assert np.array_equal(ch.rows, [[0.3, 0.7], [0.3, 0.7]])

    def test_row(self):
        ch = Channel([[0.3, 0.7], [1.0, 0.0]])
        assert ch.row(1).probs.tolist() == [1.0, 0.0]


class TestJoint:
    def test_total_mass_checked(self):
        with pytest.raises(ValidationError):
            Joint([[0.5, 0.4]])

    def test_marginals(self):
        j = Joint([[0.1, 0.2], [0.3, 0.4]])
        assert j.marginal_x().probs.tolist() == pytest.approx([0.3, 0.7])
        assert j.marginal_y().probs.tolist() == pytest.approx([0.4, 0.6])


def test_renormalize_is_the_repair_path():
    p = renormalize([2.0, 6.0])
    assert p.probs.tolist() == [0.25, 0.75]
    with pytest.raises(ValidationError):
        renormalize([0.0, 0.0])
    with pytest.raises(ValidationError):
        renormalize([1.0, -1.0])


# ----------------------------------------------------------------------
# Information measures
# ----------------------------------------------------------------------


class TestEntropy:
    def test_uniform_is_log_n(self):
        for n in (2, 3, 8):
            assert entropy(Pmf.uniform(n)) == pytest.approx(math.log(n), abs=1e-15)

    def test_point_mass_is_zero(self):
        assert entropy(Pmf.point_mass(4, 0)) == 0.0

    def test_zero_entries_contribute_nothing(self):
        assert entropy(Pmf([0.5, 0.5, 0.0])) == pytest.approx(LN2, abs=1e-15)

    @given(pmf_values())
    def test_bounds(self, values):
        p = as_pmf(values)
        h = entropy(p)
        assert -1e-12 <= h <= math.log(p.n) + 1e-12


class TestVarentropy:
    def test_uniform_is_zero(self):
        # up to rounding of the mean self-information
        assert varentropy(Pmf.uniform(5)) <= 1e-28

    def test_uniform_on_support_is_zero(self):
        assert varentropy(Pmf([0.5, 0.0, 0.5])) == 0.0

    def test_bernoulli_closed_form(self):
        # independent oracle: V = p(1-p) ln((1-p)/p)^2 for a binary pmf
        p = 0.2
        expected = p * (1 - p) * math.log((1 - p) / p) ** 2
        assert varentropy(Pmf([p, 1 - p])) == pytest.approx(expected, abs=1e-14)

    @given(pmf_values())
    def test_matches_direct_second_moment(self, values):
        p = as_pmf(values)
        info = -np.log(p.probs)
        direct = float(p.probs @ info**2) - entropy(p) ** 2
        assert varentropy(p) == pytest.approx(direct, abs=1e-10)


class TestKl:
    def test_zero_iff_equal(self):
        p = Pmf([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_off_support_is_inf(self):
        assert kl_divergence(Pmf([0.5, 0.5]), Pmf([1.0, 0.0])) == math.inf

    def test_alphabet_mismatch(self):
        with pytest.raises(ValidationError):
            kl_divergence(Pmf([1.0]), Pmf([0.5, 0.5]))

    @given(pmf_values(min_n=3, max_n=3), pmf_values(min_n=3, max_n=3))
    def test_nonnegative(self, pv, qv):
        assert kl_divergence(as_pmf(pv), as_pmf(qv)) >= -1e-12


class TestJointIdentities:
    def test_chain_rule(self):
        rng = np.random.default_rng(11)
        px = as_pmf(rng.uniform(0.1, 1.0, size=4))
        ch = random_channel(rng, 4, 3)
        j = joint_from_source_and_channel(px, ch)
        h_joint = entropy(Pmf(j.table.reshape(-1)))
        h_y_given_x = conditional_entropy(Joint(j.table.T))
        assert h_joint == pytest.approx(entropy(px) + h_y_given_x, abs=1e-12)

    def test_mutual_information_of_independence_is_zero(self):
        px = Pmf([0.4, 0.6])
        ch = Channel.constant(Pmf([0.2, 0.8]), 2)
        assert mutual_information(px, ch) == pytest.approx(0.0, abs=1e-15)

    def test_mutual_information_of_identity_is_entropy(self):
        px = Pmf([0.25, 0.25, 0.5])
        assert mutual_information(px, Channel.identity(3)) == pytest.approx(
            entropy(px), abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_mutual_information_two_routes(self, seed):
        # H(Y) - H(Y|X) must agree with the joint-table definition
        rng = np.random.default_rng(seed)
        r, s = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        px = as_pmf(rng.uniform(0.1, 1.0, size=r))
        ch = random_channel(rng, r, s)
        j = joint_from_source_and_channel(px, ch)
        t = j.table
        direct = sum(
            t[x, y] * (math.log(t[x, y]) - math.log(t[x].sum()) - math.log(t[:, y].sum()))
            for x in range(r) for y in range(s) if t[x, y] > 0.0
        )
        assert mutual_information(px, ch) == pytest.approx(direct, abs=1e-10)

    def test_information_density_averages_to_mi(self):
        rng = np.random.default_rng(5)
        px = as_pmf(rng.uniform(0.1, 1.0, size=3))
        ch = random_channel(rng, 3, 4)
        j = joint_from_source_and_channel(px, ch)
        avg = sum(float(j.table[x, y]) * information_density(j, x, y)
                  for x in range(3) for y in range(4))
        assert avg == pytest.approx(mutual_information(px, ch), abs=1e-12)

    def test_information_density_zero_mass_errors(self):
        j = Joint([[0.5, 0.0], [0.25, 0.25]])
        with pytest.raises(ValidationError):
            information_density(j, 0, 1)


class TestPosterior:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_bayes_identity(self, seed):
        rng = np.random.default_rng(seed)
        r, s = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        px = as_pmf(rng.uniform(0.1, 1.0, size=r))
        ch = random_channel(rng, r, s)
        reverse, py = posterior(px, ch)
        lhs = px.probs[:, None] * ch.rows
        rhs = py.probs[:, None] * reverse.rows
        assert np.max(np.abs(lhs - rhs.T)) <= 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        px = as_pmf(rng.uniform(0.1, 1.0, size=3))
        ch = random_channel(rng, 3, 3)
        reverse, py = posterior(px, ch)
        back, px_back = posterior(py, reverse)
        assert np.max(np.abs(back.rows - ch.rows)) <= 1e-10
        assert np.max(np.abs(px_back.probs - px.probs)) <= 1e-10

    def test_zero_mass_column_rejected(self):
        px = Pmf([0.5, 0.5])
        ch = Channel([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            posterior(px, ch)


class TestLogLoss:
    def test_matches_negative_log(self):
        q = Pmf([0.25, 0.75])
        assert log_loss(1, q) == pytest.approx(-math.log(0.75), abs=1e-15)

    def test_zero_mass_is_inf(self):
        assert log_loss(0, Pmf([0.0, 1.0])) == math.inf

    def test_out_of_range_symbol(self):
        with pytest.raises(ValidationError):
            log_loss(2, Pmf([0.5, 0.5]))

    def test_seq_averages(self):
        q = Pmf([0.5, 0.5])
        assert log_loss_seq([0, 1, 0], [q, q, q]) == pytest.approx(LN2, abs=1e-15)

    def test_seq_length_mismatch(self):
        with pytest.raises(ValidationError):
            log_loss_seq([0], [])

    def test_expected_loss_of_truth_is_entropy(self):
        # reporting the true pmf costs exactly H(X) on average
        p = Pmf([0.2, 0.3, 0.5])
        expected = sum(p.probs[x] * log_loss(x, p) for x in range(3))
        assert expected == pytest.approx(entropy(p), abs=1e-14)
