"""The bounded-memory time-sharing sampler against the one-call body it replaced.

The reference below is timeshare_simulate's sampling as it was before the
sampler moved to fixed-size leaves: one ``default_rng(seed).choice`` call,
costs by ``-np.log`` and one numpy sum over each part of the block.  The
sampler draws the same stream and adds every float in the same order, so
each comparison is bitwise, also where the block is drawn in two parts on
two threads.
"""

import math
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglosslab import Pmf, entropy, timeshare_simulate, timeshare_two_decoders
from loglosslab import refinement
from loglosslab.refinement import TimeshareReport, _prefix_length

# ----------------------------------------------------------------------
# Reference.
# ----------------------------------------------------------------------


def reference_timeshare(px: Pmf, d: float, n: int, seed: int) -> TimeshareReport:
    h = entropy(px)
    d = min(max(d, 0.0), h)
    k = _prefix_length(h, d, n)
    rng = np.random.default_rng(seed)
    xs = rng.choice(px.n, size=n, p=px.probs)
    codelengths = -np.log(px.probs[xs])
    return TimeshareReport(
        n=n,
        lossless_prefix=k,
        empirical_loss=float(codelengths[k:].sum()) / n,
        ideal_rate=float(codelengths[:k].sum()) / n,
        seed=seed,
    )


def assert_bitwise_equal(got: TimeshareReport, want: TimeshareReport) -> None:
    assert got == want
    # == does not tell 0.0 from -0.0; the reports print them differently.
    assert repr(got) == repr(want)


# ----------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------

LEAF = refinement._LEAF
BUCKETS = refinement._BUCKETS


@st.composite
def sources(draw, max_r=64):
    r = draw(st.integers(1, max_r))
    kind = draw(st.sampled_from(["counts", "grid", "tiny", "point", "continuous"]))
    if kind == "counts":
        # Small integer weights: ties, and zero masses at any position.
        w = np.array(draw(st.lists(st.integers(0, 9), min_size=r, max_size=r)), float)
    elif kind == "grid":
        # Masses on the 1/BUCKETS grid: every cdf value sits on a bucket edge.
        cuts = sorted(draw(st.lists(st.integers(0, BUCKETS), min_size=r - 1,
                                    max_size=r - 1)))
        w = np.diff([0] + cuts + [BUCKETS]).astype(float)
    elif kind == "tiny":
        # Masses far below one bucket, next to ordinary ones.
        w = np.array(draw(st.lists(st.sampled_from([0.0, 2.0 ** -30, 1e-6, 1e-4, 0.5, 1.0]),
                                   min_size=r, max_size=r)))
    elif kind == "point":
        w = np.zeros(r)
    else:
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=r, max_size=r)))
    if w.sum() == 0.0:
        w[draw(st.integers(0, r - 1))] = 1.0
    return Pmf(w / w.sum())


@st.composite
def sources_and_targets(draw, max_r=64):
    px = draw(sources(max_r))
    h = entropy(px)
    kind = draw(st.sampled_from(["zero", "entropy", "interior"]))
    if kind == "zero":
        return px, 0.0
    if kind == "entropy":
        return px, h
    return px, draw(st.floats(0.0, 1.0)) * h


lengths = st.one_of(
    st.sampled_from([1, 7, 8, 9, 127, 128, 129, LEAF - 1, LEAF, LEAF + 1,
                     2 * LEAF + 9]),
    st.integers(1, 3 * LEAF),
    st.sampled_from([1_000_003, 1_048_577, 1_500_000]),
)
seeds = st.integers(0, 2 ** 64 - 1)
# Block entirely in the prefix (d = 0) or entirely in the tail (d = H).
DYADIC = Pmf([0.5, 0.25, 0.125, 0.125])


class TestMatchesReference:
    @given(sources_and_targets(), lengths, seeds)
    @settings(max_examples=150, deadline=None)
    @example((Pmf([1.0]), 0.0), 1, 0)
    @example((Pmf([0.0, 1.0, 0.0]), 0.0), 129, 3)
    @example((Pmf([0.0, 0.5, 0.0, 0.5, 0.0]), 0.3), LEAF + 1, 5)
    @example((Pmf([2.0 ** -30, 1.0 - 2.0 ** -30]), 1e-8), LEAF - 1, 7)
    @example((Pmf([1.0 - 2.0 ** -30, 2.0 ** -30]), 1e-8), 1_000_003, 8)
    @example((Pmf([1 / BUCKETS, 0.5 - 1 / BUCKETS, 0.5]), 0.4), 2 * LEAF + 9, 9)
    @example((DYADIC, 0.0), 3 * LEAF + 1, 11)
    @example((DYADIC, entropy(DYADIC)), 3 * LEAF + 1, 11)
    def test_report_bitwise(self, source, n, seed):
        px, d = source
        assert_bitwise_equal(timeshare_simulate(px, d, n, seed),
                             reference_timeshare(px, d, n, seed))

    @pytest.mark.parametrize("leaf", [128, 201])
    @given(source=sources_and_targets(max_r=8), n=st.integers(1, 5000), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_small_leaves(self, leaf, source, n, seed):
        # 128 is the smallest leaf numpy's sum allows; 201 stops the
        # recursion at blocks of every residue mod 8.
        px, d = source
        with mock.patch.object(refinement, "_LEAF", leaf):
            got = timeshare_simulate(px, d, n, seed)
        assert_bitwise_equal(got, reference_timeshare(px, d, n, seed))


def counted_draws(drawn: list):
    """A _cost_sampler that appends the length of each draw to ``drawn``."""
    sampler = refinement._cost_sampler

    def counting_sampler(p, rng):
        draw = sampler(p, rng)

        def counted(m):
            drawn.append(m)
            return draw(m)

        return counted

    return counting_sampler


# Fractions of H(X) for the two targets: d = H gives k = 0, d = 0 gives
# k = n, equal fractions give k1 = k2, and the rest split the block at points
# where the two prefixes' leaves straddle each other's edges.
FRACTIONS = [0.0, 0.013, 0.3, 0.5, 0.77, 1.0]
TARGET_PAIRS = [(f1, f2) for f1 in FRACTIONS for f2 in FRACTIONS if f2 <= f1]
SKEWED4 = Pmf([0.5, 0.3, 0.15, 0.05])


class TestTwoDecoders:
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 1000, 4099])
    @pytest.mark.parametrize("f1, f2", TARGET_PAIRS)
    def test_each_report_matches_its_single_run(self, n, f1, f2):
        h = entropy(SKEWED4)
        with mock.patch.object(refinement, "_LEAF", 128):
            pair = timeshare_two_decoders(SKEWED4, f1 * h, f2 * h, n, 17)
            singles = [timeshare_simulate(SKEWED4, f * h, n, 17) for f in (f1, f2)]
        for got, single, f in zip(pair, singles, (f1, f2)):
            assert got == single
            assert [x.hex() for x in (got.empirical_loss, got.ideal_rate)] == [
                x.hex() for x in (single.empirical_loss, single.ideal_rate)]
            assert_bitwise_equal(got, reference_timeshare(SKEWED4, f * h, n, 17))

    @pytest.mark.parametrize("leaf", [128, LEAF])
    @pytest.mark.parametrize("n", [1, 1000, 3 * LEAF + 5])
    def test_the_block_is_drawn_once(self, leaf, n):
        h = entropy(SKEWED4)
        drawn = []
        with mock.patch.object(refinement, "_LEAF", leaf), \
                mock.patch.object(refinement, "_cost_sampler", counted_draws(drawn)):
            timeshare_two_decoders(SKEWED4, 0.77 * h, 0.3 * h, n, 3)
        assert sum(drawn) == n
        assert max(drawn) <= leaf


def drawn_parts(fn, *args):
    """fn(*args), the (start, stop) parts of the block drawn, and each prefix's leaf ends."""
    leaf_sums, parts, plans = refinement._leaf_sums, [], []

    def spy(draw, ends, start, stop):
        parts.append((start, stop))
        plans[:] = ends
        return leaf_sums(draw, ends, start, stop)

    with mock.patch.object(refinement, "_leaf_sums", spy):
        result = fn(*args)
    return result, sorted(parts), plans


def sampler_on(side: str, wrap):
    """A _cost_sampler whose draws on one side, "caller" or "worker", go through wrap(draw)."""
    sampler, caller = refinement._cost_sampler, threading.current_thread()

    def patched(p, rng):
        draw = sampler(p, rng)
        on_worker = threading.current_thread() is not caller
        return wrap(draw) if on_worker == (side == "worker") else draw

    return patched


class TestSplit:
    # The caller draws [0, s) and one worker thread [s, n), from the stream
    # advanced by s, where s is the leaf edge nearest n/2 and each part holds
    # a whole leaf.

    @pytest.mark.parametrize("leaf, n, f1, f2", [
        (LEAF, 2 * LEAF, 0.5, 0.013),
        (LEAF, 2 * LEAF, 0.3, 0.0),
        (LEAF, 3 * LEAF + 5, 0.77, 0.3),
        (128, 517, 0.6, 0.45),
        (128, 1000, 0.77, 0.3),
        (128, 4099, 0.6, 0.45),
    ])
    def test_a_leaf_of_one_plan_cut_at_the_split(self, leaf, n, f1, f2):
        h = entropy(SKEWED4)
        with mock.patch.object(refinement, "_LEAF", leaf):
            pair, parts, ends = drawn_parts(timeshare_two_decoders, SKEWED4, f1 * h, f2 * h,
                                            n, 5)
        (_, s), (s_worker, stop) = parts
        assert (s_worker, stop) == (s, n)
        # s is a leaf edge of one decoder's plan and inside a leaf of the other's.
        assert sorted(s in leaf_ends for leaf_ends in ends) == [False, True]
        for got, f in zip(pair, (f1, f2)):
            assert_bitwise_equal(got, reference_timeshare(SKEWED4, f * h, n, 5))

    @pytest.mark.parametrize("leaf", [128, LEAF])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("f", [0.0, 0.5, 1.0])
    def test_blocks_of_about_two_leaves(self, leaf, extra, f):
        # Below two leaves the block is drawn whole; the 128-sample leaf
        # that other tests patch in splits blocks of a few hundred samples.
        h, n = entropy(SKEWED4), 2 * leaf + extra
        with mock.patch.object(refinement, "_LEAF", leaf):
            report, parts, _ = drawn_parts(timeshare_simulate, SKEWED4, f * h, n, 13)
            pair, pair_parts, _ = drawn_parts(timeshare_two_decoders, SKEWED4, f * h, 0.0,
                                              n, 13)
        assert parts == pair_parts == ([(0, n)] if extra < 0 else [(0, leaf), (leaf, n)])
        want = reference_timeshare(SKEWED4, f * h, n, 13)
        assert_bitwise_equal(report, want)
        assert_bitwise_equal(pair[0], want)
        assert_bitwise_equal(pair[1], reference_timeshare(SKEWED4, 0.0, n, 13))

    @pytest.mark.parametrize("side", ["worker", "caller"])
    def test_a_late_part_gives_the_same_bits(self, side):
        h = entropy(SKEWED4)

        def late(draw):
            def slow(m):
                time.sleep(0.002)
                return draw(m)
            return slow

        # A short switch interval hands the interpreter lock over often.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(refinement, "_LEAF", 128), \
                    mock.patch.object(refinement, "_cost_sampler", sampler_on(side, late)):
                pair = timeshare_two_decoders(SKEWED4, 0.77 * h, 0.3 * h, 1000, 21)
        finally:
            sys.setswitchinterval(interval)
        for got, f in zip(pair, (0.77, 0.3)):
            assert_bitwise_equal(got, reference_timeshare(SKEWED4, f * h, 1000, 21))

    def test_no_thread_outlives_a_call(self):
        h = entropy(SKEWED4)
        before = threading.active_count()
        _, parts, _ = drawn_parts(timeshare_two_decoders, SKEWED4, 0.77 * h, 0.3 * h,
                                  3 * LEAF + 5, 1)
        assert len(parts) == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("side", ["worker", "caller"])
    def test_a_failed_part_reaches_the_caller_after_the_join(self, side):
        h = entropy(SKEWED4)

        def failing(draw):
            def fail(m):
                raise RuntimeError(f"the {side}'s draw failed")
            return fail

        before = threading.active_count()
        with mock.patch.object(refinement, "_cost_sampler", sampler_on(side, failing)), \
                pytest.raises(RuntimeError, match=f"the {side}'s draw failed"):
            timeshare_simulate(SKEWED4, 0.5 * h, 2 * LEAF, 2)
        assert threading.active_count() == before


class TestSampler:
    @pytest.mark.parametrize("probs", [[1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0]])
    @pytest.mark.parametrize("m", [1, 8, 129, 1000])
    def test_mass_of_exactly_one(self, probs, m):
        # Every code length is -ln 1 = -0.0.  It is not < 0, so the table
        # does not take it for an ambiguous bucket's mark, and the sum keeps
        # the sign of numpy's sum over the same lengths.
        p = np.array(probs)
        draw = refinement._cost_sampler(p, np.random.default_rng(m))
        xs = np.random.default_rng(m).choice(len(p), m, p=p)
        want = np.add.reduce(-np.log(p[xs]))
        assert float(np.add.reduce(draw(m))).hex() == float(want).hex()

    @given(source=sources(max_r=8), m=st.integers(1, 3000), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_one_draw_matches_numpy(self, source, m, seed):
        p = source.probs
        draw = refinement._cost_sampler(p, np.random.default_rng(seed))
        xs = np.random.default_rng(seed).choice(len(p), m, p=p)
        want = np.add.reduce(-np.log(p[xs]))
        assert float(np.add.reduce(draw(m))).hex() == float(want).hex()


class TestScale:
    def test_ten_million_samples_in_bounded_memory(self, traced):
        px = Pmf([0.4, 0.3, 0.2, 0.1])
        h = entropy(px)
        report, elapsed, peak, _ = traced(timeshare_simulate, px, 0.5 * h, 10 ** 7, 7)
        assert report.lossless_prefix == 5 * 10 ** 6
        assert math.isclose(report.empirical_loss + report.ideal_rate, h, rel_tol=1e-3)
        assert peak <= 16 * 2 ** 20
        assert elapsed <= 5.0
