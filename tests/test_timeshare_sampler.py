"""The bounded-memory time-sharing sampler against an in-memory reference.

The reference below samples the whole block with one
``default_rng(seed).choice`` call and takes costs by ``-np.log``.  It sums
each chunk of the grid of ``_CHUNK`` samples from sample 0 with numpy, each
of its two runs where the prefix ends inside it, and adds the chunk sums of
the prefix and of the rest with ``math.fsum``.  The sampler draws the same
stream in chunks and adds the same chunk sums exactly, so each comparison is
bitwise, also where the block is drawn in two parts on two threads.
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
    codelengths = block_codelengths(px, n, seed)
    edges = sorted({*range(0, n, refinement._CHUNK), k, n})
    runs = [(a < k, np.add.reduce(codelengths[a:b])) for a, b in zip(edges, edges[1:])]
    return TimeshareReport(
        n=n,
        lossless_prefix=k,
        empirical_loss=math.fsum(run for head, run in runs if not head) / n,
        ideal_rate=math.fsum(run for head, run in runs if head) / n,
        seed=seed,
    )


def block_codelengths(px: Pmf, n: int, seed: int) -> np.ndarray:
    """The code lengths of the block of (seed, n), in one call."""
    xs = np.random.default_rng(seed).choice(px.n, size=n, p=px.probs)
    return -np.log(px.probs[xs])


def assert_bitwise_equal(got: TimeshareReport, want: TimeshareReport) -> None:
    assert got == want
    # == does not tell 0.0 from -0.0; the reports print them differently.
    assert repr(got) == repr(want)


# ----------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------

CHUNK = refinement._CHUNK
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
    st.sampled_from([1, 7, 8, 9, 127, 128, 129, CHUNK - 1, CHUNK, CHUNK + 1,
                     4 * CHUNK + 9]),
    st.integers(1, 6 * CHUNK),
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
    @example((Pmf([0.0, 0.5, 0.0, 0.5, 0.0]), 0.3), CHUNK + 1, 5)
    @example((Pmf([2.0 ** -30, 1.0 - 2.0 ** -30]), 1e-8), CHUNK - 1, 7)
    @example((Pmf([1.0 - 2.0 ** -30, 2.0 ** -30]), 1e-8), 1_000_003, 8)
    @example((Pmf([1 / BUCKETS, 0.5 - 1 / BUCKETS, 0.5]), 0.4), 4 * CHUNK + 9, 9)
    @example((DYADIC, 0.0), 6 * CHUNK + 1, 11)
    @example((DYADIC, entropy(DYADIC)), 6 * CHUNK + 1, 11)
    def test_report_bitwise(self, source, n, seed):
        px, d = source
        assert_bitwise_equal(timeshare_simulate(px, d, n, seed),
                             reference_timeshare(px, d, n, seed))

    @pytest.mark.parametrize("chunk", [128, 201])
    @given(source=sources_and_targets(max_r=8), n=st.integers(1, 5000), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_small_chunks(self, chunk, source, n, seed):
        # Blocks of many chunks, split on two threads from 4 * chunk samples;
        # 201 puts the chunk edges at every residue mod 8.
        px, d = source
        with mock.patch.object(refinement, "_CHUNK", chunk):
            got = timeshare_simulate(px, d, n, seed)
            want = reference_timeshare(px, d, n, seed)
        assert_bitwise_equal(got, want)

    @given(sources_and_targets(), lengths, seeds)
    @settings(max_examples=40, deadline=None)
    @example((DYADIC, 0.5 * entropy(DYADIC)), 1_500_000, 11)
    def test_sums_within_a_chunk_sums_rounding(self, source, n, seed):
        # A float in a 2^15-sample numpy sum passes through at most 26
        # roundings: 15 in an accumulator of numpy's eight-way unrolled
        # block of 128, 3 joining the accumulators and 8 in the pairwise
        # tree over 2^8 blocks.  So a chunk sum of nonnegative lengths is
        # within about 26 units of 2^-53 of its exact value, and fsum, the
        # division and the exact side's own two roundings add four more.
        px, d = source
        got = timeshare_simulate(px, d, n, seed)
        codelengths = block_codelengths(px, n, seed)
        k = got.lossless_prefix
        for value, run in [(got.ideal_rate, codelengths[:k]),
                           (got.empirical_loss, codelengths[k:])]:
            exact = math.fsum(run.tolist()) / n
            assert abs(value - exact) <= 32 * 2.0 ** -53 * exact


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
# k = n, equal fractions give k1 = k2, and the rest end the two prefixes
# inside chunks or on their edges.
FRACTIONS = [0.0, 0.013, 0.3, 0.5, 0.77, 1.0]
TARGET_PAIRS = [(f1, f2) for f1 in FRACTIONS for f2 in FRACTIONS if f2 <= f1]
SKEWED4 = Pmf([0.5, 0.3, 0.15, 0.05])
# (chunk, n, f1, f2): 128-sample chunks, the block drawn whole or split, and
# blocks split on two threads where a prefix ends inside a chunk.
PAIR_CASES = [(128, n, f1, f2) for n in [1, 127, 128, 129, 1000, 4099]
              for f1, f2 in TARGET_PAIRS] + [
    (CHUNK, 4 * CHUNK, 0.5, 0.013),
    (CHUNK, 4 * CHUNK, 0.3, 0.0),
    (CHUNK, 6 * CHUNK + 5, 0.77, 0.3),
    (128, 517, 0.6, 0.45),
    (128, 1000, 0.77, 0.3),
    (128, 4099, 0.6, 0.45),
]


class TestTwoDecoders:
    @pytest.mark.parametrize("chunk, n, f1, f2", PAIR_CASES)
    def test_each_report_matches_its_single_run(self, chunk, n, f1, f2):
        h = entropy(SKEWED4)
        with mock.patch.object(refinement, "_CHUNK", chunk):
            pair = timeshare_two_decoders(SKEWED4, f1 * h, f2 * h, n, 17)
            singles = [timeshare_simulate(SKEWED4, f * h, n, 17) for f in (f1, f2)]
            wants = [reference_timeshare(SKEWED4, f * h, n, 17) for f in (f1, f2)]
        for got, single, want in zip(pair, singles, wants):
            assert got == single
            assert [x.hex() for x in (got.empirical_loss, got.ideal_rate)] == [
                x.hex() for x in (single.empirical_loss, single.ideal_rate)]
            assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("chunk", [128, CHUNK])
    @pytest.mark.parametrize("n", [1, 1000, 6 * CHUNK + 5])
    def test_the_block_is_drawn_once(self, chunk, n):
        h = entropy(SKEWED4)
        drawn = []
        with mock.patch.object(refinement, "_CHUNK", chunk), \
                mock.patch.object(refinement, "_cost_sampler", counted_draws(drawn)):
            timeshare_two_decoders(SKEWED4, 0.77 * h, 0.3 * h, n, 3)
        assert sum(drawn) == n
        assert max(drawn) <= chunk


def drawn_parts(fn, *args):
    """fn(*args) and the (start, stop) parts of the block drawn, the caller's first.

    Each part makes one sampler.  The caller's part starts at sample 0 and
    the worker's, if the block is split, where the caller's stops.
    """
    sampler, caller, sizes = refinement._cost_sampler, threading.current_thread(), {}

    def spy(p, rng):
        draw, side = sampler(p, rng), threading.current_thread() is not caller
        assert side not in sizes  # one part on each side
        sizes[side] = 0

        def counted(m):
            sizes[side] += m
            return draw(m)

        return counted

    with mock.patch.object(refinement, "_cost_sampler", spy):
        result = fn(*args)
    s = sizes[False]
    return result, [(0, s)] + ([(s, s + sizes[True])] if True in sizes else [])


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
    # advanced by s, where s is the chunk edge nearest n/2 and each part
    # holds two chunks.

    @pytest.mark.parametrize("chunk", [128, CHUNK])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("f", [0.0, 0.5, 1.0])
    def test_blocks_of_about_two_chunks_per_side(self, chunk, extra, f):
        # Below two chunks a side the block is drawn whole; the 128-sample
        # chunk that other tests patch in splits blocks of a few hundred samples.
        h, n = entropy(SKEWED4), 4 * chunk + extra
        with mock.patch.object(refinement, "_CHUNK", chunk):
            report, parts = drawn_parts(timeshare_simulate, SKEWED4, f * h, n, 13)
            pair, pair_parts = drawn_parts(timeshare_two_decoders, SKEWED4, f * h, 0.0, n, 13)
            want = reference_timeshare(SKEWED4, f * h, n, 13)
            want_fine = reference_timeshare(SKEWED4, 0.0, n, 13)
        assert parts == pair_parts == (
            [(0, n)] if extra < 0 else [(0, 2 * chunk), (2 * chunk, n)])
        assert_bitwise_equal(report, want)
        assert_bitwise_equal(pair[0], want)
        assert_bitwise_equal(pair[1], want_fine)

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
            with mock.patch.object(refinement, "_CHUNK", 128), \
                    mock.patch.object(refinement, "_cost_sampler", sampler_on(side, late)):
                pair = timeshare_two_decoders(SKEWED4, 0.77 * h, 0.3 * h, 1000, 21)
                wants = [reference_timeshare(SKEWED4, f * h, 1000, 21) for f in (0.77, 0.3)]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(pair, wants):
            assert_bitwise_equal(got, want)

    def test_no_thread_outlives_a_call(self):
        h = entropy(SKEWED4)
        before = threading.active_count()
        _, parts = drawn_parts(timeshare_two_decoders, SKEWED4, 0.77 * h, 0.3 * h,
                               6 * CHUNK + 5, 1)
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
            timeshare_simulate(SKEWED4, 0.5 * h, 4 * CHUNK, 2)
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
        assert peak <= 3 * 2 ** 20
        assert elapsed <= 5.0
