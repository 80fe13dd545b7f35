"""The bounded-memory time-sharing sampler against the one-call body it replaced.

The reference below is timeshare_simulate's sampling as it was before the
sampler moved to fixed-size leaves: one ``default_rng(seed).choice`` call,
costs by ``-np.log`` and one numpy sum over each part of the block.  The
sampler draws the same stream and adds every float in the same order, so
each comparison is bitwise.
"""

import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglosslab import Pmf, entropy, timeshare_simulate
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


class TestScale:
    def test_ten_million_samples_in_bounded_memory(self):
        px = Pmf([0.4, 0.3, 0.2, 0.1])
        h = entropy(px)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = timeshare_simulate(px, 0.5 * h, 10 ** 7, 7)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.lossless_prefix == 5 * 10 ** 6
        assert math.isclose(report.empirical_loss + report.ideal_rate, h, rel_tol=1e-3)
        assert peak <= 16 * 2 ** 20
        assert elapsed <= 5.0
