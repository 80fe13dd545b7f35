"""The blocked enumeration kernel against the per-code loops it replaced.

The reference functions below are the loop bodies of solve_avg_oracle,
logloss_avg_optimum, identity_sweep and verify_optimum_coincidence as they
were before the enumerations moved onto numpy blocks.  The kernel forms
every float in the same order, so each comparison is bitwise.
"""

import itertools
import math
import time
import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from loglosslab import (
    LoglossLabError,
    OneShotCode,
    PartitionScheme,
    Pmf,
    SourceProblem,
    build_corresponding,
    entropy,
    expected_distortion,
    hamming_distortion,
    identity_sweep,
    logloss_avg_optimum,
    solve_avg,
    solve_avg_oracle,
    verify_optimum_coincidence,
)
from loglosslab import oneshot
from loglosslab.equivalence import CoincidenceReport, IdentitySweep, _cell_cost_tables

# ----------------------------------------------------------------------
# Reference loops.
# ----------------------------------------------------------------------


def reference_solve_avg_oracle(problem: SourceProblem, n_messages: int) -> float:
    r = problem.n_source
    weighted = problem.px.probs[:, None] * problem.distortion
    best = math.inf
    best_code = None
    for enc in itertools.product(range(n_messages), repeat=r):
        cost = 0.0
        columns = [0] * n_messages
        for m in range(n_messages):
            cell = [x for x in range(r) if enc[x] == m]
            if not cell:
                continue
            cell_costs = weighted[cell].sum(axis=0)
            columns[m] = int(cell_costs.argmin())
            cost += float(cell_costs.min())
        if cost < best:
            best = cost
            best_code = OneShotCode(n_messages=n_messages, encoder=tuple(enc),
                                    decoder=tuple(columns))
    return expected_distortion(problem, best_code)


def restricted_growth_strings(n: int, max_blocks: int):
    a = [0] * n
    while True:
        yield a
        i = n - 1
        while i > 0:
            cap = min(max(a[:i]) + 1, max_blocks - 1)
            if a[i] < cap:
                a[i] += 1
                for j in range(i + 1, n):
                    a[j] = 0
                break
            i -= 1
        else:
            return


def reference_logloss_avg_optimum(px: Pmf, n_messages: int):
    r = px.n
    p = px.probs
    p_list = p.tolist()
    best_h = -1.0
    best_assign = None
    masses = [0.0] * n_messages
    for assign in restricted_growth_strings(r, n_messages):
        blocks = max(assign) + 1
        for m in range(blocks):
            masses[m] = 0.0
        for x in range(r):
            masses[assign[x]] += p_list[x]
        h = 0.0
        for m in range(blocks):
            u = masses[m]
            if u > 0.0:
                h -= u * math.log(u)
        if h > best_h:
            best_h = h
            best_assign = assign.copy()

    blocks = max(best_assign) + 1
    masses = np.bincount(best_assign, weights=p, minlength=blocks)
    rows = []
    assign_arr = np.array(best_assign)
    for m in range(blocks):
        cell = assign_arr == m
        row = np.zeros(r)
        if masses[m] > 0.0:
            row[cell] = p[cell] / masses[m]
        else:
            row[cell] = 1.0 / int(cell.sum())
        rows.append(Pmf(row))
    scheme = PartitionScheme(n_messages=blocks, encoder=tuple(int(c) for c in best_assign),
                             cell_masses=masses, posterior_rows=tuple(rows))
    return scheme, entropy(px) - best_h


def _reference_grids(cp, enc):
    m_count = cp.n_messages
    k = len(cp.y_rows)
    w_d, w_l = _cell_cost_tables(cp)
    a_d = np.zeros((m_count, k))
    a_l = np.zeros((m_count, k))
    for x in range(cp.px.n):
        a_d[enc[x]] += w_d[x]
        a_l[enc[x]] += w_l[x]
    return reduce(np.add.outer, list(a_d)), reduce(np.add.outer, list(a_l))


def reference_identity_sweep(cp) -> IdentitySweep:
    h, lam, d_star = cp.h_x_given_xhat, cp.lambda_star, cp.d_star_m
    max_resid = 0.0
    min_loss = math.inf
    min_d = math.inf
    n_codes = 0
    for enc in itertools.product(range(cp.n_messages), repeat=cp.px.n):
        grid_d, grid_l = _reference_grids(cp, enc)
        resid = np.abs(grid_l - h - lam * (grid_d - d_star))
        max_resid = max(max_resid, float(resid.max()))
        min_loss = min(min_loss, float(grid_l.min()))
        min_d = min(min_d, float(grid_d.min()))
        n_codes += grid_d.size
    return IdentitySweep(n_codes=n_codes, max_residual=max_resid,
                         min_loss=min_loss, min_distortion=min_d, sampled=False)


def reference_optimum_coincidence(cp, atol: float = 1e-9) -> CoincidenceReport:
    encoders = list(itertools.product(range(cp.n_messages), repeat=cp.px.n))
    best_d = math.inf
    best_l = math.inf
    for enc in encoders:
        grid_d, grid_l = _reference_grids(cp, enc)
        best_d = min(best_d, float(grid_d.min()))
        best_l = min(best_l, float(grid_l.min()))
    set_d = set()
    set_l = set()
    for enc in encoders:
        grid_d, grid_l = _reference_grids(cp, enc)
        for dec in np.argwhere(grid_d <= best_d + atol):
            set_d.add((enc, tuple(int(i) for i in dec)))
        for dec in np.argwhere(grid_l <= best_l + atol):
            set_l.add((enc, tuple(int(i) for i in dec)))
    return CoincidenceReport(min_distortion=best_d, min_loss=best_l,
                             distortion_argmin=tuple(sorted(set_d)),
                             loss_argmin=tuple(sorted(set_l)), matched=set_d == set_l)


# ----------------------------------------------------------------------
# Instances: uniform sources, zero-mass symbols, tied distortions.
# ----------------------------------------------------------------------


@st.composite
def sources(draw, min_r=1, max_r=7):
    r = draw(st.integers(min_r, max_r))
    kind = draw(st.sampled_from(["uniform", "zero-mass", "tied", "continuous"]))
    if kind == "uniform":
        return Pmf.uniform(r)
    if kind == "tied":
        w = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
    else:
        w = draw(st.lists(st.floats(0.05, 1.0), min_size=r, max_size=r))
    w = np.array(w, dtype=float)
    if kind == "zero-mass":
        zeros = draw(st.lists(st.booleans(), min_size=r, max_size=r))
        w[np.array(zeros)] = 0.0
        w[draw(st.integers(0, r - 1))] = 1.0
    return Pmf(w / w.sum())


@st.composite
def problems(draw, max_r=7, max_s=4):
    px = draw(sources(max_r=max_r))
    r = px.n
    kind = draw(st.sampled_from(["hamming", "tied", "continuous"]))
    if kind == "hamming":
        dist = hamming_distortion(r)
    else:
        s = draw(st.integers(1, max_s))
        if kind == "tied":
            levels = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                   min_size=r * s, max_size=r * s))
        else:
            levels = draw(st.lists(st.floats(0.0, 1.0), min_size=r * s, max_size=r * s))
        dist = np.array(levels).reshape(r, s)
    try:
        return SourceProblem(px=px, distortion=dist)
    except LoglossLabError:
        assume(False)


# Small budgets split the codes into many prefix blocks; the default keeps
# these instances in one.
block_entries = st.sampled_from([1, 7, 64, oneshot._BLOCK_ENTRIES])


def bits(value) -> str:
    return float(value).hex()


def scheme_bits(scheme: PartitionScheme, value: float):
    return (scheme.n_messages, scheme.encoder, scheme.cell_masses.tobytes(),
            tuple(row.probs.tobytes() for row in scheme.posterior_rows), bits(value))


class TestMatchesReferenceLoops:
    @given(problems(), st.integers(1, 4), block_entries)
    @settings(max_examples=60, deadline=None)
    def test_solve_avg_oracle(self, problem, n_messages, entries):
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries):
            value = solve_avg_oracle(problem, n_messages)
        assert bits(value) == bits(reference_solve_avg_oracle(problem, n_messages))

    @given(sources(), st.integers(1, 4), block_entries)
    @settings(max_examples=80, deadline=None)
    def test_logloss_avg_optimum(self, px, n_messages, entries):
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries):
            got = logloss_avg_optimum(px, n_messages)
        assert scheme_bits(*got) == scheme_bits(*reference_logloss_avg_optimum(px, n_messages))

    @given(problems(max_r=6), st.integers(2, 4), block_entries,
           st.sampled_from([0.0, 1e-9, 1e-3]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_identity_sweep_and_coincidence(self, problem, n_messages, entries, atol):
        assume(n_messages ** problem.n_source * problem.n_reconstruction ** n_messages <= 50_000)
        try:
            cp = build_corresponding(problem, n_messages, tol=1e-10)
        except LoglossLabError:
            assume(False)
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries):
            sweep = identity_sweep(cp)
            report = verify_optimum_coincidence(cp, atol)
        ref_sweep = reference_identity_sweep(cp)
        assert sweep.n_codes == ref_sweep.n_codes
        assert not sweep.sampled
        assert [bits(getattr(sweep, f)) for f in ("max_residual", "min_loss", "min_distortion")] \
            == [bits(getattr(ref_sweep, f)) for f in ("max_residual", "min_loss", "min_distortion")]
        ref = reference_optimum_coincidence(cp, atol)
        assert bits(report.min_distortion) == bits(ref.min_distortion)
        assert bits(report.min_loss) == bits(ref.min_loss)
        assert report.distortion_argmin == ref.distortion_argmin
        assert report.loss_argmin == ref.loss_argmin
        assert report.matched == ref.matched

    def test_uniform6_tie_case(self):
        # uniform6 at M=3: thousands of tied optimal pairs on both sides.
        problem = SourceProblem(px=Pmf.uniform(6), distortion=hamming_distortion(6))
        cp = build_corresponding(problem, 3, tol=1e-10)
        report = verify_optimum_coincidence(cp)
        ref = reference_optimum_coincidence(cp)
        assert len(report.distortion_argmin) > 1000
        assert report == ref
        assert scheme_bits(*logloss_avg_optimum(problem.px, 3)) \
            == scheme_bits(*reference_logloss_avg_optimum(problem.px, 3))


def kernel_codes(weights, n_cells, opened, row_entries):
    """The kernel's codes, after checking that no block exceeds its budget."""
    blocks = [codes for codes, _ in oneshot._cell_sum_blocks(weights, n_cells, opened,
                                                             row_entries)]
    budget = max(oneshot._BLOCK_ENTRIES // row_entries, 1)
    assert max(len(codes) for codes in blocks) <= budget
    return np.vstack(blocks)


class TestEnumerationOrder:
    # 64 entries split the partitions into blocks of unequal size.
    @pytest.mark.parametrize("entries", [1, 5, 64, oneshot._BLOCK_ENTRIES])
    def test_encoders_in_product_order(self, entries):
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries):
            codes = kernel_codes(np.arange(5.0), 3, 3, 3)
        assert codes.tolist() == [list(e) for e in itertools.product(range(3), repeat=5)]

    @pytest.mark.parametrize("entries", [1, 5, 64, oneshot._BLOCK_ENTRIES])
    def test_partitions_in_restricted_growth_order(self, entries):
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries):
            codes = kernel_codes(np.arange(6.0), 4, 0, 4)
        assert codes.tolist() == [list(a) for a in restricted_growth_strings(6, 4)]


# ----------------------------------------------------------------------
# Scale: the largest instances run in bounded memory and time.
# ----------------------------------------------------------------------

PEAK_BYTES = 64 * 2**20
BUDGET_S = 10.0


def traced(fn, *args):
    """(result, seconds, traced peak bytes) of one call."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, elapsed, peak


class TestScale:
    def test_logloss_avg_optimum_r12_m12(self):
        # 4.2 M partitions; with M >= r every split raises H(f(X)), so the
        # all-singleton partition is the unique optimum.
        w = np.random.default_rng(12).uniform(0.05, 1.0, 12)
        px = Pmf(w / w.sum())
        (scheme, value), elapsed, peak = traced(logloss_avg_optimum, px, 12)
        assert scheme.encoder == tuple(range(12))
        assert abs(value) <= 1e-12
        assert peak <= PEAK_BYTES, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"

    def test_solve_avg_oracle_r13_m3(self):
        # 1.6 M encoders.
        rng = np.random.default_rng(13)
        w = rng.uniform(0.05, 1.0, 13)
        problem = SourceProblem(px=Pmf(w / w.sum()), distortion=rng.random((13, 5)))
        value, elapsed, peak = traced(solve_avg_oracle, problem, 3)
        assert bits(value) == bits(solve_avg(problem, 3)[1])
        assert peak <= PEAK_BYTES, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"

    def test_coincidence_uniform8_m3(self):
        # 3,359,232 code pairs, 81,648 of them tied at the optimum on each
        # side; only pairs that can lie near the optimum are summed.
        problem = SourceProblem(px=Pmf.uniform(8), distortion=hamming_distortion(8))
        cp = build_corresponding(problem, 3, tol=1e-8)
        report, elapsed, peak = traced(verify_optimum_coincidence, cp)
        assert report.matched
        assert len(report.distortion_argmin) == 81_648
        assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"
