"""The blocked enumeration kernel and the partition DP against per-code loops.

The reference functions below are the loop bodies of solve_avg_oracle,
logloss_avg_optimum, identity_sweep and verify_optimum_coincidence as they
were before the enumerations moved onto numpy blocks and the partition scan
became a subset DP.  Both form every float in the same order, so each
comparison is bitwise.
"""

import dataclasses
import itertools
import math
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
from loglosslab import equivalence, oneshot
from loglosslab.equivalence import CoincidenceReport, IdentitySweep, _cell_cost_tables

# ----------------------------------------------------------------------
# Reference loops.
# ----------------------------------------------------------------------


def reference_oracle_code(problem: SourceProblem, n_messages: int) -> OneShotCode:
    """The first code of least cost in itertools.product order."""
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
    return best_code


def reference_solve_avg_oracle(problem: SourceProblem, n_messages: int) -> float:
    return expected_distortion(problem, reference_oracle_code(problem, n_messages))


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
    value = entropy(px) - best_h

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
    return scheme, value if value > 0.0 else 0.0


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
                         min_loss=min_loss, min_distortion=min_d)


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
                             loss_argmin=tuple(sorted(set_l)), matched=set_d == set_l,
                             pairs_summed=2 * len(encoders) * len(cp.y_rows) ** cp.n_messages)


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


def _normalized(w) -> Pmf:
    w = np.array(w, dtype=float)
    return Pmf(w / w.sum())


# Sources whose partitions tie: equal masses, integer weights, symbols of
# zero mass and point masses.  In tiny-mass4 two masses lie below the
# rounding of the others, and the first optimum at M = 4 and 5 uses three
# cells.
TIE_CORPUS = {
    **{f"uniform{r}": Pmf.uniform(r) for r in (1, 2, 3, 5, 6, 8)},
    **{f"integer{len(w)}": _normalized(w)
       for w in ([1, 2, 1, 2, 2], [3, 1, 1, 1, 2, 1, 1], [1, 1, 2, 2, 3, 3, 1, 3])},
    **{f"zero-mass{len(w)}": _normalized(w)
       for w in ([1, 0, 1, 0, 1], [0, 2, 1, 0, 0, 1, 2], [0, 0, 1, 1, 0, 1, 1, 0])},
    **{f"point{r}": _normalized(np.eye(r)[x]) for r, x in ((2, 1), (4, 0), (7, 3))},
    "tiny-mass4": Pmf([0.8353343780197974, 0.16466562198020102, 1.5654604160607542e-15,
                       5.889415101140461e-19]),
}

# Small budgets split the codes into many prefix blocks; the default keeps
# these instances in one.
block_entries = st.sampled_from([1, 7, 64, oneshot._BLOCK_ENTRIES])

# identity_sweep forms residuals in tiles of an eighth of the block budget
# in code pairs.  A budget of 40 k^M pairs makes tiles of five encoders in
# blocks of M^t <= 40 encoders, so a block of more than five ends on a
# short tile.
SHORT_TILE = "short-tile"


def short_tile_entries(cp) -> int:
    return 40 * len(cp.y_rows) ** cp.n_messages


def bits(value) -> str:
    return float(value).hex()


def sweep_bits(sweep: IdentitySweep):
    return (sweep.n_codes, sweep.sampled, bits(sweep.max_residual), bits(sweep.min_loss),
            bits(sweep.min_distortion))


def scheme_bits(scheme: PartitionScheme, value: float):
    return (scheme.n_messages, scheme.encoder, scheme.cell_masses.tobytes(),
            tuple(row.probs.tobytes() for row in scheme.posterior_rows), bits(value))


class TestMatchesReferenceLoops:
    @given(problems(), st.integers(1, 4), block_entries)
    @settings(max_examples=60, deadline=None)
    def test_solve_avg_oracle(self, problem, n_messages, entries):
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries), \
                mock.patch.object(oneshot, "expected_distortion",
                                  wraps=oneshot.expected_distortion) as evaluate:
            value = solve_avg_oracle(problem, n_messages)
        assert bits(value) == bits(reference_solve_avg_oracle(problem, n_messages))
        # The oracle evaluates the reference's winner, encoder and decoder.
        assert evaluate.call_args.args[1] == reference_oracle_code(problem, n_messages)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_logloss_avg_optimum(self, data):
        px = data.draw(sources())
        n_messages = data.draw(st.integers(1, px.n + 1))
        assert scheme_bits(*logloss_avg_optimum(px, n_messages)) \
            == scheme_bits(*reference_logloss_avg_optimum(px, n_messages))

    @pytest.mark.parametrize("name", TIE_CORPUS)
    def test_logloss_avg_optimum_ties(self, name):
        # Every message count from 1 past r: the first optimal partition in
        # restricted-growth order, its masses, rows and value, bit for bit.
        px = TIE_CORPUS[name]
        for n_messages in range(1, px.n + 2):
            assert scheme_bits(*logloss_avg_optimum(px, n_messages)) \
                == scheme_bits(*reference_logloss_avg_optimum(px, n_messages))

    @given(problems(max_r=6), st.integers(2, 4),
           st.one_of(block_entries, st.just(SHORT_TILE)),
           st.sampled_from([0.0, 1e-9, 1e-3]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_identity_sweep_and_coincidence(self, problem, n_messages, entries, atol):
        assume(n_messages ** problem.n_source * problem.n_reconstruction ** n_messages <= 50_000)
        try:
            cp = build_corresponding(problem, n_messages, tol=1e-10)
        except LoglossLabError:
            assume(False)
        if entries == SHORT_TILE:
            entries = short_tile_entries(cp)
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries):
            sweep = identity_sweep(cp)
            report = verify_optimum_coincidence(cp, atol)
        assert sweep_bits(sweep) == sweep_bits(reference_identity_sweep(cp))
        ref = reference_optimum_coincidence(cp, atol)
        assert bits(report.min_distortion) == bits(ref.min_distortion)
        assert bits(report.min_loss) == bits(ref.min_loss)
        assert report.distortion_argmin == ref.distortion_argmin
        assert report.loss_argmin == ref.loss_argmin
        assert report.matched == ref.matched

    @pytest.mark.parametrize("r, n_messages", [(5, 2), (6, 2), (4, 3)])
    def test_identity_sweep_short_last_tile(self, r, n_messages):
        w = np.random.default_rng(r).uniform(0.05, 1.0, r)
        problem = SourceProblem(px=Pmf(w / w.sum()), distortion=hamming_distortion(r))
        cp = build_corresponding(problem, n_messages, tol=1e-10)
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", short_tile_entries(cp)), \
                mock.patch.object(equivalence, "_grid_into",
                                  wraps=equivalence._grid_into) as grid_into:
            blocks = [cells for _, cells, _, _ in equivalence._cell_blocks(cp, "identity_sweep")]
            sweep = identity_sweep(cp)
        assert sweep_bits(sweep) == sweep_bits(reference_identity_sweep(cp))
        # The tiles hold five encoders and end each block on a short one,
        # and on each side they cover every encoder's cells once, in order.
        assert all(len(cells[0]) > 5 and len(cells[0]) % 5 for cells in blocks)
        tiles = [call.args[0] for call in grid_into.call_args_list]
        assert {len(t) for t in tiles} == {5} | {len(cells[0]) % 5 for cells in blocks}
        for side in (0, 1):
            assert np.concatenate(tiles[side::2]).tobytes() \
                == np.concatenate([cells[side] for cells in blocks]).tobytes()

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


# px = (3, 3, 2, 2) / 10 at M = 2 and atol = 0.05: four code pairs lie
# within atol of the least distortion, two of the least log loss.
UNMATCHED = SourceProblem(px=_normalized([3, 3, 2, 2]),
                          distortion=np.array([[1.0, 1.0, 0.0], [0.5, 1.0, 2.0],
                                               [0.5, 0.0, 2.0], [2.0, 0.0, 0.5]]))
ARGMIN_CASES = {
    "uniform5-m3": (SourceProblem(px=Pmf.uniform(5), distortion=hamming_distortion(5)), 3, 1e-9),
    "uniform4-m2-atol": (SourceProblem(px=Pmf.uniform(4), distortion=hamming_distortion(4)),
                         2, 0.3),
    "unmatched": (UNMATCHED, 2, 0.05),
}
# The pairs each case's check sums, over both sides.  Only canonical
# encoders are scored: uniform5-m3 sums the 270 canonical pairs of each
# side's 540, and uniform4-m2-atol every pair of its 8 canonical encoders,
# 128 on each side.
PAIRS_SUMMED = {"uniform5-m3": 540, "uniform4-m2-atol": 256, "unmatched": 3}


class TestArgminSets:
    @pytest.mark.parametrize("name", ARGMIN_CASES)
    def test_sets_behave_as_the_reference_tuples(self, name):
        problem, n_messages, atol = ARGMIN_CASES[name]
        cp = build_corresponding(problem, n_messages, tol=1e-10)
        report = verify_optimum_coincidence(cp, atol)
        ref = reference_optimum_coincidence(cp, atol)
        assert report.matched == ref.matched == (name != "unmatched")
        for got, want in ((report.distortion_argmin, ref.distortion_argmin),
                          (report.loss_argmin, ref.loss_argmin)):
            assert got == want and want == got
            assert not (got != want or want != got)
            assert hash(got) == hash(want)
            assert repr(got) == repr(want)
            assert list(got) == list(want)
            indices = range(-len(want), len(want))
            assert [got[i] for i in indices] == [want[i] for i in indices]
            assert got[1:3] == want[1:3]
            with pytest.raises(IndexError):
                got[len(want)]
            assert got != list(want)
        # Set against set, and each set against the other side's tuple.
        assert (report.distortion_argmin == report.loss_argmin) == ref.matched
        assert (report.distortion_argmin == ref.loss_argmin) == ref.matched
        assert (ref.distortion_argmin == report.loss_argmin) == ref.matched
        assert report == ref and ref == report
        assert hash(report) == hash(ref)
        # The reference sums every pair; equality ignores this work count.
        assert report.pairs_summed == PAIRS_SUMMED[name] < ref.pairs_summed

    def test_one_message_has_no_swap(self):
        # With one message every encoder is canonical and the sets hold no
        # swapped pairs.
        problem, n_messages, atol = ARGMIN_CASES["uniform4-m2-atol"]
        cp = dataclasses.replace(build_corresponding(problem, n_messages, tol=1e-10),
                                 n_messages=1)
        report = verify_optimum_coincidence(cp, atol)
        ref = reference_optimum_coincidence(cp, atol)
        assert len(report.distortion_argmin) == len(ref.distortion_argmin) > 1
        assert report == ref

    def test_sets_of_separate_checks(self):
        cps = [build_corresponding(problem, n_messages, tol=1e-10)
               for problem, n_messages, _ in list(ARGMIN_CASES.values())[:2]]
        first, again, other = (verify_optimum_coincidence(cp).distortion_argmin
                               for cp in (cps[0], cps[0], cps[1]))
        assert first is not again and first == again
        assert first != other and other != first

    @pytest.mark.parametrize("name", ARGMIN_CASES)
    def test_len_and_matched_decode_nothing(self, name):
        problem, n_messages, atol = ARGMIN_CASES[name]
        cp = build_corresponding(problem, n_messages, tol=1e-10)
        ref = reference_optimum_coincidence(cp, atol)
        with mock.patch.object(equivalence, "_pair_tuples",
                               wraps=equivalence._pair_tuples) as decode:
            report = verify_optimum_coincidence(cp, atol)
            assert len(report.distortion_argmin) == len(ref.distortion_argmin)
            assert len(report.loss_argmin) == len(ref.loss_argmin)
            assert report.matched == ref.matched
            assert decode.call_count == 0
            # The first read decodes each distinct set once.
            for _ in range(2):
                assert report == ref
                assert report.distortion_argmin[0] == ref.distortion_argmin[0]
            assert decode.call_count == (1 if ref.matched else 2)


def product_pairs(r, m_count, k, backwards=False):
    """(encoder, decoder) pairs in itertools.product order, or from the last back.

    Lazy: the decoders are listed afresh for each encoder.
    """
    def digits(base):
        return range(base - 1, -1, -1) if backwards else range(base)
    return ((enc, dec) for enc in itertools.product(digits(m_count), repeat=r)
            for dec in itertools.product(digits(k), repeat=m_count))


class TestPairKeys:
    # (r, M, k) with M^r * k^M code pairs up to the 10^7 guard.
    @pytest.mark.parametrize("r, m_count, k", [(20, 2, 3), (8, 3, 11),
                                               (23, 2, 1), (1, 2, 2236)])
    def test_extreme_keys_decode_in_product_order(self, r, m_count, k):
        total = m_count ** r * k ** m_count
        assert total <= oneshot._CODE_ENUM_GUARD
        # The five least keys, from 0, and the five greatest, to total - 1.
        keys = np.r_[0:5, total - 5:total].astype(np.int32)
        head = list(itertools.islice(product_pairs(r, m_count, k), 5))
        tail = list(itertools.islice(product_pairs(r, m_count, k, backwards=True), 5))
        assert equivalence._pair_tuples(keys, r, m_count, k) == tuple(head + tail[::-1])

    def test_every_key_of_a_small_shape(self):
        keys = np.arange(2 ** 3 * 3 ** 2, dtype=np.int32)
        assert equivalence._pair_tuples(keys, 3, 2, 3) == tuple(product_pairs(3, 2, 3))

    def test_guard_keeps_keys_in_int32(self):
        # The largest key is the guard's pair count less one.
        assert oneshot._CODE_ENUM_GUARD < 2 ** 31


def is_canonical(code) -> bool:
    """The first label below 2, if any, is 0: code is no later than its swap of 0 and 1."""
    return next((m for m in code if m < 2), 0) == 0


def canonical_ordinals(r, n_cells) -> list:
    return [n for n, code in enumerate(itertools.product(range(n_cells), repeat=r))
            if is_canonical(code)]


def check_ordinals(blocks, r, n_cells, row_entries):
    """Check that the blocks' rows are the canonical codes in order, one head each.

    A head is a run of n_cells**t ordinals, for the largest tail length t
    within the budget.  Each head holding a canonical code makes one block,
    of its canonical codes.  Returns n_cells**t.
    """
    budget = max(oneshot._BLOCK_ENTRIES // row_entries, 1)
    rows = max(n_cells ** t for t in range(r + 1) if n_cells ** t <= budget)
    want = canonical_ordinals(r, n_cells)
    assert np.concatenate([ordinals for ordinals, _ in blocks]).tolist() == want
    assert [len(sums) for _, sums in blocks] == [len(ordinals) for ordinals, _ in blocks]
    assert [set((ordinals // rows).tolist()) for ordinals, _ in blocks] \
        == [{head} for head in sorted({n // rows for n in want})]
    return rows


def kernel_codes(r, n_cells, row_entries):
    """The code of each row, read from the kernel's sums of one-hot weights.

    With weights[x] the x-th unit vector, sums[n, m, x] is 1.0 exactly when
    row n puts symbol x in cell m.
    """
    blocks = list(oneshot._cell_sum_blocks(np.eye(r), n_cells, row_entries))
    check_ordinals(blocks, r, n_cells, row_entries)
    return np.vstack([sums.argmax(axis=1) for _, sums in blocks])


# px = (5, 4, 3, 2, 1) / 15 against four random columns at M = 3: the
# first code of least cost has an encoder that reads differently backwards.
ASYMMETRIC = SourceProblem(px=_normalized([5, 4, 3, 2, 1]),
                           distortion=np.random.default_rng(5).random((5, 4)))


class TestEnumerationOrder:
    @pytest.mark.parametrize("entries", [1, 5, 64, oneshot._BLOCK_ENTRIES])
    def test_encoders_in_product_order(self, entries):
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries):
            codes = kernel_codes(5, 3, 3)
        assert codes.tolist() == [list(e) for e in itertools.product(range(3), repeat=5)
                                  if is_canonical(e)]

    @pytest.mark.parametrize("n_cells", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("entries", [1, 7, oneshot._BLOCK_ENTRIES])
    def test_rows_and_their_swaps_are_every_code_once(self, n_cells, r, entries):
        # n_cells > r included: then some codes leave cells empty.
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries):
            codes = [tuple(code) for code in kernel_codes(r, n_cells, n_cells).tolist()]
        assert codes == sorted(codes)
        images = [tuple({0: 1, 1: 0}.get(m, m) for m in code) for code in codes] \
            if n_cells > 1 else []
        every = itertools.product(range(n_cells), repeat=r)
        assert sorted(set(codes) | set(images)) == list(every)
        # Only the codes the swap fixes, those with no label below 2 (or
        # the one code with one cell), are rows together with their swap.
        fixed = (n_cells - 2) ** r if n_cells > 1 else 1
        assert len(codes) == (n_cells ** r + fixed) // 2

    @pytest.mark.parametrize("entries", [1, 5, 64, oneshot._BLOCK_ENTRIES])
    def test_oracle_decodes_its_winner(self, entries):
        want = reference_oracle_code(ASYMMETRIC, 3)
        assert want.encoder != want.encoder[::-1]
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries), \
                mock.patch.object(oneshot, "expected_distortion",
                                  wraps=oneshot.expected_distortion) as evaluate:
            solve_avg_oracle(ASYMMETRIC, 3)
        assert evaluate.call_args.args[1] == want


def reference_cell_sums(weights, n_cells):
    """sums[n, m]: weights[x] over the x that code n puts in cell m, by a loop over x.

    Code n is the n-th in itertools.product order.
    """
    r = len(weights)
    codes = list(itertools.product(range(n_cells), repeat=r))
    sums = np.zeros((len(codes), n_cells) + weights.shape[1:])
    for n, code in enumerate(codes):
        for x in range(r):
            sums[n, code[x]] += weights[x]
    return sums


def hex_entries(a) -> list:
    return [float(v).hex() for v in np.asarray(a).ravel()]


# A log-loss weight px * -ln 1 is -0.0, and a zero posterior entry gives
# +inf.  The columns hold both next to ordinary costs.
SIGNED_WEIGHTS = np.array([[0.25, -0.0, np.inf],
                           [-0.0, 0.5, 0.125],
                           [np.inf, -0.0, -0.0],
                           [0.375, np.inf, 0.0],
                           [-0.0, 0.0625, 0.75]])


class TestCellSums:
    # Budgets giving every tail length from t = 0 (one head per code) to
    # t = r (one block).  The kernel's rows are the reference's rows of the
    # canonical codes.
    @pytest.mark.parametrize("n_cells", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_signed_zeros_and_inf_match_the_loop(self, n_cells, r):
        weights = SIGNED_WEIGHTS[:r]
        row_entries = n_cells * weights.shape[1]
        want = reference_cell_sums(weights, n_cells)[canonical_ordinals(r, n_cells)]
        tails = set()
        for t in range(r + 1):
            entries = n_cells ** t * row_entries
            with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries):
                blocks = list(oneshot._cell_sum_blocks(weights, n_cells, row_entries))
                tails.add(check_ordinals(blocks, r, n_cells, row_entries))
            got = np.concatenate([sums for _, sums in blocks])
            assert hex_entries(got) == hex_entries(want)
        assert tails == {n_cells ** t for t in range(r + 1)}

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 3), block_entries,
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_weights_match_the_loop(self, r, n_cells, cols, entries, seed):
        rng = np.random.default_rng(seed)
        weights = rng.choice([0.0, -0.0, np.inf, 0.1, 0.7, 1 / 3], (r, cols)) \
            * rng.uniform(0.5, 2.0, (r, cols))
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries):
            blocks = list(oneshot._cell_sum_blocks(weights, n_cells, n_cells * cols))
            check_ordinals(blocks, r, n_cells, n_cells * cols)
        got = np.concatenate([sums for _, sums in blocks])
        want = reference_cell_sums(weights, n_cells)[canonical_ordinals(r, n_cells)]
        assert hex_entries(got) == hex_entries(want)


def reference_grid(a):
    """grid[j_0, ..., j_{M-1}, n] by a loop that adds the messages in order."""
    n, m_count, k = a.shape
    grid = np.empty((k,) * m_count + (n,))
    for i in range(n):
        for dec in itertools.product(range(k), repeat=m_count):
            total = a[i, 0, dec[0]]
            for m in range(1, m_count):
                total = total + a[i, m, dec[m]]
            grid[dec + (i,)] = total
    return grid


class TestGrid:
    @pytest.mark.parametrize("m_count", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 5])
    def test_nested_sums_match_the_loop(self, m_count, n):
        k = 3
        rng = np.random.default_rng(10 * m_count + n)
        # A strided view, as identity_sweep passes one side of its cells.
        cells = rng.uniform(0.0, 3.0, (2, n + 2, m_count, k)) \
            * rng.choice([1.0, 1e-9, 1e9], (2, n + 2, m_count, k))
        a = cells[1, 1:n + 1]
        size = n * k ** m_count
        out, spare = np.full(size + 7, np.nan), np.full(size + 7, np.nan)
        grid = equivalence._grid_into(a, out, spare)
        assert np.shares_memory(grid, out)
        assert grid.shape == (k,) * m_count + (n,)
        assert hex_entries(grid) == hex_entries(reference_grid(a))


# ----------------------------------------------------------------------
# Scale: the largest instances run in bounded memory and time.
# ----------------------------------------------------------------------

PEAK_BYTES = 64 * 2**20
BUDGET_S = 10.0


class TestScale:
    def test_logloss_avg_optimum_r12_m12(self, traced):
        # 4.2 M partitions; with M >= r every split raises H(f(X)), so the
        # all-singleton partition is the unique optimum.
        w = np.random.default_rng(12).uniform(0.05, 1.0, 12)
        px = Pmf(w / w.sum())
        (scheme, value), elapsed, peak, _ = traced(logloss_avg_optimum, px, 12)
        assert scheme.encoder == tuple(range(12))
        assert abs(value) <= 1e-12
        assert peak <= PEAK_BYTES, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"

    @pytest.mark.parametrize("r", [13, 14])
    def test_logloss_avg_optimum_m_equals_r(self, r, traced):
        # Bell(13) = 27.6 M and Bell(14) = 190.9 M partitions.  With M >= r
        # the all-singleton partition is the unique optimum.
        w = np.random.default_rng(r).uniform(0.05, 1.0, r)
        (scheme, value), elapsed, peak, _ = traced(logloss_avg_optimum, Pmf(w / w.sum()), r)
        assert scheme.encoder == tuple(range(r))
        assert abs(value) <= 1e-12
        assert peak <= PEAK_BYTES, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"

    def test_logloss_avg_optimum_r14_m4(self, traced):
        # 11.2 M partitions into at most four cells are too many for the
        # reference loop, so check the value against the encoder, and the
        # encoder against every partition one move or one swap away.
        w = np.random.default_rng(14).uniform(0.05, 1.0, 14)
        px = Pmf(w / w.sum())
        (scheme, value), elapsed, peak, _ = traced(logloss_avg_optimum, px, 4)

        def cell_entropy(encoder):
            return entropy(Pmf(np.bincount(encoder, weights=px.probs, minlength=4)))

        h_cells = cell_entropy(scheme.encoder)
        assert abs(value - (entropy(px) - h_cells)) <= 1e-12
        neighbours = []
        for x in range(14):
            for cell in range(4):
                moved = list(scheme.encoder)
                moved[x] = cell
                neighbours.append(moved)
            for y in range(x):
                swapped = list(scheme.encoder)
                swapped[x], swapped[y] = swapped[y], swapped[x]
                neighbours.append(swapped)
        assert max(cell_entropy(e) for e in neighbours) <= h_cells + 1e-12
        assert peak <= PEAK_BYTES, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"

    def test_solve_avg_oracle_r13_m3(self, traced):
        # 1.6 M encoders.
        rng = np.random.default_rng(13)
        w = rng.uniform(0.05, 1.0, 13)
        problem = SourceProblem(px=Pmf(w / w.sum()), distortion=rng.random((13, 5)))
        value, elapsed, peak, _ = traced(solve_avg_oracle, problem, 3)
        assert bits(value) == bits(solve_avg(problem, 3)[1])
        assert peak <= PEAK_BYTES, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"

    def test_coincidence_uniform8_m3(self, traced):
        # 3,359,232 code pairs, 81,648 of them tied at the optimum on each
        # side; only pairs of canonical encoders that can lie near the
        # optimum are summed, here the 40,824 tied ones on each side, and
        # each kept pair is one 4-byte key.
        problem = SourceProblem(px=Pmf.uniform(8), distortion=hamming_distortion(8))
        cp = build_corresponding(problem, 3, tol=1e-8)
        report, elapsed, peak, held = traced(verify_optimum_coincidence, cp)
        assert report.matched
        assert len(report.distortion_argmin) == 81_648
        assert report.pairs_summed == 2 * 40_824
        assert held <= 4 * 40_824 + 2**14, f"held {held} bytes"
        assert peak <= 2 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"

    def test_coincidence_keeps_every_pair(self, traced):
        # atol = 10 keeps all 3^7 * 7^3 = 750,141 code pairs on each side,
        # as the (3^7 + 1) / 2 * 7^3 = 375,242 pairs of canonical encoders.
        # The peak is about 10.4 MB: the kept costs and keys of both sides
        # (9 MB), the joined keys of one side, and one group of candidate
        # products of at most 2^15 pairs.
        problem = SourceProblem(px=Pmf.uniform(7), distortion=hamming_distortion(7))
        cp = build_corresponding(problem, 3, tol=1e-8)
        report, elapsed, peak, held = traced(verify_optimum_coincidence, cp, 10.0)
        assert report.matched
        assert len(report.distortion_argmin) == len(report.loss_argmin) == 750_141
        assert report.pairs_summed == 2 * 375_242
        assert held <= 4 * 375_242 + 2**14, f"held {held} bytes"
        assert peak <= 12 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"
        assert report.distortion_argmin == tuple(itertools.product(
            itertools.product(range(3), repeat=7), itertools.product(range(7), repeat=3)))

    @pytest.mark.parametrize("r, fields", [
        (7, (750_141, False, "0x1.8000000000000p-51", "0x1.b4eeec003935dp+0",
             "0x1.2492492492492p-1")),
        (8, (3_359_232, False, "0x1.0000000000000p-50", "0x1.e0b4b026175f7p+0",
             "0x1.4000000000000p-1")),
    ])
    def test_identity_sweep_uniform_m3(self, r, fields, traced):
        # Every pair of 3^r encoders and r^3 decoders.  The residuals are
        # formed in tiles of at most 2^15 pairs, so a few buffers of that
        # size bound the memory.
        problem = SourceProblem(px=Pmf.uniform(r), distortion=hamming_distortion(r))
        cp = build_corresponding(problem, 3, tol=1e-8)
        sweep, elapsed, peak, _ = traced(identity_sweep, cp)
        assert sweep_bits(sweep) == fields
        assert peak <= 2 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"
