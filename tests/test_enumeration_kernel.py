"""The blocked enumeration kernel and the partition DP against per-code loops.

The reference functions below are the loop bodies of solve_avg_oracle,
logloss_avg_optimum, identity_sweep and verify_optimum_coincidence as they
were before the enumerations moved onto numpy blocks and the partition scan
became a subset DP.  Both form every float in the same order, so each
comparison is bitwise.  verify_optimum_coincidence now counts its argmin
sets, and identity_sweep takes its largest residual, over column sets; the
exhaustive listings stay here as their oracles.  The
sweep's maximum is compared with the exact one, in Fractions.
"""

import contextlib
import dataclasses
import itertools
import math
import time
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from loglosslab import (
    DegenerateInstanceError,
    LoglossLabError,
    LogLossCode,
    OneShotCode,
    Pmf,
    SourceProblem,
    VerificationError,
    build_corresponding,
    entropy,
    expected_distortion,
    hamming_distortion,
    identity_bound,
    identity_sweep,
    logloss_avg_optimum,
    solve_avg,
    solve_avg_oracle,
    verify_optimum_coincidence,
)
from loglosslab import equivalence, oneshot
from loglosslab.equivalence import CoincidenceReport, IdentitySweep, _cell_cost_tables
from loglosslab.problemio import load_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

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
    code = LogLossCode(n_messages=blocks, encoder=tuple(int(c) for c in best_assign),
                       decoder_rows=tuple(rows))
    return code, value if value > 0.0 else 0.0


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
    n_codes = 0
    for enc in itertools.product(range(cp.n_messages), repeat=cp.px.n):
        grid_d, grid_l = _reference_grids(cp, enc)
        resid = np.abs(grid_l - h - lam * (grid_d - d_star))
        max_resid = max(max_resid, float(resid.max()))
        n_codes += grid_d.size
    return IdentitySweep(n_codes=n_codes, max_residual=max_resid)


def exact_residual_table(cp) -> tuple[list, Fraction]:
    """The float table e = w_l - lambda* w_d and C = h - lambda* D*, as exact Fractions.

    An entry of e is +inf where a reverse row puts no mass on a symbol of
    positive mass; it stays the float inf, which every sum through it
    reaches.
    """
    w_d, w_l = _cell_cost_tables(cp)
    e = [[Fraction(v) if v < math.inf else v for v in row]
         for row in (w_l - cp.lambda_star * w_d).tolist()]
    return e, Fraction(cp.h_x_given_xhat) - Fraction(cp.lambda_star) * Fraction(cp.d_star_m)


def exact_max_over_pairs(cp) -> Fraction:
    """The largest |sum_x e(x, g(f(x))) - C| over every code pair (f, g), exactly."""
    e, c = exact_residual_table(cp)
    return max(abs(sum(row[dec[m]] for row, m in zip(e, enc)) - c)
               for dec in itertools.product(range(len(cp.y_rows)), repeat=cp.n_messages)
               for enc in itertools.product(range(cp.n_messages), repeat=cp.px.n))


def exact_max_over_sets(cp) -> Fraction:
    """The largest |sum_x max_S e - C| and |sum_x min_S e - C| over sets S of min(M, k) columns."""
    e, c = exact_residual_table(cp)
    k = len(cp.y_rows)
    return max(abs(sum(pick(row[j] for j in cols) for row in e) - c)
               for cols in itertools.combinations(range(k), min(cp.n_messages, k))
               for pick in (max, min))


def sweep_allowance(cp) -> float:
    """(r + 4) 2^-53 S: the sweep's rounding, as identity_bound counts it."""
    w_d, w_l = _cell_cost_tables(cp)
    lam = cp.lambda_star
    scale = (w_l.max(axis=1).sum() + lam * w_d.max(axis=1).sum()
             + cp.h_x_given_xhat + lam * cp.d_star_m)
    return (cp.px.n + 4) * 2.0 ** -53 * scale


def assert_sweep_is_exact(cp, sweep: IdentitySweep, listed: float) -> None:
    """The sweep is within its allowance of the exact maximum; it and ``listed`` are in the bound.

    ``listed`` is the exhaustive listing's maximum, and the bound is
    identity_bound's.
    """
    assert sweep.n_codes == cp.n_messages ** cp.px.n * len(cp.y_rows) ** cp.n_messages
    assert not sweep.sampled
    exact = exact_max_over_sets(cp)
    if exact == math.inf:
        assert sweep.max_residual == math.inf
    else:
        assert abs(Fraction(sweep.max_residual) - exact) <= sweep_allowance(cp)
    assert max(sweep.max_residual, listed) <= identity_bound(cp)


def least_cost_in_x_order(cp, enc) -> tuple[float, float]:
    """Each side's least cost of a pair with encoder ``enc``, its terms summed over x in order."""
    shape = [len(cp.y_rows)] * cp.n_messages
    least = []
    for w in _cell_cost_tables(cp):
        costs = np.zeros(shape)
        for x, m in enumerate(enc):
            # w[x] along the decoder's axis m: x's term under each decoder.
            costs = costs + w[x].reshape([-1 if a == m else 1 for a in range(len(shape))])
        least.append(float(costs.min()))
    return least[0], least[1]


def reference_optimum_coincidence(cp, atol: float = 1e-9) -> CoincidenceReport:
    """The exhaustive listing.

    The minima are the least pair costs, each pair's terms summed over x in
    order; the argmin sets are the pairs within atol of the least cost as
    the cells of ``_reference_grids`` sum it.
    """
    encoders = list(itertools.product(range(cp.n_messages), repeat=cp.px.n))
    best_d = math.inf
    best_l = math.inf
    least = (math.inf, math.inf)
    for enc in encoders:
        grid_d, grid_l = _reference_grids(cp, enc)
        best_d = min(best_d, float(grid_d.min()))
        best_l = min(best_l, float(grid_l.min()))
        least = tuple(map(min, least, least_cost_in_x_order(cp, enc)))
    set_d = set()
    set_l = set()
    for enc in encoders:
        grid_d, grid_l = _reference_grids(cp, enc)
        for dec in np.argwhere(grid_d <= best_d + atol):
            set_d.add((enc, tuple(int(i) for i in dec)))
        for dec in np.argwhere(grid_l <= best_l + atol):
            set_l.add((enc, tuple(int(i) for i in dec)))
    return CoincidenceReport(min_distortion=least[0], min_loss=least[1],
                             distortion_argmin=tuple(sorted(set_d)),
                             loss_argmin=tuple(sorted(set_l)), matched=set_d == set_l,
                             scored_sets=0)


def allowance(cp, least: float, atol: float) -> float:
    """The count's rounding allowance rho, 16 (r + M) 2^-53 (least cost + atol)."""
    return 16 * (cp.px.n + cp.n_messages) * 2.0 ** -53 * (least + atol)


def uncertified(cp, atol: float) -> str | None:
    """Why the count may refuse the draw, found without its arithmetic; None if it may not.

    Each base cost is one math.fsum per decoder.  "gap": a decoder gap, or a
    nonzero excess of a symbol under a decoder within atol + 2 rho of the
    optimum, lies in (rho / 2, atol + 2 rho]: between rho and atol + rho,
    widened by the count's own rounding.  "tie": atol is at most (r + 2) rho,
    too little to hold a tie, and the pairs whose gap and excesses are at
    most rho / 2 are more than one pair and its swap of messages 0 and 1.
    """
    r, m_count, k = cp.px.n, cp.n_messages, len(cp.y_rows)
    decoders = list(itertools.product(range(k), repeat=m_count))
    for w in _cell_cost_tables(cp):
        base = [math.fsum(min(w[x, j] for j in g) for x in range(r)) for g in decoders]
        least = min(base)
        rho = allowance(cp, least, atol)
        tied = []
        for g, cost in zip(decoders, base):
            gap = cost - least
            if gap > atol + 2 * rho:
                continue
            excess = [[w[x, j] - min(w[x, i] for i in g) for j in g] for x in range(r)]
            if any(rho / 2 < v <= atol + 2 * rho
                   for v in [gap] + [e for row in excess for e in row if e > 0]):
                return "gap"
            if gap <= rho / 2:
                tied += [(enc, g) for enc in itertools.product(
                    *([m for m in range(m_count) if row[m] <= rho / 2] for row in excess))]
        if atol <= (r + 2) * rho and len(tied) > 1:
            (enc, g), second = tied[0], tied[1:]
            swap = (tuple({0: 1, 1: 0}.get(m, m) for m in enc), (g[1], g[0]) + g[2:])
            if m_count == 1 or second != [swap]:
                return "tie"
    return None


def checked_coincidence(cp, atol: float):
    """The count's report, or None where it refuses a draw that ``uncertified`` names."""
    try:
        return verify_optimum_coincidence(cp, atol)
    except VerificationError:
        assert uncertified(cp, atol) is not None
        return None


def listed(report) -> CoincidenceReport:
    """``report`` with each argmin set as the sorted tuple of the pairs it streams.

    Each pair must stream once, so that tuple compares with the listing's.
    """
    sets = {}
    for name in ("distortion_argmin", "loss_argmin"):
        pairs = sorted(getattr(report, name))
        assert len(set(pairs)) == len(pairs) == len(getattr(report, name))
        sets[name] = tuple(pairs)
    return dataclasses.replace(report, **sets)


def assert_matches_reference(report, cp, atol: float) -> None:
    """The sets, their sizes, the verdict and, bit for bit, the minima are the listing's."""
    ref = reference_optimum_coincidence(cp, atol)
    got = listed(report)
    assert (got.distortion_argmin, got.loss_argmin, got.matched) \
        == (ref.distortion_argmin, ref.loss_argmin, ref.matched)
    assert (bits(report.min_distortion), bits(report.min_loss)) \
        == (bits(ref.min_distortion), bits(ref.min_loss))


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

def bits(value) -> str:
    return float(value).hex()


def code_bits(code: LogLossCode, value: float):
    return (code.n_messages, code.encoder,
            tuple(row.probs.tobytes() for row in code.decoder_rows), bits(value))


def seeded_draws(seed: int, count: int) -> list:
    """``count`` corresponding problems drawn as ``problems`` draws them, M in 2..4.

    Each has at most 50,000 code pairs; draws that no problem or no
    corresponding problem takes are skipped.
    """
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        r = int(rng.integers(1, 7))
        kind = rng.choice(["uniform", "zero-mass", "tied", "continuous"])
        w = (np.ones(r) if kind == "uniform" else rng.integers(1, 4, r).astype(float)
             if kind == "tied" else rng.uniform(0.05, 1.0, r))
        if kind == "zero-mass":
            w[rng.random(r) < 0.5] = 0.0
            w[rng.integers(r)] = 1.0
        dist_kind = rng.choice(["hamming", "tied", "continuous"])
        s = int(rng.integers(1, 5))
        dist = (hamming_distortion(r) if dist_kind == "hamming"
                else rng.choice([0.0, 0.5, 1.0, 2.0], (r, s)) if dist_kind == "tied"
                else rng.random((r, s)))
        n_messages = int(rng.integers(2, 5))
        try:
            problem = SourceProblem(px=Pmf(w / w.sum()), distortion=dist)
            if n_messages ** r * problem.n_reconstruction ** n_messages <= 50_000:
                draws.append(build_corresponding(problem, n_messages, tol=1e-10))
        except LoglossLabError:
            continue
    return draws


# The draws of seeded_draws(43, 40) that the count refuses, per atol: at
# atol = 0 every draw with a tie beyond one pair and its swap.
REFUSALS = {0.0: 33, 1e-9: 0, 1e-3: 0}


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
        assert code_bits(*logloss_avg_optimum(px, n_messages)) \
            == code_bits(*reference_logloss_avg_optimum(px, n_messages))

    @pytest.mark.parametrize("name", TIE_CORPUS)
    def test_logloss_avg_optimum_ties(self, name):
        # Every message count from 1 past r: the first optimal partition in
        # restricted-growth order, its encoder, rows and value, bit for bit.
        px = TIE_CORPUS[name]
        for n_messages in range(1, px.n + 2):
            assert code_bits(*logloss_avg_optimum(px, n_messages)) \
                == code_bits(*reference_logloss_avg_optimum(px, n_messages))

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
        # The count either equals the listing or refuses a draw that has a
        # gap it may not certify; the block budget also sets the chunks of
        # column sets and of decoders.
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries):
            sweep = identity_sweep(cp)
            report = checked_coincidence(cp, atol)
        assert_sweep_is_exact(cp, sweep, reference_identity_sweep(cp).max_residual)
        if report is not None:
            assert_matches_reference(report, cp, atol)

    def test_uniform6_tie_case(self):
        # uniform6 at M=3: thousands of tied optimal pairs on both sides.
        problem = SourceProblem(px=Pmf.uniform(6), distortion=hamming_distortion(6))
        cp = build_corresponding(problem, 3, tol=1e-10)
        report = verify_optimum_coincidence(cp)
        assert len(report.distortion_argmin) > 1000
        assert listed(report) == reference_optimum_coincidence(cp)
        assert code_bits(*logloss_avg_optimum(problem.px, 3)) \
            == code_bits(*reference_logloss_avg_optimum(problem.px, 3))

    def test_refusals_per_atol(self):
        # Each draw is refused, with a reason uncertified names, or equals
        # the listing.  At atol = 0 a tie beyond one pair and its swap is
        # refused: pairs of the same exact cost can round apart.
        refused = dict.fromkeys(REFUSALS, 0)
        for cp in seeded_draws(43, 40):
            for atol in REFUSALS:
                report = checked_coincidence(cp, atol)
                if report is None:
                    refused[atol] += 1
                else:
                    assert_matches_reference(report, cp, atol)
        assert refused == REFUSALS

    def test_minima_of_eight_symbols(self):
        # From eight symbols on, numpy sums a column of eight or more terms
        # in pairs; the minima are summed over x in order, as the listing
        # and expected_distortion sum them.  Summed in pairs, 8 of these 12
        # draws read another float on some side, and 2 a least distortion
        # above D*(2).
        rng = np.random.default_rng(5)
        draws = [build_corresponding(named_problem("uniform8"), 2, tol=1e-10)]
        while len(draws) < 12:
            w = rng.uniform(0.05, 1.0, 8)
            problem = SourceProblem(px=Pmf(w / w.sum()), distortion=rng.random((8, 3)))
            with contextlib.suppress(DegenerateInstanceError):
                draws.append(build_corresponding(problem, 2, tol=1e-10))
        for cp in draws:
            report = verify_optimum_coincidence(cp)
            assert_matches_reference(report, cp, 1e-9)
            assert report.min_distortion <= cp.d_star_m


# px = (3, 3, 2, 2) / 10 at M = 2 and atol = 0.06: four code pairs lie
# within atol of the least distortion, two of the least log loss.  At atol
# 0.05 the sets are the same, but one decoder lies exactly at the cut, which
# the count refuses (test_a_gap_at_the_cut_is_refused).
UNMATCHED = SourceProblem(px=_normalized([3, 3, 2, 2]),
                          distortion=np.array([[1.0, 1.0, 0.0], [0.5, 1.0, 2.0],
                                               [0.5, 0.0, 2.0], [2.0, 0.0, 0.5]]))
# uniform4-m2-atol keeps every pair, each message of each decoder: uniform
# Hamming 4 at M = 2 has all its excesses 0.25, so an atol the count
# certifies keeps all or none of them.  skewed3-m2-atol keeps part: under
# four of its seven distortion decoders some symbols may move within atol
# and others may not, and 28 of its 72 pairs lie within atol on that side,
# 8 on the log-loss side.
ARGMIN_CASES = {
    "uniform5-m3": (SourceProblem(px=Pmf.uniform(5), distortion=hamming_distortion(5)), 3, 1e-9),
    "uniform4-m2-atol": (SourceProblem(px=Pmf.uniform(4), distortion=hamming_distortion(4)),
                         2, 1.5),
    "skewed3-m2-atol": (load_problem(str(PROBLEMS / "skewed3.yaml")).problem, 2, 0.35),
    "unmatched": (UNMATCHED, 2, 0.06),
}
MATCHED_CASES = {"uniform5-m3", "uniform4-m2-atol"}
# The column sets each case's count scores, over both sides: every set of
# at most M of the k kept columns on each side, then those within atol of
# the least base cost.
SCORED_SETS = {"uniform5-m3": 70, "uniform4-m2-atol": 40, "skewed3-m2-atol": 18,
               "unmatched": 15}


class TestArgminSets:
    @pytest.mark.parametrize("name", ARGMIN_CASES)
    def test_sets_stream_the_reference_pairs(self, name):
        problem, n_messages, atol = ARGMIN_CASES[name]
        cp = build_corresponding(problem, n_messages, tol=1e-10)
        report = verify_optimum_coincidence(cp, atol)
        ref = reference_optimum_coincidence(cp, atol)
        assert report.matched == ref.matched == (name in MATCHED_CASES)
        assert listed(report) == ref
        # Decoder by decoder in product order, each decoder's encoders in
        # product order, and the same pairs on every pass.
        for argmin in (report.distortion_argmin, report.loss_argmin):
            pairs = list(argmin)
            assert pairs == sorted(pairs, key=lambda pair: pair[::-1]) == list(argmin)
        # Set against set; no set equals a listing of its pairs.
        assert (report.distortion_argmin == report.loss_argmin) == ref.matched
        assert (report.distortion_argmin != report.loss_argmin) != ref.matched
        for listing in (ref.distortion_argmin, list(ref.distortion_argmin)):
            assert report.distortion_argmin != listing and listing != report.distortion_argmin
        # Equality ignores the work count.
        assert report.scored_sets == SCORED_SETS[name] != ref.scored_sets
        recount = dataclasses.replace(report, scored_sets=0)
        assert recount == report and hash(recount) == hash(report)

    def test_one_message_has_no_swap(self):
        # With one message every encoder is canonical and the sets hold no
        # swapped pairs.
        problem, n_messages, atol = ARGMIN_CASES["uniform4-m2-atol"]
        cp = dataclasses.replace(build_corresponding(problem, n_messages, tol=1e-10),
                                 n_messages=1)
        report = verify_optimum_coincidence(cp, atol)
        ref = reference_optimum_coincidence(cp, atol)
        assert len(report.distortion_argmin) == len(ref.distortion_argmin) > 1
        assert listed(report) == ref

    def test_sets_of_separate_checks(self):
        cps = [build_corresponding(problem, n_messages, tol=1e-10)
               for problem, n_messages, _ in list(ARGMIN_CASES.values())[:2]]
        first, again, other = (verify_optimum_coincidence(cp).distortion_argmin
                               for cp in (cps[0], cps[0], cps[1]))
        assert first is not again and first == again and hash(first) == hash(again)
        assert first != other and other != first

    def test_a_gap_at_the_cut_is_refused(self):
        cp = build_corresponding(UNMATCHED, 2, tol=1e-10)
        with pytest.raises(VerificationError) as err:
            verify_optimum_coincidence(cp, 0.05)
        assert str(err.value) == (
            "verify_optimum_coincidence: the distortion argmin set is not certified at atol "
            "0.05: decoder (0, 2) lies 0.04999999999999999 above the least cost; with its "
            "symbols' excesses that passes atol less the rounding allowance "
            "3.730349362740525e-15, so rounding or their sum decides which of its pairs are "
            "optimal")

    @pytest.mark.parametrize("name", ARGMIN_CASES)
    def test_len_and_matched_stream_nothing(self, name):
        problem, n_messages, atol = ARGMIN_CASES[name]
        cp = build_corresponding(problem, n_messages, tol=1e-10)
        ref = reference_optimum_coincidence(cp, atol)
        with mock.patch.object(equivalence._ArgminSet, "__iter__", autospec=True,
                               side_effect=equivalence._ArgminSet.__iter__) as stream:
            report = verify_optimum_coincidence(cp, atol)
            assert len(report.distortion_argmin) == len(ref.distortion_argmin)
            assert len(report.loss_argmin) == len(ref.loss_argmin)
            assert report.matched == ref.matched
            assert hash(report) == hash(dataclasses.replace(report))
            assert stream.call_count == 0
            # Each read streams the set afresh.
            assert listed(report) == ref
            assert stream.call_count == 2


class TestReads:
    # Shapes of many symbols, many messages, one column and many columns.
    @pytest.mark.parametrize("r, m_count, k", [(20, 2, 3), (8, 3, 11),
                                               (12, 2, 1), (1, 2, 2236)])
    def test_extreme_pairs_stream_in_product_order(self, r, m_count, k):
        # The least set of t = min(M, k) columns and the greatest: under the
        # first every symbol but the last takes the messages of the set's
        # least column, under the second of its greatest, and the last
        # symbol takes every message.  So the least decoders' encoders and
        # the greatest decoders' stream.
        t = min(m_count, k)
        parts, want = [], []
        for cols, end in sorted({tuple(range(t)): 0, tuple(range(k - t, k)): -1}.items()):
            near = np.zeros((1, r, t), dtype=bool)
            near[0, :, end] = True
            near[0, -1] = True
            parts.append((np.array([cols]), near))
            for dec in itertools.product(cols, repeat=m_count):
                if set(dec) == set(cols):
                    held = [[m for m in range(m_count) if dec[m] == cols[end]]] * (r - 1)
                    want += [(enc, dec) for enc in itertools.product(*held, range(m_count))]
        argmin = equivalence._ArgminSet(m_count, parts)
        assert len(argmin) == len(want)
        assert list(argmin) == want

    def test_every_pair_of_a_small_shape(self):
        # Every set of one or two of three columns, each symbol taking every
        # message: the decoders of the two sizes interleave in product order.
        parts = [(np.array([[0], [1], [2]]), np.ones((3, 3, 1), dtype=bool)),
                 (np.array([[0, 1], [0, 2], [1, 2]]), np.ones((3, 3, 2), dtype=bool))]
        argmin = equivalence._ArgminSet(2, parts)
        assert len(argmin) == 2 ** 3 * 3 ** 2
        assert list(argmin) == [(enc, dec) for dec in itertools.product(range(3), repeat=2)
                                for enc in itertools.product(range(2), repeat=3)]

    def test_a_small_set_past_the_pair_guard_streams(self):
        # 2^70 encoders, more than an int64 counts, times the 2 decoders onto
        # columns (0, 1), but two pairs in the set, as every symbol takes
        # column 1's message: it streams them, and equals and hashes as the
        # set of the same columns and message tables.
        near = np.zeros((1, 70, 2), dtype=bool)
        near[0, :, 1] = True
        argmin = equivalence._ArgminSet(2, [(np.array([[0, 1]]), near)])
        assert len(argmin) == 2
        assert list(argmin) == [((1,) * 70, (0, 1)), ((0,) * 70, (1, 0))]
        again = equivalence._ArgminSet(2, [(np.array([[0, 1]]), near.copy())])
        assert argmin == again and hash(argmin) == hash(again)
        for other in (equivalence._ArgminSet(2, [(np.array([[0, 1]]), near[:, :, ::-1].copy())]),
                      equivalence._ArgminSet(2, [(np.array([[0, 2]]), near)]),
                      equivalence._ArgminSet(3, [(np.array([[0, 1]]), near)])):
            assert argmin != other and other != argmin

    def test_the_first_pair_lists_no_decoders(self):
        # Every set of two of five columns, M = 3: the merge reads the head
        # of each set's stream before it yields, and each head is the set's
        # least decoder, known without listing the maps onto its columns.
        cols = np.array(list(itertools.combinations(range(5), 2)))
        argmin = equivalence._ArgminSet(3, [(cols, np.ones((len(cols), 2, 2), dtype=bool))])
        with mock.patch.object(equivalence, "_onto", wraps=equivalence._onto) as onto:
            pairs = iter(argmin)
            assert next(pairs) == ((0, 0), (0, 0, 1))
            assert not onto.called
            # The rest of the first decoder's 3^2 encoders, then the next decoder.
            assert list(itertools.islice(pairs, 9))[-1] == ((0, 0), (0, 0, 2))
            assert onto.called

    def test_every_encoder_of_23_symbols_streams_at_once(self):
        # r = 23, M = 2, k = 1, every encoder: 2^23 pairs, each distinct.
        # The size is counted without streaming a pair, and the first pairs
        # come at once, one encoder at a time.
        with mock.patch.object(equivalence._ArgminSet, "__iter__", autospec=True,
                               side_effect=equivalence._ArgminSet.__iter__) as stream:
            argmin = equivalence._ArgminSet(2, [(np.array([[0]]), np.ones((1, 23, 1), dtype=bool))])
            assert len(argmin) == 2 ** 23
            assert stream.call_count == 0
        start = time.perf_counter()
        first = list(itertools.islice(argmin, 10))
        elapsed = time.perf_counter() - start
        assert first == [(enc, (0, 0))
                         for enc in itertools.islice(itertools.product(range(2), repeat=23), 10)]
        assert elapsed <= 0.05, f"{elapsed * 1e3:.1f} ms"


def is_canonical(code) -> bool:
    """The first label below 2, if any, is 0: code is no later than its swap of 0 and 1."""
    return next((m for m in code if m < 2), 0) == 0


def swapped(code) -> tuple:
    """The code with labels 0 and 1 exchanged."""
    return tuple({0: 1, 1: 0}.get(m, m) for m in code)


def check_blocks(blocks, r, n_cells, row_entries):
    """Check that each block is every tail of one canonical head, in order; return the ordinals.

    A head labels the first r - t symbols, for the largest tail length t
    with n_cells**t within the budget (none with one cell).  Each canonical
    head, in product order, makes one block of n_cells**t rows that run
    consecutively from ``first``.  Returns the rows' ordinals in order.
    """
    budget = max(oneshot._BLOCK_ENTRIES // row_entries, 1)
    t = max(t for t in range(r + 1) if n_cells ** t <= budget) if n_cells > 1 else 0
    rows = n_cells ** t
    heads = itertools.product(range(n_cells), repeat=r - t)
    assert [first for first, _ in blocks] \
        == [n * rows for n, head in enumerate(heads) if is_canonical(head)]
    assert [len(sums) for _, sums in blocks] == [rows] * len(blocks)
    return [first + i for first, _ in blocks for i in range(rows)]


def kernel_codes(r, n_cells):
    """The code of each row, read from the kernel's sums of one-hot weights, and its ordinal.

    With weights[x] the x-th unit vector, sums[n, m, x] is 1.0 exactly when
    row n puts symbol x in cell m.
    """
    blocks = list(oneshot._cell_sum_blocks(np.eye(r), n_cells))
    ordinals = check_blocks(blocks, r, n_cells, n_cells * r)
    codes = np.vstack([sums.argmax(axis=1) for _, sums in blocks])
    return [tuple(code) for code in codes.tolist()], ordinals


# px = (5, 4, 3, 2, 1) / 15 against four random columns at M = 3: the
# first code of least cost has an encoder that reads differently backwards.
ASYMMETRIC = SourceProblem(px=_normalized([5, 4, 3, 2, 1]),
                           distortion=np.random.default_rng(5).random((5, 4)))


class TestEnumerationOrder:
    # A budget of `per_block` rows per block: each row holds n_cells * r sums.
    @pytest.mark.parametrize("per_block", [1, 5, 64, oneshot._BLOCK_ENTRIES])
    def test_encoders_in_product_order(self, per_block):
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", per_block * 3 * 5):
            codes, ordinals = kernel_codes(5, 3)
        every = list(itertools.product(range(3), repeat=5))
        assert codes == [every[n] for n in ordinals]

    @pytest.mark.parametrize("n_cells", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("per_block", [1, 7, oneshot._BLOCK_ENTRIES])
    def test_rows_hold_every_canonical_code_and_an_earlier_swap_of_the_rest(
            self, n_cells, r, per_block):
        # n_cells > r included: then some codes leave cells empty.
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", per_block * n_cells * r):
            codes, ordinals = kernel_codes(r, n_cells)
        every = list(itertools.product(range(n_cells), repeat=r))
        assert codes == [every[n] for n in ordinals]
        rows = set(codes)
        assert {code for code in every if is_canonical(code)} <= rows
        # A skipped code's swap, which costs the same, is a row before it.
        for code in every:
            if code not in rows:
                assert swapped(code) in rows and swapped(code) < code

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
    # t = r (one block).  The kernel's rows are the reference's rows of
    # their ordinals.
    @pytest.mark.parametrize("n_cells", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_signed_zeros_and_inf_match_the_loop(self, n_cells, r):
        weights = SIGNED_WEIGHTS[:r]
        row_entries = n_cells * weights.shape[1]
        every = reference_cell_sums(weights, n_cells)
        tails = set()
        for t in range(r + 1):
            with mock.patch.object(oneshot, "_BLOCK_ENTRIES", n_cells ** t * row_entries):
                blocks = list(oneshot._cell_sum_blocks(weights, n_cells))
                ordinals = check_blocks(blocks, r, n_cells, row_entries)
            tails.add(len(blocks[0][1]))
            got = np.concatenate([sums for _, sums in blocks])
            assert hex_entries(got) == hex_entries(every[ordinals])
        assert tails == {n_cells ** t for t in range(r + 1)}

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 3), block_entries,
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_weights_match_the_loop(self, r, n_cells, cols, entries, seed):
        rng = np.random.default_rng(seed)
        weights = rng.choice([0.0, -0.0, np.inf, 0.1, 0.7, 1 / 3], (r, cols)) \
            * rng.uniform(0.5, 2.0, (r, cols))
        with mock.patch.object(oneshot, "_BLOCK_ENTRIES", entries):
            blocks = list(oneshot._cell_sum_blocks(weights, n_cells))
            ordinals = check_blocks(blocks, r, n_cells, n_cells * cols)
        got = np.concatenate([sums for _, sums in blocks])
        want = reference_cell_sums(weights, n_cells)[ordinals]
        assert hex_entries(got) == hex_entries(want)


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
        (code, value), elapsed, peak, _ = traced(logloss_avg_optimum, px, 12)
        assert code.encoder == tuple(range(12))
        assert abs(value) <= 1e-12
        assert peak <= PEAK_BYTES, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"

    @pytest.mark.parametrize("r", [13, 14])
    def test_logloss_avg_optimum_m_equals_r(self, r, traced):
        # Bell(13) = 27.6 M and Bell(14) = 190.9 M partitions.  With M >= r
        # the all-singleton partition is the unique optimum.
        w = np.random.default_rng(r).uniform(0.05, 1.0, r)
        (code, value), elapsed, peak, _ = traced(logloss_avg_optimum, Pmf(w / w.sum()), r)
        assert code.encoder == tuple(range(r))
        assert abs(value) <= 1e-12
        assert peak <= PEAK_BYTES, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"

    def test_logloss_avg_optimum_r14_m4(self, traced):
        # 11.2 M partitions into at most four cells are too many for the
        # reference loop, so check the value against the encoder, and the
        # encoder against every partition one move or one swap away.
        w = np.random.default_rng(14).uniform(0.05, 1.0, 14)
        px = Pmf(w / w.sum())
        (code, value), elapsed, peak, _ = traced(logloss_avg_optimum, px, 4)

        def cell_entropy(encoder):
            return entropy(Pmf(np.bincount(encoder, weights=px.probs, minlength=4)))

        h_cells = cell_entropy(code.encoder)
        assert abs(value - (entropy(px) - h_cells)) <= 1e-12
        neighbours = []
        for x in range(14):
            for cell in range(4):
                moved = list(code.encoder)
                moved[x] = cell
                neighbours.append(moved)
            for y in range(x):
                swapped = list(code.encoder)
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

    def test_first_pair_of_38760_sets(self):
        # Every set of six of 20 columns, M = 6, every symbol near every
        # column.  Listing the first map of each set onto its columns before
        # the first pair took 1.4-1.9 s on a 2-core machine; the heads alone
        # take about 0.2 s.
        cols = np.array(list(itertools.combinations(range(20), 6)))
        argmin = equivalence._ArgminSet(6, [(cols, np.ones((len(cols), 2, 6), dtype=bool))])
        start = time.perf_counter()
        first = next(iter(argmin))
        elapsed = time.perf_counter() - start
        assert first == ((0, 0), (0, 1, 2, 3, 4, 5))
        assert elapsed <= 1.0, f"{elapsed:.2f}s"

    def test_coincidence_uniform8_m3(self, traced):
        # 3,359,232 code pairs, 81,648 of them tied at the optimum on each
        # side.  The count scores the 92 sets of at most three columns on
        # each side and forms the message tables of the 56 optimal ones; it
        # keeps those, not the pairs.
        problem = SourceProblem(px=Pmf.uniform(8), distortion=hamming_distortion(8))
        cp = build_corresponding(problem, 3, tol=1e-8)
        report, elapsed, peak, held = traced(verify_optimum_coincidence, cp)
        assert report.matched
        assert len(report.distortion_argmin) == 81_648
        assert report.scored_sets == 2 * (92 + 56)
        assert held <= 2**15, f"held {held} bytes"
        assert peak <= 2 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"

    def test_coincidence_keeps_every_pair(self, traced):
        # atol = 10 keeps all 3^7 * 7^3 = 750,141 code pairs on each side:
        # every decoder, each symbol taking every message, from the 63 sets
        # of at most three columns.  The set streams them all, decoder by
        # decoder.
        problem = SourceProblem(px=Pmf.uniform(7), distortion=hamming_distortion(7))
        cp = build_corresponding(problem, 3, tol=1e-8)
        report, elapsed, peak, held = traced(verify_optimum_coincidence, cp, 10.0)
        assert report.matched
        assert len(report.distortion_argmin) == len(report.loss_argmin) == 750_141
        assert report.scored_sets == 4 * 63
        assert held <= 2**15, f"held {held} bytes"
        assert peak <= 12 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"
        assert list(report.distortion_argmin) == [
            (enc, dec) for dec in itertools.product(range(7), repeat=3)
            for enc in itertools.product(range(3), repeat=7)]

    def test_coincidence_past_the_pair_guard(self, traced):
        # Uniform Hamming 16 at M = 3: 1.8e11 code pairs, 5,356,925,280 of
        # them optimal on each side, from the 696 sets of at most three
        # columns, the 560 of three optimal.  Measured at 24 ms traced on a
        # 2-core machine.
        problem = SourceProblem(px=Pmf.uniform(16), distortion=hamming_distortion(16))
        cp = build_corresponding(problem, 3)
        report, elapsed, peak, _ = traced(verify_optimum_coincidence, cp)
        assert report.matched
        assert len(report.distortion_argmin) == len(report.loss_argmin) == 5_356_925_280
        assert report.scored_sets == 2 * (696 + 560)
        assert (report.min_distortion, report.min_loss) == (0.8125, 2.6828683535725575)
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= 0.5, f"{elapsed:.2f}s"

    def test_coincidence_on_three_letters_of_skewed3(self, traced):
        # skewed3's 3-letter product at M = 4 keeps all 27 columns: 4^27 *
        # 27^4 code pairs, 9,216 of them optimal on each side, from the
        # 20,853 sets of at most four columns, 3 of them optimal.  Counted
        # per decoder it read 57,395,628 cost entries.  Measured at 80-100 ms
        # traced, and the sweep about as long, on a 2-core machine.
        cp = build_corresponding(product_problem(named_problem("skewed3"), 3), 4)
        report, elapsed, peak, _ = traced(verify_optimum_coincidence, cp)
        assert len(cp.y_rows) == 27 and report.matched
        assert len(report.distortion_argmin) == len(report.loss_argmin) == 9216
        assert report.scored_sets == 2 * (20_853 + 3)
        # Summed over the 27 symbols in order, the least distortion is
        # solve_avg's cost; numpy's pairwise sum read one ulp below it.
        assert (bits(report.min_distortion), bits(report.min_loss)) \
            == ("0x1.12c5f92c5f92dp-2", "0x1.26c106f1eb8dbp+1")
        assert report.min_distortion == cp.d_star_m
        bound = identity_bound(cp)
        assert abs(report.min_loss - cp.h_x_given_xhat) <= bound
        assert identity_sweep(cp).max_residual <= bound
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= 1.0, f"{elapsed:.2f}s"

    @pytest.mark.parametrize("r, listed, minima", [
        (7, "0x1.8000000000000p-51", ("0x1.b4eeec003935dp+0", "0x1.2492492492492p-1")),
        (8, "0x1.0000000000000p-50", ("0x1.e0b4b026175f7p+0", "0x1.4000000000000p-1")),
    ])
    def test_identity_sweep_uniform_m3(self, r, listed, minima, traced):
        # Every pair of 3^r encoders and r^3 decoders, from the C(r, 3) sets
        # of three columns.  ``listed`` is reference_identity_sweep's
        # maximum, pinned, as the listing takes 0.2-0.5 s.  The two least
        # costs are the coincidence check's.
        problem = SourceProblem(px=Pmf.uniform(r), distortion=hamming_distortion(r))
        cp = build_corresponding(problem, 3, tol=1e-8)
        sweep, elapsed, peak, _ = traced(identity_sweep, cp)
        report = verify_optimum_coincidence(cp)
        assert_sweep_is_exact(cp, sweep, float.fromhex(listed))
        assert (bits(report.min_loss), bits(report.min_distortion)) == minima
        assert peak <= 2 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert elapsed <= BUDGET_S, f"{elapsed:.2f}s"


# ----------------------------------------------------------------------
# Work: exact counts that a change of the count's work moves.
# ----------------------------------------------------------------------

# (scored sets, distortion argmin size, log-loss argmin size) of the
# coincidence check at the default atol, on the equivalence cases of the
# lab_pipeline benchmark workload and the README's skewed3 at M = 2.
COINCIDENCE_WORK = {
    ("uniform6", 3): (122, 3240, 3240),
    ("uniform7", 3): (196, 17010, 17010),
    ("uniform8", 3): (296, 81648, 81648),
    ("uniform3", 2): (18, 12, 12),
    ("uniform4", 2): (32, 48, 48),
    ("uniform4", 3): (36, 72, 72),
    ("skewed4_absdiff", 2): (22, 4, 4),
    ("skewed4_absdiff", 3): (30, 6, 6),
    ("skewed3", 2): (14, 4, 4),
}


def named_problem(name: str) -> SourceProblem:
    """Uniform Hamming on r symbols for ``uniform<r>``, else the problem file of that name."""
    if name.startswith("uniform"):
        r = int(name[len("uniform"):])
        return SourceProblem(px=Pmf.uniform(r), distortion=hamming_distortion(r))
    return load_problem(str(PROBLEMS / f"{name}.yaml")).problem


def product_problem(problem: SourceProblem, n: int) -> SourceProblem:
    """The n-letter product: px^n, and the mean of the letters' distortions."""
    px, dist = problem.px.probs, problem.distortion
    for _ in range(n - 1):
        px = np.kron(px, problem.px.probs)
        dist = np.add.outer(dist, problem.distortion).transpose(0, 2, 1, 3).reshape(
            len(px), -1)
    return SourceProblem(px=Pmf(px), distortion=dist / n)


@pytest.mark.parametrize("name, n_messages", COINCIDENCE_WORK)
def test_coincidence_work_is_pinned(name, n_messages):
    report = verify_optimum_coincidence(build_corresponding(named_problem(name), n_messages,
                                                            tol=1e-10))
    assert report.matched
    assert (report.scored_sets, len(report.distortion_argmin), len(report.loss_argmin)) \
        == COINCIDENCE_WORK[name, n_messages]


# ----------------------------------------------------------------------
# Exact arithmetic: the sweep's column sets reach every code pair's residual.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name, n_messages", [
    ("skewed3", 2), ("skewed4_absdiff", 2), ("skewed4_absdiff", 3), ("uniform3", 2),
    ("uniform4", 2), ("uniform4", 3), ("uniform6", 2), ("uniform5", 3)])
def test_the_largest_residual_is_over_column_sets(name, n_messages):
    # Over the float table e taken exactly, the largest residual of the
    # M^r k^M code pairs is the largest over the sets of min(M, k) columns.
    # The listing of uniform Hamming 5 at M = 3 sums 30,375 pairs in
    # Fractions, in about 0.7 s.
    cp = build_corresponding(named_problem(name), n_messages, tol=1e-10)
    assert exact_max_over_pairs(cp) == exact_max_over_sets(cp)
    assert_sweep_is_exact(cp, identity_sweep(cp), reference_identity_sweep(cp).max_residual)


def test_the_largest_residual_is_over_column_sets_on_seeded_draws():
    # Sixteen draws with tied or continuous distortions, pruned columns and,
    # in one, a zero-mass symbol.
    draws = seeded_draws(46, 16)
    assert min(cp.px.probs.min() for cp in draws) == 0.0
    assert any(len(cp.y_rows) < cp.problem.n_reconstruction for cp in draws)
    for cp in draws:
        assert exact_max_over_pairs(cp) == exact_max_over_sets(cp)
        assert_sweep_is_exact(cp, identity_sweep(cp), reference_identity_sweep(cp).max_residual)
