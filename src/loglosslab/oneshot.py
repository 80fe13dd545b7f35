"""Exact one-shot (blocklength-one) code optimization on desk-scale alphabets.

Two families live here.  For an arbitrary distortion matrix, the optimal
average distortion with at most M messages and the optimal excess-distortion
probability come from exhaustive enumeration over reconstruction subsets,
with independent brute-force oracles enumerating encoders or cover sets.
For logarithmic loss the optima have closed forms: average distortion reduces
to entropy-maximizing partitions of the source alphabet, solved exactly by a
dynamic program over subsets, and the excess criterion to covering the most
probable symbols in cells of size ``floor(exp(D))``.

Everything is deterministic; ties break toward the lowest index.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Annotated

import numpy as np

from .errors import (Count, Finite, InfeasibleError, InstanceTooLargeError, Int, NonNegative,
                     Probability, Seq, ValidationError, _check_fields, _checked, _require_size)
from .probability import Pmf, entropy
from .ratedistortion import SourceProblem

__all__ = [
    "OneShotCode",
    "LogLossCode",
    "expected_distortion",
    "solve_avg",
    "solve_avg_oracle",
    "solve_excess",
    "solve_codebook",
    "logloss_avg_optimum",
    "logloss_excess_optimum",
    "logloss_codebook",
    "logloss_excess_oracle",
    "floor_exp",
]

# The work guards.  Each bounds one count of an exhaustive search, and every
# search checks its count with _check_work before it allocates anything.
# The costs at each limit are from a 2-core machine.
#
# Encoders in solve_avg_oracle, the one search that lists codes: 5^10
# encoders against 5 columns take 0.8-1.0 s.
_CODE_ENUM_GUARD = 10_000_000
# Cost entries read by the one pass over sets of kept columns that both
# equivalence checks make: C(k, t) * r * t over the sets of t columns, for
# t = 1 .. min(M, k), of r symbols each.  Uniform Hamming 20 at M = 6
# (6.7e6 entries) takes 0.34-0.50 s in the coincidence check and 55-80 ms
# in the sweep.
_COLUMN_SET_GUARD = 10_000_000
# Column subsets scanned by solve_avg and solve_excess, or by all the scans of
# solve_codebook together, at 9-10.5 us each: about 10 s at the limit.
# C(20, 10) = 184,756 takes 1.7-2.0 s.
_SUBSET_GUARD = 1_000_000
# Source symbols in logloss_avg_optimum's dynamic program, about 3^r / 4
# steps: one call at r = 14, M = 7 takes 60-66 ms.
_PARTITION_ALPHABET_GUARD = 14
# Source symbols in logloss_excess_oracle's 2^r subset table: under 1 ms.
_COVER_ALPHABET_GUARD = 12
# Code lengths summed by timeshare_simulate (n) or timeshare_two_decoders
# (2n: it draws the n samples once, but each decoder sums all n lengths).
# 10^9 samples, drawn on two threads, take about 3 s (2.5-4 ns each); on one
# core about 5 s.
_SAMPLE_GUARD = 1_000_000_000
# solve_avg_oracle works on blocks of codes holding about this many floats
# per code-indexed array, and the equivalence checks on chunks of column sets
# of about this many cost entries, so memory stays bounded at every guard.
_BLOCK_ENTRIES = 1 << 18
# floor(exp(D)) with a whisker of slack so exact thresholds like D = ln 2
# land on the intended integer.
_FLOOR_SLACK = 1e-12
# The largest D whose floor(exp(D)), slack included, is a float: past it
# the log-loss excess code could not form its cells' mass 1/floor(exp(D)).
_FLOOR_EXP_MAX = math.log(sys.float_info.max) - 2.0 * _FLOOR_SLACK
# An excess target counts as met when missed by at most this much.
_FEASIBILITY_SLACK = 1e-12


def _check_work(amount: int, what: str, guard: int) -> None:
    """Refuse a call whose exhaustive work, ``amount`` of ``what``, exceeds ``guard``."""
    if amount > guard:
        raise InstanceTooLargeError(f"{amount} {what} exceeds guard {guard}")


@dataclass(frozen=True)
class OneShotCode:
    """Deterministic one-shot code: encoder into messages, decoder back out.

    ``encoder[x]`` is the message for source symbol x (0-based), and
    ``decoder[m]`` the reconstruction column for message m.  Both maps are
    total, and their entries are integers.
    """

    n_messages: Count
    encoder: Annotated[tuple, Seq(Int(0), nonempty=True)]
    decoder: Annotated[tuple, Seq(Int(0))]

    def __post_init__(self):
        _check_fields(self, _check_code)


@dataclass(frozen=True, eq=False)
class LogLossCode:
    """One-shot code whose decoder emits probability distributions.

    ``encoder[x]`` is the message for source symbol x, and
    ``decoder_rows[m]`` the distribution that message m reproduces.
    """

    n_messages: Count
    encoder: Annotated[tuple, Seq(Int(0), nonempty=True)]
    decoder_rows: Annotated[tuple, Seq(Pmf)]

    def __post_init__(self):
        _check_fields(self, _check_code)


def _check_code(code: OneShotCode | LogLossCode) -> None:
    """Refuse a code without a decoder entry per message, or whose encoder names another."""
    decoder = "decoder" if isinstance(code, OneShotCode) else "decoder_rows"
    _require_size(f"len({decoder})", len(getattr(code, decoder)), "n_messages", code.n_messages)
    Seq(Int(0, code.n_messages - 1)).check("encoder", code.encoder)


@_checked
def expected_distortion(problem: SourceProblem, code: OneShotCode) -> float:
    """E d(X, g(f(X))) for a code over the problem's distortion matrix."""
    _require_size("len(code.encoder)", len(code.encoder), "problem.n_source", problem.n_source)
    Seq(Int(0, problem.n_reconstruction - 1)).check("code.decoder", code.decoder)
    px = problem.px.probs
    dist = problem.distortion
    return float(sum(px[x] * dist[x, code.decoder[code.encoder[x]]]
                     for x in range(problem.n_source)))


def _cell_sum_blocks(weights: np.ndarray, n_cells: int):
    """Yield (first, sums) blocks of consecutive labelings of the symbols, one per kept head.

    Row n of a block is the labeling of ordinal ``first + n`` in
    itertools.product order, and the blocks come in that order.
    ``sums[n, m]`` adds ``weights[x]`` over the symbols x that the labeling
    puts in cell m, in increasing x from zero, so every float is formed as
    a loop over x forms it.

    Each block is one head (a labeling of the first r - t symbols) against
    every labeling of the other t.  The tail length t is the largest with
    n_cells**t <= max(_BLOCK_ENTRIES // (n_cells * weights[0].size), 1), so
    no block holds more codes than that; with one cell a tail symbol adds
    no rows, so the tail stays empty.  A head whose first label below 2 is
    1 is skipped.  A cell's sum depends only on its set of symbols, whatever
    the cell's label, so swapping cells 0 and 1 swaps two rows of sums, and
    a cost that adds cell 0's and cell 1's terms first is the same float
    for a labeling and its swap: rounded addition is commutative.  The swap
    takes each labeling of a skipped head to one of a kept head that
    precedes it in product order, so the first optimum is a row.

    A head's sums are formed over its tails, in which tail symbol i is
    digit i of the row index in product order, so ``sums`` viewed as
    ``(n_cells,) * t + (n_cells, ...)`` takes tail symbol i's weight in
    cell m as one strided add over the rows whose digit i is m.
    """
    r = len(weights)
    budget = max(_BLOCK_ENTRIES // (n_cells * weights[0].size), 1)
    t = 0
    while t < r and 1 < n_cells ** (t + 1) <= budget:
        t += 1
    head = r - t
    rows = n_cells ** t
    for block, prefix in enumerate(itertools.product(range(n_cells), repeat=head)):
        if next((m for m in prefix if m < 2), 0) == 1:
            continue
        # add.at is unbuffered and applies the head's weights in index
        # order, as the loop over x does.
        start = np.zeros((n_cells,) + weights.shape[1:], dtype=weights.dtype)
        np.add.at(start, np.array(prefix, dtype=np.intp), weights[:head])
        sums = np.repeat(start[None], rows, axis=0)
        digits = sums.reshape((n_cells,) * t + start.shape)
        for i in range(t):
            for m in range(n_cells):
                at = [slice(None)] * t + [m]  # cell m ...
                at[i] = m  # ... of the rows whose digit i is m
                digits[tuple(at)] += weights[head + i]
        yield block * rows, sums


def _subset_code(problem: SourceProblem, subset: tuple[int, ...]) -> OneShotCode:
    """Code decoding message m to subset[m]; each symbol goes to its nearest, the first on ties."""
    encoder = tuple(int(i) for i in problem.distortion[:, subset].argmin(axis=1))
    return OneShotCode(n_messages=len(subset), encoder=encoder, decoder=tuple(subset))


def _first_best_subset(problem: SourceProblem, n_messages: int, score) -> tuple[int, ...]:
    """The first subset of min(M, s) columns, in lexicographic order, of least score.

    Guarded at 10^6 subsets.
    """
    s = problem.n_reconstruction
    size = min(n_messages, s)
    _check_work(math.comb(s, size), "column subsets", _SUBSET_GUARD)
    return min(itertools.combinations(range(s), size), key=score)


@_checked
def solve_avg(problem: SourceProblem, n_messages: Count) -> tuple[OneShotCode, float]:
    """Exact minimum average distortion over all codes with <= M messages.

    Enumerates reconstruction subsets of size min(M, s); the nearest-codeword
    encoder (ties to the lowest column index) is optimal for each subset.
    The first best subset in lexicographic order is returned as a witness,
    a code of min(M, s) messages.  Guarded at 10^6 subsets.
    """
    px = problem.px.probs
    dist = problem.distortion
    best_subset = _first_best_subset(problem, n_messages,
                                     lambda subset: float(px @ dist[:, subset].min(axis=1)))
    code = _subset_code(problem, best_subset)
    # Report the value through the shared evaluator so independent solvers
    # that land on the same code agree bitwise.
    return code, expected_distortion(problem, code)


@_checked
def solve_avg_oracle(problem: SourceProblem, n_messages: Count) -> float:
    """Brute-force check of solve_avg: enumerate every encoder map.

    For each encoder the best decoder picks, per message, the column
    minimizing that cell's expected distortion.  The encoders come in
    itertools.product order, less those of the heads that
    _cell_sum_blocks skips, whose swaps of messages 0 and 1 come earlier
    at the same cost; the winner's ordinal is its block's ``first`` plus
    its row.  Guarded at M^r <= 10^7.  The winner is re-evaluated through
    the shared evaluator, so agreement with solve_avg is bitwise when the
    optimum is unique.
    """
    r = problem.n_source
    _check_work(n_messages ** r, "encoders", _CODE_ENUM_GUARD)
    px = problem.px.probs
    dist = problem.distortion
    weighted = px[:, None] * dist  # row x: px(x) d(x, .)

    # An empty cell sums to zeros: it adds 0.0 to the cost and decodes to
    # column 0, as if skipped.
    best = math.inf
    best_code: OneShotCode | None = None
    for first, sums in _cell_sum_blocks(weighted, n_messages):
        # Each cell's least cost over the columns, as elementwise passes (a
        # minimum is exact, and no cost is NaN or -0.0, so this is
        # sums.min(axis=-1) bit for bit), then the nested sum over the cells,
        # ((cell 0 + cell 1) + ...): rounded addition is monotone, so it is
        # the code's least cost over every decoder.
        lows = reduce(np.minimum, [sums[..., j] for j in range(sums.shape[-1])])
        cost = reduce(np.add, [lows[..., m] for m in range(n_messages)])
        i = int(cost.argmin())
        if cost[i] < best:
            best = float(cost[i])
            # Digit x of the ordinal, most significant first, is encoder[x].
            encoder = tuple((first + i) // n_messages ** (r - 1 - x) % n_messages
                            for x in range(r))
            best_code = OneShotCode(n_messages=n_messages, encoder=encoder,
                                    decoder=tuple(sums[i].argmin(axis=1).tolist()))
    assert best_code is not None
    return expected_distortion(problem, best_code)


def _cover_mass(px: np.ndarray, covers: np.ndarray, columns) -> float:
    """Mass of the symbols that some of ``columns`` covers, whatever their order."""
    return float(px[covers[:, columns].any(axis=1)].sum())


def _excess(mass: float) -> float:
    """The excess probability 1 - mass, clamped into [0, 1]."""
    return min(max(1.0 - mass, 0.0), 1.0)


@_checked
def solve_excess(problem: SourceProblem,
                 n_messages: Count, d: Finite) -> tuple[OneShotCode, float]:
    """Exact minimum excess probability Pr[d(X, g(f(X))) > D] with <= M messages.

    A symbol is covered by a column when its distortion is <= D; the optimum
    picks the first subset of min(M, s) columns, in lexicographic order,
    covering the most probability.  Returns a code of min(M, s) messages
    attaining it, with its excess probability 1 - covered mass, clamped
    into [0, 1].  Uncovered symbols are encoded to the subset column of
    least distortion, which cannot hurt the excess criterion.  Guarded at
    10^6 subsets.
    """
    px = problem.px.probs
    covers = problem.distortion <= d  # r x s
    # Negation is exact, so the least -mass is the first subset of most mass.
    subset = _first_best_subset(problem, n_messages,
                                lambda subset: -_cover_mass(px, covers, subset))
    return _subset_code(problem, subset), _excess(_cover_mass(px, covers, subset))


@_checked
def solve_codebook(problem: SourceProblem, d: Finite,
                   eps: Probability) -> tuple[OneShotCode, float]:
    """Least message count M* with excess probability at D below eps.

    Returns solve_excess's code and excess probability at M*; M* is
    ``code.n_messages``.  A greedy cover bounds M* first: it adds the
    column covering the most mass not yet covered until the target is met,
    at M_g columns.  The best subset of M_g columns covers at least the
    greedy set's mass, so the scans at M = 1, 2, ... stop by M_g, and each
    size is scanned once.  C(s, 1) + ... + C(s, M_g) subsets are checked
    against the subset guard before the first scan.

    Raises InfeasibleError when even the full reconstruction alphabet cannot
    reach the target.
    """
    px = problem.px.probs
    covers = problem.distortion <= d  # r x s
    s = problem.n_reconstruction
    target = eps + _FEASIBILITY_SLACK
    best = _excess(_cover_mass(px, covers, list(range(s))))
    if best > target:
        raise InfeasibleError(
            f"excess target {eps!r} at distortion {d!r} unreachable; "
            f"best achievable is {best!r}"
        )
    chosen: list[int] = []
    while not chosen or _excess(_cover_mass(px, covers, chosen)) > target:
        # Mass each column would newly cover; a chosen column is not taken
        # again, so at worst every column is chosen, which meets the target.
        gain = px.dot(covers & ~covers[:, chosen].any(axis=1)[:, None])
        gain[chosen] = -1.0
        chosen.append(int(np.argmax(gain)))
    m_greedy = len(chosen)
    _check_work(sum(math.comb(s, m) for m in range(1, m_greedy + 1)), "column subsets",
                _SUBSET_GUARD)
    for m in range(1, m_greedy):
        code, excess = solve_excess(problem, m, d)
        if excess <= target:
            return code, excess
    return solve_excess(problem, m_greedy, d)


# ----------------------------------------------------------------------
# Logarithmic-loss closed forms.
# ----------------------------------------------------------------------


@_checked
def floor_exp(d: NonNegative) -> int:
    """Largest integer k with ln k <= D (slack 1e-12), i.e. floor(exp(D)).

    D runs over [0, ln of the largest float] less twice the slack, about
    709.78.  Past D = 28 the slack spans more than one integer, and past
    2^53 ln k stays level over runs of integers, so the answer is
    bracketed around exp(D) by doubling steps and found by bisection, in
    O(log k) logarithms.
    """
    if d > _FLOOR_EXP_MAX:
        raise ValidationError(f"d must be at most {_FLOOR_EXP_MAX:g}, got {d!r}: "
                              "floor(exp(d)) would not be a float")
    limit = d + _FLOOR_SLACK
    # Invariant once bracketed: ln lo <= limit < ln hi (ln 1 = 0 <= limit).
    lo = max(int(math.exp(d)), 1)
    hi, width = lo + 1, 1
    while lo > 1 and math.log(lo) > limit:
        lo, hi = max(lo - width, 1), lo
        width *= 2
    while math.log(hi) <= limit:
        lo, hi = hi, hi + width
        width *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.log(mid) <= limit:
            lo = mid
        else:
            hi = mid
    return lo


def _subset_masses(p: np.ndarray) -> np.ndarray:
    """Total of p over every subset of its indices, indexed by bit mask.

    Each total adds its members in increasing index, as a loop over the
    symbols adds them.
    """
    mass = np.zeros(1 << len(p))
    for x in range(len(p)):
        mass[1 << x:2 << x] = mass[:1 << x] + p[x]
    return mass


def _pairs_by_union(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair (U, S) of disjoint subsets of n symbols, sorted by U | S.

    Returns bit masks (U, S) and ``bounds``: the pairs with union w are rows
    bounds[w] to bounds[w + 1].  Every union occurs, so the pairs over the
    first m symbols are the rows before bounds[2**m].
    """
    u = np.zeros(1, dtype=np.uint16)
    s = u.copy()
    for x in range(n):
        bit = np.uint16(1 << x)
        u = np.concatenate([u, u | bit, u])
        s = np.concatenate([s, s, s | bit])
    order = np.argsort(u | s, kind="stable")
    u, s = u[order], s[order]
    return u, s, np.searchsorted(u | s, np.arange((1 << n) + 1))


def _best_completion(g: np.ndarray, cells: list[int], first: int, n_new: int,
                     pairs) -> float:
    """Largest H(f(X)) over the partitions that extend a labeling of 0..first-1.

    `cells` are the bit masks of the labeling's cells, in order of their
    least symbol.  Each absorbs a subset of the symbols from `first` on, in
    turn; then at most n_new new cells split the rest, in order of their
    least symbol.  A partition's value subtracts g (u ln u per cell mask)
    from 0.0 cell by cell in that order, as a scan of the partitions forms
    it.  ``f[U]`` is the best value so far over the placements that cover U
    (a mask of the symbols from `first` on, shifted down by `first`), and
    each cell maps it to max fl(f[U] - g(cell)) over its choices.  Rounded
    subtraction is monotone in f[U], so the result is the best partition's
    value bit for bit.
    """
    n = len(g).bit_length() - 1 - first
    u, s, bounds = pairs
    f = 0.0 - g[cells[0] | (np.arange(1 << n) << first)]
    for cell in cells[1:]:
        values = f[u[:bounds[1 << n]]]
        values -= g[cell | (s[:bounds[1 << n]] << first)]
        f = np.maximum.reduceat(values, bounds[:1 << n])
    best = f[-1]
    for j in range(min(n_new, n)):
        # After j new cells, symbols 0..j-1 are covered.  A new cell holds
        # the least uncovered symbol z: those below z are covered and each
        # above z is uncovered, covered (U) or in the cell (S).
        nxt = np.full(1 << n, -np.inf)
        for z in range(j, n):
            above = 1 << (n - 1 - z)  # the unions of symbols above z
            values = f[((1 << z) - 1) | (u[:bounds[above]] << (z + 1))]
            values -= g[((1 << z) | (s[:bounds[above]] << (z + 1))) << first]
            reached = nxt[(2 << z) - 1::2 << z]
            np.maximum(reached, np.maximum.reduceat(values, bounds[:above]), out=reached)
        f = nxt
        best = max(best, f[-1])
    return float(best)


@_checked
def logloss_avg_optimum(px: Pmf, n_messages: Count) -> tuple[LogLossCode, float]:
    """Exact optimal average log loss with at most M messages.

    The optimum equals H(X) minus the largest entropy of f(X) over
    partitions f of the alphabet into at most M cells; the code encodes
    each symbol to its cell and decodes each cell to its posterior.  A
    dynamic program over subsets finds that largest entropy in about 3^r / 4
    steps, bit for bit the value a scan of every partition would return.
    The code's partition is the first optimal one in restricted-growth
    order: each symbol in turn takes the lowest label from which the optimum
    stays reachable.  Every cell carries mass: one holding only zero-mass
    symbols merges into cell 0 (or cell 1 into it, when it is cell 0) at the
    same value and earlier in that order, so the first optimum has none.
    Guarded at alphabets of size 14.
    """
    r = px.n
    _check_work(r, "symbols", _PARTITION_ALPHABET_GUARD)
    p = px.probs

    # A cell's mass is fixed by the cell's bit mask.  A table over the 2^r
    # masks gives every u * math.log(u) exactly as a loop over the symbols
    # forms it.
    subset_mass = _subset_masses(p)
    subset_plogp = subset_mass * np.array([math.log(u) if u > 0.0 else 0.0
                                           for u in subset_mass.tolist()])

    # Symbol 0 opens cell 0; the other symbols go in order.
    n_cells = min(n_messages, r)
    pairs = _pairs_by_union(max(r - 2, 0))
    best_h = _best_completion(subset_plogp, [1], 1, n_cells - 1, pairs)
    best_assign = [0]
    cells = [1]
    for x in range(1, r):
        labels = min(len(cells) + 1, n_cells)
        for label in range(labels):
            trial = cells + [0] if label == len(cells) else cells.copy()
            trial[label] |= 1 << x
            # Some label keeps the optimum reachable, so the last is not tested.
            if label == labels - 1 or best_h == _best_completion(
                    subset_plogp, trial, x + 1, n_cells - len(trial), pairs):
                break
        best_assign.append(label)
        cells = trial

    blocks = max(best_assign) + 1
    masses = np.bincount(best_assign, weights=p, minlength=blocks)
    rows = []
    assign_arr = np.array(best_assign)
    for m in range(blocks):
        cell = assign_arr == m
        row = np.zeros(r)
        row[cell] = p[cell] / masses[m]
        rows.append(Pmf(row))
    code = LogLossCode(n_messages=blocks, encoder=tuple(best_assign), decoder_rows=tuple(rows))
    value = entropy(px) - best_h
    # Rounding can leave -4e-16 or -0.0 where the optimum is zero.
    return code, value if value > 0.0 else 0.0


def _tail_excess(covered_probs: np.ndarray) -> float:
    """1 - mass of a covered set, summed in canonical descending order.

    Both the closed form and the cover oracle report through this, so equal
    covered sets give bitwise-equal epsilons.  Zero masses are left out: the
    two may cover different numbers of zero-mass symbols, and numpy groups
    a sum of eight or more terms by its length.
    """
    covered = np.sort(np.asarray(covered_probs))[::-1]
    return _excess(float(covered[covered > 0.0].sum()))


def _sorted_cells(px: Pmf, n_messages: int, cell: int) -> tuple[LogLossCode, float]:
    """The sorted-cell code of at most M messages with cells of ``cell`` symbols, and its epsilon.

    The symbols are sorted by non-increasing mass (stable, so equal masses
    keep their order); message m takes sorted ranks m * cell to
    (m + 1) * cell - 1, and the ranks past the last cell fold into it.
    There are min(M, ceil(r / cell)) messages, so no cell is empty.  Each
    member of a cell gets mass 1/cell in its message's row, and the first
    member also the leftover mass of a short cell, so the row is a
    distribution.  Epsilon is the tail mass beyond the M * cell most
    probable symbols.
    """
    r = px.n
    order = np.argsort(-px.probs, kind="stable")
    eps = _tail_excess(px.probs[order[:min(n_messages * cell, r)]])
    n_cells = min(n_messages, -(-r // cell))
    encoder = [0] * r
    for rank, x in enumerate(order.tolist()):
        encoder[x] = min(rank // cell, n_cells - 1)
    rows = []
    for m in range(n_cells):
        members = order[m * cell:(m + 1) * cell]
        row = np.zeros(r)
        row[members] = 1.0 / cell
        row[members[0]] += 1.0 - row.sum()
        rows.append(Pmf(row))
    return LogLossCode(n_messages=n_cells, encoder=tuple(encoder), decoder_rows=tuple(rows)), eps


@_checked
def logloss_excess_optimum(px: Pmf, n_messages: Count,
                           d: NonNegative) -> tuple[LogLossCode, float]:
    """Exact optimal excess probability Pr[log loss > D] with <= M messages.

    The optimum covers the M * floor(exp(D)) most probable symbols; the
    achieved epsilon is the tail mass beyond them.  The code puts them in
    cells of floor(exp(D)) symbols by non-increasing mass, each decoded
    uniformly over its cell, in min(M, ceil(r / floor(exp(D)))) messages,
    as more cells would be empty.
    """
    return _sorted_cells(px, n_messages, floor_exp(d))


@_checked
def logloss_codebook(px: Pmf, d: NonNegative, eps: Probability) -> tuple[LogLossCode, float]:
    """Least message count M* with log-loss excess probability at D below eps.

    Closed form: cover the smallest prefix of the sorted source reaching
    mass 1 - eps, in cells of floor(exp(D)).  Returns logloss_excess_optimum's
    code and epsilon at M*; M* is ``code.n_messages``.
    """
    cell = floor_exp(d)
    sorted_probs = np.sort(px.probs)[::-1]
    cdf = np.cumsum(sorted_probs)
    cdf[-1] = 1.0  # close the float gap so the cdf is total
    needed = int(np.searchsorted(cdf, (1.0 - eps) - _FEASIBILITY_SLACK, side="left")) + 1
    return _sorted_cells(px, -(-needed // cell), cell)


@_checked
def logloss_excess_oracle(px: Pmf, n_messages: Count, d: NonNegative) -> float:
    """Brute-force check of logloss_excess_optimum via cover enumeration.

    Each message may cover any set of at most floor(exp(D)) symbols (mass
    1/floor(exp(D)) each keeps the loss within D), so a code covers at most
    M * floor(exp(D)) symbols; enumerate every subset within that budget.
    Guarded at alphabets of size 12.
    """
    r = px.n
    _check_work(r, "symbols", _COVER_ALPHABET_GUARD)
    budget = min(n_messages * floor_exp(d), r)
    p = px.probs

    # The first mask of greatest mass among those within the budget.
    sizes = _subset_masses(np.ones(r))
    best_mask = int(np.where(sizes <= budget, _subset_masses(p), -1.0).argmax())
    members = [i for i in range(r) if best_mask >> i & 1]
    return _tail_excess(p[members])
