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

import numpy as np

from .errors import (
    InfeasibleError,
    InstanceTooLargeError,
    ValidationError,
    _require_each,
    _require_int,
    _require_iterable,
    _require_real,
)
from .probability import Pmf, entropy
from .ratedistortion import SourceProblem

__all__ = [
    "OneShotCode",
    "expected_distortion",
    "solve_avg",
    "solve_avg_oracle",
    "solve_excess",
    "excess_witness",
    "solve_codebook",
    "PartitionScheme",
    "logloss_avg_optimum",
    "ExcessScheme",
    "logloss_excess_optimum",
    "logloss_codebook",
    "logloss_excess_oracle",
    "floor_exp",
]

# The work guards.  Each bounds one count of an exhaustive search, and every
# search checks its count with _check_work before it allocates anything.
# The costs at each limit are from a 2-core machine.
#
# Encoders in solve_avg_oracle, (encoder, decoder) pairs in the equivalence
# checks.  solve_avg_oracle at 5^10 encoders takes 1.1-1.4 s; the sweep and
# the coincidence check on uniform Hamming 8 at M = 3 (3.4e6 pairs) take
# 20-35 ms.  It is below 2^31, so a pair's key (encoder ordinal * k^M +
# decoder ordinal) fits in an int32.
_CODE_ENUM_GUARD = 10_000_000
# Column subsets scanned by solve_avg and _best_cover, or by all the scans of
# solve_codebook together, at 9-10.5 us each: about 10 s at the limit.
# C(20, 10) = 184,756 takes 1.7-2.0 s.
_SUBSET_GUARD = 1_000_000
# Source symbols in logloss_avg_optimum's dynamic program, about 3^r / 4
# steps: one call at r = 14, M = 7 takes 60-66 ms.
_PARTITION_ALPHABET_GUARD = 14
# Source symbols in logloss_excess_oracle's 2^r subset table: under 1 ms.
_COVER_ALPHABET_GUARD = 12
# The exhaustive enumerations work on blocks of codes holding about this many
# floats per code-indexed array, so memory stays bounded at every guard.
_BLOCK_ENTRIES = 1 << 18
# floor(exp(D)) with a whisker of slack so exact thresholds like D = ln 2
# land on the intended integer.
_FLOOR_SLACK = 1e-12
# The largest D whose floor(exp(D)), slack included, is a float: past it
# ExcessScheme could not form its cells' mass 1/floor(exp(D)).
_FLOOR_EXP_MAX = math.log(sys.float_info.max) - 2.0 * _FLOOR_SLACK
# An excess target counts as met when missed by at most this much.
_FEASIBILITY_SLACK = 1e-12


def _check_work(caller: str, amount: int, what: str, guard: int) -> None:
    """Refuse a call whose exhaustive work, ``amount`` of ``what``, exceeds ``guard``."""
    if amount > guard:
        raise InstanceTooLargeError(f"{caller}: {amount} {what} exceeds guard {guard}")


@dataclass(frozen=True)
class OneShotCode:
    """Deterministic one-shot code: encoder into messages, decoder back out.

    ``encoder[x]`` is the message for source symbol x (0-based), and
    ``decoder[m]`` the reconstruction column for message m.  Both maps are
    total, and their entries are integers.
    """

    n_messages: int
    encoder: tuple[int, ...]
    decoder: tuple[int, ...]

    def __post_init__(self):
        _require_int("OneShotCode", "n_messages", self.n_messages, 1)
        for name in ("encoder", "decoder"):
            entries = _require_iterable("OneShotCode", name, getattr(self, name))
            object.__setattr__(self, name, tuple(entries))
        if len(self.decoder) != self.n_messages:
            raise ValidationError(
                f"OneShotCode: decoder covers {len(self.decoder)} of {self.n_messages} messages"
            )
        if not self.encoder:
            raise ValidationError("OneShotCode: empty encoder")
        _require_each(_require_int, "OneShotCode", "encoder", self.encoder,
                      0, self.n_messages - 1)
        _require_each(_require_int, "OneShotCode", "decoder", self.decoder, 0)


def expected_distortion(problem: SourceProblem, code: OneShotCode) -> float:
    """E d(X, g(f(X))) for a code over the problem's distortion matrix."""
    if len(code.encoder) != problem.n_source:
        raise ValidationError("expected_distortion: encoder length mismatch")
    if max(code.decoder) >= problem.n_reconstruction:
        raise ValidationError("expected_distortion: decoder column out of range")
    px = problem.px.probs
    dist = problem.distortion
    return float(sum(px[x] * dist[x, code.decoder[code.encoder[x]]]
                     for x in range(problem.n_source)))


def _cell_sum_blocks(weights: np.ndarray, n_cells: int, row_entries: int):
    """Yield (ordinals, sums) blocks over the canonical labelings of the symbols.

    Row n of a block is the labeling of ordinal ``ordinals[n]`` in
    itertools.product order, and the rows of all blocks come in that order.
    ``sums[n, m]`` adds ``weights[x]`` over the symbols x that the labeling
    puts in cell m, in increasing x from zero, so every float is formed as
    a loop over x forms it.

    Only canonical labelings are visited: those whose first symbol in cell
    0 or 1 is in cell 0, and those with no symbol in either.  A cell's sum
    depends only on its set of symbols, whatever the cell's label, so
    swapping cells 0 and 1 swaps two rows of sums, and a cost that adds
    cell 0's and cell 1's terms first is the same float for a labeling and
    its swap: rounded addition is commutative.  The swap takes every other
    labeling to a canonical one that precedes it in product order, so the
    first optimum is canonical.  That is (n_cells**r + (n_cells - 2)**r) / 2
    labelings with two or more cells, and all of them with one.

    Each block is one head (a labeling of the first symbols) against the
    labelings of the rest.  The tail length t is the largest with
    n_cells**t <= max(_BLOCK_ENTRIES // row_entries, 1), so no block holds
    more codes than that; with one cell a tail symbol adds no rows, so the
    tail stays empty.  A head whose first label below 2 is 0 takes every
    tail, one whose first such label is 1 is skipped, and one with no such
    label takes the canonical tails.

    A head's sums are formed over every tail, in which tail symbol i is
    digit i of the row index in product order, so ``sums`` viewed as
    ``(n_cells,) * t + (n_cells, ...)`` takes tail symbol i's weight in
    cell m as one strided add over the rows whose digit i is m.
    """
    r = len(weights)
    budget = max(_BLOCK_ENTRIES // row_entries, 1)
    t = 0
    while t < r and 1 < n_cells ** (t + 1) <= budget:
        t += 1
    head = r - t
    rows = n_cells ** t
    every_tail = np.arange(rows)
    # The canonical tails of each length, in order: those led by 0, then
    # each label from 2 up before a canonical tail one shorter.
    canonical_tails = np.zeros(1, dtype=np.intp)
    for length in range(t):
        size = n_cells ** length
        canonical_tails = np.concatenate(
            [every_tail[:size]] + [m * size + canonical_tails for m in range(2, n_cells)])
    for block, prefix in enumerate(itertools.product(range(n_cells), repeat=head)):
        low = next((m for m in prefix if m < 2), None)
        if low == 1:
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
        if low is None:
            yield block * rows + canonical_tails, sums[canonical_tails]
        else:
            yield block * rows + every_tail, sums


def _least_costs(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lows, least): each cell's least cost and each code's least cost.

    ``cells[..., m, j]`` is the cost of cell m of a code decoded by column
    j.  ``lows`` is its minimum over j, taken as elementwise passes over
    the few columns; a minimum is exact, and the costs reduced here are
    never NaN or -0.0, so it equals cells.min(axis=-1) bit for bit.
    ``least`` is the left-nested sum ((lows[..., 0] + lows[..., 1]) + ...)
    over the cells; rounded addition is monotone, so it is the least cost
    of the code over every decoder.
    """
    lows = reduce(np.minimum, [cells[..., j] for j in range(cells.shape[-1])])
    return lows, reduce(np.add, [lows[..., m] for m in range(lows.shape[-1])])


def _subset_code(problem: SourceProblem, n_messages: int,
                 subset: tuple[int, ...]) -> OneShotCode:
    """Code sending each symbol to its nearest subset column, the first on ties."""
    encoder = tuple(int(i) for i in problem.distortion[:, subset].argmin(axis=1))
    decoder = tuple(subset) + (subset[-1],) * (n_messages - len(subset))
    return OneShotCode(n_messages=n_messages, encoder=encoder, decoder=decoder)


def _first_best_subset(caller: str, problem: SourceProblem, n_messages: int,
                       score) -> tuple[int, ...]:
    """The first subset of min(M, s) columns, in lexicographic order, of least score.

    Guarded at 10^6 subsets.
    """
    s = problem.n_reconstruction
    size = min(n_messages, s)
    _check_work(caller, math.comb(s, size), "column subsets", _SUBSET_GUARD)
    return min(itertools.combinations(range(s), size), key=score)


def solve_avg(problem: SourceProblem, n_messages: int) -> tuple[OneShotCode, float]:
    """Exact minimum average distortion over all codes with <= M messages.

    Enumerates reconstruction subsets of size min(M, s); the nearest-codeword
    encoder (ties to the lowest column index) is optimal for each subset.
    The first best subset in lexicographic order is returned as a witness.
    Guarded at 10^6 subsets.
    """
    _require_int("solve_avg", "n_messages", n_messages, 1)
    px = problem.px.probs
    dist = problem.distortion
    best_subset = _first_best_subset(
        "solve_avg", problem, n_messages,
        lambda subset: float(px @ dist[:, subset].min(axis=1)))
    code = _subset_code(problem, n_messages, best_subset)
    # Report the value through the shared evaluator so independent solvers
    # that land on the same code agree bitwise.
    return code, expected_distortion(problem, code)


def solve_avg_oracle(problem: SourceProblem, n_messages: int) -> float:
    """Brute-force check of solve_avg: enumerate every encoder map.

    For each of the M^r encoders the best decoder picks, per message, the
    column minimizing that cell's expected distortion.  Guarded at
    M^r <= 10^7.  The winner is re-evaluated through the shared evaluator,
    so agreement with solve_avg is bitwise when the optimum is unique.
    """
    _require_int("solve_avg_oracle", "n_messages", n_messages, 1)
    r = problem.n_source
    _check_work("solve_avg_oracle", n_messages ** r, "encoders", _CODE_ENUM_GUARD)
    px = problem.px.probs
    dist = problem.distortion
    weighted = px[:, None] * dist  # row x: px(x) d(x, .)

    # An empty cell sums to zeros: it adds 0.0 to the cost and decodes to
    # column 0, as if skipped.
    best = math.inf
    best_code: OneShotCode | None = None
    for ordinals, sums in _cell_sum_blocks(weighted, n_messages,
                                           n_messages * problem.n_reconstruction):
        cost = _least_costs(sums)[1]
        i = int(cost.argmin())
        if cost[i] < best:
            best = float(cost[i])
            # Digit x of the ordinal, most significant first, is encoder[x].
            encoder = tuple(int(ordinals[i]) // n_messages ** (r - 1 - x) % n_messages
                            for x in range(r))
            best_code = OneShotCode(n_messages=n_messages, encoder=encoder,
                                    decoder=tuple(sums[i].argmin(axis=1).tolist()))
    assert best_code is not None
    return expected_distortion(problem, best_code)


def _best_cover(caller: str, problem: SourceProblem, n_messages: int,
                d: float) -> tuple[tuple[int, ...], float]:
    """The first subset of min(M, s) columns covering the most probability.

    A symbol is covered by a column when its distortion is <= D.  Returns
    (subset, excess probability 1 - covered mass, clamped into [0, 1]);
    raises ValidationError naming ``caller`` when d is not a finite real.
    """
    _require_real(caller, "d", d)
    px = problem.px.probs
    covers = problem.distortion <= d  # r x s
    # Negation is exact, so the least -mass is the first subset of most mass.
    best_subset = _first_best_subset(caller, problem, n_messages,
                                     lambda subset: -_cover_mass(px, covers, subset))
    return best_subset, _excess(_cover_mass(px, covers, best_subset))


def _cover_mass(px: np.ndarray, covers: np.ndarray, columns) -> float:
    """Mass of the symbols that some of ``columns`` covers, whatever their order."""
    return float(px[covers[:, columns].any(axis=1)].sum())


def _excess(mass: float) -> float:
    """The excess probability 1 - mass, clamped into [0, 1]."""
    return min(max(1.0 - mass, 0.0), 1.0)


def solve_excess(problem: SourceProblem, n_messages: int, d: float) -> float:
    """Exact minimum excess probability Pr[d(X, g(f(X))) > D] with <= M messages.

    A symbol is covered by a column when its distortion is <= D; the optimum
    picks the subset of min(M, s) columns covering the most probability.
    """
    _require_int("solve_excess", "n_messages", n_messages, 1)
    return _best_cover("solve_excess", problem, n_messages, d)[1]


def excess_witness(problem: SourceProblem,
                   n_messages: int, d: float) -> tuple[OneShotCode, float]:
    """A code attaining solve_excess, with its excess probability.

    Uncovered symbols are encoded to the subset column of least distortion,
    which cannot hurt the excess criterion.
    """
    _require_int("excess_witness", "n_messages", n_messages, 1)
    subset, excess = _best_cover("excess_witness", problem, n_messages, d)
    return _subset_code(problem, n_messages, subset), excess


def solve_codebook(problem: SourceProblem, d: float, eps: float) -> int:
    """Least message count M with excess probability at D below eps.

    A greedy cover bounds M first: it adds the column covering the most
    mass not yet covered until the target is met, at M_g columns.  The best
    subset of M_g columns covers at least as much, so the answer is the
    first M < M_g whose best subset meets the target, else M_g, and the
    scan at M_g need not run.  C(s, 1) + ... + C(s, M_g) subsets are checked
    against the subset guard before the first scan; counting C(s, M_g)
    keeps a witness at the answer (``excess_witness``) within the guard.

    Raises InfeasibleError when even the full reconstruction alphabet cannot
    reach the target.
    """
    _require_real("solve_codebook", "eps", eps, 0.0, 1.0)
    _require_real("solve_codebook", "d", d)
    px = problem.px.probs
    covers = problem.distortion <= d  # r x s
    s = problem.n_reconstruction
    target = eps + _FEASIBILITY_SLACK
    best = _excess(_cover_mass(px, covers, list(range(s))))
    if best > target:
        raise InfeasibleError(
            f"solve_codebook: excess target {eps!r} at distortion {d!r} unreachable; "
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
    _check_work("solve_codebook", sum(math.comb(s, m) for m in range(1, m_greedy + 1)),
                "column subsets", _SUBSET_GUARD)
    return next((m for m in range(1, m_greedy)
                 if _best_cover("solve_codebook", problem, m, d)[1] <= target), m_greedy)


# ----------------------------------------------------------------------
# Logarithmic-loss closed forms.
# ----------------------------------------------------------------------


def floor_exp(d: float) -> int:
    """Largest integer k with ln k <= D (slack 1e-12), i.e. floor(exp(D)).

    D runs over [0, ln of the largest float] less twice the slack, about
    709.78.  Past D = 28 the slack spans more than one integer, and past
    2^53 ln k stays level over runs of integers, so the answer is
    bracketed around exp(D) by doubling steps and found by bisection, in
    O(log k) logarithms.
    """
    _require_real("floor_exp", "d", d, 0.0)
    if d > _FLOOR_EXP_MAX:
        raise ValidationError(f"floor_exp: d must be at most {_FLOOR_EXP_MAX:g}, got {d!r}: "
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


@dataclass(frozen=True, eq=False)
class PartitionScheme:
    """Deterministic partition code achieving the log-loss average optimum.

    ``encoder[x]`` is the cell of symbol x; ``posterior_rows[m]`` is the
    source posterior on cell m (uniform over the cell when it carries no
    mass), supported exactly on the cell.
    """

    n_messages: int
    encoder: tuple[int, ...]
    cell_masses: np.ndarray
    posterior_rows: tuple[Pmf, ...]


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


def logloss_avg_optimum(px: Pmf, n_messages: int) -> tuple[PartitionScheme, float]:
    """Exact optimal average log loss with at most M messages.

    The optimum equals H(X) minus the largest entropy of f(X) over
    partitions f of the alphabet into at most M cells; the scheme reproduces
    each cell by its posterior.  A dynamic program over subsets finds that
    largest entropy in about 3^r / 4 steps, bit for bit the value a scan of
    every partition would return.  The scheme's partition is the first
    optimal one in restricted-growth order: each symbol in turn takes the
    lowest label from which the optimum stays reachable.  Guarded at
    alphabets of size 14.
    """
    _require_int("logloss_avg_optimum", "n_messages", n_messages, 1)
    r = px.n
    _check_work("logloss_avg_optimum", r, "symbols", _PARTITION_ALPHABET_GUARD)
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
    masses.setflags(write=False)
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
    scheme = PartitionScheme(
        n_messages=blocks,
        encoder=tuple(int(c) for c in best_assign),
        cell_masses=masses,
        posterior_rows=tuple(rows),
    )
    value = entropy(px) - best_h
    # Rounding can leave -4e-16 or -0.0 where the optimum is zero.
    return scheme, value if value > 0.0 else 0.0


@dataclass(frozen=True, eq=False)
class ExcessScheme:
    """Sorted-cell scheme achieving the log-loss excess optimum.

    ``sort_order`` places probabilities in non-increasing order (stable, so
    equal masses keep their original order); consecutive runs of
    ``cell_size`` sorted symbols share a message and a uniform reproduction
    of mass 1/cell_size each.
    """

    d: float
    n_messages: int
    sort_order: tuple[int, ...]
    cell_size: int
    achieved_epsilon: float

    def encoder(self) -> tuple[int, ...]:
        """Message per symbol; ranks past the last cell fold into it."""
        r = len(self.sort_order)
        enc = [0] * r
        for rank, x in enumerate(self.sort_order):
            enc[x] = min(rank // self.cell_size, self.n_messages - 1)
        return tuple(enc)

    def decoder_rows(self) -> tuple[Pmf, ...]:
        """Reproduction Pmf per message.

        Each covered symbol in a cell gets mass 1/cell_size; a short final
        cell parks the leftover mass on its first symbol so the row is a
        genuine distribution, and a cell with no symbols falls back to
        uniform over the alphabet.
        """
        r = len(self.sort_order)
        rows = []
        for m in range(self.n_messages):
            members = self.sort_order[m * self.cell_size:(m + 1) * self.cell_size]
            row = np.zeros(r)
            if members:
                row[list(members)] = 1.0 / self.cell_size
                row[members[0]] += 1.0 - row.sum()
            else:
                row[:] = 1.0 / r
            rows.append(Pmf(row))
        return tuple(rows)


def _tail_excess(covered_probs: np.ndarray) -> float:
    """1 - mass of a covered set, summed in canonical descending order.

    Both the closed form and the cover oracle report through this, so equal
    covered sets give bitwise-equal epsilons.  Zero masses are left out: the
    two may cover different numbers of zero-mass symbols, and numpy groups
    a sum of eight or more terms by its length.
    """
    covered = np.sort(np.asarray(covered_probs))[::-1]
    mass = float(covered[covered > 0.0].sum())
    return min(max(1.0 - mass, 0.0), 1.0)


def logloss_excess_optimum(px: Pmf, n_messages: int, d: float) -> tuple[ExcessScheme, float]:
    """Exact optimal excess probability Pr[log loss > D] with <= M messages.

    The optimum covers the M * floor(exp(D)) most probable symbols; the
    achieved epsilon is the tail mass beyond them.
    """
    _require_int("logloss_excess_optimum", "n_messages", n_messages, 1)
    cell = floor_exp(d)
    order = np.argsort(-px.probs, kind="stable")
    covered = min(n_messages * cell, px.n)
    eps = _tail_excess(px.probs[order[:covered]])
    scheme = ExcessScheme(
        d=d,
        n_messages=n_messages,
        sort_order=tuple(int(x) for x in order),
        cell_size=cell,
        achieved_epsilon=eps,
    )
    return scheme, eps


def logloss_codebook(px: Pmf, d: float, eps: float) -> int:
    """Least message count with log-loss excess probability at D below eps.

    Closed form: cover the smallest prefix of the sorted source reaching
    mass 1 - eps, in cells of floor(exp(D)).
    """
    _require_real("logloss_codebook", "eps", eps, 0.0, 1.0)
    cell = floor_exp(d)
    sorted_probs = np.sort(px.probs)[::-1]
    cdf = np.cumsum(sorted_probs)
    cdf[-1] = 1.0  # close the float gap so the cdf is total
    needed = int(np.searchsorted(cdf, (1.0 - eps) - _FEASIBILITY_SLACK, side="left")) + 1
    return -(-needed // cell)


def logloss_excess_oracle(px: Pmf, n_messages: int, d: float) -> float:
    """Brute-force check of logloss_excess_optimum via cover enumeration.

    Each message may cover any set of at most floor(exp(D)) symbols (mass
    1/floor(exp(D)) each keeps the loss within D), so a code covers at most
    M * floor(exp(D)) symbols; enumerate every subset within that budget.
    Guarded at alphabets of size 12.
    """
    _require_int("logloss_excess_oracle", "n_messages", n_messages, 1)
    r = px.n
    _check_work("logloss_excess_oracle", r, "symbols", _COVER_ALPHABET_GUARD)
    budget = min(n_messages * floor_exp(d), r)
    p = px.probs

    # The first mask of greatest mass among those within the budget.
    sizes = _subset_masses(np.ones(r))
    best_mask = int(np.where(sizes <= budget, _subset_masses(p), -1.0).argmax())
    members = [i for i in range(r) if best_mask >> i & 1]
    return _tail_excess(p[members])
