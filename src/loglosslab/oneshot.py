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
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleError,
    InstanceTooLargeError,
    ValidationError,
    _require_each,
    _require_int,
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

_ENCODER_ENUM_GUARD = 10_000_000
_PARTITION_ALPHABET_GUARD = 14
_COVER_ALPHABET_GUARD = 12
# The exhaustive enumerations work on blocks of codes holding about this many
# floats per code-indexed array, so memory stays bounded at every guard.
_BLOCK_ENTRIES = 1 << 18
# floor(exp(D)) with a whisker of slack so exact thresholds like D = ln 2
# land on the intended integer.
_FLOOR_SLACK = 1e-12
# An excess target counts as met when missed by at most this much.
_FEASIBILITY_SLACK = 1e-12


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


def _completions(length: int, n_cells: int) -> np.ndarray:
    """All n_cells**length labelings of `length` symbols.

    Rows come in itertools.product order, in the narrowest unsigned dtype
    that holds a cell index, to keep the tables small.
    """
    codes = np.zeros((1, 0), dtype=np.min_scalar_type(n_cells - 1))
    labels = np.arange(n_cells, dtype=codes.dtype)
    for _ in range(length):
        codes = np.column_stack([np.repeat(codes, n_cells, axis=0),
                                 np.tile(labels, len(codes))])
    return codes


def _cell_sum_blocks(weights: np.ndarray, n_cells: int, row_entries: int):
    """Yield (codes, sums) blocks over all n_cells**r labelings of the symbols.

    Labelings come in itertools.product order.  ``sums[n, m]`` adds
    ``weights[x]`` over the symbols x that code n puts in cell m, in
    increasing x from zero, so every float is formed as a loop over x forms
    it.  Each block is one head (a labeling of the first symbols) against
    every labeling of the rest.  The tail length t is the largest with
    n_cells**t <= max(_BLOCK_ENTRIES // row_entries, 1), so no block holds
    more codes than that.
    """
    r = len(weights)
    budget = max(_BLOCK_ENTRIES // row_entries, 1)
    t = 0
    while t < r and n_cells ** (t + 1) <= budget:
        t += 1
    head = r - t
    suffixes = _completions(t, n_cells)
    rows = np.arange(len(suffixes))
    for prefix in _completions(head, n_cells):
        # add.at is unbuffered and applies the head's weights in index
        # order, as the loop over x does.
        start = np.zeros((n_cells,) + weights.shape[1:], dtype=weights.dtype)
        np.add.at(start, prefix, weights[:head])
        sums = np.repeat(start[None], len(suffixes), axis=0)
        for i in range(t):
            sums[rows, suffixes[:, i]] += weights[head + i]
        codes = np.empty((len(suffixes), r), dtype=suffixes.dtype)
        codes[:, :head] = prefix
        codes[:, head:] = suffixes
        yield codes, sums


def _subset_code(problem: SourceProblem, n_messages: int,
                 subset: tuple[int, ...]) -> OneShotCode:
    """Code sending each symbol to its nearest subset column, the first on ties."""
    encoder = tuple(int(i) for i in problem.distortion[:, subset].argmin(axis=1))
    decoder = tuple(subset) + (subset[-1],) * (n_messages - len(subset))
    return OneShotCode(n_messages=n_messages, encoder=encoder, decoder=decoder)


def solve_avg(problem: SourceProblem, n_messages: int) -> tuple[OneShotCode, float]:
    """Exact minimum average distortion over all codes with <= M messages.

    Enumerates reconstruction subsets of size min(M, s); the nearest-codeword
    encoder (ties to the lowest column index) is optimal for each subset.
    The first best subset in lexicographic order is returned as a witness.
    """
    _require_int("solve_avg", "n_messages", n_messages, 1)
    px = problem.px.probs
    dist = problem.distortion
    s = problem.n_reconstruction
    k = min(n_messages, s)
    best_subset = min(itertools.combinations(range(s), k),
                      key=lambda subset: float(px @ dist[:, subset].min(axis=1)))
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
    if n_messages ** r > _ENCODER_ENUM_GUARD:
        raise InstanceTooLargeError(
            f"solve_avg_oracle: {n_messages}^{r} encoders exceeds guard {_ENCODER_ENUM_GUARD}"
        )
    px = problem.px.probs
    dist = problem.distortion
    weighted = px[:, None] * dist  # row x: px(x) d(x, .)

    # An empty cell sums to zeros: it adds 0.0 to the cost and decodes to
    # column 0, as if skipped.
    best = math.inf
    best_code: OneShotCode | None = None
    for encoders, sums in _cell_sum_blocks(weighted, n_messages,
                                           n_messages * problem.n_reconstruction):
        mins = sums.min(axis=2)
        cost = np.zeros(len(encoders))
        for m in range(n_messages):
            cost += mins[:, m]
        i = int(cost.argmin())
        if cost[i] < best:
            best = float(cost[i])
            best_code = OneShotCode(n_messages=n_messages, encoder=tuple(encoders[i].tolist()),
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
    s = problem.n_reconstruction

    def mass(subset: tuple[int, ...]) -> float:
        return float(px[covers[:, subset].any(axis=1)].sum())

    best_subset = max(itertools.combinations(range(s), min(n_messages, s)), key=mass)
    return best_subset, min(max(1.0 - mass(best_subset), 0.0), 1.0)


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

    Raises InfeasibleError when even the full reconstruction alphabet cannot
    reach the target.
    """
    _require_real("solve_codebook", "eps", eps, 0.0, 1.0)
    for m in range(1, problem.n_reconstruction + 1):
        excess = _best_cover("solve_codebook", problem, m, d)[1]
        if excess <= eps + _FEASIBILITY_SLACK:
            return m
    raise InfeasibleError(
        f"solve_codebook: excess target {eps!r} at distortion {d!r} unreachable; "
        f"best achievable is {excess!r}"
    )


# ----------------------------------------------------------------------
# Logarithmic-loss closed forms.
# ----------------------------------------------------------------------


def floor_exp(d: float) -> int:
    """Largest integer k with ln k <= D (slack 1e-12), i.e. floor(exp(D))."""
    _require_real("floor_exp", "d", d, 0.0)
    k = max(int(math.floor(math.exp(min(d, 700.0)))), 1)
    while math.log(k + 1) <= d + _FLOOR_SLACK:
        k += 1
    while k > 1 and math.log(k) > d + _FLOOR_SLACK:
        k -= 1
    return k


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
    if r > _PARTITION_ALPHABET_GUARD:
        raise InstanceTooLargeError(
            f"logloss_avg_optimum: alphabet {r} exceeds guard {_PARTITION_ALPHABET_GUARD}"
        )
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
    if r > _COVER_ALPHABET_GUARD:
        raise InstanceTooLargeError(
            f"logloss_excess_oracle: alphabet {r} exceeds guard {_COVER_ALPHABET_GUARD}"
        )
    budget = min(n_messages * floor_exp(d), r)
    p = px.probs

    # The first mask of greatest mass among those within the budget.
    sizes = _subset_masses(np.ones(r))
    best_mask = int(np.where(sizes <= budget, _subset_masses(p), -1.0).argmax())
    members = [i for i in range(r) if best_mask >> i & 1]
    return _tail_excess(p[members])
