"""Exact one-shot (blocklength-one) code optimization on desk-scale alphabets.

Two families live here.  For an arbitrary distortion matrix, the optimal
average distortion with at most M messages and the optimal excess-distortion
probability come from exhaustive enumeration over reconstruction subsets,
with independent brute-force oracles enumerating encoders or cover sets.
For logarithmic loss the optima have closed forms: average distortion reduces
to entropy-maximizing partitions of the source alphabet, and the excess
criterion to covering the most probable symbols in cells of size
``floor(exp(D))``.

Everything is deterministic; ties break toward the lowest index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InstanceTooLargeError, ValidationError, _require_int
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
    total.
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
        for x, msg in enumerate(self.encoder):
            if not 0 <= msg < self.n_messages:
                raise ValidationError(f"OneShotCode: encoder[{x}] = {msg} out of range")
        for m, col in enumerate(self.decoder):
            if col < 0:
                raise ValidationError(f"OneShotCode: decoder[{m}] = {col} out of range")


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


def _completions(length: int, opened: int, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Every way to label `length` more symbols once `opened` cells are in use.

    A symbol joins an open cell or opens the next one, up to n_cells; rows
    come in lexicographic order, in the narrowest unsigned dtype that holds
    a cell index, to keep the tables small.  With opened = n_cells these are
    all n_cells**length labelings in itertools.product order; with
    opened = 0 they are the restricted growth strings, one per set
    partition.  Returns (rows, cells each row leaves open).
    """
    codes = np.zeros((1, 0), dtype=np.min_scalar_type(n_cells - 1))
    now_open = np.array([opened])
    for _ in range(length):
        choices = np.minimum(now_open + 1, n_cells)
        parent = np.repeat(np.arange(len(codes)), choices)
        value = np.arange(len(parent)) - np.repeat(np.cumsum(choices) - choices, choices)
        codes = np.column_stack([codes[parent], value.astype(codes.dtype)])
        now_open = np.maximum(now_open[parent], value + 1)
    return codes, now_open


def _cell_sum_blocks(weights: np.ndarray, n_cells: int, opened: int,
                     row_entries: int):
    """Yield (codes, sums) blocks over every labeling of the symbols.

    Labelings follow `_completions(len(weights), opened, n_cells)` order.
    ``sums[n, m]`` adds ``weights[x]`` over the symbols x that code n puts in
    cell m, in increasing x from zero, so every float is formed as a loop
    over x forms it.  Each block is one head (a labeling of the first
    symbols) against the table of its tails.  The tail length t is the
    largest with n_cells**t <= max(_BLOCK_ENTRIES // row_entries, 1), which
    bounds the tails of any head, so no block holds more codes than that.
    """
    r = len(weights)
    budget = max(_BLOCK_ENTRIES // row_entries, 1)
    t = 0
    while t < r and n_cells ** (t + 1) <= budget:
        t += 1
    head = r - t
    heads, head_open = _completions(head, opened, n_cells)
    tables: dict[int, np.ndarray] = {}
    for prefix, now_open in zip(heads, head_open.tolist()):
        if now_open not in tables:
            tables[now_open] = _completions(t, now_open, n_cells)[0]
        suffixes = tables[now_open]
        # add.at is unbuffered and applies the head's weights in index
        # order, as the loop over x does.
        start = np.zeros((n_cells,) + weights.shape[1:], dtype=weights.dtype)
        np.add.at(start, prefix, weights[:head])
        sums = np.repeat(start[None], len(suffixes), axis=0)
        rows = np.arange(len(suffixes))
        for i in range(t):
            sums[rows, suffixes[:, i]] += weights[head + i]
        codes = np.empty((len(suffixes), r), dtype=suffixes.dtype)
        codes[:, :head] = prefix
        codes[:, head:] = suffixes
        yield codes, sums


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

    sub = dist[:, best_subset]
    encoder = tuple(int(i) for i in sub.argmin(axis=1))
    decoder = tuple(best_subset) + (best_subset[-1],) * (n_messages - k)
    code = OneShotCode(n_messages=n_messages, encoder=encoder, decoder=decoder)
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
    for encoders, sums in _cell_sum_blocks(weighted, n_messages, n_messages,
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


def _best_cover(problem: SourceProblem, n_messages: int,
                d: float) -> tuple[tuple[int, ...], float]:
    """The first subset of min(M, s) columns covering the most probability.

    A symbol is covered by a column when its distortion is <= D.  Returns
    (subset, covered mass).
    """
    if not math.isfinite(d):
        raise ValidationError(f"excess criterion: d must be finite, got {d!r}")
    px = problem.px.probs
    covers = problem.distortion <= d  # r x s
    s = problem.n_reconstruction

    def mass(subset: tuple[int, ...]) -> float:
        return float(px[covers[:, subset].any(axis=1)].sum())

    best_subset = max(itertools.combinations(range(s), min(n_messages, s)), key=mass)
    return best_subset, mass(best_subset)


def solve_excess(problem: SourceProblem, n_messages: int, d: float) -> float:
    """Exact minimum excess probability Pr[d(X, g(f(X))) > D] with <= M messages.

    A symbol is covered by a column when its distortion is <= D; the optimum
    picks the subset of min(M, s) columns covering the most probability.
    """
    _require_int("solve_excess", "n_messages", n_messages, 1)
    _, mass = _best_cover(problem, n_messages, d)
    return min(max(1.0 - mass, 0.0), 1.0)


def excess_witness(problem: SourceProblem,
                   n_messages: int, d: float) -> tuple[OneShotCode, float]:
    """A code attaining solve_excess, with its excess probability.

    Uncovered symbols are encoded to the subset column of least distortion,
    which cannot hurt the excess criterion.
    """
    _require_int("excess_witness", "n_messages", n_messages, 1)
    subset, mass = _best_cover(problem, n_messages, d)
    encoder = tuple(int(i) for i in problem.distortion[:, subset].argmin(axis=1))
    decoder = subset + (subset[-1],) * (n_messages - len(subset))
    code = OneShotCode(n_messages=n_messages, encoder=encoder, decoder=decoder)
    return code, min(max(1.0 - mass, 0.0), 1.0)


def solve_codebook(problem: SourceProblem, d: float, eps: float) -> int:
    """Least message count M with excess probability at D below eps.

    Raises InfeasibleError when even the full reconstruction alphabet cannot
    reach the target.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"solve_codebook: eps must lie in [0, 1], got {eps!r}")
    for m in range(1, problem.n_reconstruction + 1):
        if solve_excess(problem, m, d) <= eps + _FEASIBILITY_SLACK:
            return m
    achievable = solve_excess(problem, problem.n_reconstruction, d)
    raise InfeasibleError(
        f"solve_codebook: excess target {eps!r} at distortion {d!r} unreachable; "
        f"best achievable is {achievable!r}"
    )


# ----------------------------------------------------------------------
# Logarithmic-loss closed forms.
# ----------------------------------------------------------------------


def floor_exp(d: float) -> int:
    """Largest integer k with ln k <= D (slack 1e-12), i.e. floor(exp(D))."""
    if not math.isfinite(d):
        raise ValidationError(f"floor_exp: d must be finite, got {d!r}")
    if d < 0.0:
        raise ValidationError(f"floor_exp: D must be >= 0, got {d!r}")
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


def logloss_avg_optimum(px: Pmf, n_messages: int) -> tuple[PartitionScheme, float]:
    """Exact optimal average log loss with at most M messages.

    The optimum equals H(X) minus the largest entropy of f(X) over
    partitions f of the alphabet into at most M cells; the scheme reproduces
    each cell by its posterior.  Guarded at alphabets of size 14.
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

    n_cells = min(n_messages, r)
    best_h = -1.0
    best_assign: list[int] | None = None
    for assigns, cells in _cell_sum_blocks(1 << np.arange(r), n_cells, 0, n_cells):
        h = np.zeros(len(assigns))
        for m in range(n_cells):
            h -= subset_plogp[cells[:, m]]
        i = int(h.argmax())
        if h[i] > best_h:
            best_h = float(h[i])
            best_assign = assigns[i].tolist()
    assert best_assign is not None

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
    return scheme, entropy(px) - best_h


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
    if not 0.0 <= eps <= 1.0:
        raise ValidationError(f"logloss_codebook: eps must lie in [0, 1], got {eps!r}")
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
