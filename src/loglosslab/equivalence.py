"""The corresponding log-loss problem for a fixed-cardinality source code.

Given a source, a distortion measure, and a message budget M, the exact
one-shot optimum D*(M) picks out a point on the informational curve.  The
corresponding problem keeps the same source and messages but reproduces with
probability distributions, scored by log loss, where the available rows are
the reverse-channel posteriors of the solved point.  Under that dictionary:

  * every code pair satisfies an affine identity,
        E[log loss] = H(X | Xhat*) + lambda* (E[d] - D*(M)),
    so expected log loss is a fixed increasing affine function of expected
    distortion;
  * the log-loss value of the mapped optimum is the conditional entropy
    H(X | Xhat*), and no code with M messages does better;
  * the two argmin sets correspond one-to-one.

Instances whose D*(M) sits on a curve endpoint (where the slope degenerates)
are rejected as out of scope.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import oneshot
from .errors import (Count, DegenerateInstanceError, Int, MappingError, NonNegative, Positive,
                     Seq, VerificationError, _check_fields, _checked, _require_size)
from .oneshot import (
    _CODE_ENUM_GUARD,
    LogLossCode,
    OneShotCode,
    _cell_sum_blocks,
    _check_work,
    _least_costs,
    expected_distortion,
    solve_avg,
)
from .probability import Pmf, conditional_entropy, joint_from_source_and_channel
from .ratedistortion import (_DEFAULT_TOL, RdPoint, SourceProblem, _first_close_pair, _rd_point,
                             distortion_bounds)

__all__ = [
    "ROW_MATCH_TOL",
    "ENDPOINT_TOL",
    "CorrespondingProblem",
    "build_corresponding",
    "map_code",
    "unmap_code",
    "expected_log_loss",
    "Theorem1Check",
    "verify_theorem1",
    "suboptimality_gap",
    "IdentitySweep",
    "identity_sweep",
    "identity_bound",
    "CoincidenceReport",
    "verify_optimum_coincidence",
]

# Max-norm radius within which a reproduction row is identified with a
# reverse-channel row when carrying codes back.
ROW_MATCH_TOL = 1e-9
# D*(M) within this of a curve endpoint is treated as degenerate.
ENDPOINT_TOL = 1e-9
# Default slack by which verify_theorem1 lets a mapped code's expected log
# loss fall below the optimum.
_FLOOR_TOL = 1e-9
# Default distance from the optimum within which the coincidence check
# counts a code pair as optimal.
_COINCIDENCE_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class CorrespondingProblem:
    """The log-loss problem equivalent to a fixed-M average-distortion problem.

    ``y_rows`` are the reverse-channel rows of ``source_point`` (one per kept
    reconstruction column, in kept order); they are the only reproduction
    values an optimal log-loss decoder ever needs.
    """

    problem: SourceProblem
    n_messages: int
    d_star_m: float
    lambda_star: float
    h_x_given_xhat: float
    y_rows: tuple[Pmf, ...]
    source_point: RdPoint
    optimal_code: OneShotCode

    __post_init__ = _check_fields

    @property
    def px(self) -> Pmf:
        return self.problem.px


@_checked
def build_corresponding(problem: SourceProblem, n_messages: Count,
                        tol: Positive = _DEFAULT_TOL) -> CorrespondingProblem:
    """Solve D*(M), solve the curve there, and assemble the dictionary.

    Raises DegenerateInstanceError when D*(M) lands on a curve endpoint
    (slope divergence or the zero-rate knee); the equivalence needs an
    interior point.  Raises MappingError when the one-shot optimum decodes
    a message to a column the point at D*(M) prunes: the checked problem
    ranges over the kept columns only, so it would leave that optimum out.
    """
    code, d_star = solve_avg(problem, n_messages)
    d_min, d_max = distortion_bounds(problem)
    if d_star <= d_min + ENDPOINT_TOL or d_star >= d_max - ENDPOINT_TOL:
        raise DegenerateInstanceError(
            f"D*({n_messages}) = {d_star!r} sits at a curve endpoint of "
            f"[{d_min!r}, {d_max!r}]; the corresponding problem degenerates there"
        )
    point = _rd_point("d_star_m", problem, d_star, tol)
    for m, col in enumerate(code.decoder):
        if col not in point.kept_columns:
            raise MappingError(
                f"the one-shot optimum decodes message {m} to column {col}, which the "
                f"R(D) point at D*({n_messages}) prunes (kept columns {point.kept_columns})"
            )

    rows = point.reverse.rows
    same = _first_close_pair(rows, ROW_MATCH_TOL)
    if same is not None:
        a, b = same
        raise VerificationError(
            f"reverse rows {a} and {b} coincide within {ROW_MATCH_TOL}; "
            "distinct distortion columns should force distinct posteriors"
        )

    if point.rate > math.log(n_messages) + 1e-9:
        raise VerificationError(
            f"rate {point.rate!r} exceeds ln M = {math.log(n_messages)!r} at D*(M)"
        )

    h = conditional_entropy(joint_from_source_and_channel(problem.px, point.forward))
    return CorrespondingProblem(
        problem=problem,
        n_messages=n_messages,
        d_star_m=d_star,
        lambda_star=point.lambda_star,
        h_x_given_xhat=h,
        y_rows=tuple(point.reverse.row(j) for j in range(rows.shape[0])),
        source_point=point,
        optimal_code=code,
    )


@_checked
def map_code(cp: CorrespondingProblem, code: OneShotCode) -> LogLossCode:
    """Carry a source code across: same encoder, posterior rows as decoder."""
    _require_size("code.n_messages", code.n_messages, "cp.n_messages", cp.n_messages)
    _require_size("len(code.encoder)", len(code.encoder), "cp.px.n", cp.px.n)
    Seq(Int(0, cp.problem.n_reconstruction - 1)).check("code.decoder", code.decoder)
    col_to_row = {col: j for j, col in enumerate(cp.source_point.kept_columns)}
    rows = []
    for m, col in enumerate(code.decoder):
        if col not in col_to_row:
            raise MappingError(
                f"decoder[{m}] uses reconstruction column {col}, "
                "which was pruned from the solved point"
            )
        rows.append(cp.y_rows[col_to_row[col]])
    return LogLossCode(n_messages=code.n_messages, encoder=code.encoder,
                       decoder_rows=tuple(rows))


@_checked
def unmap_code(cp: CorrespondingProblem, lcode: LogLossCode) -> OneShotCode:
    """Carry a log-loss code back by matching rows in max norm.

    Every decoder row must sit within ROW_MATCH_TOL of some reverse-channel
    row; otherwise the code has no counterpart and MappingError names the
    offending message.
    """
    _require_size("lcode.n_messages", lcode.n_messages, "cp.n_messages", cp.n_messages)
    _require_size("len(lcode.encoder)", len(lcode.encoder), "cp.px.n", cp.px.n)
    decoder = []
    for m, row in enumerate(lcode.decoder_rows):
        _require_size(f"lcode.decoder_rows[{m}].n", row.n, "cp.px.n", cp.px.n)
        dists = np.abs(cp.source_point.reverse.rows - row.probs).max(axis=1)
        j = int(np.argmin(dists))
        if dists[j] > ROW_MATCH_TOL:
            raise MappingError(
                f"decoder row for message {m} is {dists[j]:.3e} away "
                f"from the nearest reverse row, beyond {ROW_MATCH_TOL}"
            )
        decoder.append(cp.source_point.kept_columns[j])
    return OneShotCode(n_messages=lcode.n_messages, encoder=lcode.encoder,
                       decoder=tuple(decoder))


@_checked
def expected_log_loss(px: Pmf, lcode: LogLossCode) -> float:
    """E[-ln q(X)] where q is the decoded row for X's message."""
    _require_size("len(lcode.encoder)", len(lcode.encoder), "px.n", px.n)
    for m, row in enumerate(lcode.decoder_rows):
        _require_size(f"lcode.decoder_rows[{m}].n", row.n, "px.n", px.n)
    total = 0.0
    for x in px.support():
        qx = float(lcode.decoder_rows[lcode.encoder[x]].probs[x])
        if qx == 0.0:
            return math.inf
        total += px.probs[x] * -math.log(qx)
    return float(total)


@dataclass(frozen=True)
class Theorem1Check:
    """Both sides of the affine identity for one code pair."""

    lhs: float
    rhs: float
    residual: float
    expected_d: float


@_checked
def verify_theorem1(cp: CorrespondingProblem, code: OneShotCode,
                    tol: NonNegative = _FLOOR_TOL) -> Theorem1Check:
    """Evaluate the identity for one code and check the floor.

    lhs is the expected log loss of the mapped code; rhs is
    h + lambda* (E[d] - D*(M)).  The lhs must also stay above h (the value
    of the optimum) up to tol; a violation raises VerificationError.
    """
    lhs = expected_log_loss(cp.px, map_code(cp, code))
    e_d = expected_distortion(cp.problem, code)
    rhs = cp.h_x_given_xhat + cp.lambda_star * (e_d - cp.d_star_m)
    if lhs < cp.h_x_given_xhat - tol:
        raise VerificationError(
            f"expected log loss {lhs!r} fell below the optimum {cp.h_x_given_xhat!r}"
        )
    return Theorem1Check(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs), expected_d=e_d)


@_checked
def suboptimality_gap(cp: CorrespondingProblem, code: OneShotCode) -> tuple[float, float]:
    """(log-loss regret, lambda* times distortion regret); equal for every code."""
    check = verify_theorem1(cp, code)
    return (check.lhs - cp.h_x_given_xhat,
            cp.lambda_star * (check.expected_d - cp.d_star_m))


def _cell_cost_tables(cp: CorrespondingProblem) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol costs against each kept column: distortion and log loss."""
    px = cp.px.probs
    kept = list(cp.source_point.kept_columns)
    w_d = px[:, None] * cp.problem.distortion[:, kept]
    rev = cp.source_point.reverse.rows  # rows: kept column, cols: x
    live = px > 0.0
    w_l = np.zeros(rev.T.shape)
    with np.errstate(divide="ignore"):
        w_l[live] = px[live, None] * -np.log(rev.T[live])
    return w_d, w_l


def _cell_blocks(cp: CorrespondingProblem):
    """A generator of (ordinals, cells) blocks over the canonical encoders.

    Row n of a block is the encoder of ordinal ``ordinals[n]`` in
    itertools.product order.  ``cells[side, n, m, j]`` is the cost of
    message m of encoder n decoded by kept index j, on the distortion
    (side 0) or log-loss side (side 1).  The 10^7-pair guard is checked
    when this is called, before any block is formed.
    """
    m_count = cp.n_messages
    k = len(cp.y_rows)
    _check_work(m_count ** cp.px.n * k ** m_count, "code pairs", _CODE_ENUM_GUARD)
    blocks = _cell_sum_blocks(np.hstack(_cell_cost_tables(cp)), m_count, k ** m_count)
    return ((ordinals, sums.reshape(len(sums), m_count, 2, k).transpose(2, 0, 1, 3))
            for ordinals, sums in blocks)


def _grid_into(a: np.ndarray, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """grid[j_0, ..., j_{M-1}, n] = ((a[n, 0, j_0] + a[n, 1, j_1]) + ...), in ``out``.

    ``a[n, m, j]`` is the cost of message m of encoder n decoded by kept
    index j.  The encoder is the last axis, so each add runs over the n
    encoders of the tile, not over k decoder entries.  ``out`` and
    ``spare`` are flat buffers of at least n * k^M floats; the partial sums
    alternate between them so the last lands in ``out``.
    """
    n, m_count, k = a.shape
    grid = (out if m_count % 2 else spare)[:k * n].reshape(k, n)
    np.copyto(grid, a[:, 0].T)
    for m in range(1, m_count):
        buf = out if (m_count - m) % 2 else spare
        grid = np.add(grid[..., None, :], a[:, m].T,
                      out=buf[:grid.size * k].reshape(grid.shape[:-1] + (k, n)))
    return grid


@dataclass(frozen=True)
class IdentitySweep:
    """Identity residuals over every code pair.

    Both problems' least costs are ``verify_optimum_coincidence``'s
    ``min_distortion`` and ``min_loss``.
    """

    n_codes: int
    max_residual: float

    @property
    def sampled(self) -> bool:
        """False: every sweep is exhaustive; derived, kept for perfbench/workloads.py."""
        return False


@_checked
def identity_sweep(cp: CorrespondingProblem) -> IdentitySweep:
    """Residual of the affine identity over all M^r encoders and k^M decoders.

    Swapping messages 0 and 1 in both the encoder and the decoder leaves
    both of a pair's costs the same floats (see ``_cell_sum_blocks``), so
    the canonical encoders against every decoder reach every residual.
    Guarded at 10^7 code pairs; ``identity_bound`` bounds every residual
    without enumerating them.
    """
    m_count = cp.n_messages
    k = len(cp.y_rows)
    h = cp.h_x_given_xhat
    lam = cp.lambda_star
    d_star = cp.d_star_m
    # Taking the blocks checks the guard, before any buffer is allocated.
    blocks = _cell_blocks(cp)

    max_resid = 0.0
    # Residuals are formed in tiles of whole encoders, at most an eighth of
    # the block budget in pairs (one encoder when it has more decoders), in
    # three buffers reused for every tile.  Costs lie in [0, inf], so no
    # residual is NaN and the tiles' maxima give the blocks' maxima.
    pairs = k ** m_count
    tile = max((oneshot._BLOCK_ENTRIES >> 3) // pairs, 1)
    buffers = [np.empty(tile * pairs) for _ in range(3)]
    for _, cells in blocks:
        for start in range(0, cells.shape[1], tile):
            grid_d, grid_l = (_grid_into(a[start:start + tile], out, buffers[2])
                              for a, out in zip(cells, buffers))
            # np.abs(grid_l - h - lam * (grid_d - d_star)), in place.
            np.subtract(grid_l, h, out=grid_l)
            np.subtract(grid_d, d_star, out=grid_d)
            np.multiply(lam, grid_d, out=grid_d)
            np.subtract(grid_l, grid_d, out=grid_l)
            max_resid = max(max_resid, float(np.abs(grid_l, out=grid_l).max()))
    return IdentitySweep(n_codes=m_count ** cp.px.n * pairs, max_residual=max_resid)


@_checked
def identity_bound(cp: CorrespondingProblem) -> float:
    """A bound on every residual ``identity_sweep`` forms, in O(r k) steps.

    Decoding symbol x by kept index j costs e(x, j) = w_l(x, j) -
    lambda* w_d(x, j) on the identity's two sides, and at the solved point
    e(x, j) = p_x (-ln p_x + ln z_x) does not depend on j (Csiszar 1974,
    "On an extremum problem of information theory").  A code pair that
    decodes each x by some j_x has the residual
    |sum_x e(x, j_x) - (h - lambda* D*)|, at most

        |sum_x mean_j e(x, j) - (h - lambda* D*)| + sum_x (max_j - min_j) e(x, j),

    whatever the code, so the bound holds past the sweep's guard too.

    The rest is a rounding allowance, so that the bound also dominates the
    residuals as the sweep rounds them, after this function's own rounding.
    Each rounding errs by at most 2^-53 of its result.  With S = sum_x
    max_j w_l + lambda* sum_x max_j w_d + h + lambda* D*, the sweep's
    results are at most S: it forms a pair's costs in at most r + M - 2
    adds (the first add into each cell is exact) and its residual in four
    more steps.  This function's results are at most 3S, and its roundings
    add up to at most k + 20 times 2^-53 S: k for a row's mean, the rest
    for e, the spreads, the sums over x, the offset and the last adds.
    Hence (r + M + k + 22) 2^-53 S.
    """
    w_d, w_l = _cell_cost_tables(cp)
    h = cp.h_x_given_xhat
    lam = cp.lambda_star
    e = w_l - lam * w_d
    certificate = (abs(math.fsum(e.mean(axis=1)) - (h - lam * cp.d_star_m))
                   + math.fsum(e.max(axis=1) - e.min(axis=1)))
    scale = (math.fsum(w_l.max(axis=1)) + lam * math.fsum(w_d.max(axis=1))
             + h + lam * cp.d_star_m)
    steps = cp.px.n + cp.n_messages + len(cp.y_rows) + 22
    return certificate + steps * 2.0 ** -53 * scale


@dataclass(frozen=True)
class CoincidenceReport:
    """Argmin sets on both sides, in shared (encoder, kept-index) coordinates.

    Each argmin set is a read-only sequence of (encoder, decoder) tuples in
    lexicographic order.  It equals, hashes and prints as the tuple of those
    pairs; ``verify_optimum_coincidence`` keeps the pairs of canonical
    encoders, each as one int32 key, 4 bytes, and makes the others and
    decodes the pairs only when they are read, so ``len`` costs nothing.
    ``pairs_summed`` counts the code pairs whose nested cost the check
    formed, over both sides; it takes no part in equality.
    """

    min_distortion: float
    min_loss: float
    distortion_argmin: Sequence
    loss_argmin: Sequence
    matched: bool
    pairs_summed: int = field(compare=False)


class _ArgminSet(Sequence):
    """(encoder, decoder) pairs kept as the sorted int32 keys of the canonical ones.

    A pair's key is encoder ordinal * k^M + decoder ordinal, as
    ``_pair_tuples`` reads it.  The set holds the swap of messages 0 and 1
    of each of its pairs, so the keys of canonical encoders name it.  The
    first read adds the others' keys, from ``_swap_images``, and decodes
    them all.
    """

    __slots__ = ("_keys", "_digits", "_len", "_tuples")

    def __init__(self, keys: np.ndarray, r: int, m_count: int, k: int):
        keys.flags.writeable = False
        self._keys = keys
        self._digits = (r, m_count, k)
        self._tuples = None
        # The swap moves every encoder below 2...2, the least with no symbol
        # in message 0 or 1, and the keys are sorted.
        least = sum(2 * m_count ** i for i in range(r)) * k ** m_count
        below = int(np.searchsorted(keys, least)) if m_count > 1 else 0
        self._len = len(keys) + below + len(_swap_images(keys[below:], *self._digits))

    def _decoded(self) -> tuple:
        if self._tuples is None:
            keys = np.concatenate([self._keys, _swap_images(self._keys, *self._digits)])
            keys.sort()
            self._tuples = _pair_tuples(keys, *self._digits)
        return self._tuples

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        return self._decoded()[index]

    def __iter__(self):
        return iter(self._decoded())

    def __eq__(self, other):
        if isinstance(other, _ArgminSet):
            other = other._decoded()
        if not isinstance(other, tuple):
            return NotImplemented
        return self._decoded() == other

    def __hash__(self) -> int:
        return hash(self._decoded())

    def __repr__(self) -> str:
        return repr(self._decoded())


@_checked
def verify_optimum_coincidence(cp: CorrespondingProblem,
                               atol: NonNegative = _COINCIDENCE_ATOL) -> CoincidenceReport:
    """Find both problems' sets of optimal codes and compare them.

    Decoders range over the kept reconstruction columns (the solved point's
    alphabet); a decoder choice is recorded as its kept-index tuple, which
    names a column on the distortion side and a reverse row on the log-loss
    side.  The two argmin sets must coincide exactly under that naming.

    The check is exact without scoring every code pair.  A pair's cost is
    the left-nested sum ((a[0, j_0] + a[1, j_1]) + a[2, j_2]) ... of its
    cells' costs, and rounded addition is monotone, so an encoder's least
    cost is the nested sum of its cells' minima, and a pair lies within
    ``atol`` of the optimum only if each of its coordinates does with every
    other coordinate at its cell's minimum.  Only the products of those
    candidates are summed, in the order the exhaustive grid sums them.

    Only canonical encoders are scored (see ``_cell_sum_blocks``).  Swapping
    messages 0 and 1 in both the encoder and the decoder keeps both of a
    pair's costs, since the nested sum adds cells 0 and 1 first and rounded
    addition is commutative.  So each argmin set is its canonical pairs and
    their swaps, and the sets coincide exactly when their canonical pairs do.
    """
    r = cp.px.n
    m_count = cp.n_messages
    k = len(cp.y_rows)
    # One pass.  Each side keeps the pairs within atol of its running
    # minimum and trims them whenever that minimum falls, which leaves the
    # pairs within atol of the final minimum.  A pair is kept as the int32
    # key encoder ordinal * k^M + decoder ordinal (the guard keeps it below
    # 2^31); both ordinals come in lexicographic order, so the kept keys are
    # sorted and distinct.
    best = [math.inf, math.inf]
    kept: list[list] = [[], []]  # per side: (costs, keys)
    pairs_summed = 0
    for ordinals, cells in _cell_blocks(cp):
        lows, row_min = _least_costs(cells)
        for side, low in enumerate(row_min.min(axis=1).tolist()):
            if low < best[side]:
                best[side] = low
                kept[side] = [(c[c <= low + atol], keys[c <= low + atol])
                              for c, keys in kept[side]]
        thr = np.array(best) + atol
        sides, n = np.nonzero(row_min <= thr[:, None])
        n_rows_d = np.searchsorted(sides, 1)
        encoders = ordinals[n].astype(np.int32)
        for costs, row, dec, summed in _near_pairs(cells[sides, n], lows[sides, n],
                                                   thr[sides]):
            pairs_summed += summed
            keys = encoders[row] * k ** m_count
            keys += dec
            split = np.searchsorted(row, n_rows_d)
            kept[0].append((costs[:split], keys[:split]))
            kept[1].append((costs[split:], keys[split:]))
    # Each side's chunks are released once its keys are joined.
    keys_d = np.concatenate([keys for _, keys in kept.pop(0)])
    keys_l = np.concatenate([keys for _, keys in kept.pop()])
    matched = np.array_equal(keys_d, keys_l)
    argmin_d = _ArgminSet(keys_d, r, m_count, k)
    return CoincidenceReport(
        min_distortion=best[0],
        min_loss=best[1],
        distortion_argmin=argmin_d,
        loss_argmin=argmin_d if matched else _ArgminSet(keys_l, r, m_count, k),
        matched=matched,
        pairs_summed=pairs_summed,
    )


def _near_pairs(cells: np.ndarray, lows: np.ndarray, thr: np.ndarray):
    """Yield (costs, rows, decoder ordinals, pairs summed) of the pairs within thr.

    ``cells[n, m, j]`` is the cost of message m of row n decoded by kept
    index j and ``lows`` its minimum over j.  A row's candidate pairs are
    the product of its cells' candidates, and each cell has one at its
    minimum.  They are expanded in groups of whole rows holding at most a
    sweep tile of pairs (a row with more forms a group alone), so the
    working set stays that small.  Pairs come out in (row, decoder)
    lexicographic order, with costs at most their row's ``thr``; the count
    is of every candidate pair whose cost was formed.
    """
    m_count, k = cells.shape[1:]
    at_low = [lows[:, m, None] for m in range(m_count)]
    cand = np.empty(cells.shape, dtype=bool)
    for m in range(m_count):
        cand[:, m] = reduce(np.add, at_low[:m] + [cells[:, m]] + at_low[m + 1:]) <= thr[:, None]
    before = np.concatenate(([0], np.cumsum(np.prod(cand.sum(axis=2), axis=1))))
    tile = oneshot._BLOCK_ENTRIES >> 3
    lo = 0
    while lo < len(cells):
        hi = max(int(np.searchsorted(before, before[lo] + tile, side="right")) - 1, lo + 1)
        # Expand the product one message at a time, summing each pair's
        # cost in the order the exhaustive grid does.  Rows and decoder
        # ordinals are int32 (the guard keeps both below 2^31), and each
        # step's int64 indices are dropped before the next, larger, step.
        row, dec = (a.astype(np.int32) for a in np.nonzero(cand[lo:hi, 0]))
        row += lo
        costs = cells[row, 0, dec]
        for m in range(1, m_count):
            parent, j = np.nonzero(cand[row, m])
            row = row[parent]
            costs = costs[parent] + cells[row, m, j]
            dec = dec[parent] * k
            dec += j
            del parent, j
        near = costs <= thr[row]
        yield costs[near], row[near], dec[near], len(costs)
        lo = hi


def _swap_images(keys: np.ndarray, r: int, m_count: int, k: int) -> np.ndarray:
    """The keys of the swaps of the pairs whose encoder the swap moves.

    Swapping messages 0 and 1 exchanges labels 0 and 1 in the encoder and
    decoder digits 0 and 1.  It moves every encoder with a symbol in
    message 0 or 1, and with one message there is nothing to swap.  The
    images are in the order of their keys, not sorted.
    """
    if m_count == 1:
        return keys[:0]
    enc, dec = np.divmod(keys, k ** m_count)
    rest = enc.copy()
    moved = np.zeros(len(keys), dtype=bool)
    for i in range(r):
        rest, digit = np.divmod(rest, m_count)
        low = digit < 2
        moved |= low
        # Label 0 becomes 1 and label 1 becomes 0 at place M^i.
        enc += np.where(low, 1 - 2 * digit, 0) * m_count ** i
    first, second = k ** (m_count - 1), k ** (m_count - 2)
    dec += (dec // second % k - dec // first) * (first - second)
    enc *= k ** m_count
    enc += dec
    return enc[moved]


def _pair_tuples(keys: np.ndarray, r: int, m_count: int, k: int) -> tuple:
    """(encoder, decoder) tuples from sorted int32 keys.

    A key is encoder ordinal * k^M + decoder ordinal.  An encoder ordinal
    counts in base M over r digits and a decoder ordinal in base k over M
    digits, first digit most significant, so sorted keys decode in
    itertools.product order.  Each encoder's tuple is repeated over its run
    of keys; equal decoders share one tuple.
    """
    def tuples(ordinals, base, length):
        return list(zip(*(d.tolist() for d in np.unravel_index(ordinals, (base,) * length))))

    enc, dec = np.divmod(keys, k ** m_count)
    firsts = np.flatnonzero(np.diff(enc, prepend=-1))
    runs = np.diff(firsts, append=len(enc)).tolist()
    encoders = itertools.chain.from_iterable(
        map(itertools.repeat, tuples(enc[firsts], m_count, r), runs))
    dec_values, dec_index = np.unique(dec, return_inverse=True)
    decoders = map(tuples(dec_values, k, m_count).__getitem__, dec_index.tolist())
    return tuple(zip(encoders, decoders))
