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
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import oneshot
from .errors import (
    DegenerateInstanceError,
    InstanceTooLargeError,
    MappingError,
    ValidationError,
    VerificationError,
    _require_each,
    _require_int,
    _require_real,
)
from .oneshot import OneShotCode, _cell_sum_blocks, expected_distortion, solve_avg
from .probability import Pmf, conditional_entropy, joint_from_source_and_channel
from .ratedistortion import RdPoint, SourceProblem, distortion_bounds, rd_at_distortion

__all__ = [
    "ROW_MATCH_TOL",
    "ENDPOINT_TOL",
    "CorrespondingProblem",
    "LogLossCode",
    "build_corresponding",
    "map_code",
    "unmap_code",
    "expected_log_loss",
    "Theorem1Check",
    "verify_theorem1",
    "suboptimality_gap",
    "IdentitySweep",
    "identity_sweep",
    "CoincidenceReport",
    "verify_optimum_coincidence",
]

# Max-norm radius within which a reproduction row is identified with a
# reverse-channel row when carrying codes back.
ROW_MATCH_TOL = 1e-9
# D*(M) within this of a curve endpoint is treated as degenerate.
ENDPOINT_TOL = 1e-9
_CODE_ENUM_GUARD = 10_000_000


@dataclass(frozen=True, eq=False)
class LogLossCode:
    """One-shot code whose decoder emits probability distributions."""

    n_messages: int
    encoder: tuple[int, ...]
    decoder_rows: tuple[Pmf, ...]

    def __post_init__(self):
        _require_int("LogLossCode", "n_messages", self.n_messages, 1)
        if len(self.decoder_rows) != self.n_messages:
            raise ValidationError(
                f"LogLossCode: {len(self.decoder_rows)} rows for {self.n_messages} messages"
            )
        _require_each(_require_int, "LogLossCode", "encoder", self.encoder,
                      0, self.n_messages - 1)


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

    @property
    def px(self) -> Pmf:
        return self.problem.px


def build_corresponding(problem: SourceProblem, n_messages: int,
                        tol: float = 1e-8) -> CorrespondingProblem:
    """Solve D*(M), solve the curve there, and assemble the dictionary.

    Raises DegenerateInstanceError when D*(M) lands on a curve endpoint
    (slope divergence or the zero-rate knee); the equivalence needs an
    interior point.
    """
    code, d_star = solve_avg(problem, n_messages)
    d_min, d_max = distortion_bounds(problem)
    if d_star <= d_min + ENDPOINT_TOL or d_star >= d_max - ENDPOINT_TOL:
        raise DegenerateInstanceError(
            f"D*({n_messages}) = {d_star!r} sits at a curve endpoint of "
            f"[{d_min!r}, {d_max!r}]; the corresponding problem degenerates there"
        )
    point = rd_at_distortion(problem, d_star, tol=tol)

    rows = point.reverse.rows
    for a in range(rows.shape[0] - 1):
        close = np.flatnonzero(np.abs(rows[a + 1:] - rows[a]).max(axis=1) <= ROW_MATCH_TOL)
        if close.size:
            raise VerificationError(
                f"reverse rows {a} and {a + 1 + close[0]} coincide within {ROW_MATCH_TOL}; "
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


def map_code(cp: CorrespondingProblem, code: OneShotCode) -> LogLossCode:
    """Carry a source code across: same encoder, posterior rows as decoder."""
    if code.n_messages != cp.n_messages:
        raise ValidationError(
            f"map_code: code has {code.n_messages} messages, problem has {cp.n_messages}"
        )
    if len(code.encoder) != cp.px.n:
        raise ValidationError("map_code: encoder length mismatch")
    col_to_row = {col: j for j, col in enumerate(cp.source_point.kept_columns)}
    rows = []
    for m, col in enumerate(code.decoder):
        if col not in col_to_row:
            raise MappingError(
                f"map_code: decoder[{m}] uses reconstruction column {col}, "
                "which was pruned from the solved point"
            )
        rows.append(cp.y_rows[col_to_row[col]])
    return LogLossCode(n_messages=code.n_messages, encoder=code.encoder,
                       decoder_rows=tuple(rows))


def unmap_code(cp: CorrespondingProblem, lcode: LogLossCode) -> OneShotCode:
    """Carry a log-loss code back by matching rows in max norm.

    Every decoder row must sit within ROW_MATCH_TOL of some reverse-channel
    row; otherwise the code has no counterpart and MappingError names the
    offending message.
    """
    if lcode.n_messages != cp.n_messages:
        raise ValidationError(
            f"unmap_code: code has {lcode.n_messages} messages, problem has {cp.n_messages}"
        )
    decoder = []
    for m, row in enumerate(lcode.decoder_rows):
        if row.n != cp.px.n:
            raise ValidationError(f"unmap_code: row {m} has alphabet {row.n}")
        dists = np.abs(cp.source_point.reverse.rows - row.probs).max(axis=1)
        j = int(np.argmin(dists))
        if dists[j] > ROW_MATCH_TOL:
            raise MappingError(
                f"unmap_code: decoder row for message {m} is {dists[j]:.3e} away "
                f"from the nearest reverse row, beyond {ROW_MATCH_TOL}"
            )
        decoder.append(cp.source_point.kept_columns[j])
    return OneShotCode(n_messages=lcode.n_messages, encoder=lcode.encoder,
                       decoder=tuple(decoder))


def expected_log_loss(px: Pmf, lcode: LogLossCode) -> float:
    """E[-ln q(X)] where q is the decoded row for X's message."""
    if len(lcode.encoder) != px.n:
        raise ValidationError("expected_log_loss: encoder length mismatch")
    total = 0.0
    for x in px.support():
        qx = float(lcode.decoder_rows[lcode.encoder[x]].probs[x])
        if qx == 0.0:
            return math.inf
        total += px.probs[x] * -math.log(qx)
    return total


@dataclass(frozen=True)
class Theorem1Check:
    """Both sides of the affine identity for one code pair."""

    lhs: float
    rhs: float
    residual: float
    expected_d: float


def verify_theorem1(cp: CorrespondingProblem, code: OneShotCode,
                    tol: float = 1e-9) -> Theorem1Check:
    """Evaluate the identity for one code and check the floor.

    lhs is the expected log loss of the mapped code; rhs is
    h + lambda* (E[d] - D*(M)).  The lhs must also stay above h (the value
    of the optimum) up to tol; a violation raises VerificationError.
    """
    _require_real("verify_theorem1", "tol", tol, 0.0)
    lcode = map_code(cp, code)
    lhs = expected_log_loss(cp.px, lcode)
    e_d = expected_distortion(cp.problem, code)
    rhs = cp.h_x_given_xhat + cp.lambda_star * (e_d - cp.d_star_m)
    if lhs < cp.h_x_given_xhat - tol:
        raise VerificationError(
            f"expected log loss {lhs!r} fell below the optimum {cp.h_x_given_xhat!r}"
        )
    return Theorem1Check(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs), expected_d=e_d)


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


def _cell_blocks(cp: CorrespondingProblem, caller: str, remedy: str = ""):
    """Yield (encoders, cells, lows, row_min) blocks over every encoder.

    Encoders come in itertools.product order.  ``cells[side, n, m, j]`` is
    the cost of message m of encoder n decoded by kept index j, on the
    distortion (side 0) or log-loss side (side 1), and ``lows`` its minimum
    over j.  An encoder's least cost ``row_min[side, n]`` is the nested sum
    of its cells' minima (rounded addition is monotone).  The 10^7-pair
    guard's error names ``caller`` and ends with ``remedy``.
    """
    m_count = cp.n_messages
    k = len(cp.y_rows)
    total = (m_count ** cp.px.n) * (k ** m_count)
    if total > _CODE_ENUM_GUARD:
        raise InstanceTooLargeError(f"{caller}: {total} code pairs exceeds guard "
                                    f"{_CODE_ENUM_GUARD}{remedy}")
    for encoders, sums in _cell_sum_blocks(np.hstack(_cell_cost_tables(cp)), m_count,
                                           k ** m_count):
        cells = sums.reshape(len(encoders), m_count, 2, k).transpose(2, 0, 1, 3)
        lows = cells.min(axis=3)
        yield encoders, cells, lows, reduce(np.add, [lows[..., m] for m in range(m_count)])


def _grid_into(a: np.ndarray, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """grid[n, j_0, ..., j_{M-1}] = ((a[n, 0, j_0] + a[n, 1, j_1]) + ...), in ``out``.

    ``a[n, m, j]`` is the cost of message m of encoder n decoded by kept
    index j.  ``out`` and ``spare`` are flat buffers of at least n * k^M
    floats; the partial sums alternate between them so the last lands in
    ``out``.
    """
    n, m_count, k = a.shape
    grid = (out if m_count % 2 else spare)[:n * k].reshape(n, k)
    np.copyto(grid, a[:, 0])
    for m in range(1, m_count):
        buf = out if (m_count - m) % 2 else spare
        grid = np.add(grid[..., None], a[:, m].reshape((n,) + (1,) * m + (k,)),
                      out=buf[:grid.size * k].reshape(grid.shape + (k,)))
    return grid


@dataclass(frozen=True)
class IdentitySweep:
    """Identity residuals over many code pairs."""

    n_codes: int
    max_residual: float
    min_loss: float
    min_distortion: float
    sampled: bool


def identity_sweep(cp: CorrespondingProblem, samples: int | None = None,
                   seed: int | None = None) -> IdentitySweep:
    """Residual of the affine identity over code pairs.

    Exhaustive over all M^r encoders and k^M decoders when samples is None
    (guarded at 10^7 pairs); otherwise over `samples` uniformly seeded draws.
    ``samples`` is None or an integer >= 1 and ``seed`` None or an integer
    >= 0; anything else is a ValidationError.
    """
    _require_int("identity_sweep", "samples", samples, 1, allow_none=True)
    _require_int("identity_sweep", "seed", seed, 0, allow_none=True)
    r = cp.px.n
    m_count = cp.n_messages
    k = len(cp.y_rows)
    h = cp.h_x_given_xhat
    lam = cp.lambda_star
    d_star = cp.d_star_m

    max_resid = 0.0
    min_loss = math.inf
    min_d = math.inf

    if samples is None:
        # Residuals are formed in tiles of whole encoders, at most an eighth
        # of the block budget in pairs, in three buffers reused for every
        # tile.  Costs lie in [0, inf], so no residual is NaN and the tiles'
        # maxima give the blocks' maxima.
        pairs = k ** m_count
        tile = max((oneshot._BLOCK_ENTRIES >> 3) // pairs, 1)
        buffers = [np.empty(tile * pairs) for _ in range(3)]
        n_codes = 0
        for encoders, cells, _, row_min in _cell_blocks(
                cp, "identity_sweep", "; pass samples= to randomize"):
            # The grid minima are the encoders' least costs; they need no grid.
            min_d = min(min_d, float(row_min[0].min()))
            min_loss = min(min_loss, float(row_min[1].min()))
            for start in range(0, len(encoders), tile):
                grid_d, grid_l = (_grid_into(a[start:start + tile], out, buffers[2])
                                  for a, out in zip(cells, buffers))
                # np.abs(grid_l - h - lam * (grid_d - d_star)), in place.
                np.subtract(grid_l, h, out=grid_l)
                np.subtract(grid_d, d_star, out=grid_d)
                np.multiply(lam, grid_d, out=grid_d)
                np.subtract(grid_l, grid_d, out=grid_l)
                max_resid = max(max_resid, float(np.abs(grid_l, out=grid_l).max()))
            n_codes += len(encoders) * pairs
        return IdentitySweep(n_codes=n_codes, max_residual=max_resid,
                             min_loss=min_loss, min_distortion=min_d, sampled=False)

    w_d, w_l = _cell_cost_tables(cp)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        enc = rng.integers(0, m_count, size=r)
        dec = rng.integers(0, k, size=m_count)
        cost_d = float(sum(w_d[x, dec[enc[x]]] for x in range(r)))
        cost_l = float(sum(w_l[x, dec[enc[x]]] for x in range(r)))
        max_resid = max(max_resid, abs(cost_l - h - lam * (cost_d - d_star)))
        min_loss = min(min_loss, cost_l)
        min_d = min(min_d, cost_d)
    return IdentitySweep(n_codes=int(samples), max_residual=max_resid,
                         min_loss=min_loss, min_distortion=min_d, sampled=True)


@dataclass(frozen=True)
class CoincidenceReport:
    """Argmin sets on both sides, in shared (encoder, kept-index) coordinates.

    Each argmin set is a read-only sequence of (encoder, decoder) tuples in
    lexicographic order.  It equals, hashes and prints as the tuple of those
    pairs; ``verify_optimum_coincidence`` decodes the pairs only when they
    are read, so ``len`` costs nothing.
    """

    min_distortion: float
    min_loss: float
    distortion_argmin: Sequence
    loss_argmin: Sequence
    matched: bool


class _ArgminSet(Sequence):
    """Sorted (encoder, decoder) pairs kept as ordinals, decoded on first read.

    ``pairs`` holds the encoder ordinals in row 0 and the decoder ordinals
    in row 1, as ``_pair_tuples`` reads them.
    """

    __slots__ = ("_pairs", "_digits", "_tuples")

    def __init__(self, pairs: np.ndarray, r: int, m_count: int, k: int):
        pairs.flags.writeable = False
        self._pairs = pairs
        self._digits = (r, m_count, k)
        self._tuples = None

    def _decoded(self) -> tuple:
        if self._tuples is None:
            self._tuples = _pair_tuples(self._pairs, *self._digits)
        return self._tuples

    def __len__(self) -> int:
        return self._pairs.shape[1]

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


def verify_optimum_coincidence(cp: CorrespondingProblem,
                               atol: float = 1e-9) -> CoincidenceReport:
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
    """
    _require_real("verify_optimum_coincidence", "atol", atol, 0.0)
    r = cp.px.n
    m_count = cp.n_messages
    k = len(cp.y_rows)
    # One pass.  Each side keeps the pairs within atol of its running
    # minimum and trims them whenever that minimum falls, which leaves the
    # pairs within atol of the final minimum.  A pair is kept as the ordinals
    # of its encoder and decoder; both come in lexicographic order, so the
    # kept pairs are sorted and distinct.
    place = m_count ** np.arange(r - 1, -1, -1)
    best = [math.inf, math.inf]
    kept: list[list] = [[], []]  # per side: (costs, encoder and decoder ordinals)
    for encoders, cells, lows, row_min in _cell_blocks(cp, "verify_optimum_coincidence"):
        for side, low in enumerate(row_min.min(axis=1).tolist()):
            if low < best[side]:
                best[side] = low
                kept[side] = [(c[c <= low + atol], pairs[:, c <= low + atol])
                              for c, pairs in kept[side]]
        thr = np.array(best) + atol
        sides, n = np.nonzero(row_min <= thr[:, None])
        costs, row, dec = _near_pairs(cells[sides, n], lows[sides, n], thr[sides])
        pairs = np.vstack([(encoders @ place)[n[row]], dec])
        split = np.searchsorted(row, np.searchsorted(sides, 1))
        kept[0].append((costs[:split], pairs[:, :split]))
        kept[1].append((costs[split:], pairs[:, split:]))
    pairs_d, pairs_l = (np.hstack([pairs for _, pairs in chunks]) for chunks in kept)
    matched = np.array_equal(pairs_d, pairs_l)
    argmin_d = _ArgminSet(pairs_d, r, m_count, k)
    return CoincidenceReport(
        min_distortion=best[0],
        min_loss=best[1],
        distortion_argmin=argmin_d,
        loss_argmin=argmin_d if matched else _ArgminSet(pairs_l, r, m_count, k),
        matched=matched,
    )


def _near_pairs(cells: np.ndarray, lows: np.ndarray,
                thr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(costs, rows, decoder ordinals) of the pairs costing at most their row's thr.

    ``cells[n, m, j]`` is the cost of message m of row n decoded by kept
    index j and ``lows`` its minimum over j.  Pairs come out in (row,
    decoder) lexicographic order.
    """
    m_count, k = cells.shape[1:]
    at_low = [lows[:, m, None] for m in range(m_count)]
    cand = np.empty(cells.shape, dtype=bool)
    for m in range(m_count):
        cand[:, m] = reduce(np.add, at_low[:m] + [cells[:, m]] + at_low[m + 1:]) <= thr[:, None]
    # Expand the product of the candidates one message at a time.
    row, dec = np.nonzero(cand[:, 0])
    costs = cells[row, 0, dec]
    for m in range(1, m_count):
        parent, j = np.nonzero(cand[row, m])
        row = row[parent]
        costs = costs[parent] + cells[row, m, j]
        dec = dec[parent] * k + j
    near = costs <= thr[row]
    return costs[near], row[near], dec[near]


def _pair_tuples(pairs: np.ndarray, r: int, m_count: int, k: int) -> tuple:
    """(encoder, decoder) tuples from rows of encoder and decoder ordinals.

    An encoder ordinal counts in base M over r digits and a decoder ordinal
    in base k over M digits, first digit most significant.  Encoder ordinals
    come sorted, so each encoder's tuple is repeated over its run; equal
    decoders share one tuple.
    """
    def tuples(ordinals, base, length):
        return list(zip(*(d.tolist() for d in np.unravel_index(ordinals, (base,) * length))))

    enc = pairs[0]
    firsts = np.flatnonzero(np.diff(enc, prepend=-1))
    runs = np.diff(firsts, append=len(enc)).tolist()
    encoders = itertools.chain.from_iterable(
        map(itertools.repeat, tuples(enc[firsts], m_count, r), runs))
    dec_values, dec_index = np.unique(pairs[1], return_inverse=True)
    decoders = map(tuples(dec_values, k, m_count).__getitem__, dec_index.tolist())
    return tuple(zip(encoders, decoders))
