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
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import oneshot
from .errors import (Count, DegenerateInstanceError, Int, MappingError, NonNegative, Positive,
                     Seq, VerificationError, _check_fields, _checked, _require_size)
from .oneshot import LogLossCode, OneShotCode, _check_work, expected_distortion, solve_avg
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


@dataclass(frozen=True)
class IdentitySweep:
    """The largest identity residual over every code pair, of ``n_codes`` = M^r k^M.

    Both problems' optima are ``verify_optimum_coincidence``'s
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
    """The largest residual of the affine identity over all M^r encoders and k^M decoders.

    Decoding symbol x by kept index j adds w_l(x, j) to a pair's expected
    log loss and w_d(x, j) to its expected distortion, so a pair (f, g) has
    the residual |sum_x e(x, g(f(x))) - C|, with e = w_l - lambda* w_d and
    C = h - lambda* D*.  Under a fixed decoder each symbol picks its message
    freely, so over the encoders the residual's extremes are
    |sum_x max_{j in S} e(x, j) - C| and |sum_x min_{j in S} e(x, j) - C|,
    with S the decoder's set of columns.  A larger S only widens them, and
    every set of t = min(M, k) columns is some decoder's.  So the largest
    residual is the largest of those two over the C(k, t) sets of t
    columns, taken in ``itertools.combinations`` order in chunks of about
    ``oneshot._BLOCK_ENTRIES`` cost entries.  Guarded at ``_DECODER_GUARD``
    cost entries C(k, t) r t; ``identity_bound`` bounds every residual
    without enumerating them.
    """
    r = cp.px.n
    m_count = cp.n_messages
    k = len(cp.y_rows)
    t = min(m_count, k)
    _check_work(math.comb(k, t) * r * t, "column-set cost entries", oneshot._DECODER_GUARD)
    w_d, w_l = _cell_cost_tables(cp)
    lam = cp.lambda_star
    e = w_l - lam * w_d
    offset = cp.h_x_given_xhat - lam * cp.d_star_m
    sets = itertools.combinations(range(k), t)
    step = max(oneshot._BLOCK_ENTRIES // (r * t), 1)
    max_resid = 0.0
    # w_d is finite and w_l lies in [0, inf], so no residual is NaN.
    for chunk in iter(lambda: list(itertools.islice(sets, step)), []):
        cells = e[:, np.array(chunk)]  # cells[x, n, i]: e of x under set n's column i
        for extreme in (cells.max(axis=2), cells.min(axis=2)):
            max_resid = max(max_resid, float(np.abs(extreme.sum(axis=0) - offset).max()))
    return IdentitySweep(n_codes=m_count ** r * k ** m_count, max_residual=max_resid)


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

    whatever the code, so the bound holds at every size.

    The rest is a rounding allowance, so that the bound also dominates the
    residuals as the sweep rounds them, after this function's own rounding.
    Each rounding errs by at most 2^-53 of its result.  With S = sum_x
    max_j w_l + lambda* sum_x max_j w_d + h + lambda* D*, each of the
    sweep's results is at most S, and so is the sum over x of its results
    per symbol.  It forms e in two roundings, a set's sum over x in r - 1
    adds, C = h - lambda* D* in two and the residual in one subtraction:
    r + 4 roundings, at most r + M + 2, as M >= 2 (at M = 1, D* is the
    curve's zero-rate knee, where no corresponding problem is built).
    This function's results are at most 3S, and its roundings add up to at
    most k + 20 times 2^-53 S: k for a row's mean, the rest for e, the
    spreads, the sums over x, the offset and the last adds.
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

    ``verify_optimum_coincidence`` keeps each argmin set as its optimal
    decoders and, under each, every symbol's set of messages.  ``len`` is
    the set's size, counted from those without forming a pair; two sets are
    equal, and hash alike, when their decoders and message sets are; and
    iteration streams the (encoder, decoder) tuples decoder by decoder, in
    product order, each decoder's encoders in ``itertools.product`` order.
    By design a set is no sequence: it has no indexing and equals no tuple
    of pairs, so to compare it with a listing, compare ``sorted`` of it.
    ``min_distortion`` and ``min_loss`` are the nested costs of each side's
    first optimal pair.  ``scored_decoders`` counts the decoders whose
    costs the check formed, over both sides: every decoder's base cost,
    then the message sets of those near the least; it takes no part in
    equality.
    """

    min_distortion: float
    min_loss: float
    distortion_argmin: Iterable
    loss_argmin: Iterable
    matched: bool
    scored_decoders: int = field(compare=False)


class _ArgminSet:
    """(encoder, decoder) pairs: under each decoder, the product of its symbols' message sets.

    ``decoders`` holds the decoders' ordinals in product order, ascending,
    and ``near[n, x, m]`` whether symbol x takes message m under decoder n,
    of ``k`` kept columns.  Two sets are equal when those are.  Iteration
    streams the pairs decoder by decoder, each decoder's encoders in
    ``itertools.product`` order over its symbols' messages.
    """

    __slots__ = ("_decoders", "_near", "_k", "_len")

    def __init__(self, decoders: np.ndarray, near: np.ndarray, k: int):
        self._decoders = decoders
        self._near = near
        self._k = k
        self._len = sum(map(math.prod, near.sum(axis=2).tolist()))

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        decoders = _digit_tuples(self._decoders, self._k, self._near.shape[2])
        for decoder, near in zip(decoders, self._near):
            for encoder in itertools.product(*(np.flatnonzero(row).tolist() for row in near)):
                yield encoder, decoder

    def __eq__(self, other):
        if not isinstance(other, _ArgminSet):
            return NotImplemented
        return (self._k == other._k and np.array_equal(self._decoders, other._decoders)
                and np.array_equal(self._near, other._near))

    def __hash__(self) -> int:
        return hash((self._k, self._near.shape, self._decoders.tobytes(), self._near.tobytes()))


def _digit_tuples(ordinals: np.ndarray, base: int, length: int) -> list:
    """The codes of ``ordinals`` in product order, as tuples of Python ints."""
    return list(zip(*(d.tolist() for d in np.unravel_index(ordinals, (base,) * length))))


def _decoder_costs(w: np.ndarray, decoders: np.ndarray, m_count: int) -> np.ndarray:
    """costs[x, n, m] = w[x, j], with j digit m of decoder ordinal ``decoders[n]``."""
    digits = np.unravel_index(decoders, (w.shape[1],) * m_count)
    return w[:, np.stack(digits, axis=1)]


@_checked
def verify_optimum_coincidence(cp: CorrespondingProblem,
                               atol: NonNegative = _COINCIDENCE_ATOL) -> CoincidenceReport:
    """Find both problems' sets of optimal codes and compare them.

    Decoders range over the kept reconstruction columns (the solved point's
    alphabet); a decoder choice is recorded as its kept-index tuple, which
    names a column on the distortion side and a reverse row on the log-loss
    side.  The two argmin sets must coincide exactly under that naming.

    The sets are counted over decoders, not listed over code pairs.  A pair
    (f, g) costs sum_x w(x, g(f(x))), with w the per-symbol costs of
    ``_cell_cost_tables``.  Under a fixed decoder g each symbol picks its
    message alone, so g's pairs within atol of the optimum are the encoders
    whose gap (g's base cost sum_x min_m w(x, g(m)), less the least base
    cost) plus each symbol's excess w(x, g(f(x))) - min_m w(x, g(m)) is at
    most atol.  A zero-mass symbol costs nothing anywhere, so it takes
    every message.  Each set is kept as its decoders and each symbol's
    messages under them, and the sets coincide when those do.  That is
    O(k^M r M) work, guarded at ``_DECODER_GUARD`` cost entries k^M r M,
    against M^r k^M pairs.

    The exhaustive check compares float costs summed cell by cell, each
    within (r + M) 2^-53 of its exact value, relatively, as is each base
    cost formed here.  So with rho = 16 (r + M) 2^-53 (least base cost +
    atol), a pair whose gap plus excesses, as formed here, is at most
    atol - rho lies within atol of the float optimum, and one above atol +
    rho does not.  A decoder whose gap exceeds atol + rho has no optimal
    pair.  Under every other, a symbol takes the messages of excess at
    most what is left of atol (atol less the gap) plus rho, and the
    decoder's pairs are certified when its gap plus each symbol's largest
    such excess is at most atol - rho.  When some decoder's are not, the
    set is still exact if it is one pair, or one pair and its swap of
    messages 0 and 1: those two cost the same floats, and the float
    optimum lies among them.  Anything else raises VerificationError,
    naming the decoder, its gap and the symbol of largest excess.  At
    atol = 0 this certifies only an optimum unique up to that swap.

    ``min_distortion`` and ``min_loss`` are the nested costs, cells summed
    as the exhaustive check sums them, of each side's first optimal pair:
    the least pair under the decoders within rho / 2 of the least base cost,
    each symbol taking its first message of least cost.  With the rounding
    of both sums that cost lies within rho of the float optimum.
    """
    r = cp.px.n
    m_count = cp.n_messages
    k = len(cp.y_rows)
    _check_work(k ** m_count * r * m_count, "decoder cost entries", oneshot._DECODER_GUARD)
    step = max(oneshot._BLOCK_ENTRIES // (r * m_count), 1)
    every = np.arange(k ** m_count)
    sets, minima, scored = [], [], 0
    for side, w in zip(("distortion", "log-loss"), _cell_cost_tables(cp)):
        base = np.concatenate([_decoder_costs(w, every[i:i + step], m_count).min(axis=2).sum(axis=0)
                               for i in range(0, len(every), step)])
        low = float(base.min())
        rho = 16 * (r + m_count) * 2.0 ** -53 * (low + atol)
        gaps = base - low
        decoders = np.flatnonzero(gaps <= atol + rho)
        scored += len(every) + len(decoders)
        near, dear, best = [], [], []
        for i in range(0, len(decoders), step):
            part = decoders[i:i + step]
            costs = _decoder_costs(w, part, m_count)
            excess = costs - costs.min(axis=2, keepdims=True)
            counted = excess <= (atol - gaps[part] + rho)[:, None]
            near.append(counted.transpose(1, 0, 2))
            dear.append(np.where(counted, excess, 0.0).max(axis=2))
            best.append(costs.argmin(axis=2).T)
        argmin = _ArgminSet(decoders, np.concatenate(near), k)
        dear = np.hstack(dear)  # dear[x, n]: symbol x's dearest message under decoder n
        unsure = np.flatnonzero(gaps[decoders] + dear.sum(axis=0) > atol - rho)
        if len(unsure) and not _one_swap_orbit(argmin):
            n = unsure[0]
            x = int(dear[:, n].argmax())
            symbol = (f" and symbol {x} may take a message {float(dear[x, n])!r} dearer than "
                      f"its best" if dear[x, n] > 0.0 else "")
            raise VerificationError(
                f"the {side} argmin set is not certified at atol {atol!r}: decoder "
                f"{_digit_tuples(decoders[n:n + 1], k, m_count)[0]} lies "
                f"{float(gaps[decoders[n]])!r} above the least cost{symbol}; with its "
                f"symbols' excesses that passes atol less the rounding allowance {rho!r}, so "
                f"rounding or their sum decides which of its pairs are optimal")
        sets.append(argmin)
        tied = gaps[decoders] <= rho / 2
        minima.append(_first_pair_cost(decoders[tied], np.concatenate(best)[tied], w, m_count))
    matched = sets[0] == sets[1]
    return CoincidenceReport(
        min_distortion=minima[0],
        min_loss=minima[1],
        distortion_argmin=sets[0],
        loss_argmin=sets[0] if matched else sets[1],
        matched=matched,
        scored_decoders=scored,
    )


def _one_swap_orbit(argmin: _ArgminSet) -> bool:
    """Whether the set is one pair, or one pair and its swap of messages 0 and 1.

    The set holds the swap of each of its pairs, which exchanges two
    messages' columns and their symbols' excesses.  So two pairs are one
    pair and its swap unless the swap fixes both: no symbol in message 0
    or 1, and one column for both.
    """
    n_dec, r, m_count = argmin._near.shape
    if len(argmin) != 2 or m_count == 1:
        return len(argmin) == 1
    digits = np.unravel_index(argmin._decoders, (argmin._k,) * m_count)
    return bool(argmin._near[:, :, :2].any() or (digits[0] != digits[1]).any())


def _first_pair_cost(decoders: np.ndarray, messages: np.ndarray, w: np.ndarray,
                     m_count: int) -> float:
    """The cost of the least pair (``messages[n]``, decoder ``decoders[n]``), nested.

    Each cell is summed in x order, then ((cell 0 + cell 1) + ...), as the
    exhaustive check sums a pair.
    """
    n = np.lexsort((decoders,) + tuple(messages[:, ::-1].T))[0]
    dec = _digit_tuples(decoders[n:n + 1], w.shape[1], m_count)[0]
    cells = [0.0] * m_count
    for x, m in enumerate(messages[n].tolist()):
        cells[m] += w[x, dec[m]]
    return float(reduce(np.add, cells))
