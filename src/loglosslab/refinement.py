"""Successive refinement under logarithmic loss, and time-sharing baselines.

A source compressed for a fine log-loss target D2 can serve a coarser
decoder at any D1 between H(X | Xhat*) and H(X) without redesign: pass the
fine reconstruction through an erasure channel whose erasure weight delta
solves

    (1 - delta) H(X | Xhat*) + delta H(X) = D1,

and decode the result by the posterior of the source given what survived.
The coarse decoder then sits exactly on the log-loss curve at D1.  Chains of
nested erasures serve any number of decoders at once.  The time-sharing
simulator realizes the same curve operationally for i.i.d. blocks: describe a
prefix losslessly, say nothing about the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import (Count, Finite, InfeasibleError, NonNegative, Positive, Real, Seed, Seq,
                     VerificationError, _check_fields, _checked, _clamp_target, _require_order,
                     _require_size)
from .probability import (
    Channel,
    Check,
    Joint,
    Pmf,
    _decoder_fit,
    _information,
    conditional_entropy,
    entropy,
    joint_from_source_and_channel,
)
from .oneshot import _SAMPLE_GUARD, _check_work
from .ratedistortion import _DEFAULT_TOL, RdPoint, SourceProblem, _rd_point

__all__ = [
    "ERASURE",
    "ROW_MERGE_TOL",
    "SrConstruction",
    "SrReport",
    "construct_sr",
    "construct_sr_chain",
    "chain_step_channel",
    "verify_sr",
    "TimeshareReport",
    "timeshare_simulate",
    "timeshare_two_decoders",
]

# Label of the erased output in z_labels.
ERASURE = "erasure"
# Posterior rows closer than this in max norm are identified.
ROW_MERGE_TOL = 1e-9
# Default tolerance of each of verify_sr's checks.
_SR_CHECK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SrConstruction:
    """A coarse decoder built on top of a solved fine-stage point.

    ``z_alphabet`` lists the coarse observation alphabet: one label per kept
    reconstruction column (its original index) plus ``ERASURE``.
    ``pz_given_xhat`` rows follow kept order; its last output column is the
    erasure.  ``q_rows`` are the coarse reproductions (posteriors of the
    source given the observation, merged when they coincide within
    ``ROW_MERGE_TOL``), and ``q_index`` maps ``ERASURE`` and each kept
    label of positive probability to its row.  ``rates`` is (coarse rate,
    fine rate) in nats.
    """

    problem: SourceProblem
    second_point: RdPoint
    d1: float
    d2: float
    delta: float
    z_alphabet: tuple
    pz_given_xhat: Channel
    q_rows: tuple[Pmf, ...]
    q_index: dict
    rates: tuple[float, float]

    __post_init__ = _check_fields

    @property
    def px(self) -> Pmf:
        return self.problem.px


def _erasure_weight(name: str, d1: float, h: float, h2: float) -> float:
    """Solve (1 - delta) h2 + delta h = d1 for delta in [0, 1]."""
    span = h - h2
    if span <= 1e-12:
        # Zero-rate fine stage: the mixture cannot move, so only d1 = h works.
        if abs(d1 - h) <= 1e-9:
            return 1.0
        raise InfeasibleError(
            f"{name} = {d1!r} unreachable: the fine stage already sits "
            f"at H(X) = {h!r}"
        )
    return (_clamp_target(name, d1, h2, h) - h2) / span


def _erasure_rows(k: int, keep: float, erase: float) -> np.ndarray:
    """k rows passing symbol j with weight keep, erasing it (last column) with erase."""
    return np.column_stack([keep * np.eye(k), np.full(k, erase)])


def _joint3(c: SrConstruction) -> np.ndarray:
    """P(x, xhat, z) of a construction, rebuilt from its source and channels."""
    return (c.problem.px.probs[:, None, None] * c.second_point.forward.rows[:, :, None]
            * c.pz_given_xhat.rows[None, :, :])


def _sr_layers(problem: SourceProblem, targets: list[tuple[str, float]],
               fine: tuple[str, float], tol: float) -> list[SrConstruction]:
    """One layer per (argument name, coarse target), all on one fine point.

    ``fine`` is the (argument name, target) of the fine stage.  Each layer's
    H(X | Z), from its joint alone and so independent of its q rows, must
    meet its target within 1e-9.
    """
    fine_name, d2 = fine
    point = _rd_point(fine_name, problem, d2, tol)
    h = entropy(problem.px)
    h2 = conditional_entropy(joint_from_source_and_channel(problem.px, point.forward))
    k = len(point.kept_columns)
    labels = tuple(point.kept_columns) + (ERASURE,)
    m = point.output_marginal.probs
    layers = []
    for name, d1 in targets:
        delta = _erasure_weight(name, d1, h, h2)
        pz_marg = np.concatenate(((1.0 - delta) * m, [delta]))

        # Posterior of the source given each observation: a surviving
        # reconstruction pins its reverse row, an erasure reveals nothing.  A
        # kept column of zero probability gets no row; the erasure always gets
        # px, also at delta = 0, so the row count does not hang on the sign of
        # a rounding error.  Near-equal rows merge to their probability-weighted
        # mean, so merged rows stay exact posteriors of the merged event.
        reps: list[np.ndarray] = []
        weights: list[float] = []
        q_index: dict = {}
        for z in range(k + 1):
            if z < k and pz_marg[z] <= 0.0:
                continue
            row = point.reverse.rows[z] if z < k else problem.px.probs
            w = float(pz_marg[z])
            for g, rep in enumerate(reps):
                if float(np.max(np.abs(row - rep))) <= ROW_MERGE_TOL:
                    total = weights[g] + w
                    reps[g] = (weights[g] * rep + w * row) / total
                    weights[g] = total
                    q_index[labels[z]] = g
                    break
            else:
                reps.append(np.array(row))
                weights.append(w)
                q_index[labels[z]] = len(reps) - 1

        layer = SrConstruction(
            problem=problem,
            second_point=point,
            d1=d1,
            d2=d2,
            delta=delta,
            z_alphabet=labels,
            pz_given_xhat=Channel(_erasure_rows(k, 1.0 - delta, delta)),
            q_rows=tuple(Pmf(rep) for rep in reps),
            q_index=q_index,
            rates=(h - d1, point.rate),
        )
        gap = abs(conditional_entropy(Joint(_joint3(layer).sum(axis=1))) - d1)
        if gap > 1e-9:
            raise VerificationError(
                f"layer at {name} = {d1!r} misses its conditional entropy "
                f"target by {gap:.3e}"
            )
        layers.append(layer)
    return layers


@_checked
def construct_sr(problem: SourceProblem, d1: Finite, d2: Finite,
                 tol: Positive = _DEFAULT_TOL) -> SrConstruction:
    """Build the two-decoder construction for coarse d1 on top of fine d2.

    Args:
        problem: source pmf and fine-stage distortion matrix.
        d1: coarse log-loss target, feasible in [H(X | Xhat*), H(X)].
        d2: fine-stage distortion target on the problem's own measure.
        tol: distortion tolerance of the fine-stage curve solve.

    Raises:
        ValidationError: d1 or d2 is not a finite real.
        InfeasibleError: d1 or d2 outside its feasible interval (stated in
            the message; 1e-12 slack).
    """
    return _sr_layers(problem, [("d1", d1)], ("d2", d2), tol)[0]


@_checked
def construct_sr_chain(problem: SourceProblem, ds: Annotated[tuple, Seq(Real(), nonempty=True)],
                       d_final: Finite, tol: Positive = _DEFAULT_TOL) -> list[SrConstruction]:
    """One construction per coarse target, nested along a Markov chain.

    ``ds`` must be non-empty and non-increasing (coarsest first; 1e-12
    slack); every layer shares the same solved fine-stage point, and erasure
    weights are non-increasing along the list, so the layers compose into a
    physical chain of incremental erasure channels (see
    :func:`chain_step_channel`).  A single-entry list reduces to
    :func:`construct_sr`.
    """
    ds = [float(d) for d in ds]
    for i in range(1, len(ds)):
        _require_order(f"ds[{i}]", ds[i], f"ds[{i - 1}]", ds[i - 1])
    return _sr_layers(problem, [(f"ds[{i}]", d) for i, d in enumerate(ds)], ("d_final", d_final),
                      tol)


@_checked
def chain_step_channel(coarse: SrConstruction, fine: SrConstruction) -> Channel:
    """The incremental erasure channel from the fine layer's Z to the coarse one's.

    Composing it after the fine layer's observation channel reproduces the
    coarse layer's exactly: surviving symbols are re-erased with the
    conditional weight, erasures stay erased.  The layers must share an
    observation alphabet, and the fine layer's erasure weight may exceed the
    coarse one's by at most 1e-12.
    """
    _require_size("fine.z_alphabet", fine.z_alphabet, "coarse.z_alphabet", coarse.z_alphabet)
    _require_order("fine.delta", fine.delta, "coarse.delta", coarse.delta)
    k = len(coarse.z_alphabet) - 1
    if fine.delta >= 1.0:
        keep = 0.0  # fine layer is all-erasure; the pass branch is unreachable
    else:
        keep = min(max((1.0 - coarse.delta) / (1.0 - fine.delta), 0.0), 1.0)
    return Channel(np.vstack([_erasure_rows(k, keep, 1.0 - keep), np.eye(1, k + 1, k)]))


@dataclass(frozen=True)
class SrReport:
    """Six named checks; ``ok`` only when every check passes."""

    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


@_checked
def verify_sr(c: SrConstruction, tol: NonNegative = _SR_CHECK_TOL) -> SrReport:
    """Re-derive every promised property of a construction from its joint.

    Checks, in order: the three-variable joint factorizes through the chain
    (Markov), the coarse decoder sits on the log-loss curve at d1 (rate and
    expected loss), the fine stage sits at its solved rate with distortion
    within d2, and each reproduction row equals the posterior of the source
    given its merged observation event.
    """
    kept = list(c.second_point.kept_columns)
    joint3 = _joint3(c)

    total_residual = abs(float(joint3.sum()) - 1.0)
    p_xj = joint3.sum(axis=2)
    p_jz = joint3.sum(axis=0)
    p_j = p_xj.sum(axis=0)
    markov_residual = float(
        np.max(np.abs(joint3 * p_j[None, :, None]
                      - p_xj[:, :, None] * p_jz[None, :, :]))
    )
    check_a = max(total_residual, markov_residual)

    # Collapse (x, z) onto merged observation groups.
    p_xz = joint3.sum(axis=1)
    t = np.zeros((p_xz.shape[0], len(c.q_rows)))
    for z, label in enumerate(c.z_alphabet):
        if label in c.q_index:
            t[:, c.q_index[label]] += p_xz[:, z]

    mi_xq, loss, check_f = _decoder_fit(t, c.q_rows)
    check_b = abs(mi_xq - (entropy(c.problem.px) - c.d1))
    check_c = abs(loss - c.d1) if math.isfinite(loss) else math.inf

    # X's marginal summed from t: p_xj's sums round differently and would
    # move the reported fine_rate residual.
    mi_xxhat = _information(p_xj, t.sum(axis=1), p_j)
    check_d = abs(mi_xxhat - c.second_point.rate)

    e_d2 = float((p_xj * c.problem.distortion[:, kept]).sum())
    check_e = max(e_d2 - c.d2, 0.0)

    return SrReport(tuple(Check(name, value, tol) for name, value in [
        ("markov_factorization", check_a),
        ("coarse_rate", check_b),
        ("coarse_loss", check_c),
        ("fine_rate", check_d),
        ("fine_distortion", check_e),
        ("posterior_rows", check_f),
    ]))


@dataclass(frozen=True)
class TimeshareReport:
    """Outcome of one simulated time-sharing block."""

    n: int
    lossless_prefix: int
    empirical_loss: float
    ideal_rate: float
    seed: int


def _prefix_length(h: float, d: float, n: int) -> int:
    if h == 0.0:
        return n  # degenerate point-mass source; nothing to describe
    return int(round(n * (h - d) / h))


# The sampler holds at most this many samples at once.
_CHUNK = 1 << 15
# Buckets of the symbol table over [0, 1).  A power of two, so the bucket
# holding a sample is the top bits of its raw 64-bit draw.
_BUCKETS = 4096


def _cost_sampler(p: np.ndarray, rng: np.random.Generator):
    """Return draw(m): the code lengths of the next m <= _CHUNK samples.

    Each call returns a view of one reused buffer, valid until the next call.

    The samples are those of ``rng.choice(len(p), size, p=p)``, which draws
    ``u = rng.random(size)`` and returns ``cdf.searchsorted(u, "right")``
    with ``cdf = p.cumsum() / p.cumsum()[-1]``.  With ``default_rng``'s
    PCG64, ``rng.random`` makes each u from one raw 64-bit draw of the bit
    generator as (raw >> 11) * 2^-53,
    so u's bucket floor(u * _BUCKETS) is the raw draw's top bits, and the
    raw draws, taken in consecutive pieces, give the stream of one call.
    A bucket of [0, 1) with no cdf value strictly inside it holds a single
    symbol, so a table maps it straight to that symbol's cost; only the at
    most len(p) - 1 other buckets need the search, on u made as
    ``rng.random`` makes it.  The table holds -1.0 for those, so one gather
    finds both the costs and the samples to search: a cost -ln p is at
    least -0.0 (a mass of exactly 1), which is not < 0.
    Code lengths come from the table -ln p, so each equals
    ``-np.log(p[x])`` bit for bit.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    cost = np.zeros_like(p)
    live = p > 0.0
    cost[live] = -np.log(p[live])
    lo = np.arange(_BUCKETS) / _BUCKETS
    first = cdf.searchsorted(lo, side="right")
    bucket_cost = cost[first]
    bucket_cost[cdf.searchsorted(lo + 1.0 / _BUCKETS, side="left") > first] = -1.0

    bucket_shift = 64 - (_BUCKETS.bit_length() - 1)  # the top log2(_BUCKETS) bits
    bucket = np.empty(_CHUNK, dtype=np.intp)
    lengths = np.empty(_CHUNK)

    def draw(m: int) -> float:
        raw = rng.bit_generator.random_raw(m)
        # Every bucket lies in [0, _BUCKETS), so "clip" never clips.
        np.right_shift(raw, bucket_shift, out=bucket[:m], casting="unsafe")
        np.take(bucket_cost, bucket[:m], out=lengths[:m], mode="clip")
        i = np.flatnonzero(lengths[:m] < 0.0)
        lengths[i] = cost[cdf.searchsorted((raw[i] >> 11) * 2.0 ** -53, side="right")]
        return lengths[:m]

    return draw


def _timeshare(px: Pmf, targets: list[tuple[str, float]], n: int,
               seed: int) -> list[TimeshareReport]:
    """One report per (argument name, target) on the block of (seed, n).

    Each target's feasibility, under its argument name, and the guard are
    checked before any draw.  The block is drawn in chunks of ``_CHUNK``
    samples on a grid from sample 0, and each chunk is reduced once by numpy;
    a target whose prefix ends inside a chunk reduces the chunk's two runs
    instead.  A report's sums are ``math.fsum`` of its chunk sums, exactly
    rounded, so they hang neither on the order the chunks come in nor on
    how the block is split.  The block is split at s, the chunk edge nearest
    n/2, when each part holds two chunks: the caller draws [0, s) while one
    worker thread draws [s, n) from the same PCG64 stream advanced by s.
    """
    h = entropy(px)
    ds = [_clamp_target(name, d, 0.0, h) for name, d in targets]
    # Each target sums all n code lengths, though the block is drawn once.
    _check_work(len(targets) * n, "samples", _SAMPLE_GUARD)
    ks = [_prefix_length(h, d, n) for d in ds]
    s = (n + _CHUNK) // (2 * _CHUNK) * _CHUNK  # the chunk edge nearest n/2
    if min(s, n - s) < 2 * _CHUNK:
        s = n

    # Each target's (prefix, rest) chunk sums; both parts append to them, in any order.
    sums = [([], []) for _ in ks]

    def part(start: int, stop: int) -> None:
        draw = _cost_sampler(px.probs, np.random.Generator(np.random.PCG64(seed).advance(start)))
        for a in range(start, stop, _CHUNK):
            b = min(a + _CHUNK, stop)
            lengths = draw(b - a)
            whole = np.add.reduce(lengths)
            for k, (prefix, rest) in zip(ks, sums):
                if a < k < b:
                    prefix.append(np.add.reduce(lengths[:k - a]))
                    rest.append(np.add.reduce(lengths[k - a:]))
                else:
                    (prefix if b <= k else rest).append(whole)

    if s < n:
        # Imported here: concurrent.futures imports logging, ~5 ms on every start-up.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(1) as pool:  # leaving the block joins the worker
            future = pool.submit(part, s, n)
            part(0, s)
        future.result()  # raises the worker's error
    else:
        part(0, n)
    return [TimeshareReport(n=n, lossless_prefix=k, empirical_loss=math.fsum(rest) / n,
                            ideal_rate=math.fsum(prefix) / n, seed=seed)
            for k, (prefix, rest) in zip(ks, sums)]


@_checked
def timeshare_simulate(px: Pmf, d: Finite, n: Count, seed: Seed) -> TimeshareReport:
    """Simulate one block of the prefix-lossless time-sharing scheme.

    The first k = round(n (H - D) / H) symbols are described exactly (the
    decoder's reproduction is a point mass, loss 0) and the rest not at all
    (reproduction px, loss -ln px(x)).  The sample stream is that of one
    ``numpy.random.default_rng(seed).choice(px.n, n, p=px.probs)`` call, but
    the block is drawn in chunks of 2^15 samples on a grid from sample 0, so
    memory does not grow with n: it is the chunks of at most two samplers.
    Each chunk is summed with numpy, over its two runs where the prefix ends
    inside it, and each of the two sums is ``math.fsum`` of its chunk sums,
    divided by n, so no split of the block moves it; it can differ from
    numpy's one sum over the same lengths in the last bits.  When the chunk
    edge s nearest n/2 leaves two chunks on each side, the block is drawn in
    two parts at once: the calling thread draws samples [0, s) and one
    worker thread draws [s, n) from ``numpy.random.PCG64(seed)`` advanced by
    s.  The worker is joined before the call returns, and an exception it
    raises is raised here.  Blocks are reproducible given (seed, n), and the
    two-decoder variant sees the same sample.

    Raises:
        ValidationError: n not an integer >= 1, d not a finite real, or seed
            not an integer >= 0.
        InfeasibleError: d outside [0, H(X)] (1e-12 slack).
        InstanceTooLargeError: n above 10^9 samples.
    """
    return _timeshare(px, [("d", d)], n, seed)[0]


@_checked
def timeshare_two_decoders(px: Pmf, d1: Finite, d2: Finite, n: Count,
                           seed: Seed) -> tuple[TimeshareReport, TimeshareReport]:
    """One encoding, two decoders: the coarse one reads a shorter prefix.

    Requires d2 <= d1 so the coarse prefix is a prefix of the fine one.  The
    block is drawn once for both decoders, on the chunks and the split of
    ``timeshare_simulate``; each chunk is summed once for both, and again
    over its two runs for a decoder whose prefix ends inside it.  The sums
    are exactly rounded sums of chunk sums, so each report equals the
    single-decoder simulation at its own distortion.  Memory is the two
    samplers' chunks.

    Raises:
        ValidationError: d1 or d2 not a finite real, d2 above d1 by over
            1e-12, n not an integer >= 1, or seed not an integer >= 0.
        InfeasibleError: d1 or d2 outside [0, H(X)] (1e-12 slack).
        InstanceTooLargeError: the two decoders' 2n summed code lengths
            above 10^9.
    """
    _require_order("d2", d2, "d1", d1)
    return tuple(_timeshare(px, [("d1", d1), ("d2", d2)], n, seed))
