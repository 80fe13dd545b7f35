"""Informational rate-distortion solver for finite alphabets.

:func:`rd_at_distortion` solves R(D) at a target distortion D by
alternating minimization (Blahut-Arimoto) in Blahut's (1972) parametric
form.  Every iteration re-solves the slope ``lam`` for E[d] = D; at that
slope the Lagrangian

    F = I(X; Xhat) + lam * E[d(X, Xhat)]

falls under the forward-channel update (rows proportional to
``marginal * exp(-lam * d)``) followed by the pushforward of the output
marginal.  Plain iteration crawls where a column enters or leaves the
optimal support, so a Newton solve of the stationarity conditions tries
to finish at iteration 2, then every ``_POLISH_EVERY`` iterations; it is
accepted only when every column off its support passes Blahut's
exclusion test t_j <= 1.  Each column of its seed may take one Newton
step to leave, so the attempt at iteration 2 can finish even from a seed
that keeps every column.  Where the polish cannot finish, e.g. at a
target on the D_min of a sub-support, where the support it needs cannot
meet the target, the solve stops instead at the first iterate after a
failed attempt whose rate lies within the certificate tol of Blahut's
lower bound on R(D); a budget of one iteration checks its one iterate so.
Rates are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import (Array, ConvergenceError, Count, Finite, Int, NonNegative, Positive, Real,
                     Seq, ValidationError, _check_fields, _checked, _clamp_target, _require_size)
from .probability import (
    Channel,
    Check,
    Pmf,
    _decoder_fit,
    conditional_entropy,
    entropy,
    joint_from_source_and_channel,
)

__all__ = [
    "PRUNE_EPS",
    "COLUMN_MATCH_TOL",
    "SourceProblem",
    "hamming_distortion",
    "distortion_bounds",
    "RdDiagnostics",
    "RdPoint",
    "rd_at_distortion",
    "rd_curve",
    "tilted_information",
    "verify_csiszar_identity",
    "logloss_rd",
    "Lemma1Report",
    "verify_lemma1",
]

# Reconstruction columns below this output-marginal mass are discarded.
PRUNE_EPS = 1e-9
# Default distortion tolerance of an R(D) point, here and in the CLI's --tol.
_DEFAULT_TOL = 1e-8
# Default iteration budget of an R(D) point's solve, here and in the CLI's --max-iter.
_DEFAULT_MAX_ITER = 300_000
# Distortion columns that agree entrywise within this are considered identical.
COLUMN_MATCH_TOL = 1e-12
# A solve tries to finish with a Newton polish at iteration 2, then at every
# multiple of this.  Not at 1: polishing the first iterate gains nothing and
# moves the bits of most points; a budget of one iteration ends only on the
# first iterate's duality gap.
_POLISH_EVERY = 16
# Newton steps one slope match may take; a polish attempt may take one more
# for every column of its seed, since a step removes at most one column.
_NEWTON_STEPS = 60
# Stationarity residual at which a polish counts as converged, per unit of
# lam * max d: the tilt exp(-lam d) carries that much relative rounding.
_POLISH_RESIDUAL = 1e-13
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# The LAPACK least-squares gufunc behind np.linalg.lstsq (numpy >= 2.0), or
# None where numpy has no gufunc of this form: _lstsq then calls lstsq.
_LSTSQ = getattr(getattr(np.linalg, "_umath_linalg", None), "lstsq", None)
_LSTSQ = (_LSTSQ if getattr(_LSTSQ, "signature", None)
          == "(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)" else None)


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(a, b, rcond=None)[0]`` for a square float a.

    Calls the LAPACK gufunc that function calls, with its rcond of eps * n,
    so the bits are the same; what is skipped is the wrapper's type checks,
    reshaping and errstate, about half the cost of a 5 x 5 solve.  Unlike
    the wrapper, a call whose SVD does not converge returns NaN rather
    than raising LinAlgError.
    """
    if _LSTSQ is None:
        return np.linalg.lstsq(a, b, rcond=None)[0]
    return _LSTSQ(a, b[:, None], _EPS * a.shape[0], signature="ddd->ddid")[0][:, 0]


def _first_close_pair(vectors: np.ndarray, tol: float) -> tuple[int, int] | None:
    """The first rows a < b of ``vectors`` within ``tol`` in max norm, or None.

    Pairs come in order of a, then of b.
    """
    for a in range(vectors.shape[0] - 1):
        close = np.flatnonzero(np.abs(vectors[a + 1:] - vectors[a]).max(axis=1) <= tol)
        if close.size:
            return a, a + 1 + int(close[0])
    return None


@_checked
def hamming_distortion(r: Count) -> np.ndarray:
    """r x r 0/1 distortion matrix: free on the diagonal, unit cost elsewhere."""
    return 1.0 - np.eye(r)


@dataclass(frozen=True, eq=False)
class SourceProblem:
    """A source pmf together with a finite nonnegative distortion matrix.

    Rows index source symbols, columns reconstruction symbols.  Two columns
    that coincide entrywise within ``COLUMN_MATCH_TOL`` are rejected: they
    describe the same reconstruction twice and break row-distinctness
    guarantees downstream.
    """

    px: Pmf
    distortion: Annotated[np.ndarray, Array(2)]

    def __post_init__(self):
        _check_fields(self, _check_columns)

    @property
    def n_source(self) -> int:
        return self.px.n

    @property
    def n_reconstruction(self) -> int:
        return self.distortion.shape[1]


def _check_columns(problem: SourceProblem) -> None:
    """Refuse a distortion matrix without a row per source symbol, or with two equal columns."""
    _require_size("len(distortion)", len(problem.distortion), "px.n", problem.px.n)
    same = _first_close_pair(problem.distortion.T, COLUMN_MATCH_TOL)
    if same is not None:
        a, b = same
        raise ValidationError(f"distortion columns {a} and {b} are identical")


@_checked
def distortion_bounds(problem: SourceProblem) -> tuple[float, float]:
    """(D_min, D_max): best achievable expectation and the zero-rate knee.

    D_min pairs every symbol with its cheapest column; D_max is the best
    single-column expectation, beyond which the curve is flat at rate 0.
    """
    px = problem.px.probs
    dist = problem.distortion
    d_min = float(px.dot(np.minimum.reduce(dist, 1)))
    d_max = float(np.minimum.reduce(px.dot(dist)))
    return d_min, d_max


@dataclass(frozen=True, eq=False)
class _RawBa:
    """A solved point on support rows; the marginal is zero off its support."""

    forward: np.ndarray
    marginal: np.ndarray
    distortion: float
    rate: float
    lam: float
    iterations: int
    drops: int = 0


def _rate_of(pxp: np.ndarray, fwd: np.ndarray, m: np.ndarray) -> float:
    # sum px(x) fwd(j|x) ln(fwd(j|x) / m(j)) with 0 ln 0 = 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        term = fwd * (np.log(fwd) - np.log(m))
    term = np.where(fwd > 0.0, term, 0.0)
    return max(float(pxp.dot(np.add.reduce(term, 1))), 0.0)


def _tilt(pxp: np.ndarray, expd: np.ndarray,
          q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row sums z, forward channel, output marginal) of the tilt of q by expd."""
    weighted = expd * q
    z = np.add.reduce(weighted, 1)
    fwd = weighted / z[:, None]
    return z, fwd, pxp.dot(fwd)


def _dual_gap(pxp: np.ndarray, expd: np.ndarray, z: np.ndarray, fwd: np.ndarray,
              m: np.ndarray, lam: float, target: float) -> float:
    """Rate of an iterate at E[d] = target less Blahut's lower bound on R.

    Blahut (1972), Thm 7: for any slope and marginal q with row sums z_x and
    scores t_j = sum_x px exp(-lam d_xj) / z_x over every column,
    R(target) >= -lam target - sum_x px ln z_x - ln max_j t_j.
    """
    t = pxp.dot(expd / z[:, None])
    bound = -lam * target - float(pxp.dot(np.log(z))) - math.log(float(np.maximum.reduce(t)))
    return _rate_of(pxp, fwd, m) - bound


def _match_slope(pxp: np.ndarray, dist_s: np.ndarray, q: np.ndarray,
                 target: float, lam: float) -> tuple[float, np.ndarray]:
    """The slope at which the tilt of q meets E[d] = target, and its tilt.

    dE/dlam = -sum_x px Var_x(d), so Newton steps from the previous slope
    land in one or two steps; a step leaving the bracket known so far is
    replaced by bisection, or by doubling while the bracket is unbounded.
    ``dist_s`` and ``target`` are shifted by the row minima.  Callers run
    it under ``np.errstate(invalid="ignore")``: a row that underflows gives
    NaN, read as a slope too large.
    """
    lo, hi = 0.0, math.inf
    step = max(lam, 0.0)
    for _ in range(_NEWTON_STEPS):
        lam = step
        expd = np.exp(-lam * dist_s)
        w = expd * q
        w /= np.add.reduce(w, 1, keepdims=True)
        mean = np.add.reduce(w * dist_s, 1)
        excess = float(pxp.dot(mean)) - target
        if excess > 0.0:
            lo = lam
        else:
            hi = lam
        if abs(excess) <= 1e-13 * target:
            break
        dev = dist_s - mean[:, None]
        w *= dev
        w *= dev
        var = float(pxp.dot(np.add.reduce(w, 1)))
        step = lam + excess / var if var > 0.0 else math.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * lam + 1.0
    return lam, expd


@dataclass(frozen=True, eq=False)
class _Merit:
    """A point of the polish: marginal q on support ``sup`` (its columns
    ``ds``), the slope matched to it, its tilt ``e``, row sums ``z`` and
    merit ``value``.  A support that cannot meet the target has value
    +inf and no tilt."""

    q: np.ndarray
    sup: np.ndarray
    ds: np.ndarray
    lam: float
    e: np.ndarray | None
    z: np.ndarray | None
    value: float


def _merit(pxp: np.ndarray, dist_s: np.ndarray, target: float, q: np.ndarray, lam: float,
           sup: np.ndarray | None = None, ds: np.ndarray | None = None) -> _Merit:
    """The merit sum_j q_j - sum_x px ln z_x - lam target at q, the slope
    re-matched from lam.  A step that keeps the support passes it and its
    columns, which are known to meet the target."""
    if sup is None:
        sup = np.flatnonzero(q > 0.0)
        ds = dist_s[:, sup]
        if float(pxp.dot(np.minimum.reduce(ds, 1))) >= target:
            return _Merit(q, sup, ds, lam, None, None, math.inf)
    qs = q[sup]
    lam, e = _match_slope(pxp, ds, qs, target, lam)
    z = e.dot(qs)
    value = float(np.add.reduce(q) - pxp.dot(np.log(z)))
    return _Merit(q, sup, ds, lam, e, z, value - lam * target)


def _newton_system(pxp: np.ndarray, target: float, d_top: float,
                   cur: _Merit) -> tuple[np.ndarray, np.ndarray, float]:
    """(Jacobian, residual, residual norm) of the stationarity conditions
    at cur: t_j = 1 on the support, bordered by E[d] = target in the slope.
    The distortion residual is measured in units of d_top."""
    qs = cur.q[cur.sup]
    scores = cur.e / cur.z[:, None]
    k = cur.sup.size
    res = np.empty(k + 1)
    jac = np.empty((k + 1, k + 1))
    res[:k] = pxp.dot(scores) - 1.0
    jac[:k, :k] = (scores * pxp[:, None]).T.dot(scores)
    w = scores * qs
    mean = np.add.reduce(w * cur.ds, 1)
    dev = cur.ds - mean[:, None]
    w *= dev
    w *= dev
    excess = float(pxp.dot(mean)) - target
    jac[k, :k] = jac[:k, k] = pxp.dot(scores * dev)
    jac[k, k] = -float(pxp.dot(np.add.reduce(w, 1)))
    res[k] = -excess
    return jac, res, max(float(np.maximum.reduce(np.abs(res[:k]))), abs(excess) / d_top)


def _newton_step(pxp: np.ndarray, dist_s: np.ndarray, target: float, cur: _Merit,
                 jac: np.ndarray, res: np.ndarray, err: float) -> _Merit | None:
    """The point one Newton step from cur, or None if the merit rises all
    along it.

    Near a face of optima the system is (nearly) singular: least squares
    solves what it can, and the rest lies along the face, where the merit
    is linear, so the step walks that way to the edge of the support.  It
    stops where the first column reaches zero, which leaves the support,
    and is halved until the merit does not rise, which keeps a far seed on
    course.
    """
    qs = cur.q[cur.sup]
    delta = _lstsq(jac, res)
    rest = res - jac.dot(delta)
    rest_top = np.maximum.reduce(np.abs(rest))
    if rest_top > 0.5 * err:
        delta += rest * (np.maximum.reduce(qs) / rest_top)
    dq = delta[:-1]
    reach = np.where(dq < 0.0, -qs / dq, math.inf)
    first = float(np.minimum.reduce(reach))
    step = min(1.0, first)
    for _halving in range(50):
        q_try = cur.q.copy()
        moved = qs + step * dq
        lam_try = cur.lam + step * float(delta[-1])
        if step < first and np.minimum.reduce(moved) > 0.0:  # the support stays
            q_try[cur.sup] = moved
            trial = _merit(pxp, dist_s, target, q_try, lam_try, cur.sup, cur.ds)
        else:
            q_try[cur.sup] = np.where(reach <= step, 0.0, moved)
            trial = _merit(pxp, dist_s, target, q_try, lam_try)
        if trial.value <= cur.value + 1e-14 * max(1.0, abs(cur.value)):
            return trial
        step *= 0.5
    return None


def _polish(pxp: np.ndarray, dist_s: np.ndarray, q_seed: np.ndarray, lam: float,
            target: float, tol: float) -> tuple[np.ndarray, float, int] | None:
    """Newton solve of the stationarity conditions, seeded by an iterate.

    On a support S: t_j = 1 for j in S, t_j = sum_x px exp(-lam d_xj) / z_x
    being the exclusion score, and E[d] = target.  These make the convex
    merit sum_j q_j - sum_x px ln z_x - lam target, maximized over the
    slope, stationary; its q-Hessian is the Gram matrix of the scores.
    The parts run in this order:
    - ``_merit`` evaluates the start, S = {q_seed >= PRUNE_EPS}, and then
      every trial point, with the slope re-matched to its support;
    - ``_newton_system`` forms the bordered system and its residual at
      the current point;
    - once the residual closes, the loop owns the support: a column
      settling below PRUNE_EPS is pruned unless the rest cannot meet the
      target; after one more step, the highest-scoring column off S that
      was never pruned re-enters if it scores above 1 + 10 tol, and if
      none does, the polish returns;
    - otherwise ``_newton_step`` moves the point, and a column it drives
      to zero leaves S.  A step removes at most one column, so the step
      budget grows by one per column of S.
    Returns (q, lam, support reductions), or None if the seed's support
    cannot meet the target, a step cannot keep the merit from rising, or
    the budget runs out.

    The whole solve runs in one ``np.errstate`` scope that ignores divide,
    over and invalid: a row sum that vanishes reads as an infinite merit, a
    vanishing step component as an infinite reach, and a row that underflows
    in a slope match as a slope too large.
    """
    d_top = max(float(np.maximum.reduce(dist_s, None)), 1.0)
    pruned = np.zeros(q_seed.size, dtype=bool)
    drops = 0
    closed = False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cur = _merit(pxp, dist_s, target, np.where(q_seed >= PRUNE_EPS, q_seed, 0.0), lam)
        if not math.isfinite(cur.value):  # the target needs a column below PRUNE_EPS
            return None
        for _ in range(_NEWTON_STEPS + cur.sup.size):
            jac, res, err = _newton_system(pxp, target, d_top, cur)
            if err < _POLISH_RESIDUAL * max(1.0, cur.lam * d_top):
                small = cur.sup[cur.q[cur.sup] < PRUNE_EPS]
                if small.size:
                    q_cut = cur.q.copy()
                    q_cut[small] = 0.0
                    cut = _merit(pxp, dist_s, target, q_cut, cur.lam)
                    if math.isfinite(cut.value):  # the rest still meets the target
                        cur = cut
                        pruned[small] = True
                        drops += 1
                        closed = False
                        continue
                if closed:
                    expd = np.exp(-cur.lam * dist_s)
                    t = np.where(pruned | (cur.q > 0.0), 0.0, pxp.dot(expd / cur.z[:, None]))
                    j = int(np.argmax(t))
                    if t[j] <= 1.0 + 10.0 * tol:
                        return cur.q, cur.lam, drops
                    q = cur.q.copy()
                    q[j] = PRUNE_EPS
                    cur = _merit(pxp, dist_s, target, q, cur.lam)
                    closed = False
                    continue
                closed = True  # one more step takes the residual to float noise
            trial = _newton_step(pxp, dist_s, target, cur, jac, res, err)
            if trial is None:
                return None
            if trial.sup.size < cur.sup.size:
                drops += 1
            cur = trial
    return None


def _ba_core(pxp: np.ndarray, dist: np.ndarray, target: float, tol: float,
             max_iter: int) -> _RawBa:
    """Alternating minimization at E[d] = target from the uniform marginal;
    pxp must be > 0.

    Every iteration re-solves the slope for E[d] = target, starting from
    the last one (1.0 at the first), and from iteration 2 on (the first
    polish attempt), or at the last iteration of the budget, an iterate
    whose duality gap is at most ``tol`` ends the solve.  A used-up budget
    raises ConvergenceError with the last iterate's duality gap.
    """
    shift = np.minimum.reduce(dist, 1)
    dist_s = dist - shift[:, None]  # row minimum exactly 0: the tilt never overflows
    target_s = target - float(pxp.dot(shift))
    lam = 1.0
    q = np.full(dist.shape[1], 1.0 / dist.shape[1])
    for it in range(1, max_iter + 1):
        with np.errstate(invalid="ignore"):
            lam, expd = _match_slope(pxp, dist_s, q, target_s, lam)
        z, fwd, m = _tilt(pxp, expd, q)
        if not np.minimum.reduce(z) > 0.0:
            raise ConvergenceError(f"solve broke down at slope {lam!r}: a forward row vanished")
        done = None
        if it == 2 or it % _POLISH_EVERY == 0:
            done = _polish(pxp, dist_s, m, lam, target_s, tol)
        if (done is None and (it >= 2 or it == max_iter)
                and _dual_gap(pxp, expd, z, fwd, m, lam, target_s) <= tol):
            # Within tol of R(target): keep the columns of real mass, unless
            # the rest cannot meet the target to the slope match's precision,
            # and match the slope to them.  If they meet it only at a slope
            # that underflows a whole row, the certified iterate stands.
            kept = np.where(m >= PRUNE_EPS, m, 0.0)
            if float(pxp.dot(np.minimum.reduce(dist_s[:, kept > 0.0], 1))) > (1.0 + 1e-13) * target_s:
                kept = m
            with np.errstate(invalid="ignore"):
                lam_kept, expd = _match_slope(pxp, dist_s, kept, target_s, lam)
            if np.minimum.reduce(np.add.reduce(expd * kept, 1)) > 0.0:
                q, lam = kept, lam_kept
            done = q, lam, int(np.count_nonzero(q) < np.count_nonzero(m))
        if done is not None:
            q, lam, drops = done
            _, fwd, m = _tilt(pxp, np.exp(-lam * dist_s), q)
            return _RawBa(
                forward=fwd, marginal=m,
                distortion=float(pxp.dot(np.add.reduce(fwd * dist, 1))),
                rate=_rate_of(pxp, fwd, m), lam=lam, iterations=it, drops=drops,
            )
        q = m
    gap = _dual_gap(pxp, expd, z, fwd, m, lam, target_s)
    raise ConvergenceError(f"solve did not converge in {max_iter} iterations (duality gap "
                           f"{gap:.3e}, certificate tol {tol:.3e})", gap=gap)


def _log_tilt(m: np.ndarray, lam: float, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row peaks, exp(logits - peak)) of logits ln m(j) - lam d(x, j): the tilt of
    m in log space, so a large slope cannot underflow a whole row."""
    with np.errstate(divide="ignore"):
        logits = np.log(m) - lam * dist
    peak = np.maximum.reduce(logits, 1, keepdims=True)
    return peak, np.exp(logits - peak)


def _full_forward(dist: np.ndarray, support: np.ndarray, raw: _RawBa) -> np.ndarray:
    """Expand forward rows back to the full source alphabet.

    Zero-mass symbols carry no probability but still get a well-defined row:
    the same exponential tilt of the converged marginal, in log space.
    """
    if support.size == dist.shape[0]:
        return raw.forward
    fwd = np.empty((dist.shape[0], raw.forward.shape[1]))
    fwd[support] = raw.forward
    dead = np.ones(dist.shape[0], dtype=bool)
    dead[support] = False
    rows = _log_tilt(raw.marginal, raw.lam, dist[dead])[1]
    fwd[dead] = rows / np.add.reduce(rows, 1, keepdims=True)
    return fwd


@dataclass(frozen=True)
class RdDiagnostics:
    """Solver effort and residuals for one rate-distortion point.

    ``ba_iterations`` counts the iterations of the solve, which ends at the
    first polish attempt that succeeds (at iteration 2, 16, 32, 48, ...)
    or, after a failed one, at the first iterate within the certificate tol
    of Blahut's lower bound; it is 1 when a budget of one iteration ends on
    a first iterate within that tol, and 0 at the zero-rate knee, which is
    exact without a solve.  ``prune_rounds`` counts the support reductions the
    final polish made, or 1 if a solve stopped on the bound dropped columns
    below PRUNE_EPS on the way out.  ``achieved_distortion`` is E[d] at the
    point.
    """

    ba_iterations: int
    achieved_distortion: float
    prune_rounds: int

    @property
    def ba_calls(self) -> int:
        """1 if a solve ran, 0 at the knee; derived, kept for perfbench/workloads.py."""
        return int(self.ba_iterations > 0)


@dataclass(frozen=True, eq=False)
class RdPoint:
    """One point on the informational rate-distortion curve.

    ``forward``, ``output_marginal`` and ``reverse`` live on the kept
    reconstruction columns (original indices in ``kept_columns``).
    ``tilted_information`` forms the point's tilted information.
    """

    target_distortion: float
    rate: float
    lambda_star: float
    forward: Channel
    output_marginal: Pmf
    reverse: Channel
    kept_columns: Annotated[tuple, Seq(Int(0))]
    diagnostics: RdDiagnostics

    __post_init__ = _check_fields


def _tilted_vector(dist_kept: np.ndarray, m: np.ndarray, lam: float,
                   d_value: float) -> np.ndarray:
    # j(x) = -lam * D - ln sum_j m(j) exp(-lam d(x, j)), stabilized per row.
    peak, rows = _log_tilt(m, lam, dist_kept)
    out = -lam * d_value - (peak[:, 0] + np.log(np.add.reduce(rows, 1)))
    out.setflags(write=False)
    return out


def _certificate_tol(tol: float) -> float:
    """Tolerance of the exclusion certificate in a solve to distortion tol."""
    return min(1e-10, tol / 100.0)


@_checked
def rd_at_distortion(problem: SourceProblem, d: Finite, tol: Positive = _DEFAULT_TOL,
                     max_iter: Count = _DEFAULT_MAX_ITER) -> RdPoint:
    """Solve R(D) at a target distortion in one constrained solve.

    At the zero-rate knee D_max the answer is exact without a solve: slope
    0, rate 0, the marginal uniform on the columns of least expected
    distortion.  No finite slope reaches D_min, so a target there is solved
    tol / 2 inside it.

    Args:
        problem: source pmf and distortion matrix.
        d: target expected distortion, within [D_min, D_max].
        tol: the achieved distortion lies within tol of d.  The exclusion
            certificate uses min(1e-10, tol / 100).
        max_iter: iteration budget of the one solve.  The last iterate of
            the budget is checked against the certificate tol, also at
            max_iter = 1, where no polish is tried.

    Returns:
        RdPoint with rate, slope, forward and reverse channels on kept
        columns, and diagnostics.

    Raises:
        ValidationError: problem is not a SourceProblem, d not a finite
            real, tol not a finite positive real, or max_iter not an
            integer >= 1.
        InfeasibleError: d outside [D_min, D_max] (1e-12 slack).
        ConvergenceError: the solve did not converge within max_iter, or
            the distortion it reached misses the target by more than tol.
            The first carries the last iterate's duality gap as ``gap``
            and prints it with the certificate tol; the second names the
            achieved distortion, the target and tol.
    """
    return _rd_point("d", problem, d, tol, max_iter)


def _rd_point(name: str, problem: SourceProblem, d: float, tol: float,
              max_iter: int = _DEFAULT_MAX_ITER) -> RdPoint:
    """rd_at_distortion's body; an infeasible target is refused as argument ``name``."""
    d_min, d_max = distortion_bounds(problem)
    target = _clamp_target(name, d, d_min, d_max)

    px = problem.px.probs
    support = np.flatnonzero(px > 0.0)
    if target >= d_max - tol:
        knee = px.dot(problem.distortion) == d_max
        q = knee / knee.sum()
        raw = _RawBa(forward=np.tile(q, (support.size, 1)), marginal=q,
                     distortion=d_max, rate=0.0, lam=0.0, iterations=0)
    else:
        raw = _ba_core(px[support], problem.distortion[support],
                       max(target, d_min + 0.5 * tol), _certificate_tol(tol), max_iter)
    if abs(raw.distortion - target) > tol:
        raise ConvergenceError(
            f"achieved distortion {raw.distortion!r} misses the "
            f"target {target!r} by more than tol = {tol!r}"
        )

    cols = np.flatnonzero(raw.marginal > 0.0)
    fwd = _full_forward(problem.distortion, support, raw)[:, cols]
    m = raw.marginal[cols]
    reverse = Channel((px[None, :] * fwd.T) / m[:, None])

    return RdPoint(
        target_distortion=d,
        rate=raw.rate,
        lambda_star=raw.lam,
        forward=Channel(fwd),
        output_marginal=Pmf(m),
        reverse=reverse,
        kept_columns=tuple(int(c) for c in cols),
        diagnostics=RdDiagnostics(
            ba_iterations=raw.iterations,
            achieved_distortion=raw.distortion,
            prune_rounds=raw.drops,
        ),
    )


@_checked
def rd_curve(problem: SourceProblem, grid: Annotated[tuple, Seq(Real())],
             tol: Positive = _DEFAULT_TOL) -> list[RdPoint]:
    """One rd_at_distortion point per grid value; raises as rd_at_distortion, naming grid[i]."""
    return [_rd_point(f"grid[{i}]", problem, d, tol) for i, d in enumerate(grid)]


def _kept_distortion(problem: SourceProblem, point: RdPoint) -> np.ndarray:
    """The problem's distortion on the point's kept columns.

    Refuses a point whose forward rows or kept columns do not fit the
    problem, or that keeps other than one column per forward output.
    """
    _require_size("point.forward.n_in", point.forward.n_in, "problem.n_source", problem.n_source)
    _require_size("len(point.kept_columns)", len(point.kept_columns),
                  "point.forward.n_out", point.forward.n_out)
    Seq(Int(0, problem.n_reconstruction - 1)).check("point.kept_columns", point.kept_columns)
    return problem.distortion[:, list(point.kept_columns)]


@_checked
def tilted_information(problem: SourceProblem, point: RdPoint) -> np.ndarray:
    """Per-symbol tilted information at a solved point, in nats.

    Formed from the point's marginal, slope, and achieved distortion, which
    matches the target within the solver tolerance; this keeps its
    expectation under the source equal to the point's rate at full solver
    precision.
    """
    dist_kept = _kept_distortion(problem, point)
    return _tilted_vector(dist_kept, point.output_marginal.probs,
                          point.lambda_star, point.diagnostics.achieved_distortion)


@_checked
def verify_csiszar_identity(problem: SourceProblem, point: RdPoint) -> float:
    """Max residual of the per-pair identity linking tilted information,
    information density, and distortion.

    At an exact optimum, for every source symbol x and kept column j,

        tilted(x) = ln(fwd(j|x) / m(j)) + lam * d(x, j) - lam * D

    holds with residual zero; the returned max over all pairs measures how
    far the solved point is from stationarity.  Entries whose forward
    probability underflowed to zero or to a subnormal are skipped: their
    logarithm has lost its digits.
    """
    dist_kept = _kept_distortion(problem, point)
    fwd = point.forward.rows
    m = point.output_marginal.probs
    lam = point.lambda_star
    d_value = point.diagnostics.achieved_distortion
    with np.errstate(divide="ignore"):
        dens = np.log(fwd) - np.log(m)
    tilted = _tilted_vector(dist_kept, m, lam, d_value)
    resid = np.abs(tilted[:, None] - dens - lam * dist_kept + lam * d_value)
    resid = np.where(fwd >= _TINY, resid, 0.0)
    return float(np.maximum.reduce(resid, None))


@_checked
def logloss_rd(px: Pmf, d: Finite) -> float:
    """The log-loss rate-distortion function H(X) - D, in nats, on [0, H(X)]."""
    h = entropy(px)
    return max(h - _clamp_target("d", d, 0.0, h), 0.0)


@dataclass(frozen=True)
class Lemma1Report:
    """Outcome of checking an achieving conditional for the log-loss curve.

    A family of reproduction distributions achieves the log-loss curve at
    distortion D exactly when each row equals the posterior of the source
    given the chosen reproduction; then D is the conditional entropy, the
    mutual information is H(X) - D, and the expected log loss equals D.
    ``checks`` holds the three conditions in that order, and ``ok`` is true
    only when each passes.
    """

    conditional_entropy: float
    mutual_info: float
    expected_loss: float
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


@_checked
def verify_lemma1(px: Pmf, q_rows: Annotated[tuple, Seq(Pmf)], weights: Channel,
                  tol: NonNegative = 1e-9) -> Lemma1Report:
    """Check posterior consistency and its two consequences.

    Args:
        px: source distribution.
        q_rows: one reproduction Pmf per channel output.
        weights: conditional distribution of the reproduction index given
            the source symbol.
        tol: acceptance tolerance for every condition.

    Returns:
        Lemma1Report whose checks are ``posterior_consistency``,
        ``rate_identity`` and ``expected_loss``, each bounded by tol.
    """
    _require_size("weights.n_in", weights.n_in, "px.n", px.n)
    _require_size("len(q_rows)", len(q_rows), "weights.n_out", weights.n_out)
    for k, row in enumerate(q_rows):
        _require_size(f"q_rows[{k}].n", row.n, "px.n", px.n)

    joint = joint_from_source_and_channel(px, weights)
    mi, expected_loss, post_dev = _decoder_fit(joint.table, q_rows)
    d_value = conditional_entropy(joint)
    h = entropy(px)

    loss_residual = abs(expected_loss - d_value) if math.isfinite(expected_loss) else math.inf
    return Lemma1Report(d_value, mi, expected_loss, (
        Check("posterior_consistency", post_dev, tol),
        Check("rate_identity", abs(mi - (h - d_value)), tol),
        Check("expected_loss", loss_residual, tol),
    ))
