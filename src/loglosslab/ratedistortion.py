"""Informational rate-distortion solver for finite alphabets.

The workhorse is alternating minimization (Blahut-Arimoto): for a slope
parameter ``lam`` the Lagrangian

    F = I(X; Xhat) + lam * E[d(X, Xhat)]

is minimized by alternating the forward-channel update (rows proportional to
``marginal * exp(-lam * d)``) with the pushforward of the output marginal.
:func:`rd_at_distortion` runs it once at a target distortion, re-solving the
slope for E[d] = D in every iteration (constrained Blahut-Arimoto).  Plain
iteration crawls where a column enters or leaves the optimal support, so a
Newton solve of the stationarity conditions tries to finish at iteration 2,
then every ``_POLISH_EVERY`` iterations; it is accepted only when every
column off its support passes Blahut's exclusion test t_j <= 1.  Each
column of its seed may take one Newton step to leave, so the attempt at
iteration 2 can finish even from a seed that keeps every column.  Where
the polish cannot finish, e.g. at a target on the D_min of a sub-support,
where the support it needs cannot meet the target, a targeted solve stops
instead at the first iterate after a failed attempt whose rate lies within
the certificate tol of Blahut's (1972) lower bound on R(D).  Rates are in
nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

try:
    from numpy.linalg import _umath_linalg
except ImportError:  # a numpy without the private module: use np.linalg.lstsq
    _umath_linalg = None

from .errors import (
    ConvergenceError,
    ValidationError,
    _clamp_target,
    _require_instance,
    _require_int,
    _require_iterable,
    _require_real,
)
from .probability import (
    Channel,
    Pmf,
    _as_readonly_array,
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
    "BaSolution",
    "ba_fixed_slope",
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
# Distortion columns that agree entrywise within this are considered identical.
COLUMN_MATCH_TOL = 1e-12
# A solve tries to finish with a Newton polish at iteration 2, then at every
# multiple of this.  Not at 1: the polish can finish from the first iterate,
# and a budget of one iteration must still run out.
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
# None where numpy has no gufunc of this form.
_LSTSQ = getattr(_umath_linalg, "lstsq", None)
if getattr(_LSTSQ, "signature", None) != "(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)":
    _LSTSQ = None


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


def hamming_distortion(r: int, s: int | None = None) -> np.ndarray:
    """0/1 distortion matrix: free on the diagonal, unit cost elsewhere."""
    _require_int("hamming_distortion", "r", r, 1)
    _require_int("hamming_distortion", "s", s, 1, allow_none=True)
    s = r if s is None else s
    return 1.0 - np.eye(r, s)


@dataclass(frozen=True, eq=False)
class SourceProblem:
    """A source pmf together with a finite nonnegative distortion matrix.

    Rows index source symbols, columns reconstruction symbols.  Two columns
    that coincide entrywise within ``COLUMN_MATCH_TOL`` are rejected: they
    describe the same reconstruction twice and break row-distinctness
    guarantees downstream.
    """

    px: Pmf
    distortion: np.ndarray

    def __post_init__(self):
        _require_instance("SourceProblem", "px", self.px, Pmf)
        dist = _as_readonly_array(self.distortion, "SourceProblem: distortion", ndim=2)
        if dist.shape[0] != self.px.n:
            raise ValidationError(
                f"SourceProblem: {dist.shape[0]} distortion rows for {self.px.n} source symbols"
            )
        for j in range(dist.shape[1] - 1):
            gaps = np.abs(dist[:, j + 1:] - dist[:, j:j + 1]).max(axis=0)
            same = np.flatnonzero(gaps <= COLUMN_MATCH_TOL)
            if same.size:
                raise ValidationError(
                    f"SourceProblem: distortion columns {j} and {j + 1 + same[0]} are identical"
                )
        object.__setattr__(self, "distortion", dist)

    @property
    def n_source(self) -> int:
        return self.px.n

    @property
    def n_reconstruction(self) -> int:
        return self.distortion.shape[1]


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
class BaSolution:
    """Converged fixed-slope solution plus convergence diagnostics."""

    distortion: float
    rate: float
    output_marginal: Pmf
    forward: Channel
    iterations: int
    objective_gap: float
    marginal_gap: float
    objective_trace: np.ndarray | None


@dataclass(frozen=True, eq=False)
class _RawBa:
    """A solved point on support rows; the marginal is zero off its support."""

    forward: np.ndarray
    marginal: np.ndarray
    distortion: float
    rate: float
    lam: float
    iterations: int
    # The two gaps are set by fixed-slope solves only.
    objective_gap: float = 0.0
    marginal_gap: float = 0.0
    drops: int = 0
    trace: np.ndarray | None = None


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
        if abs(excess) <= 1e-13 * target or hi - lo <= 1e-15 * lo:
            break
        dev = dist_s - mean[:, None]
        w *= dev
        w *= dev
        var = float(pxp.dot(np.add.reduce(w, 1)))
        step = lam + excess / var if var > 0.0 else math.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * lam + 1.0
    return lam, expd


def _polish(pxp: np.ndarray, dist_s: np.ndarray, q_seed: np.ndarray, lam: float,
            target: float | None, tol: float) -> tuple[np.ndarray, float, int] | None:
    """Newton solve of the stationarity conditions, seeded by an iterate.

    On a support S: t_j = 1 for j in S, t_j = sum_x px exp(-lam d_xj) / z_x
    being the exclusion score, and E[d] = target when the slope is unknown.
    These make the convex merit sum_j q_j - sum_x px ln z_x - lam target,
    maximized over the slope, stationary; its q-Hessian is the Gram matrix
    of the scores.  Steps are halved until the merit does not rise, which
    keeps a far seed on course.  S starts as {q_seed >= PRUNE_EPS}; a column
    a step drives to zero leaves, one settling below PRUNE_EPS is pruned
    unless the rest cannot meet the target, and any other column scoring
    above 1 + 10 tol re-enters.  A step stops where the first column leaves,
    so the step budget grows by one per column of S.  Returns (q, lam,
    support reductions) once the residual closes and no column off S fails
    that test, else None.

    The whole solve runs in one ``np.errstate`` scope that ignores divide,
    over and invalid: a row sum that vanishes reads as an infinite merit, a
    vanishing step component as an infinite reach, and a row that underflows
    in a slope match as a slope too large.
    """
    q = np.where(q_seed >= PRUNE_EPS, q_seed, 0.0)
    d_top = max(float(np.maximum.reduce(dist_s, None)), 1.0)
    px_col = pxp[:, None]
    pruned = np.zeros(q.size, dtype=bool)
    drops = 0
    closed = False

    def merit(q, lam, sup=None, ds=None):
        # Merit (+inf if the support cannot meet the target) with the slope
        # re-matched, and the support, its columns, slope, tilt and row sums
        # behind it.  A step that keeps the support passes it and its
        # columns, which are known to meet the target.
        if sup is None:
            sup = np.flatnonzero(q > 0.0)
            ds = dist_s[:, sup]
            if target is not None and float(pxp.dot(np.minimum.reduce(ds, 1))) >= target:
                return math.inf, sup, ds, lam, None, None
        qs = q[sup]
        if target is None:
            e = np.exp(-lam * ds)
        else:
            lam, e = _match_slope(pxp, ds, qs, target, lam)
        z = e.dot(qs)
        value = float(np.add.reduce(q) - pxp.dot(np.log(z)))
        return value - (0.0 if target is None else lam * target), sup, ds, lam, e, z

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value, sup, ds, lam, e, z = merit(q, lam)
        if not math.isfinite(value):  # the target needs a column below PRUNE_EPS
            return None
        for _ in range(_NEWTON_STEPS + sup.size):
            qs = q[sup]
            scores = e / z[:, None]
            # One array for the system; with the slope unknown it is bordered
            # by one more row and column.
            k = sup.size
            n = k + (target is not None)
            res = np.empty(n)
            jac = np.empty((n, n))
            res[:k] = pxp.dot(scores) - 1.0
            jac[:k, :k] = (scores * px_col).T.dot(scores)
            err = float(np.maximum.reduce(np.abs(res[:k])))
            if target is not None:
                w = scores * qs
                mean = np.add.reduce(w * ds, 1)
                dev = ds - mean[:, None]
                w *= dev
                w *= dev
                var = float(pxp.dot(np.add.reduce(w, 1)))
                excess = float(pxp.dot(mean)) - target
                jac[k, :k] = jac[:k, k] = pxp.dot(scores * dev)
                jac[k, k] = -var
                res[k] = -excess
                err = max(err, abs(excess) / d_top)
            if err < _POLISH_RESIDUAL * max(1.0, lam * d_top):
                small = sup[qs < PRUNE_EPS]
                if small.size:
                    q_cut = q.copy()
                    q_cut[small] = 0.0
                    cut = merit(q_cut, lam)
                    if math.isfinite(cut[0]):  # the rest still meets the target
                        q = q_cut
                        value, sup, ds, lam, e, z = cut
                        pruned[small] = True
                        drops += 1
                        closed = False
                        continue
                if closed:
                    expd = np.exp(-lam * dist_s)
                    t = np.where(pruned | (q > 0.0), 0.0, pxp.dot(expd / z[:, None]))
                    j = int(np.argmax(t))
                    if t[j] <= 1.0 + 10.0 * tol:
                        return q, lam, drops
                    q[j] = PRUNE_EPS
                    value, sup, ds, lam, e, z = merit(q, lam)
                    closed = False
                    continue
                closed = True  # one more step takes the residual to float noise
            # Near a face of optima the system is (nearly) singular: least
            # squares solves what it can, and the rest lies along the face,
            # where the merit is linear, so walk that way to the edge of the
            # support.
            delta = _lstsq(jac, res)
            rest = res - jac.dot(delta)
            rest_top = np.maximum.reduce(np.abs(rest))
            if rest_top > 0.5 * err:
                delta += rest * (np.maximum.reduce(qs) / rest_top)
            dq = delta[:k]
            reach = np.where(dq < 0.0, -qs / dq, math.inf)
            first = float(np.minimum.reduce(reach))
            step = min(1.0, first)
            for _halving in range(50):
                q_try = q.copy()
                moved = qs + step * dq
                lam_try = lam if target is None else lam + step * float(delta[-1])
                if step < first and np.minimum.reduce(moved) > 0.0:  # the support stays
                    q_try[sup] = moved
                    trial = merit(q_try, lam_try, sup, ds)
                else:
                    q_try[sup] = np.where(reach <= step, 0.0, moved)
                    trial = merit(q_try, lam_try)
                if trial[0] <= value + 1e-14 * max(1.0, abs(value)):
                    break
                step *= 0.5
            else:
                return None
            if trial[1].size < k:
                drops += 1
            q = q_try
            value, sup, ds, lam, e, z = trial
    return None


def _ba_core(pxp: np.ndarray, dist: np.ndarray, lam: float, target: float | None,
             tol: float, max_iter: int, track: bool) -> _RawBa:
    """Alternating minimization from the uniform marginal; pxp must be > 0.

    With ``target`` None the slope stays at ``lam``; otherwise every
    iteration re-solves it for E[d] = target, starting from ``lam``, and
    from the first failed polish on, an iterate whose duality gap is at
    most ``tol`` ends the solve.
    """
    shift = np.minimum.reduce(dist, 1)
    dist_s = dist - shift[:, None]  # row minimum exactly 0: the tilt never overflows
    d_shift = float(pxp.dot(shift))
    target_s = None if target is None else target - d_shift
    expd = np.exp(-lam * dist_s)
    q = np.full(dist.shape[1], 1.0 / dist.shape[1])
    trace: list[float] | None = [] if track else None
    f_prev = math.inf
    certify = False  # set by the first failed polish of a constrained solve
    for it in range(1, max_iter + 1):
        if target_s is not None:
            with np.errstate(invalid="ignore"):
                lam, expd = _match_slope(pxp, dist_s, q, target_s, lam)
        z, fwd, m = _tilt(pxp, expd, q)
        f_val = lam * d_shift - float(pxp.dot(np.log(z)))
        if not math.isfinite(f_val):
            raise ConvergenceError(f"solve broke down at slope {lam!r}: a forward row vanished")
        if trace is not None:
            trace.append(f_val)
        done = None
        if it == 2 or it % _POLISH_EVERY == 0:
            done = _polish(pxp, dist_s, m, lam, target_s, tol)
            certify = target_s is not None
        if done is None and certify and _dual_gap(pxp, expd, z, fwd, m, lam, target_s) <= tol:
            # Within tol of R(target): keep the columns of real mass, unless
            # the rest cannot meet the target to the slope match's precision,
            # and match the slope to them.
            q = np.where(m >= PRUNE_EPS, m, 0.0)
            if float(pxp.dot(np.minimum.reduce(dist_s[:, q > 0.0], 1))) > (1.0 + 1e-13) * target_s:
                q = m
            with np.errstate(invalid="ignore"):
                lam = _match_slope(pxp, dist_s, q, target_s, lam)[0]
            done = q, lam, int(np.count_nonzero(q) < np.count_nonzero(m))
        if done is not None:
            q, lam, drops = done
            expd = np.exp(-lam * dist_s)
            z, fwd, m = _tilt(pxp, expd, q)
            # ba_fixed_slope reports the gaps of the returned point under
            # one more update; a constrained solve has no use for them.
            gaps = {} if target_s is not None else {
                "objective_gap": abs(float(pxp.dot(np.log(expd.dot(m)) - np.log(z)))),
                "marginal_gap": float(np.maximum.reduce(np.abs(m - q)))}
            return _RawBa(
                forward=fwd, marginal=m,
                distortion=float(pxp.dot(np.add.reduce(fwd * dist, 1))),
                rate=_rate_of(pxp, fwd, m), lam=lam, iterations=it, drops=drops,
                trace=np.array(trace) if trace is not None else None, **gaps,
            )
        # The gaps of the last iteration are formed only for the message.
        f_before, f_prev = f_prev, f_val
        q_before, q = q, m
    d_f = abs(f_before - f_prev)
    gap = float(np.abs(q - q_before).max())
    raise ConvergenceError(
        f"solve did not converge in {max_iter} iterations "
        f"(objective gap {d_f:.3e}, marginal gap {gap:.3e})",
        gap=max(d_f, gap),
    )


def ba_fixed_slope(problem: SourceProblem, lam: float, tol: float = 1e-10,
                   max_iter: int = 300_000, track_objective: bool = False) -> BaSolution:
    """Minimize I(X; Xhat) + lam * E[d] by alternating updates.

    Args:
        problem: source pmf and distortion matrix.
        lam: nonnegative slope weight on expected distortion.
        tol: the polish that ends the solve is accepted only when every
            column off its support has exclusion score t_j <= 1 + 10 tol.
        max_iter: iteration budget; exceeding it raises ConvergenceError
            carrying the last objective or marginal gap.
        track_objective: record the objective after every update so callers
            can inspect monotonicity.

    Returns:
        BaSolution with achieved distortion, rate in nats, output marginal,
        and forward channel on the full reconstruction alphabet.
    """
    _require_real("ba_fixed_slope", "lam", lam, 0.0)
    _require_real("ba_fixed_slope", "tol", tol, positive=True)
    _require_int("ba_fixed_slope", "max_iter", max_iter, 1)
    px = problem.px.probs
    support = np.flatnonzero(px > 0.0)
    raw = _ba_core(px[support], problem.distortion[support], lam, None, tol, max_iter,
                   track_objective)
    return BaSolution(
        distortion=raw.distortion, rate=raw.rate,
        output_marginal=Pmf(raw.marginal),
        forward=Channel(_full_forward(problem.distortion, support, raw)),
        iterations=raw.iterations, objective_gap=raw.objective_gap,
        marginal_gap=raw.marginal_gap, objective_trace=raw.trace,
    )


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
    of Blahut's lower bound, and is 0 at the zero-rate knee, which is exact
    without a solve.  ``prune_rounds`` counts the support reductions the
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

    ``forward``, ``output_marginal``, ``reverse``, and ``tilted`` live on the
    kept reconstruction columns (original indices in ``kept_columns``).  The
    tilted information is evaluated at the achieved distortion, which matches
    the target within the solver tolerance; this keeps E[tilted] equal to
    the rate at full solver precision.
    """

    target_distortion: float
    rate: float
    lambda_star: float
    forward: Channel
    output_marginal: Pmf
    reverse: Channel
    tilted: np.ndarray
    kept_columns: tuple[int, ...]
    diagnostics: RdDiagnostics


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


def rd_at_distortion(problem: SourceProblem, d: float, tol: float = _DEFAULT_TOL,
                     max_iter: int = 300_000) -> RdPoint:
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
        max_iter: iteration budget of the one solve.

    Returns:
        RdPoint with rate, slope, forward and reverse channels on kept
        columns, the tilted-information vector, and diagnostics.

    Raises:
        ValidationError: d is not a finite real, tol not a finite positive
            real, or max_iter not an integer >= 1.
        InfeasibleError: d outside [D_min, D_max] (1e-12 slack).
        ConvergenceError: the solve did not converge within max_iter, or
            the distortion it reached misses the target by more than tol;
            the message names the achieved distortion, the target and tol.
    """
    _require_real("rd_at_distortion", "tol", tol, positive=True)
    _require_real("rd_at_distortion", "d", d)
    _require_int("rd_at_distortion", "max_iter", max_iter, 1)
    d_min, d_max = distortion_bounds(problem)
    target = _clamp_target("rd_at_distortion", "d", d, d_min, d_max)

    px = problem.px.probs
    support = np.flatnonzero(px > 0.0)
    if target >= d_max - tol:
        knee = px.dot(problem.distortion) == d_max
        q = knee / knee.sum()
        raw = _RawBa(forward=np.tile(q, (support.size, 1)), marginal=q,
                     distortion=d_max, rate=0.0, lam=0.0, iterations=0)
    else:
        raw = _ba_core(px[support], problem.distortion[support], 1.0,
                       max(target, d_min + 0.5 * tol), _certificate_tol(tol),
                       max_iter, track=False)
    if abs(raw.distortion - target) > tol:
        raise ConvergenceError(
            f"rd_at_distortion: achieved distortion {raw.distortion!r} misses the "
            f"target {target!r} by more than tol = {tol!r}"
        )

    cols = np.flatnonzero(raw.marginal > 0.0)
    fwd = _full_forward(problem.distortion, support, raw)[:, cols]
    m = raw.marginal[cols]
    reverse = Channel((px[None, :] * fwd.T) / m[:, None])
    tilted = _tilted_vector(problem.distortion[:, cols], m, raw.lam, raw.distortion)

    return RdPoint(
        target_distortion=d,
        rate=raw.rate,
        lambda_star=raw.lam,
        forward=Channel(fwd),
        output_marginal=Pmf(m),
        reverse=reverse,
        tilted=tilted,
        kept_columns=tuple(int(c) for c in cols),
        diagnostics=RdDiagnostics(
            ba_iterations=raw.iterations,
            achieved_distortion=raw.distortion,
            prune_rounds=raw.drops,
        ),
    )


def rd_curve(problem: SourceProblem, grid, tol: float = _DEFAULT_TOL) -> list[RdPoint]:
    """One rd_at_distortion point per grid value; raises as rd_at_distortion."""
    return [rd_at_distortion(problem, d, tol=tol)
            for d in _require_iterable("rd_curve", "grid", grid)]


def tilted_information(problem: SourceProblem, point: RdPoint) -> np.ndarray:
    """Per-symbol tilted information at a solved point, in nats.

    Recomputed from the point's marginal, slope, and achieved distortion;
    equals ``point.tilted``.  Its expectation under the source matches the
    point's rate.
    """
    dist_kept = problem.distortion[:, list(point.kept_columns)]
    return _tilted_vector(dist_kept, point.output_marginal.probs,
                          point.lambda_star, point.diagnostics.achieved_distortion)


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
    dist_kept = problem.distortion[:, list(point.kept_columns)]
    fwd = point.forward.rows
    m = point.output_marginal.probs
    lam = point.lambda_star
    d_value = point.diagnostics.achieved_distortion
    with np.errstate(divide="ignore"):
        dens = np.log(fwd) - np.log(m)
    resid = np.abs(point.tilted[:, None] - dens - lam * dist_kept + lam * d_value)
    resid = np.where(fwd >= _TINY, resid, 0.0)
    return float(np.maximum.reduce(resid, None))


def logloss_rd(px: Pmf, d: float) -> float:
    """The log-loss rate-distortion function H(X) - D, in nats, on [0, H(X)]."""
    _require_real("logloss_rd", "d", d)
    h = entropy(px)
    return max(h - _clamp_target("logloss_rd", "d", d, 0.0, h), 0.0)


@dataclass(frozen=True)
class Lemma1Report:
    """Outcome of checking an achieving conditional for the log-loss curve.

    A family of reproduction distributions achieves the log-loss curve at
    distortion D exactly when each row equals the posterior of the source
    given the chosen reproduction; then D is the conditional entropy, the
    mutual information is H(X) - D, and the expected log loss equals D.
    """

    posterior_deviation: float
    conditional_entropy: float
    mutual_info: float
    expected_loss: float
    rate_residual: float
    loss_residual: float
    failures: tuple[str, ...]
    ok: bool


def verify_lemma1(px: Pmf, q_rows, weights: Channel, tol: float = 1e-9) -> Lemma1Report:
    """Check posterior consistency and its two consequences.

    Args:
        px: source distribution.
        q_rows: one reproduction Pmf per channel output.
        weights: conditional distribution of the reproduction index given
            the source symbol.
        tol: acceptance tolerance for every condition.

    Returns:
        Lemma1Report naming each failed condition in ``failures``.
    """
    _require_real("verify_lemma1", "tol", tol, 0.0)
    if weights.n_in != px.n:
        raise ValidationError(f"verify_lemma1: weights have {weights.n_in} rows, pmf has {px.n}")
    rows = list(q_rows)
    if len(rows) != weights.n_out:
        raise ValidationError(
            f"verify_lemma1: {len(rows)} reproduction rows for {weights.n_out} outputs"
        )
    for k, row in enumerate(rows):
        if row.n != px.n:
            raise ValidationError(f"verify_lemma1: row {k} has alphabet {row.n}, expected {px.n}")

    joint = joint_from_source_and_channel(px, weights)
    mi, expected_loss, post_dev = _decoder_fit(joint.table, rows)
    d_value = conditional_entropy(joint)
    h = entropy(px)

    rate_residual = abs(mi - (h - d_value))
    loss_residual = abs(expected_loss - d_value) if math.isfinite(expected_loss) else math.inf

    failures = []
    if post_dev > tol:
        failures.append("posterior_consistency")
    if rate_residual > tol:
        failures.append("rate_identity")
    if loss_residual > tol:
        failures.append("expected_loss")
    return Lemma1Report(
        posterior_deviation=post_dev,
        conditional_entropy=d_value,
        mutual_info=mi,
        expected_loss=expected_loss,
        rate_residual=rate_residual,
        loss_residual=loss_residual,
        failures=tuple(failures),
        ok=not failures,
    )
