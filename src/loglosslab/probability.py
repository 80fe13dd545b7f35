"""Exact finite-alphabet probability primitives.

Distributions, channels, and joints over alphabets ``{0, ..., n-1}``; entropy,
divergence, and information functionals in natural log units (nats).  The
``0 * ln 0 = 0`` convention applies throughout.  Constructors validate and
reject rather than silently repair: a vector whose sum is off by more than
``SUM_TOL`` is an error, and :func:`renormalize` is the one explicit way to
turn raw nonnegative weights into a distribution.

All types are frozen and hold read-only arrays, so values can be shared
freely between threads once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, _require_int

__all__ = [
    "SUM_TOL",
    "Pmf",
    "Channel",
    "Joint",
    "renormalize",
    "entropy",
    "varentropy",
    "kl_divergence",
    "conditional_entropy",
    "mutual_information",
    "information_density",
    "posterior",
    "joint_from_source_and_channel",
    "log_loss",
    "log_loss_seq",
]

# Normalization gate: vectors must sum to 1 within this before acceptance.
SUM_TOL = 1e-9


def _as_readonly_array(values, name: str, ndim: int) -> np.ndarray:
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: not convertible to a float array: {exc}") from exc
    if arr.ndim != ndim:
        raise ValidationError(f"{name}: expected {ndim}-dimensional data, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name}: must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: entries must be finite")
    if np.any(arr < 0.0):
        raise ValidationError(f"{name}: entries must be nonnegative")
    arr.setflags(write=False)
    return arr


def _check_rows_normalized(arr: np.ndarray, name: str) -> None:
    sums = arr.sum(axis=-1)
    bad = np.abs(sums - 1.0) > SUM_TOL
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise ValidationError(
            f"{name}: row {idx} sums to {sums.flat[idx]!r}, outside 1 +/- {SUM_TOL}"
        )


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function on ``{0, ..., n-1}``."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _as_readonly_array(self.probs, "Pmf", ndim=1)
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(f"Pmf: sums to {total!r}, outside 1 +/- {SUM_TOL}")
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @staticmethod
    def uniform(n: int) -> "Pmf":
        _require_int("Pmf.uniform", "n", n, 1)
        return Pmf(np.full(n, 1.0 / n))

    @staticmethod
    def point_mass(n: int, x: int) -> "Pmf":
        _require_int("Pmf.point_mass", "n", n, 1)
        _require_int("Pmf.point_mass", "x", x, 0, n - 1)
        p = np.zeros(n)
        p[x] = 1.0
        return Pmf(p)

    def support(self) -> np.ndarray:
        """Indices with strictly positive mass."""
        return np.flatnonzero(self.probs > 0.0)


@dataclass(frozen=True, eq=False)
class Channel:
    """Conditional distribution: one Pmf per input row, equal output length."""

    rows: np.ndarray

    def __post_init__(self):
        arr = _as_readonly_array(self.rows, "Channel", ndim=2)
        _check_rows_normalized(arr, "Channel")
        object.__setattr__(self, "rows", arr)

    @property
    def n_in(self) -> int:
        return self.rows.shape[0]

    @property
    def n_out(self) -> int:
        return self.rows.shape[1]

    def row(self, x: int) -> Pmf:
        return Pmf(self.rows[x])

    @staticmethod
    def identity(n: int) -> "Channel":
        return Channel(np.eye(n))

    @staticmethod
    def constant(q: Pmf, n_in: int) -> "Channel":
        return Channel(np.tile(q.probs, (n_in, 1)))


@dataclass(frozen=True, eq=False)
class Joint:
    """Joint distribution on a product alphabet, stored as a matrix."""

    table: np.ndarray

    def __post_init__(self):
        arr = _as_readonly_array(self.table, "Joint", ndim=2)
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(f"Joint: sums to {total!r}, outside 1 +/- {SUM_TOL}")
        object.__setattr__(self, "table", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.table.shape

    def marginal_x(self) -> Pmf:
        return Pmf(self.table.sum(axis=1))

    def marginal_y(self) -> Pmf:
        return Pmf(self.table.sum(axis=0))


def renormalize(weights) -> Pmf:
    """Scale nonnegative weights with positive total into a Pmf.

    This is the explicit repair path; the constructors never rescale.
    """
    arr = _as_readonly_array(weights, "renormalize", ndim=1)
    total = float(arr.sum())
    if total <= 0.0:
        raise ValidationError("renormalize: total weight must be positive")
    return Pmf(arr / total)


def _neg_p_log_p(p: np.ndarray) -> float:
    # 0 ln 0 = 0: restrict to positive entries before taking logs.
    pos = p[p > 0.0]
    return float(-(pos * np.log(pos)).sum())


def entropy(p: Pmf) -> float:
    """Shannon entropy in nats."""
    return _neg_p_log_p(p.probs)


def varentropy(p: Pmf) -> float:
    """Variance of the self-information -ln p(X), in nats squared.

    Vanishes (up to rounding) exactly when p is uniform on its support.
    """
    mass = p.probs[p.probs > 0.0]
    info = -np.log(mass)
    mean = float(mass @ info)
    return max(float(mass @ (info - mean) ** 2), 0.0)


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """Relative entropy D(p || q) in nats; ``math.inf`` off q's support."""
    if p.n != q.n:
        raise ValidationError(f"kl_divergence: alphabet mismatch {p.n} vs {q.n}")
    pa, qa = p.probs, q.probs
    mask = pa > 0.0
    if np.any(qa[mask] == 0.0):
        return math.inf
    return float((pa[mask] * (np.log(pa[mask]) - np.log(qa[mask]))).sum())


def conditional_entropy(j: Joint) -> float:
    """H(X | Y) for a joint over (x, y), in nats."""
    return _neg_p_log_p(j.table.ravel()) - entropy(j.marginal_y())


def mutual_information(px: Pmf, ch: Channel) -> float:
    """I(X; Y) for input px through channel ch, in nats.

    Computed as H(Y) - sum_x px(x) H(Y | X = x); tiny negative float residue
    is clamped to zero.
    """
    if ch.n_in != px.n:
        raise ValidationError(f"mutual_information: channel has {ch.n_in} rows, pmf has {px.n}")
    py = px.probs @ ch.rows
    h_y = _neg_p_log_p(py)
    h_y_given_x = 0.0
    for x in px.support():
        h_y_given_x += px.probs[x] * _neg_p_log_p(ch.rows[x])
    # Nonnegative up to float residue; clamp the dust, never a real deficit.
    return max(h_y - h_y_given_x, 0.0)


def _information(table: np.ndarray, p_x: np.ndarray, p_g: np.ndarray) -> float:
    """I(X; G) of a joint table over (x, g), given its two marginals."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(table) - np.log(np.outer(p_x, p_g))
        return float(np.where(table > 0.0, table * ratio, 0.0).sum())


def _decoder_fit(table: np.ndarray, rows) -> tuple[float, float, float]:
    """Lemma 1's quantities for a decoder that reproduces column g by rows[g].

    ``table`` is a joint over (x, g) and ``rows`` one Pmf per column.
    Returns I(X; G), the expected log loss (``math.inf`` when a row misses
    mass the table puts on it), and the largest max-norm gap between a row
    and the posterior of X given its column, over columns of positive mass.
    """
    p_g = table.sum(axis=0)
    info = _information(table, table.sum(axis=1), p_g)

    loss = 0.0
    for g in range(table.shape[1]):
        mass = table[:, g]
        live = mass > 0.0
        qg = rows[g].probs[live]
        if np.any(qg == 0.0):
            loss = math.inf
            break
        loss += float(-(mass[live] * np.log(qg)).sum())

    deviation = 0.0
    for g in np.flatnonzero(p_g > 0.0):
        post = table[:, g] / p_g[g]
        deviation = max(deviation, float(np.max(np.abs(post - rows[g].probs))))
    return info, loss, deviation


def information_density(j: Joint, x: int, y: int) -> float:
    """ln of P(x, y) / (P(x) P(y)); errors on zero marginals or zero mass."""
    r, s = j.shape
    _require_int("information_density", "x", x, 0, r - 1)
    _require_int("information_density", "y", y, 0, s - 1)
    px = float(j.table[x, :].sum())
    py = float(j.table[:, y].sum())
    if px == 0.0 or py == 0.0:
        raise ValidationError(f"information_density: zero marginal at ({x}, {y})")
    pxy = float(j.table[x, y])
    if pxy == 0.0:
        raise ValidationError(
            f"information_density: zero joint mass at ({x}, {y}), density is -infinity"
        )
    return math.log(pxy) - math.log(px) - math.log(py)


def joint_from_source_and_channel(px: Pmf, ch: Channel) -> Joint:
    """Joint P(x, y) = px(x) ch(y | x)."""
    if ch.n_in != px.n:
        raise ValidationError(f"joint: channel has {ch.n_in} rows, pmf has {px.n}")
    return Joint(px.probs[:, None] * ch.rows)


def posterior(px: Pmf, ch: Channel) -> tuple[Channel, Pmf]:
    """Bayes inversion of (px, ch): the reverse channel and output marginal.

    Every output column must carry positive probability; prune zero-mass
    outputs before inverting.
    """
    j = joint_from_source_and_channel(px, ch)
    py = j.table.sum(axis=0)
    dead = np.flatnonzero(py == 0.0)
    if dead.size:
        raise ValidationError(
            f"posterior: zero-probability output column(s) {dead.tolist()}; prune first"
        )
    reverse = Channel(j.table.T / py[:, None])
    return reverse, Pmf(py)


def log_loss(x: int, q: Pmf) -> float:
    """-ln q(x), the logarithmic loss of reproduction q against symbol x."""
    _require_int("log_loss", "x", x, 0, q.n - 1)
    qx = float(q.probs[x])
    if qx == 0.0:
        return math.inf
    return -math.log(qx)


def log_loss_seq(xs, qs) -> float:
    """Average of per-symbol log losses over a block."""
    xs = list(xs)
    qs = list(qs)
    if len(xs) != len(qs):
        raise ValidationError(f"log_loss_seq: {len(xs)} symbols vs {len(qs)} reproductions")
    if not xs:
        raise ValidationError("log_loss_seq: empty block")
    return sum(log_loss(x, q) for x, q in zip(xs, qs)) / len(xs)
