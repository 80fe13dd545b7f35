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
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import Array, Count, Int, Seq, ValidationError, _check_fields, _checked, _require_size

__all__ = [
    "SUM_TOL",
    "Check",
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


def _check_sums(record: Pmf | Joint | Channel) -> None:
    """Refuse a Pmf or a Joint whose total, or a Channel whose row sum, is not 1 within SUM_TOL."""
    # A sum that overflows is inf, which is refused: numpy's warning adds nothing.
    with np.errstate(over="ignore"):
        sums = (np.add.reduce(record.rows, -1) if isinstance(record, Channel)
                else (record.probs if isinstance(record, Pmf) else record.table).sum())
    bad = abs(sums - 1.0) > SUM_TOL
    if np.count_nonzero(bad):  # cheaper than bad.any() on a numpy scalar
        idx = int(np.argmax(bad))
        where = f"row {idx} " if isinstance(record, Channel) else ""
        raise ValidationError(f"{where}sums to {float(np.ravel(sums)[idx])!r}, "
                              f"outside 1 +/- {SUM_TOL}")


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function on ``{0, ..., n-1}``."""

    probs: Annotated[np.ndarray, Array(1)]

    def __post_init__(self):
        _check_fields(self, _check_sums)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @staticmethod
    @_checked
    def uniform(n: Count) -> "Pmf":
        return Pmf(np.full(n, 1.0 / n))

    @staticmethod
    @_checked
    def point_mass(n: Count, x: int) -> "Pmf":
        Int(0, n - 1).check("x", x)
        p = np.zeros(n)
        p[x] = 1.0
        return Pmf(p)

    def support(self) -> np.ndarray:
        """Indices with strictly positive mass."""
        return np.flatnonzero(self.probs > 0.0)


@dataclass(frozen=True, eq=False)
class Channel:
    """Conditional distribution: one Pmf per input row, equal output length."""

    rows: Annotated[np.ndarray, Array(2)]

    def __post_init__(self):
        _check_fields(self, _check_sums)

    @property
    def n_in(self) -> int:
        return self.rows.shape[0]

    @property
    def n_out(self) -> int:
        return self.rows.shape[1]

    @_checked
    def row(self, x: int) -> Pmf:
        Int(0, self.n_in - 1).check("x", x)
        return Pmf(self.rows[x])

    @staticmethod
    @_checked
    def identity(n: Count) -> "Channel":
        return Channel(np.eye(n))

    @staticmethod
    @_checked
    def constant(q: Pmf, n_in: Count) -> "Channel":
        return Channel(np.tile(q.probs, (n_in, 1)))


@dataclass(frozen=True, eq=False)
class Joint:
    """Joint distribution on a product alphabet, stored as a matrix."""

    table: Annotated[np.ndarray, Array(2)]

    def __post_init__(self):
        _check_fields(self, _check_sums)

    @property
    def shape(self) -> tuple[int, int]:
        return self.table.shape

    def marginal_x(self) -> Pmf:
        return Pmf(self.table.sum(axis=1))

    def marginal_y(self) -> Pmf:
        return Pmf(self.table.sum(axis=0))


@_checked
def renormalize(weights: Annotated[np.ndarray, Array(1)]) -> Pmf:
    """Scale nonnegative weights with positive total into a Pmf.

    This is the explicit repair path; the constructors never rescale.
    Weights whose total overflows are first divided by the largest.
    """
    with np.errstate(over="ignore"):
        total = float(weights.sum())
    if not math.isfinite(total):
        weights = weights / weights.max()
        total = float(weights.sum())
    if total <= 0.0:
        raise ValidationError("total weight must be positive")
    return Pmf(weights / total)


def _neg_p_log_p(p: np.ndarray) -> float:
    # 0 ln 0 = 0: restrict to positive entries before taking logs.
    pos = p[p > 0.0]
    return float(-(pos * np.log(pos)).sum())


@_checked
def entropy(p: Pmf) -> float:
    """Shannon entropy in nats."""
    return _neg_p_log_p(p.probs)


@_checked
def varentropy(p: Pmf) -> float:
    """Variance of the self-information -ln p(X), in nats squared.

    Vanishes (up to rounding) exactly when p is uniform on its support.
    """
    mass = p.probs[p.probs > 0.0]
    info = -np.log(mass)
    mean = float(mass @ info)
    return max(float(mass @ (info - mean) ** 2), 0.0)


@_checked
def kl_divergence(p: Pmf, q: Pmf) -> float:
    """Relative entropy D(p || q) in nats; ``math.inf`` off q's support."""
    _require_size("q.n", q.n, "p.n", p.n)
    pa, qa = p.probs, q.probs
    mask = pa > 0.0
    if np.any(qa[mask] == 0.0):
        return math.inf
    return float((pa[mask] * (np.log(pa[mask]) - np.log(qa[mask]))).sum())


@_checked
def conditional_entropy(j: Joint) -> float:
    """H(X | Y) for a joint over (x, y), in nats."""
    return _neg_p_log_p(j.table.ravel()) - entropy(j.marginal_y())


@_checked
def mutual_information(px: Pmf, ch: Channel) -> float:
    """I(X; Y) for input px through channel ch, in nats.

    Computed by ``_information`` from the joint px(x) ch(y | x) and its own
    row and column sums, as ``verify_lemma1`` computes it; tiny negative
    float residue is clamped to zero.
    """
    _require_size("ch.n_in", ch.n_in, "px.n", px.n)
    table = px.probs[:, None] * ch.rows
    # Nonnegative up to float residue; clamp the dust, never a real deficit.
    return max(_information(table, table.sum(axis=1), table.sum(axis=0)), 0.0)


def _information(table: np.ndarray, p_x: np.ndarray, p_g: np.ndarray) -> float:
    """I(X; G) of a joint table over (x, g), given its two marginals."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(table) - np.log(np.outer(p_x, p_g))
        return float(np.where(table > 0.0, table * ratio, 0.0).sum())


@dataclass(frozen=True)
class Check:
    """One named check of a verifier: it passes when ``value <= bound``.

    This is the one pass rule of the library; a NaN value fails it.
    """

    name: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.value <= self.bound


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


@_checked
def information_density(j: Joint, x: int, y: int) -> float:
    """ln of P(x, y) / (P(x) P(y)); errors on zero marginals or zero mass."""
    r, s = j.shape
    Int(0, r - 1).check("x", x)
    Int(0, s - 1).check("y", y)
    px = float(j.table[x, :].sum())
    py = float(j.table[:, y].sum())
    if px == 0.0 or py == 0.0:
        raise ValidationError(f"zero marginal at ({x}, {y})")
    pxy = float(j.table[x, y])
    if pxy == 0.0:
        raise ValidationError(f"zero joint mass at ({x}, {y}), density is -infinity")
    return math.log(pxy) - math.log(px) - math.log(py)


@_checked
def joint_from_source_and_channel(px: Pmf, ch: Channel) -> Joint:
    """Joint P(x, y) = px(x) ch(y | x)."""
    _require_size("ch.n_in", ch.n_in, "px.n", px.n)
    return Joint(px.probs[:, None] * ch.rows)


@_checked
def posterior(px: Pmf, ch: Channel) -> tuple[Channel, Pmf]:
    """Bayes inversion of (px, ch): the reverse channel and output marginal.

    Every output column must carry positive probability; prune zero-mass
    outputs before inverting.
    """
    j = joint_from_source_and_channel(px, ch)
    py = j.table.sum(axis=0)
    dead = np.flatnonzero(py == 0.0)
    if dead.size:
        raise ValidationError(f"zero-probability output column(s) {dead.tolist()}; prune first")
    reverse = Channel(j.table.T / py[:, None])
    return reverse, Pmf(py)


def _log_loss(name: str, x: int, q: Pmf) -> float:
    """-ln q(x); a symbol outside q's alphabet is refused as argument ``name``."""
    Int(0, q.n - 1).check(name, x)
    qx = float(q.probs[x])
    if qx == 0.0:
        return math.inf
    return -math.log(qx)


@_checked
def log_loss(x: int, q: Pmf) -> float:
    """-ln q(x), the logarithmic loss of reproduction q against symbol x."""
    return _log_loss("x", x, q)


@_checked
def log_loss_seq(xs: Annotated[tuple, Seq(nonempty=True)],
                 qs: Annotated[tuple, Seq(Pmf)]) -> float:
    """Average of per-symbol log losses over a block."""
    _require_size("len(qs)", len(qs), "len(xs)", len(xs))
    return sum(_log_loss(f"xs[{i}]", x, q)
               for i, (x, q) in enumerate(zip(xs, qs))) / len(xs)
