"""Dense univariate polynomials over GF(q^2).

Coefficient vectors are stored low degree first in canonical form (no
trailing zero coefficient; the zero polynomial has an empty vector).
Zero counting is exhaustive evaluation over the whole field, never
root-finding: q^2 <= 4096 keeps that trivially cheap and unconditionally
correct.  Evaluation at w^e is sum_m c_m w^(me) over the nonzero
coefficients, one ``FieldCtx.spectrum`` for all points at once, which
decides whether the terms are summed directly or through the transform.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationRefused
from .field import Felt, FieldCtx


class Poly:
    """Polynomial over GF(q^2), coefficients as enumeration indices."""

    __slots__ = ("ctx", "c")

    def __init__(self, ctx: FieldCtx, coeffs: np.ndarray):
        c = np.asarray(coeffs, dtype=np.int64)
        nz = np.nonzero(c)[0]
        self.ctx = ctx
        self.c = c[: int(nz[-1]) + 1].copy() if nz.size else np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, ctx: FieldCtx) -> Poly:
        return cls(ctx, np.empty(0, dtype=np.int64))

    @classmethod
    def one(cls, ctx: FieldCtx) -> Poly:
        return cls(ctx, np.array([1], dtype=np.int64))

    @classmethod
    def x(cls, ctx: FieldCtx) -> Poly:
        return cls.monomial(ctx, ctx.one, 1)

    @classmethod
    def monomial(cls, ctx: FieldCtx, coeff: Felt, exponent: int) -> Poly:
        if coeff.ctx is not ctx:
            raise ValueError("coefficient belongs to a different field context")
        if exponent < 0:
            raise ValidationRefused("monomial exponent must be nonnegative")
        c = np.zeros(exponent + 1, dtype=np.int64)
        c[exponent] = coeff.i
        return cls(ctx, c)

    @classmethod
    def from_indices(cls, ctx: FieldCtx, indices) -> Poly:
        c = ctx.indices(indices)
        if c.ndim != 1:
            raise ValidationRefused(f"coefficient indices must be one list, got shape {c.shape}")
        return cls(ctx, c)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return len(self.c) == 0

    def coeff(self, exponent: int) -> Felt:
        if 0 <= exponent < len(self.c):
            return Felt(self.ctx, int(self.c[exponent]))
        return self.ctx.zero

    def indices(self) -> list[int]:
        return [int(i) for i in self.c]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and other.ctx is self.ctx
            and np.array_equal(other.c, self.c)
        )

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{Felt(self.ctx, int(v))!r}*X^{m}" for m, v in enumerate(self.c) if v]
        return "Poly(" + " + ".join(terms) + ")"

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------
    def _join(self, other: Poly) -> None:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise ValueError("polynomials belong to different field contexts")

    def __add__(self, other: Poly) -> Poly:
        self._join(other)
        n = max(len(self.c), len(other.c))
        a = np.zeros(n, dtype=np.int64)
        b = np.zeros(n, dtype=np.int64)
        a[: len(self.c)] = self.c
        b[: len(other.c)] = other.c
        return Poly(self.ctx, self.ctx.vadd(a, b))

    def __sub__(self, other: Poly) -> Poly:
        self._join(other)
        return self + Poly(other.ctx, other.ctx.vneg(other.c))

    def __mul__(self, other: Poly | Felt) -> Poly:
        if isinstance(other, Felt):
            return self.scale(other)
        self._join(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        a, b = (self.c, other.c) if len(self.c) <= len(other.c) else (other.c, self.c)
        res = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
        for i, ci in enumerate(a):
            if ci:
                res[i : i + len(b)] = self.ctx.vadd(res[i : i + len(b)], self.ctx.vmul(np.int64(ci), b))
        return Poly(self.ctx, res)

    def __rmul__(self, other: Felt) -> Poly:
        return self.scale(other)

    def scale(self, s: Felt) -> Poly:
        if s.ctx is not self.ctx:
            raise ValueError("scalar belongs to a different field context")
        return Poly(self.ctx, self.ctx.vmul(np.int64(s.i), self.c))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def eval_on(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an index array of points, in its shape.

        At w^e the value is the spectrum (``FieldCtx.spectrum``) of the
        nonzero coefficients at e, and at 0 it is c_0.
        """
        xs = np.asarray(xs, dtype=np.int64)
        exps = np.flatnonzero(self.c)
        vals = self.ctx.spectrum(exps, self.c[exps], xs - 1)
        return np.where(xs == 0, self.coeff(0).i, vals)

    def eval_all(self) -> np.ndarray:
        """Evaluation at the whole enumeration a_1..a_(q^2), as an index array."""
        return self.eval_on(self.ctx.points_idx())


def q_power_mod(poly: Poly) -> Poly:
    """The reduction of poly^q modulo X^(q^2) - X, by coefficient transport.

    The coefficient at X^(iq+j) moves, raised to the q-th power, to X^(jq+i).
    The result is the unique polynomial of degree < q^2 agreeing with
    x -> poly(x)^q on all of GF(q^2).
    """
    ctx = poly.ctx
    q, q2 = ctx.q, ctx.q2
    if poly.degree >= q2:
        raise ValidationRefused(f"q_power_mod requires degree < q^2 = {q2}, got {poly.degree}")
    if poly.is_zero():
        return poly
    out = np.zeros(q2, dtype=np.int64)
    exps = np.nonzero(poly.c)[0]
    i, j = np.divmod(exps, q)
    out[j * q + i] = ctx.vfrob(poly.c[exps])
    return Poly(ctx, out)


def distinct_zeros(poly: Poly) -> tuple[int, tuple[int, ...]]:
    """Zeros of poly over GF(q^2), counted without multiplicity.

    Returns (count, zero_set) where zero_set lists 1-based positions into
    the enumeration a_1..a_(q^2), in increasing order.
    """
    vals = poly.eval_all()
    positions = np.nonzero(vals == 0)[0] + 1
    count = int(positions.size)
    if not poly.is_zero() and poly.degree < poly.ctx.q2:
        assert count <= poly.degree, (
            f"polynomial of degree {poly.degree} evaluated to zero at {count} points"
        )
    return count, tuple(int(i) for i in positions)
