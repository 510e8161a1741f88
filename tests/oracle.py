"""Independent reference computations for the test suite.

Everything here deliberately avoids the vectorized machinery under test:
powers go through repeated multiplication, sums through scalar loops, and
the lowest-level reference field works on raw coefficient tuples reduced by
the context's modulus.
"""

from __future__ import annotations

import itertools

import numpy as np

from hermgrs.field import Felt, FieldCtx
from hermgrs.grscode import GrsCode


def pow_by_mul(x: Felt, n: int) -> Felt:
    """x^n by square and multiply, using only the scalar product."""
    assert n >= 0
    result = x.ctx.one
    acc = x
    while n:
        if n & 1:
            result = result * acc
        acc = acc * acc
        n >>= 1
    return result


def felt_eval(poly, x: Felt) -> Felt:
    """Horner evaluation of a Poly at one point, by the scalar operators."""
    acc = poly.ctx.zero
    for coef in reversed(poly.indices()):
        acc = acc * x + poly.ctx.felt(coef)
    return acc


def felt_trace_to_prime(ctx: FieldCtx, x: Felt) -> Felt:
    """GF(q) -> GF(p) trace: the sum of x^(p^j) for j = 0..h-1."""
    assert x.in_subfield()
    total = ctx.zero
    for j in range(ctx.h):
        total = total + pow_by_mul(x, ctx.p**j)
    return total


def conj(x: Felt) -> Felt:
    """x^q via repeated multiplication, independent of the operator x ** q."""
    return pow_by_mul(x, x.ctx.q)


def hermitian_norm(x: Felt) -> Felt:
    return pow_by_mul(x, x.ctx.q + 1)


def full_length_rs(ctx: FieldCtx, k: int) -> GrsCode:
    """The full-length Reed-Solomon code: all q^2+1 coordinates, every theta one."""
    return GrsCode(ctx, k, tuple(range(1, ctx.q2 + 2)), np.ones(ctx.q2 + 1, dtype=np.int64))


def gram_entry(code, r: int, s: int) -> Felt:
    """Direct double-sum Gram entry on the monomial basis f=X^r, g=X^s."""
    ctx = code.ctx
    total = ctx.zero
    for pos, coord in enumerate(code.support):
        theta = ctx.felt(int(code.thetas[pos]))
        lam = hermitian_norm(theta)
        if coord == ctx.q2 + 1:
            if r == code.k - 1 and s == code.k - 1:
                total = total + lam
            continue
        a = ctx.elem(coord)
        fr = pow_by_mul(a, r) if r or a else ctx.one
        gs = pow_by_mul(a, s) if s or a else ctx.one
        total = total + lam * conj(fr) * gs
    return total


def gram_matrix(code) -> list[list[Felt]]:
    return [[gram_entry(code, r, s) for s in range(code.k)] for r in range(code.k)]


def scaled_basis_gram_zero(code, scales: list[Felt]) -> bool:
    """Whether the Hermitian form vanishes on the row-scaled monomial basis.

    Scaling basis row r by mu_r turns entry (r, s) into mu_r^q mu_s G[r][s];
    this recomputes the sum from scratch on the scaled functions.
    """
    ctx = code.ctx
    for r in range(code.k):
        for s in range(code.k):
            total = ctx.zero
            for pos, coord in enumerate(code.support):
                theta = ctx.felt(int(code.thetas[pos]))
                lam = hermitian_norm(theta)
                if coord == ctx.q2 + 1:
                    if r == code.k - 1 and s == code.k - 1:
                        total = total + lam * conj(scales[r]) * scales[s]
                    continue
                a = ctx.elem(coord)
                fr = scales[r] * (pow_by_mul(a, r) if r or a else ctx.one)
                gs = scales[s] * (pow_by_mul(a, s) if s or a else ctx.one)
                total = total + lam * conj(fr) * gs
            if total:
                return False
    return True


def nonsingular_by_elimination(ctx: FieldCtx, rows: list[list[Felt]]) -> bool:
    """Gaussian elimination over GF(q^2) with scalar Felt arithmetic."""
    m = [row[:] for row in rows]
    size = len(m)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return False
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col].inverse()
        for r in range(col + 1, size):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [m[r][c] - factor * m[col][c] for c in range(size)]
    return True


def code_min_weight_enum(code) -> int:
    """Minimum nonzero weight by scalar enumeration of all nonzero messages.

    A message whose word is zero (the rows are dependent) is skipped; with
    every word zero the result is n + 1.
    """
    ctx = code.ctx
    k, n = code.k, code.n
    gen = [[ctx.felt(int(code.gen[r][c])) for c in range(n)] for r in range(k)]
    best = n + 1
    for msg_int in range(1, ctx.q2**k):
        msg = []
        v = msg_int
        for _ in range(k):
            v, d = divmod(v, ctx.q2)
            msg.append(ctx.felt(d))
        word = [ctx.zero] * n
        for r in range(k):
            if msg[r]:
                word = [word[c] + msg[r] * gen[r][c] for c in range(n)]
        weight = sum(1 for x in word if x)
        if weight:
            best = min(best, weight)
    return best


def function_zero_positions(ctx: FieldCtx, fn) -> list[int]:
    """1-based enumeration positions where fn(a_i) vanishes (scalar loop)."""
    return [i for i in range(1, ctx.q2 + 1) if not fn(ctx.elem(i))]


class ReferenceField:
    """Coefficient-tuple arithmetic mod the context's modulus (no tables).

    Elements are tuples of length 2h over GF(p).  Used to validate the
    table-driven scalar arithmetic exhaustively at small q.
    """

    def __init__(self, p: int, h: int, modulus: tuple[int, ...]):
        self.p = p
        self.deg = 2 * h
        self.modulus = modulus

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.deg

    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.deg - 1)

    def x(self) -> tuple[int, ...]:
        return (0, 1) + (0,) * (self.deg - 2)

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(-x % self.p for x in a)

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        prod = [0] * (2 * self.deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % self.p
        for i in range(len(prod) - 1, self.deg - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.deg):
                    prod[i - self.deg + j] = (prod[i - self.deg + j] - c * self.modulus[j]) % self.p
        return tuple(prod[: self.deg])

    def exp_table(self, order: int) -> list[tuple[int, ...]]:
        """Powers x^0 .. x^(order-1); asserts x has exactly this order."""
        out = [self.one()]
        for _ in range(order - 1):
            out.append(self.mul(out[-1], self.x()))
        assert self.mul(out[-1], self.x()) == self.one()
        assert len(set(out)) == order
        return out


def labels_to_felts(ctx: FieldCtx, mat) -> list[list[Felt]]:
    """Compact GF(q) labels (nested sequences) as scalar field elements."""
    return [[Felt(ctx, ctx.fq.idx_of_compact[c]) for c in row] for row in mat]


def felts_to_labels(ctx: FieldCtx, rows: list[list[Felt]]) -> list[list[int]]:
    return [[int(ctx.fq.compact_of_idx[x.i]) for x in row] for row in rows]


def felt_rref(ctx: FieldCtx, rows: list[list[Felt]], ncols: int) -> tuple[list[list[Felt]], list[int]]:
    """Reduced row echelon form by scalar Felt elimination: (nonzero rows, pivots)."""
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def felt_kernel(ctx: FieldCtx, rows: list[list[Felt]], ncols: int) -> list[list[Felt]]:
    """RREF basis of {x : rows @ x = 0}: one vector per free column."""
    R, pivots = felt_rref(ctx, rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [ctx.zero] * ncols
        vec[f] = ctx.one
        for i, p in enumerate(pivots):
            vec[p] = -R[i][f]
        basis.append(vec)
    return felt_rref(ctx, basis, ncols)[0]


def felt_in_row_space(ctx: FieldCtx, rows: list[list[Felt]], v: list[Felt], ncols: int) -> bool:
    """Membership by rank: adding v to the rows does not raise the rank."""
    return len(felt_rref(ctx, rows + [v], ncols)[1]) == len(felt_rref(ctx, rows, ncols)[1])


def felt_matvec_is_zero(ctx: FieldCtx, rows: list[list[Felt]], v: list[Felt]) -> bool:
    for row in rows:
        total = ctx.zero
        for a, b in zip(row, v):
            total = total + a * b
        if total:
            return False
    return True


def felt_span_weights(ctx: FieldCtx, rows: list[list[Felt]], ncols: int) -> tuple[list[int], int | None]:
    """(weight counts of all GF(q) combinations of the rows, minimum nonzero weight).

    One scalar combination per coefficient vector, zero word included.
    """
    scalars = ctx.subfield_elems()
    counts = [0] * (ncols + 1)
    for coeffs in itertools.product(scalars, repeat=len(rows)):
        word = [ctx.zero] * ncols
        for a, row in zip(coeffs, rows):
            word = [x + a * y for x, y in zip(word, row)]
        counts[sum(1 for x in word if x)] += 1
    lightest = next((w for w in range(1, ncols + 1) if counts[w]), None)
    return counts, lightest


def first_lightest_word(add, multiples: np.ndarray) -> tuple[int | None, np.ndarray | None]:
    """(least nonzero weight, first word of that weight) among all the words
    sum_r multiples[r, c_r], or (None, None) when every one is zero.

    ``multiples[r, c]`` is the c-th scalar multiple of row r, and ``add``
    adds two broadcast arrays of entries, with 0 the zero entry.  Every
    word is built, in increasing order of sum_r c_r Q^r with
    Q = multiples.shape[1]: row 0's coefficient fastest, the order of
    ``felt_first_lightest_word``, without halves, orbits or blocks.
    """
    n = multiples.shape[2]
    words = np.zeros((1, n), dtype=multiples.dtype)
    for mult in multiples:  # each row's coefficient slower than the ones before
        words = add(words[None, :, :], mult[:, None, :]).reshape(-1, n)
    weights = np.count_nonzero(words, axis=1)
    if not weights.any():
        return None, None
    lightest = int(weights[weights > 0].min())
    return lightest, words[int(np.argmax(weights == lightest))]


def felt_first_lightest_word(ctx: FieldCtx, rows: list[list[Felt]], scalars, ncols: int) -> list[Felt] | None:
    """The first nonzero word of least weight among the combinations
    sum_r scalars[c_r] * rows[r], or None when every one is zero.

    The combinations are taken in increasing order of sum_r c_r Q^r with
    Q = len(scalars): row 0's coefficient fastest, the last row's slowest.
    That is the B-major order of a meet-in-the-middle enumeration whose
    first half is the first rows, however the rows are split.
    """
    first, best = None, ncols + 1
    for i in range(len(scalars) ** len(rows)):
        word = [ctx.zero] * ncols
        for row in rows:
            i, c = divmod(i, len(scalars))
            if c:
                word = [x + scalars[c] * y for x, y in zip(word, row)]
        weight = sum(1 for x in word if x)
        if 0 < weight < best:
            first, best = word, weight
    return first
