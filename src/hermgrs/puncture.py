"""The puncture code P(C) of the k-dimensional Reed-Solomon code over GF(q^2).

P(C) is the GF(q)-linear code of length q^2+1 whose words lambda satisfy
sum_i lambda_i u_i v_i^q = 0 for all codewords u, v: the kernel of the
full-rank k^2-row parity-check matrix H of the power sums S_(r,s), r <= s < k
(``parity_check``).  Its weight-r words certify Hermitian self-orthogonal
truncations of length r.  ``power_sums`` evaluates the S_(r,s) of a given
lambda as the spectrum of lambda over GF(q^2)* (``FieldCtx.spectrum``) at
the exponents rq+s; those of N(theta) are the Gram matrix.

Three computations are provided and cross-validated elsewhere; they share
the field arithmetic and nothing more.  The kernel of H eliminates the
rows of the power-sum exponents rq+s, the u-space is read off the g-space's
own exponents with no elimination, and a g-form is evaluated pointwise.

* ``puncture_direct``  - the kernel of H over GF(q);
* ``u_space_basis``    - the RREF of the g-space's g-forms (the u-space),
                         as the remainders of a Vandermonde system;
* ``g_form_vector``    - the member of P(C) of a low-degree g and c in GF(q):
                         x -> g(x) + g(x)^q + c x^((q-k)(q+1)), then c;
* ``sample_g_forms``   - the same for random (g, c), drawn from one seeded
                         byte stream and checked a block at a time: one
                         evaluation of the block's g, one g-form formula,
                         one membership product on the k^2 free columns.

The minimum weight of P(C) follows a proven closed formula; this module can
also certify it by exhaustive search at desk scale.  The dimension is
proven too (``dim_formula``), so ``min_weight_pc`` decides whether the
search fits its cap before any basis exists, and builds a basis only for a
search it will run.  The RREF of a subspace is unique, so the first two
computations give the same bytes; ``primal_basis`` takes the kernel of H
when k^2 <= dim = q^2+1-k^2 and the u-space otherwise.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapExceeded, SelfCheckFailed, ValidationRefused
from .field import MAX_Q, Felt, FieldCtx, code_sum
from .poly import Poly, eval_rows

DIRECT_MAX_Q = 11


class PunctureVector:
    """Length-(q^2+1) vector over GF(q), stored as compact subfield labels.

    Coordinate i <= q^2 sits over the evaluation point a_i; coordinate
    q^2+1 is the coefficient coordinate of the extended Reed-Solomon code.
    """

    __slots__ = ("ctx", "v")

    def __init__(self, ctx: FieldCtx, compact: np.ndarray):
        arr = np.asarray(compact)
        if arr.shape != (ctx.q2 + 1,):
            raise ValidationRefused(f"puncture vector must have length q^2+1 = {ctx.q2 + 1}")
        # range check before the uint8 cast, which would wrap 257 and -255 to 1
        if arr.dtype.kind not in "iu" or int(arr.min()) < 0 or int(arr.max()) >= ctx.q:
            raise ValidationRefused("puncture vector entries must be GF(q) labels")
        self.ctx = ctx
        self.v = arr.astype(np.uint8)

    @classmethod
    def from_serialized(cls, ctx: FieldCtx, indices) -> PunctureVector:
        """The vector whose entries have the field enumeration indices ``indices``
        (the JSON form).  Each must be an index (``FieldCtx.indices``) naming
        an element of GF(q), in a list of length q^2+1."""
        idx = ctx.indices(indices)
        if idx.shape != (ctx.q2 + 1,):
            raise ValidationRefused(f"puncture vector is not a list of length q^2+1 = {ctx.q2 + 1}")
        comp = ctx.fq.compact_of_idx[idx]
        if (comp < 0).any():
            raise ValidationRefused("puncture vector entries must lie in GF(q)")
        return cls(ctx, comp)

    def weight(self) -> int:
        return int(np.count_nonzero(self.v))

    def support(self) -> tuple[int, ...]:
        """1-based coordinates with a nonzero entry (q^2+1 = coefficient coordinate)."""
        return tuple((np.flatnonzero(self.v) + 1).tolist())

    def serialized(self) -> list[int]:
        """Entries as field enumeration indices (the JSON form)."""
        return self.ctx.fq.idx_of_compact[self.v].tolist()

    def __repr__(self) -> str:
        return f"PunctureVector(q={self.ctx.q}, weight={self.weight()})"


class PunctureBasis:
    """Canonical (RREF, pivots leftmost) GF(q)-basis of P(C)."""

    __slots__ = ("ctx", "k", "method", "matrix", "pivots")

    def __init__(self, ctx: FieldCtx, k: int, method: str, matrix: np.ndarray, pivots: tuple[int, ...]):
        self.ctx = ctx
        self.k = k
        self.method = method
        self.matrix = matrix
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def row_space_equals(self, other: PunctureBasis) -> bool:
        return np.array_equal(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return f"PunctureBasis(q={self.ctx.q}, k={self.k}, method={self.method}, dim={self.dim})"


def _labels(ctx: FieldCtx, vals: np.ndarray) -> np.ndarray:
    """GF(q) labels of GF(q^2) values that the structured form puts in GF(q)."""
    comp = ctx.fq.compact_of_idx[vals]
    if int(comp.min(initial=0)) < 0:
        raise SelfCheckFailed("evaluation left GF(q); the structured form is violated")
    return comp.astype(np.uint8)


@functools.cache
def _pairs(q: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row layout of H, for ``parity_check`` and ``power_sums`` alike.

    The pairs (r, s), r <= s < k, in row-major order, and the set Z of
    their exponents rq+s, where S_(r,s) reads the spectrum of lambda over
    GF(q^2)*.  H's k^2 rows are the ``_component_rows`` of these pairs.
    For lambda over GF(q), S_(s,r) = S_(r,s)^q and S_(r,r) lies in GF(q),
    so they span the conditions of all k^2 sums, and they are independent.
    Built once per (q, k), as ``np.triu_indices`` costs tens of
    microseconds a call, and read-only, as every caller shares them.
    """
    r, s = np.triu_indices(k)
    pairs = r, s, r * q + s
    for a in pairs:
        a.flags.writeable = False
    return pairs


def parity_check(ctx: FieldCtx, k: int, cols) -> np.ndarray:
    """The (k^2, len(cols)) GF(q) parity-check matrix H of P(C) on 1-based coordinates.

    Its rows (``_pairs``) are the {1, xi}-components of the conditions
    S_(r,s)(lambda) = sum_i lambda_i a_i^(rq+s) + [r=s=k-1] lambda_(q^2+1) = 0:
    the 1-components of a^(rq+s) over the pairs r <= s, then the
    xi-components of the pairs with r < s (zero at r = s).  Coordinate q^2+1
    is 1 in the last pair's 1-component, else 0.  On all q^2+1 coordinates
    H has rank k^2.
    """
    r, s, exps = _pairs(ctx.q, k)
    cols = np.asarray(cols, dtype=np.int64)
    coeff = cols == ctx.q2 + 1
    c0, c1 = ctx.split_components(ctx.vpow(np.where(coeff, 0, cols - 1), exps[:, None]))
    H = np.concatenate([c0, c1[r < s]])
    H[:, coeff] = 0
    H[r.size - 1, coeff] = 1
    return H


def power_sums(ctx: FieldCtx, k: int, cols, lam) -> np.ndarray:
    """S_(r,s)(lambda) as a k x k GF(q^2) matrix, for GF(q) labels ``lam`` on the
    distinct 1-based coordinates ``cols``.

    For r <= s, S_(r,s) is the spectrum (``FieldCtx.spectrum``) of lambda on
    the nonzero points a_i = w^(i-2) at rq+s.  The zero point adds
    lambda_1 where rq+s = 0 exactly, and the coefficient coordinate adds
    lambda_(q^2+1) to S_(k-1,k-1) alone, the last pair.  S_(s,r) = S_(r,s)^q.
    """
    q2 = ctx.q2
    cols = np.asarray(cols, dtype=np.int64)
    lam = ctx.fq.idx_of_compact[np.asarray(lam)]
    r, s, exps = _pairs(ctx.q, k)
    nonzero = (cols > 1) & (cols <= q2)
    upper = ctx.spectrum(cols[nonzero] - 2, lam[nonzero], exps)
    upper = ctx.vadd(upper, np.where(exps == 0, ctx.vsum(lam[cols == 1]), 0))
    upper[-1] = ctx.vadd(upper[-1], ctx.vsum(lam[cols == q2 + 1]))
    G = np.empty((k, k), dtype=np.int64)
    G[s, r] = ctx.vfrob(upper)
    G[r, s] = upper
    return G


def puncture_direct(ctx: FieldCtx, k: int, max_q: int = DIRECT_MAX_Q) -> PunctureBasis:
    """P(C) as the kernel of its parity-check matrix H over all q^2+1 coordinates."""
    q, q2 = ctx.q, ctx.q2
    _check_k(ctx, k)
    if k > q + 1:
        return PunctureBasis(ctx, k, "direct", np.empty((0, q2 + 1), dtype=np.uint8), ())
    if q > max_q:
        raise CapExceeded(f"direct solver capped at q <= {max_q} (q^2+1 = {q2 + 1} unknowns); got q={q}")
    kernel, pivots = linalg.kernel_basis(ctx.fq, parity_check(ctx, k, np.arange(1, q2 + 2)))
    return PunctureBasis(ctx, k, "direct", kernel, pivots)


def _g_space_exponents(q: int, k: int) -> np.ndarray:
    """The exponents e of the characters x^e whose GF(q)-span holds the g-forms, k <= q.

    For the pairs i <= j < q, i < q-k: iq+j and jq+i, then
    e* = (q-k)(q+1), the exponent of the c-term.  These are the flat indices
    aq+b of the q x q grid with min(a, b) < q-k, and e*.  The set is closed
    under e -> eq mod q^2-1, the Frobenius of a character.
    """
    grid = np.arange(q)
    return np.append(np.flatnonzero(np.minimum.outer(grid, grid) < q - k), _c_exponent(q, k))


def _c_exponent(q: int, k: int) -> int:
    """e* = (q-k)(q+1), the exponent of the c-term of a g-form; q+1 divides it,
    so x^e* lies in GF(q) at every x."""
    return (q - k) * (q + 1)


def u_space_basis(ctx: FieldCtx, k: int) -> PunctureBasis:
    """P(C) as the RREF of the g-forms (``g_form_vector``), read off their exponents.

    The g-forms are the GF(q) words in the span of the characters x^e,
    e in E (``_g_space_exponents``): x^e at the q^2 points, and 1 at the
    coefficient coordinate for x^e* alone.  On the units w^s, s < N = q^2-1,
    the K nonzero exponents of E, taken mod N (they must be distinct), span
    a code whose dual is the multiples of m(y) = prod (y - w^e) below
    degree N, as a word c is dual to x^e iff c(w^e) = 0.  That is a
    Vandermonde system, and its RREF is the systematic form of a cyclic
    code: pivots at the point 0 and the units s < K, and unit row t holds at
    each of the d = N-K = k^2-1 free units s >= K the coefficient of y^t in
    y^s mod m, by y^(s+1) = y y^s from y^K mod m = y^K - m.

    The coefficients of m are read back from its values on the d residues j
    outside E, each a sum of logs log(w^j - w^e), by one inverse transform,
    m_i = -sum_j m(w^j) w^(-ij), as 1/N = -1 in GF(p).  The coefficient
    coordinate of a unit row u is the coefficient of x^e* in u, likewise
    -sum_s u_s w^(-e* s); the point-0 row is the all-ones g-form of x^0
    minus the unit rows.  m and the powers w^(-e* s) pass through
    ``_labels``, so an exponent set not closed under e -> eq, whose m
    leaves GF(q), raises ``SelfCheckFailed``, as does a repeated residue.
    The work is O(dK) table reads and d-1 remainder steps of length K;
    nothing is eliminated.
    """
    _check_k(ctx, k)
    q, q2, n, fq = ctx.q, ctx.q2, ctx.n_units, ctx.fq
    if k > q:
        return PunctureBasis(ctx, k, "u_space", np.empty((0, q2 + 1), dtype=np.uint8), ())
    exps = _g_space_exponents(q, k)
    units = exps[exps != 0] % n
    roots = np.zeros(n, dtype=bool)
    roots[units] = True
    if np.count_nonzero(roots) != units.size:
        raise SelfCheckFailed("two g-space exponents have the same residue mod q^2-1")
    K, off = units.size, np.flatnonzero(~roots)
    d = off.size

    # log m(w^j) = sum_e e + log(w^(j-e) - 1), in blocks of about 2^16 terms
    zech = ctx.vadd(1 + np.arange(n), ctx.vneg(np.int64(1))) - 1  # log(w^i - 1), 0 < i < N
    logs = np.full(d, units.sum())
    step = max(1, (1 << 16) // max(1, K))
    for lo in range(0, d, step):
        logs[lo : lo + step] += zech[(off[lo : lo + step, None] - units) % n].sum(axis=1)
    m_low = _labels(ctx, ctx.vneg(ctx.spectrum(off, 1 + logs % n, -np.arange(K) % n)))  # m_0 .. m_(K-1)

    rem = np.zeros((d, K + 1), dtype=np.uint8)  # row s-K: 0, then y^s mod m, for the free units s
    if K:  # else m = 1 and every remainder is empty
        mult = fq.mul[:, fq.neg[m_low]]  # mult[a] = -a (m_0, ..., m_(K-1))
        rem[:1, 1:] = mult[1]
        for prev, row in zip(rem, rem[1:]):  # y^(s+1) = y * y^s - lead(y^s) m
            row[1:] = fq.add[prev[:-1], mult[prev[-1]]]
    rem = rem[:, 1:]

    top = _c_exponent(q, k)
    twiddle = _labels(ctx, 1 + -top * np.arange(n) % n)  # w^(-e* s), in GF(q) as q+1 divides e*
    coef = fq.neg[fq.add[twiddle[:K], linalg.matvec(fq, rem.T, twiddle[K:])]]

    basis = np.zeros((K + 1, q2 + 1), dtype=np.uint8)
    basis[0, 0] = 1
    basis[0, K + 1 : n + 1] = fq.add[1, fq.neg[code_sum(fq.p, fq.h, rem, axis=1)]]
    basis[0, n + 1] = fq.add[int(top == 0), fq.neg[code_sum(fq.p, fq.h, coef)]]  # x^0 is the c-term at k = q
    np.fill_diagonal(basis[1:, 1:], 1)
    basis[1:, K + 1 : n + 1] = rem.T
    basis[1:, n + 1] = coef
    return PunctureBasis(ctx, k, "u_space", basis, tuple(range(K + 1)))


def primal_basis(ctx: FieldCtx, k: int) -> PunctureBasis:
    """The RREF of P(C): the kernel of H (k^2 pivots) when k^2 <= dim, the
    u-space otherwise.  Both give the same bytes.

    The rule is that of the fewer pivots to eliminate from when the u-space
    was row-reduced (dim pivots); the u-space now eliminates nothing and is
    the cheaper route on most cells, but the rule is kept, so that every
    cell keeps its route."""
    if k * k <= dim_formula(ctx.q, k):
        return puncture_direct(ctx, k, max_q=ctx.q)
    return u_space_basis(ctx, k)


def _checked_basis(ctx: FieldCtx, k: int, basis: PunctureBasis | None) -> PunctureBasis:
    if basis is None:
        basis = primal_basis(ctx, k)
    dim = dim_formula(ctx.q, k)
    if basis.dim != dim:
        raise SelfCheckFailed(f"P(C) basis has dimension {basis.dim}, the formula says {dim}")
    return basis


def g_form_vector(ctx: FieldCtx, k: int, g: Poly, c: Felt) -> PunctureVector:
    """Member of P(C) from a polynomial of degree <= (q-k)q-1 and c in GF(q).

    Coordinate i carries g(a_i) + g(a_i)^q + c a_i^((q-k)(q+1)); the final
    coordinate carries c.  It is the one-row case of ``_g_forms``.
    """
    q = ctx.q
    _check_k(ctx, k)
    if k > q:
        raise ValidationRefused(f"the g-form requires k <= q; got k={k}")
    if g.ctx is not ctx or c.ctx is not ctx:
        raise ValueError("inputs belong to a different field context")
    bound = (q - k) * q - 1
    if g.degree > bound:
        raise ValidationRefused(f"deg g = {g.degree} exceeds the bound (q-k)q-1 = {bound}")
    if not c.in_subfield():
        raise ValidationRefused("c must lie in GF(q)")
    return PunctureVector(ctx, _g_forms(ctx, k, g.eval_all()[None, :], np.array([c.i], dtype=np.int64))[0])


def _g_forms(ctx: FieldCtx, k: int, g_vals: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """The g-forms of a batch, as a (B, q^2+1) array of GF(q) labels.

    Row b is the g-form of the g whose values at the q^2 points are
    g_vals[b] and of the c with the index cs[b]: g(a_i) + g(a_i)^q +
    c a_i^((q-k)(q+1)) at coordinate i, then c.  Every entry passes through
    ``_labels``, so a value outside GF(q) raises ``SelfCheckFailed``.
    """
    vals = ctx.vadd(g_vals, ctx.vfrob(g_vals))
    top = ctx.vpow(ctx.points_idx(), _c_exponent(ctx.q, k))
    vals = ctx.vadd(vals, ctx.vmul(cs[:, None], top))
    return _labels(ctx, np.concatenate([vals, cs[:, None]], axis=1))


def _uniform(rng: random.Random, m: int, size: int) -> np.ndarray:
    """``size`` draws uniform on [0, m), for m <= 2^16, from the byte stream of
    ``rng``: 16-bit little-endian words, each word at or above 2^16 // m * m
    rejected and the others taken mod m, so every value is equally likely."""
    limit = (1 << 16) // m * m
    out = np.empty(size, dtype=np.int64)
    got = 0
    while got < size:
        words = np.frombuffer(rng.randbytes(2 * (size - got)), dtype="<u2")
        words = words[words < limit]
        out[got : got + words.size] = words % m
        got += words.size
    return out


# terms of one q = 64 transform, 2q(q^2-1): the budget of a block of samples
_SAMPLE_BLOCK = 2 * MAX_Q * (MAX_Q * MAX_Q - 1)


def _g_form_draws(ctx: FieldCtx, k: int, count: int, seed: int):
    """The random (g, c) of ``sample_g_forms``, block by block: for each block of
    B samples, the (B, (q-k)q) coefficient indices of g and the B indices of c.

    Every coefficient of g up to degree (q-k)q-1 is a draw uniform on
    [0, q^2), an element index, and one more such draw per sample, taken
    mod q, is the GF(q) label of c, uniform as q divides q^2.  A block
    takes all its draws at once from the one byte stream of
    ``random.Random(seed)`` (``_uniform``).
    B 2q(q^2-1), the terms of B transforms, is at most the 2q(q^2-1) of
    one q = 64 transform, so no block, and no temporary made from one,
    grows with ``count``.
    """
    q = ctx.q
    rng = random.Random(seed)
    terms = (q - k) * q
    block = max(1, _SAMPLE_BLOCK // (2 * q * ctx.n_units))
    for lo in range(0, count, block):
        rows = min(block, count - lo)
        draws = _uniform(rng, ctx.q2, rows * (terms + 1)).reshape(rows, terms + 1)
        yield draws[:, :terms], ctx.fq.idx_of_compact[draws[:, terms] % q]


def sample_g_forms(basis: PunctureBasis, count: int, seed: int) -> bool:
    """Whether ``count`` random g-forms all lie in the row space of ``basis``, an
    RREF of P(C) at k <= q.

    The (g, c) are those of ``_g_form_draws``.  Each block of them is one
    batched check: its g are evaluated at the q^2 points by one
    ``poly.eval_rows``, its g-forms are one ``_g_forms``, each entry
    checked to lie in GF(q), and its membership is one call of a
    ``linalg.row_space_test``, a product on the k^2 free columns of the
    basis, which checks the basis once for all blocks.  The check stops at
    the first block with a non-member.
    """
    ctx, k = basis.ctx, basis.k
    if k > ctx.q:
        raise ValidationRefused(f"the g-form requires k <= q; got k={k}")
    members = linalg.row_space_test(ctx.fq, basis.matrix, basis.pivots)
    for coeffs, cs in _g_form_draws(ctx, k, count, seed):
        words = _g_forms(ctx, k, eval_rows(ctx, coeffs, ctx.points_idx()), cs)
        if not members(words).all():
            return False
    return True


def membership(basis: PunctureBasis, v: PunctureVector) -> bool:
    """True iff v lies in the GF(q)-row space of the basis."""
    if v.ctx is not basis.ctx:
        raise ValueError("vector belongs to a different field context")
    if v.v.shape[0] != basis.matrix.shape[1]:
        raise ValidationRefused("vector length does not match the basis")
    return linalg.in_row_space(basis.ctx.fq, basis.matrix, basis.pivots, v.v)


def dim_formula(q: int, k: int) -> int:
    """The proven GF(q)-dimension of P(C) for the k-dimensional code.

    For k <= q the u-space is a direct sum over disjoint monomial
    supports, of dimension 2 for each of the (q-k)(q+k-1)/2 pair slots and
    1 for each of the q-k+1 diagonal slots, and evaluation on all of
    GF(q^2) is injective below degree q^2: q^2+1-k^2 in all.
    """
    return q * q + 1 - k * k if k <= q else 0


def min_weight_formula(q: int, k: int) -> int:
    """The proven minimum distance of P(C) for the k-dimensional code."""
    if not 1 <= k <= q:
        raise ValidationRefused(f"formula defined for 1 <= k <= q; got k={k}, q={q}")
    if k == q:
        return q * q + 1
    if 2 * k <= q:
        return 2 * k
    if q % 2 == 0:
        return q * (k + 1 - q // 2)
    return (q + 1) * (k - (q - 1) // 2)


def small_support_witness(ctx: FieldCtx, k: int) -> PunctureVector:
    """Weight-2k member of P(C) supported on 2k subfield points (k <= q/2).

    On them H has only the rows a^(r+s) of a (2k-1) x 2k Vandermonde system
    and zero rows; its kernel is spanned by the dual GRS column multipliers
    u_i = 1 / prod_(j != i) (a_i - a_j), scaled here so that u_1 = 1.
    """
    if not 1 <= 2 * k <= ctx.q:
        raise ValidationRefused(f"the 2k-point witness needs 2k <= q; got k={k}, q={ctx.q}")
    points = np.array([x.i for x in ctx.subfield_elems()[: 2 * k]], dtype=np.int64)
    diffs = ctx.vadd(points[:, None], ctx.vneg(points)[None, :])
    np.fill_diagonal(diffs, 1)  # leave out j = i; index 1 + m is w^m
    logs = (diffs - 1).sum(axis=1)
    out = np.zeros(ctx.q2 + 1, dtype=np.uint8)
    out[points] = _labels(ctx, 1 + (logs[0] - logs) % ctx.n_units)  # coordinate of a_i is its index
    return PunctureVector(ctx, out)


def constructive_witness(ctx: FieldCtx, k: int) -> PunctureVector:
    """A minimum-weight member of P(C) from the proven constructions; for 2k > q the
    g-form (c = 0) read off the family's pointwise g + g^q, g itself never built."""
    q = ctx.q
    _check_k(ctx, k)
    if k > q:
        raise ValidationRefused("P(C) is trivial for k > q; no witness exists")
    if k == q:
        return PunctureVector(ctx, np.ones(ctx.q2 + 1, dtype=np.uint8))
    if 2 * k <= q:
        return small_support_witness(ctx, k)
    from . import constructions  # deferred: constructions imports this module

    family = constructions.even_min_values if q % 2 == 0 else constructions.odd_min_values
    _, values = family(ctx, k)
    return PunctureVector(ctx, _labels(ctx, np.append(values, 0)))


@dataclass
class PuncMinWeight:
    """Minimum-weight report for P(C) at a given (q, k)."""

    q: int
    k: int
    dim: int
    weight: int | None
    witness: PunctureVector | None
    mode: str  # "exhaustive" | "constructive" | "empty"
    formula: int | None
    agrees: bool
    scanned: int
    note: str = ""
    witness_weight: int | None = None  # weight of the verified constructive witness


def min_weight_pc(
    ctx: FieldCtx, k: int, cap: int = linalg.SCAN_CAP, basis: PunctureBasis | None = None,
) -> PuncMinWeight:
    """Minimum nonzero weight of P(C), certified exhaustively when feasible.

    Exhaustive mode runs the certified level search while its projected
    work stays under ``cap``; beyond that the proven formula value is
    reported with a verified constructive witness.  Admission is decided
    from the proven dimension and the witness weight alone, so a basis is
    built (``primal_basis``) only for an admitted scan, where its dimension
    is checked against the formula.  A caller that already holds any RREF
    basis of P(C) passes it as ``basis``.
    """
    q = ctx.q
    _check_k(ctx, k)
    if k > q:
        return PuncMinWeight(q, k, 0, None, None, "empty", None, True, 0, "P(C) = {0}")
    formula = min_weight_formula(q, k)
    dim = dim_formula(q, k)
    upper_vec = constructive_witness(ctx, k)
    upper_w = upper_vec.weight()
    if power_sums(ctx, k, upper_vec.support(), upper_vec.v[upper_vec.v != 0]).any():
        raise SelfCheckFailed("constructive witness is not a member of P(C)")
    if linalg.projected_work(q, dim, min(dim, upper_w - 1), cap) <= cap:
        basis = _checked_basis(ctx, k, basis)
        res = linalg.min_weight_scan(ctx.fq, basis.matrix, cap=cap, upper=(upper_w, upper_vec.v))
        assert res.admitted and res.weight is not None and res.witness is not None
        return PuncMinWeight(
            q, k, dim, res.weight, PunctureVector(ctx, res.witness), "exhaustive", formula,
            res.weight == formula, res.scanned, witness_weight=upper_w,
        )
    if upper_w != formula:
        raise SelfCheckFailed(f"constructive witness weighs {upper_w}, formula says {formula}")
    return PuncMinWeight(
        q, k, dim, formula, upper_vec, "constructive", formula, True, 0,
        note="proven formula; verified witness attains it", witness_weight=upper_w,
    )


def weight_distribution(
    ctx: FieldCtx, k: int, cap: int = linalg.DISTRIBUTION_CAP, basis: PunctureBasis | None = None,
) -> np.ndarray:
    """Full weight enumerator of P(C) (index = weight, zero word included).

    ``basis`` is any RREF basis of P(C) the caller already holds; without it
    ``primal_basis`` builds one.  Its dimension is checked against the
    formula (0 for k > q: the zero word alone).
    """
    _check_k(ctx, k)
    basis = _checked_basis(ctx, k, basis)
    return linalg.weight_distribution(ctx.fq, basis.matrix, cap=cap)


def _check_k(ctx: FieldCtx, k: int) -> None:
    if not 1 <= k <= ctx.q2 + 1:
        raise ValidationRefused(f"k={k} out of range 1..{ctx.q2 + 1}")
