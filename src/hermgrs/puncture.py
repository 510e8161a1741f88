"""The puncture code P(C) of the k-dimensional Reed-Solomon code over GF(q^2).

P(C) is the GF(q)-linear code of length q^2+1 whose words lambda satisfy
sum_i lambda_i u_i v_i^q = 0 for all codewords u, v: the kernel of the
full-rank k^2-row parity-check matrix H of the power sums S_(r,s), r <= s < k
(``parity_check``).  Its weight-r words certify Hermitian self-orthogonal
truncations of length r.  ``power_sums`` evaluates the S_(r,s) of a given
lambda as the spectrum of lambda over GF(q^2)* (``FieldCtx.spectrum``) at
the exponents rq+s; those of N(theta) are the Gram matrix.

Three computations are provided and cross-validated elsewhere.  The first
two share one row builder: P(C) is the kernel of the ``_component_rows`` of
one exponent-pair set and the span of those of another.  The third reads no
component table.

* ``puncture_direct``  - the kernel of H over GF(q);
* ``u_space_basis``    - the RREF of the g-space's g-forms (the u-space);
* ``g_form_vector``    - the member of P(C) of a low-degree g and c in GF(q):
                         x -> g(x) + g(x)^q + c x^((q-k)(q+1)), then c.

The minimum weight of P(C) follows a proven closed formula; this module can
also certify it by exhaustive search at desk scale.  The dimension is
proven too (``dim_formula``), so ``min_weight_pc`` decides whether the
search fits its cap before any basis exists, and builds a basis only for a
search it will run.  The RREF of a subspace is unique, so the first two
computations give the same bytes; ``primal_basis`` takes the cheaper one:
the kernel of H eliminates about k^2 pivots, the u-space evaluations about
dim = q^2+1-k^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapExceeded, SelfCheckFailed, ValidationRefused
from .field import Felt, FieldCtx
from .poly import Poly

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

    def is_zero(self) -> bool:
        return not self.v.any()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PunctureVector)
            and other.ctx is self.ctx
            and np.array_equal(other.v, self.v)
        )

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

    def rows(self) -> list[PunctureVector]:
        return [PunctureVector(self.ctx, r) for r in self.matrix]

    def row_space_equals(self, other: PunctureBasis) -> bool:
        return np.array_equal(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return f"PunctureBasis(q={self.ctx.q}, k={self.k}, method={self.method}, dim={self.dim})"


def _labels(ctx: FieldCtx, vals: np.ndarray) -> np.ndarray:
    """GF(q) labels of GF(q^2) values that the structured form puts in GF(q)."""
    comp = ctx.fq.compact_of_idx[vals]
    if int(comp.min()) < 0:
        raise SelfCheckFailed("evaluation left GF(q); the structured form is violated")
    return comp.astype(np.uint8)


def _pairs(q: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row layout of H, for ``parity_check`` and ``power_sums`` alike.

    The pairs (r, s), r <= s < k, in row-major order, and the set Z of
    their exponents rq+s, where S_(r,s) reads the spectrum of lambda over
    GF(q^2)*.  H's k^2 rows are the ``_component_rows`` of these pairs.
    For lambda over GF(q), S_(s,r) = S_(r,s)^q and S_(r,r) lies in GF(q),
    so they span the conditions of all k^2 sums, and they are independent.
    """
    r, s = np.triu_indices(k)
    return r, s, r * q + s


def _component_rows(ctx: FieldCtx, r: np.ndarray, s: np.ndarray, cols) -> np.ndarray:
    """GF(q) rows on the 1-based ``cols``: the 1-components of a^(rq+s) over the
    pairs r <= s, then the xi-components of the pairs with r < s (zero at
    r = s).  Coordinate q^2+1 is 1 in the last pair's 1-component, else 0."""
    cols = np.asarray(cols, dtype=np.int64)
    coeff = cols == ctx.q2 + 1
    c0, c1 = ctx.split_components(ctx.vpow(np.where(coeff, 0, cols - 1), (r * ctx.q + s)[:, None]))
    rows = np.concatenate([c0, c1[r < s]])
    rows[:, coeff] = 0
    rows[r.size - 1, coeff] = 1
    return rows


def parity_check(ctx: FieldCtx, k: int, cols) -> np.ndarray:
    """The (k^2, len(cols)) GF(q) parity-check matrix H of P(C) on 1-based coordinates.

    Its rows (``_pairs``) are the {1, xi}-components of the conditions
    S_(r,s)(lambda) = sum_i lambda_i a_i^(rq+s) + [r=s=k-1] lambda_(q^2+1) = 0.
    On all q^2+1 coordinates H has rank k^2.
    """
    return _component_rows(ctx, *_pairs(ctx.q, k)[:2], cols)


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


def u_space_basis(ctx: FieldCtx, k: int) -> PunctureBasis:
    """P(C) as the RREF of the g-forms (``g_form_vector``) of the g-space.

    Its rows are the ``_component_rows`` of the pairs i <= j < q, i < q-k,
    then (q-k, q-k).  For i < j the g-forms Tr(c a^(iq+j)) of c X^(iq+j),
    c in {1, xi}, are the components of a^(iq+j) times the nonsingular trace
    form [[Tr 1, Tr xi], [Tr xi, Tr xi^2]].  A diagonal a^(i(q+1)) lies in
    GF(q): the g-form of gamma X^(i(q+1)), Tr(gamma) = 1; the last row is that
    of g = 0, c = 1.  Every other g-form of degree <= (q-k)q-1 is in the span.
    """
    _check_k(ctx, k)
    q, q2 = ctx.q, ctx.q2
    if k > q:
        return PunctureBasis(ctx, k, "u_space", np.empty((0, q2 + 1), dtype=np.uint8), ())
    r, s = np.triu_indices(q)
    keep = r < q - k
    rows = _component_rows(ctx, np.append(r[keep], q - k), np.append(s[keep], q - k), np.arange(1, q2 + 2))
    return PunctureBasis(ctx, k, "u_space", *linalg.rref(ctx.fq, rows))


def primal_basis(ctx: FieldCtx, k: int) -> PunctureBasis:
    """The RREF of P(C) by the route with fewer pivots to eliminate: the kernel
    of H (k^2 pivots) when k^2 <= dim, the u-space evaluations (dim pivots)
    otherwise.  Both give the same bytes."""
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
    coordinate carries c.
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
    evals = g.eval_all()
    vals = ctx.vadd(evals, ctx.vfrob(evals))
    if c:
        top = ctx.vpow(ctx.points_idx(), (q - k) * (q + 1))
        vals = ctx.vadd(vals, ctx.vmul(np.int64(c.i), top))
    return PunctureVector(ctx, _labels(ctx, np.append(vals, c.i)))


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
