"""Explicit polynomial families producing Hermitian self-orthogonal codes.

Each family chooses a low-degree g (and a scalar c in GF(q)) whose induced
function x -> g(x) + g(x)^q + c x^((q-k)(q+1)) has a predictable number of
distinct zeros; the complement of the zero set is the support of a puncture
vector, and truncating the Reed-Solomon code there yields a verified
Hermitian self-orthogonal [n, k] code together with its ((n, n-2k, k+1))_q
quantum parameters.

Every family runs one pipeline, ``_assemble``.  It gates through
``puncture.g_form_vector`` first, the only check of deg g <= (q-k)q-1 and
of c in GF(q); ``grscode.GrsCode`` checks length, support and thetas, and
``CodeParams.of_self_orthogonal`` checks n >= 2k.  A family checks only the
preconditions of its own zero-count formula.  The pipeline reads
g + g^q (+ c x^((q-k)(q+1))) on all q^2 points from that vector, the one
evaluation of g.  Its zero count must equal the family's prediction, a
self-test of the formula, and its values the factored identity behind the
family pointwise: for the minimum-length families ``even_min_values`` or
``odd_min_values``, from which ``puncture.constructive_witness`` reads its
witnesses too.  ``build_custom`` claims no formula: its values are compared
with the reduced polynomial h = g + g^q (+ c X^((q-k)(q+1))), and its
measured count is its own prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import grscode
from .errors import CapExceeded, SelfCheckFailed, ValidationRefused
from .field import Felt, FieldCtx, _integers, skew_element
from .poly import Poly, distinct_zeros, q_power_mod
from .puncture import PunctureVector, g_form_vector, min_weight_formula


@dataclass
class ConstructionReport:
    """Provenance record of one verified construction."""

    family: str
    parameters: dict
    g: Poly
    c: Felt
    zero_count: int
    predicted_zero_count: int
    vector: PunctureVector
    code: grscode.GrsCode
    params: grscode.CodeParams
    checks: dict

    def to_dict(self) -> dict:
        base = grscode.code_to_dict(self.code, params=self.params, mds=self.checks["mds"])
        base.update(
            {
                "kind": "construction",
                "family": self.family,
                "parameters": self.parameters,
                "g": self.g.indices(),
                "c": self.c.index,
                "zero_count": self.zero_count,
                "predicted_zero_count": self.predicted_zero_count,
                "puncture_vector": self.vector.serialized(),
                "checks": dict(self.checks),
            }
        )
        return base


# ----------------------------------------------------------------------
# the pipeline every family runs
# ----------------------------------------------------------------------
def _k_gate(ctx: FieldCtx, k: int) -> None:
    if not 1 <= k <= ctx.q - 1:
        raise ValidationRefused(f"constructions require 1 <= k <= q-1; got k={k}, q={ctx.q}")


def _assemble(
    ctx: FieldCtx,
    k: int,
    g: Poly,
    c: Felt,
    predicted: int | None,
    family: str,
    parameters: dict,
    identity: np.ndarray | None,
) -> ConstructionReport:
    """The pipeline every family runs: vector, its zeros and identity, code, checks.

    The vector carries g + g^q (+ c x^((q-k)(q+1))) on the q^2 points; those
    values must equal ``identity`` pointwise, the family's factored form.
    An ``identity`` of None takes h = g + g^q (+ c X^((q-k)(q+1))) reduced
    mod X^(q^2) - X instead, built once the vector has checked g and c.  A
    ``predicted`` of None claims no formula: the measurement stands.
    """
    q = ctx.q
    vector = g_form_vector(ctx, k, g, c)
    values = ctx.fq.idx_of_compact[vector.v[:-1]]
    zero_count = int(np.count_nonzero(values == 0))
    if identity is None:
        h = g + q_power_mod(g)
        if c:
            h = h + Poly.monomial(ctx, c, (q - k) * (q + 1))
        identity = h.eval_all()
        assert h.is_zero() or np.count_nonzero(identity == 0) <= h.degree, "h has more zeros than its degree"
    if not np.array_equal(values, identity):
        raise SelfCheckFailed(f"{family}: factored identity fails pointwise")
    if predicted is None:
        predicted = zero_count
    elif zero_count != predicted:
        raise SelfCheckFailed(
            f"{family}: measured {zero_count} zeros, predicted {predicted}"
        )

    code = grscode.truncate_scale(k, vector)
    if grscode.hermitian_gram(code).any():
        raise SelfCheckFailed(f"{family}: Gram matrix is nonzero on a constructed code")
    checks = {
        "factored_identity": True,
        "zero_count_matches_prediction": True,
        "self_orthogonal": True,
        "mds": grscode.mds_status(code),
    }
    return ConstructionReport(
        family=family,
        parameters=parameters,
        g=g,
        c=c,
        zero_count=zero_count,
        predicted_zero_count=predicted,
        vector=vector,
        code=code,
        params=grscode.CodeParams.of_self_orthogonal(code),
        checks=checks,
    )


def _validate_t(ctx: FieldCtx, t: int) -> None:
    if t < 1 or (ctx.q + 1) % t != 0:
        raise ValidationRefused(f"t={t} must be a positive divisor of q+1 = {ctx.q + 1}")


# ----------------------------------------------------------------------
# the skew families: g = c X^t prod F(X) with c^q = -c
# ----------------------------------------------------------------------
def _skew_tail(
    ctx: FieldCtx, t: int, t_root: int, factors: list[Poly], factor_vals: list[np.ndarray]
) -> tuple[Poly, list[int], int, np.ndarray]:
    """g = c X^t prod F, each factor's count, the predicted count and the identity.

    Pointwise g + g^q = c x^t (1 - x^(t'(q-1))) prod F(x) with t' = t_root.
    Its zeros are x = 0, the t'(q-1)-th roots of unity and, per factor,
    the zeros of F that are not such roots, the factors' zero sets being
    disjoint: 1 + t'(q-1) + the per-factor counts.
    """
    q = ctx.q
    c = skew_element(ctx)
    g = math.prod(factors, start=Poly.monomial(ctx, c, t))
    pts = ctx.points_idx()
    root_pow = ctx.vpow(pts, t_root * (q - 1))
    off_roots = root_pow != 1  # x^(t'(q-1)) is 1 exactly on the roots, 0 at x = 0
    counts = [int(np.count_nonzero((vals == 0) & off_roots)) for vals in factor_vals]
    one_minus = ctx.vadd(np.ones_like(pts), ctx.vneg(root_pow))
    identity = ctx.vmul(np.int64(c.i), ctx.vmul(ctx.vpow(pts, t), one_minus))
    for vals in factor_vals:
        identity = ctx.vmul(identity, vals)
    return g, counts, 1 + t_root * (q - 1) + sum(counts), identity


def _trace_factors(ctx: FieldCtx, R: Sequence[Felt]) -> list[Poly]:
    """The factors X^q + X + r over r in R."""
    x_q_plus_x = Poly.monomial(ctx, ctx.one, ctx.q) + Poly.x(ctx)
    return [x_q_plus_x + Poly.monomial(ctx, r, 0) for r in R]


def _trace_factor_values(ctx: FieldCtx, R: Sequence[Felt]) -> list[np.ndarray]:
    """The values of X^q + X + r over r in R on the enumeration."""
    pts = ctx.points_idx()
    trace_pts = ctx.vadd(ctx.vfrob(pts), pts)
    return [ctx.vadd(trace_pts, np.int64(r.i)) for r in R]


def build_example1(ctx: FieldCtx, k: int, t: int, f: Poly) -> ConstructionReport:
    """g(X) = c X^t f(X^(q+1)) with c^q = -c, f over GF(q), t | q+1.

    Pointwise, g + g^q = c x^t (1 - x^(t(q-1))) f(x^(q+1)); the zero count
    is 1 + t(q-1) + M with M the number of zeros of f(X^(q+1)) that are not
    t(q-1)-th roots of unity.  Requires f(0) != 0, without which x = 0
    would be double counted by that formula.
    """
    _k_gate(ctx, k)
    _validate_t(ctx, t)
    q = ctx.q
    if f.ctx is not ctx:
        raise ValueError("f belongs to a different field context")
    if f.is_zero():
        raise ValidationRefused("f must be nonzero")
    if (ctx.fq.compact_of_idx[f.c] < 0).any():
        raise ValidationRefused("f must have coefficients in GF(q)")
    if f.coeff(0).is_zero():
        raise ValidationRefused("f(0) = 0 would double count x = 0 in the zero-count formula")
    f_sub = np.zeros(f.degree * (q + 1) + 1, dtype=np.int64)
    f_sub[:: q + 1] = f.c
    fvals = f.eval_on(ctx.vpow(ctx.points_idx(), q + 1))
    g, (m_count,), predicted, identity = _skew_tail(ctx, t, t, [Poly(ctx, f_sub)], [fvals])
    return _assemble(
        ctx, k, g, ctx.zero, predicted, "example1",
        {"t": t, "f": f.indices(), "M": m_count}, identity,
    )


def build_example2(ctx: FieldCtx, k: int, t: int, R: Sequence[Felt]) -> ConstructionReport:
    """g(X) = c X^t prod (X^q + X + r) over r in R, a subset of GF(q)*.

    Each factor contributes its zeros that are not t(q-1)-th roots of
    unity; zero sets of distinct factors are disjoint.  R must avoid 0,
    which would double count x = 0.
    """
    _k_gate(ctx, k)
    _validate_t(ctx, t)
    R = list(R)
    _validate_subset(ctx, R, "R")
    for r in R:
        if not r.in_subfield():
            raise ValidationRefused(f"R must lie in GF(q); got {r!r}")
        if r.is_zero():
            raise ValidationRefused("0 in R would double count x = 0 in the zero-count formula")
    g, counts, predicted, identity = _skew_tail(ctx, t, t, _trace_factors(ctx, R), _trace_factor_values(ctx, R))
    return _assemble(
        ctx, k, g, ctx.zero, predicted, "example2",
        {"t": t, "R": [r.index for r in R], "N_r": {r.index: n for r, n in zip(R, counts)}}, identity,
    )


def build_example3(ctx: FieldCtx, k: int, t: int, R: Sequence[Felt]) -> ConstructionReport:
    """g(X) = c X^t prod (X^(q-1) + e) over an inversion-closed set of
    (q+1)-st roots of unity with product 1; t - |R| must divide q+1.

    Pointwise, c^-1 (g + g^q) = x^t (1 - x^((t-|R|)(q-1))) prod (x^(q-1) + e).
    """
    _k_gate(ctx, k)
    q = ctx.q
    R = list(R)
    _validate_subset(ctx, R, "R")
    for e in R:
        if e.is_zero() or (e ** (q + 1)) != ctx.one:
            raise ValidationRefused(f"R must consist of (q+1)-st roots of unity; got {e!r}")
    inv_set = {e.inverse().i for e in R}
    if inv_set != {e.i for e in R}:
        raise ValidationRefused("R must be closed under inversion")
    prod = ctx.one
    for e in R:
        prod = prod * e
    if prod != ctx.one:
        raise ValidationRefused("the product of R must be 1")
    t_eff = t - len(R)
    if t_eff < 1 or (q + 1) % t_eff != 0:
        raise ValidationRefused(f"t - |R| = {t_eff} must be a positive divisor of q+1 = {q + 1}")
    factors = [Poly.monomial(ctx, ctx.one, q - 1) + Poly.monomial(ctx, e, 0) for e in R]
    pow_qm1 = ctx.vpow(ctx.points_idx(), q - 1)
    factor_vals = [ctx.vadd(pow_qm1, np.int64(e.i)) for e in R]
    g, counts, predicted, identity = _skew_tail(ctx, t, t_eff, factors, factor_vals)
    return _assemble(
        ctx, k, g, ctx.zero, predicted, "example3",
        {"t": t, "R": [e.index for e in R], "N_e": {e.index: n for e, n in zip(R, counts)}}, identity,
    )


# ----------------------------------------------------------------------
# minimum-weight achieving constructions
# ----------------------------------------------------------------------
def _trace_poly(ctx: FieldCtx) -> Poly:
    """The GF(q) -> GF(p) trace polynomial: sum of X^(p^j), j < h."""
    coeffs = np.zeros(ctx.p ** (ctx.h - 1) + 1, dtype=np.int64)
    for j in range(ctx.h):
        coeffs[ctx.p**j] = 1
    return Poly(ctx, coeffs)


def _trace_values(ctx: FieldCtx, xs: np.ndarray, degree: int) -> np.ndarray:
    """Pointwise sum of x^(p^j) for j < ``degree``: the trace down to GF(p)
    of elements of GF(p^degree)."""
    return ctx.vsum(ctx.vpow(xs, ctx.p ** np.arange(degree)[:, None]), axis=0)


def trace_one_elements(ctx: FieldCtx) -> list[Felt]:
    """GF(q) elements with absolute trace 1, in enumeration order."""
    subfield = np.flatnonzero(ctx.fq.compact_of_idx >= 0)
    return [Felt(ctx, i) for i in subfield[_trace_values(ctx, subfield, ctx.h) == 1]]


def square_elements(ctx: FieldCtx) -> list[Felt]:
    """Nonzero squares of GF(q) (q odd), in enumeration order."""
    return [x for x in ctx.subfield_elems() if x and x ** ((ctx.q - 1) // 2) == ctx.one]


def _min_weight_R(
    ctx: FieldCtx, k: int, R: Sequence[Felt] | None, eligible: list[Felt], what: str
) -> list[Felt]:
    """R of a minimum-weight g: q-k-1 distinct elements of ``eligible``, by
    default its first ones, enough of which exist at every admitted k."""
    size = ctx.q - k - 1
    if R is None:
        return eligible[:size]
    R = list(R)
    if len(R) != size:
        raise ValidationRefused(f"|R| = {len(R)} must equal q-k-1 = {size}")
    _validate_subset(ctx, R, "R")
    allowed = {e.i for e in eligible}
    for e in R:
        if e.i not in allowed:
            raise ValidationRefused(f"R must consist of {what}; got {e!r}")
    return R


def even_min_values(ctx: FieldCtx, k: int, R: Sequence[Felt] | None = None) -> tuple[list[Felt], np.ndarray]:
    """R and g + g^q = tr(x) prod (x^q + x + e) on the enumeration, tr down to GF(2),
    for g = tr(X) prod (X^q + X + e) over trace-one e in R; |R| = q-k-1, q even."""
    q = ctx.q
    if ctx.p != 2:
        raise ValidationRefused(f"the even-q construction requires q even; got q={q}")
    if not q // 2 <= k <= q - 1:
        raise ValidationRefused(f"the even-q construction requires q/2 <= k <= q-1; got k={k}")
    R = _min_weight_R(ctx, k, R, trace_one_elements(ctx), "trace-one GF(q) elements")
    values = _trace_values(ctx, ctx.points_idx(), 2 * ctx.h)
    for vals in _trace_factor_values(ctx, R):
        values = ctx.vmul(values, vals)
    return R, values


def build_even_q_min(ctx: FieldCtx, k: int, R: Sequence[Felt] | None = None) -> ConstructionReport:
    """The minimum-weight construction for even q: weight q(k+1-q/2).

    g = tr(X) prod (X^q + X + e), whose g + g^q ``even_min_values`` gives
    pointwise; the zero count is q(q-k-1) + q^2/2 exactly.
    """
    q = ctx.q
    R, identity = even_min_values(ctx, k, R)
    g = math.prod(_trace_factors(ctx, R), start=_trace_poly(ctx))
    predicted = q * (q - k - 1) + q * q // 2
    report = _assemble(
        ctx, k, g, ctx.zero, predicted, "even_q_min",
        {"R": [e.index for e in R]}, identity,
    )
    return _attains_min_weight(report, k)


def _attains_min_weight(report: ConstructionReport, k: int) -> ConstructionReport:
    """The report of a minimum-length family, once its vector is checked to
    weigh the proven minimum weight of P(C)."""
    weight, formula = report.vector.weight(), min_weight_formula(report.vector.ctx.q, k)
    if weight != formula:
        raise SelfCheckFailed(f"{report.family} weight {weight} != min_weight_formula = {formula}")
    return report


def odd_min_values(ctx: FieldCtx, k: int, R: Sequence[Felt] | None = None) -> tuple[list[Felt], np.ndarray]:
    """R and g + g^q = (x^((q^2+q)/2) + x^((q+1)/2)) prod (x^(q+1) - e) on the enumeration,
    for g = X^((q+1)/2) prod (X^(q+1) - e) over nonzero squares e in R; |R| = q-k-1, q odd."""
    q = ctx.q
    if ctx.p == 2:
        raise ValidationRefused(f"the odd-q construction requires q odd; got q={q}")
    if not (q + 1) // 2 <= k <= q - 1:
        raise ValidationRefused(f"the odd-q construction requires (q+1)/2 <= k <= q-1; got k={k}")
    R = _min_weight_R(ctx, k, R, square_elements(ctx), "nonzero GF(q) squares")
    pts = ctx.points_idx()
    values = ctx.vadd(ctx.vpow(pts, (q * q + q) // 2), ctx.vpow(pts, (q + 1) // 2))
    norm_pts = ctx.vnorm(pts)
    for e in R:
        values = ctx.vmul(values, ctx.vadd(norm_pts, np.int64((-e).i)))
    return R, values


def build_odd_q_min(ctx: FieldCtx, k: int, R: Sequence[Felt] | None = None) -> ConstructionReport:
    """The minimum-weight construction for odd q: weight (q+1)(k-(q-1)/2).

    g = X^((q+1)/2) prod (X^(q+1) - e), whose g + g^q ``odd_min_values``
    gives pointwise; the zero count is (q^2+1)/2 + (q-k-1)(q+1) exactly.
    """
    q = ctx.q
    R, identity = odd_min_values(ctx, k, R)
    norm_factors = [Poly.monomial(ctx, ctx.one, q + 1) - Poly.monomial(ctx, e, 0) for e in R]
    g = math.prod(norm_factors, start=Poly.monomial(ctx, ctx.one, (q + 1) // 2))
    predicted = (q * q + 1) // 2 + (q - k - 1) * (q + 1)
    report = _assemble(
        ctx, k, g, ctx.zero, predicted, "odd_q_min",
        {"R": [e.index for e in R]}, identity,
    )
    return _attains_min_weight(report, k)


# ----------------------------------------------------------------------
# full-length codes at k = q-1, q an odd power of two
# ----------------------------------------------------------------------
def qsq_valid_scalars(ctx: FieldCtx) -> list[Felt]:
    """All e with e^(q+1) = 1 and e^((q+1)/3) != 1, in discrete-log order."""
    q = ctx.q
    if ctx.p != 2 or ctx.h < 3 or ctx.h % 2 == 0:
        raise ValidationRefused(
            f"the length q^2+1 construction requires q = 2^r with r odd and r >= 3; got q={q}. "
            "Existence is open for even r >= 8 and fails at q=4."
        )
    return [ctx.w ** ((q - 1) * s) for s in range(1, q + 1) if s % 3 != 0]


def build_qsq_plus_one(ctx: FieldCtx, e: Felt | None = None) -> ConstructionReport:
    """A Hermitian self-orthogonal [q^2+1, q-1] code for q = 2^r, r odd >= 3.

    Built from h(X) = e X^3 + e^q X^(3q) + X^(q+1) + 1, which has no zeros
    in GF(q^2) whenever e is a (q+1)-st root of unity that is not a cube
    among them.  The canonical e is the one of smallest discrete log.
    """
    q = ctx.q
    scalars = qsq_valid_scalars(ctx)
    if e is None:
        e = scalars[0]
    elif e.ctx is not ctx:
        raise ValueError("e belongs to a different field context")
    elif e not in scalars:
        raise ValidationRefused("e must satisfy e^(q+1) = 1 and e^((q+1)/3) != 1")
    k = q - 1
    # g with g + g^q = e X^3 + e^q X^(3q) + 1 as functions: the constant
    # comes from the first g0 of trace one down to GF(q)
    pts = ctx.points_idx()
    g0 = ctx.felt(int(np.flatnonzero(ctx.vadd(pts, ctx.vfrob(pts)) == 1)[0]))
    g = Poly.monomial(ctx, e, 3) + Poly.monomial(ctx, g0, 0)
    identity = ctx.vadd(
        ctx.vadd(
            ctx.vmul(np.int64(e.i), ctx.vpow(pts, 3)),
            ctx.vmul(np.int64((e**q).i), ctx.vpow(pts, 3 * q)),
        ),
        ctx.vadd(ctx.vnorm(pts), np.ones_like(pts)),
    )
    report = _assemble(
        ctx, k, g, ctx.one, 0, "qsq_plus_one",
        {"e": e.index}, identity,
    )
    assert report.code.n == ctx.q2 + 1
    return report


# ----------------------------------------------------------------------
# the generic pipeline and a bounded search hook
# ----------------------------------------------------------------------
def build_custom(ctx: FieldCtx, k: int, g: Poly, c: Felt) -> ConstructionReport:
    """Full pipeline for a caller-supplied (g, c): vector, code, verification.

    No zero-count formula is claimed, so the prediction is the measurement;
    everything downstream (self-orthogonality, MDS tier, parameters) is
    verified the same way as for the named families.
    """
    _k_gate(ctx, k)
    return _assemble(ctx, k, g, c, None, "custom", {"deg_g": g.degree}, None)


def search_zero_free(ctx: FieldCtx, exponents: Sequence[int], cap: int = 10**4) -> Poly | None:
    """Bounded brute-force hook for zero-free h of the open-problem shape.

    Scans h(X) = sum_i (h_i X^i + h_i^q X^(iq)) + c + X^(q+1) over the given
    distinct integer exponent slots (1 <= i <= q-1), h_i in GF(q^2) and c
    in GF(q), returning the first h with no zeros in GF(q^2), or None if the
    scanned region has none.  Refuses when the assignment space exceeds
    ``cap``; the feasible region of this search is undetermined.
    """
    q, q2 = ctx.q, ctx.q2
    slots = _integers(exponents, "an exponent slot")
    if slots.ndim != 1:
        raise ValidationRefused(f"exponent slots must be a list, got {exponents!r}")
    slots = [int(i) for i in slots]
    if len(set(slots)) != len(slots):
        raise ValidationRefused(f"exponent slots must not repeat, got {slots}")
    if not all(1 <= i <= q - 1 for i in slots):
        raise ValidationRefused("exponent slots must lie in 1..q-1")
    exponents = sorted(slots)
    total = (q2 ** len(exponents)) * q
    if total > cap:
        raise CapExceeded(f"search space of {total} assignments exceeds the cap {cap}")
    subfield = ctx.subfield_elems()
    for counter in range(total):
        v, c_pos = divmod(counter, q)
        h = Poly.monomial(ctx, ctx.one, q + 1) + Poly.monomial(ctx, subfield[c_pos], 0)
        for i in exponents:
            v, idx = divmod(v, q2)
            coeff = Felt(ctx, idx)
            if coeff:
                h = h + Poly.monomial(ctx, coeff, i) + Poly.monomial(ctx, coeff**q, i * q)
        if distinct_zeros(h)[0] == 0:
            return h
    return None


def _validate_subset(ctx: FieldCtx, R: Sequence[Felt], name: str) -> None:
    for e in R:
        if e.ctx is not ctx:
            raise ValueError(f"{name} contains an element of a different field context")
    if len({e.i for e in R}) != len(R):
        raise ValidationRefused(f"{name} must not contain repeated elements")
