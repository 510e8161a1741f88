"""Explicit polynomial families producing Hermitian self-orthogonal codes.

Each family chooses a low-degree g (and a scalar c in GF(q)) whose induced
function x -> g(x) + g(x)^q + c x^((q-k)(q+1)) has a predictable number of
distinct zeros; the complement of the zero set is the support of a puncture
vector, and truncating the Reed-Solomon code there yields a verified
Hermitian self-orthogonal [n, k] code together with its ((n, n-2k, k+1))_q
quantum parameters.

Every builder measures its zero count exhaustively and aborts on any
disagreement with the predicted value, so each run is also a self-test of
the predicting formula.  The factored identity behind each family is
likewise checked pointwise at all q^2 points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import grscode
from .errors import CapExceeded, SelfCheckFailed, ValidationRefused
from .field import Felt, FieldCtx, skew_element, trace_to_prime
from .poly import Poly, distinct_zeros, q_power_mod
from .puncture import PunctureVector, g_form_vector


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
        base = grscode.code_to_dict(self.code, self_orthogonal=True, mds=self.checks["mds"])
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
# shared helpers
# ----------------------------------------------------------------------
def _unit_root_mask(ctx: FieldCtx, order: int) -> np.ndarray:
    """Boolean mask over the enumeration: x nonzero with x^order = 1."""
    pts = ctx.points_idx()
    return (pts > 0) & (((pts - 1) * order) % ctx.n_units == 0)


def _degree_gate(ctx: FieldCtx, k: int, g: Poly) -> None:
    bound = (ctx.q - k) * ctx.q - 1
    if g.degree > bound:
        raise ValidationRefused(
            f"deg g = {g.degree} exceeds (q-k)q-1 = {bound} for k={k}"
        )


def _k_gate(ctx: FieldCtx, k: int) -> None:
    if not 1 <= k <= ctx.q - 1:
        raise ValidationRefused(f"constructions require 1 <= k <= q-1; got k={k}, q={ctx.q}")


def _reduced_h(ctx: FieldCtx, k: int, g: Poly, c: Felt) -> Poly:
    h = g + q_power_mod(g)
    if c:
        h = h + Poly.monomial(ctx, c, (ctx.q - k) * (ctx.q + 1))
    return h


def _assemble(
    ctx: FieldCtx,
    k: int,
    g: Poly,
    c: Felt,
    predicted: int,
    family: str,
    parameters: dict,
    identity_values: np.ndarray | None,
) -> ConstructionReport:
    """Common tail: measure zeros, verify identities, build and verify the code."""
    h = _reduced_h(ctx, k, g, c)
    zero_count, _ = distinct_zeros(h)
    if zero_count != predicted:
        raise SelfCheckFailed(
            f"{family}: measured {zero_count} zeros, predicted {predicted}"
        )
    identity_ok = True
    if identity_values is not None:
        identity_ok = bool(np.array_equal(h.eval_all(), identity_values))
        if not identity_ok:
            raise SelfCheckFailed(f"{family}: factored identity fails pointwise")

    vector = g_form_vector(ctx, k, g, c)
    n = ctx.q2 - zero_count + (1 if c else 0)
    if vector.weight() != n:
        raise SelfCheckFailed(f"{family}: vector weight {vector.weight()} != q^2 - zeros (+[c!=0]) = {n}")
    if n < 2 * k:
        raise ValidationRefused(
            f"{family}: resulting length {n} is below 2k = {2 * k}; "
            "a Hermitian self-orthogonal code must be at least twice its dimension long"
        )
    code = grscode.truncate_scale(grscode.build_rs(ctx, k), vector)
    if grscode.hermitian_gram(code).any():
        raise SelfCheckFailed(f"{family}: Gram matrix is nonzero on a constructed code")
    mds = grscode.mds_status(code)
    params = grscode.CodeParams.of_self_orthogonal(code)
    checks = {
        "factored_identity": identity_ok,
        "zero_count_matches_prediction": True,
        "self_orthogonal": True,
        "mds": mds,
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
        params=params,
        checks=checks,
    )


def _validate_t(ctx: FieldCtx, t: int) -> None:
    if t < 1 or (ctx.q + 1) % t != 0:
        raise ValidationRefused(f"t={t} must be a positive divisor of q+1 = {ctx.q + 1}")


# ----------------------------------------------------------------------
# family: g = c X^t f(X^(q+1)) with f over GF(q)
# ----------------------------------------------------------------------
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
    if not all(ctx.in_subfield_i(int(ci)) for ci in f.c):
        raise ValidationRefused("f must have coefficients in GF(q)")
    if f.coeff(0).is_zero():
        raise ValidationRefused("f(0) = 0 would double count x = 0 in the zero-count formula")
    if t + f.degree * (q + 1) > (q - k) * q - 1:
        raise ValidationRefused(
            f"t + deg(f)(q+1) = {t + f.degree * (q + 1)} exceeds (q-k)q-1 = {(q - k) * q - 1}"
        )
    c = skew_element(ctx)
    f_sub = np.zeros(f.degree * (q + 1) + 1, dtype=np.int64)
    f_sub[:: q + 1] = f.c
    g = Poly(ctx, f_sub).shift(t).scale(c)
    _degree_gate(ctx, k, g)

    pts = ctx.points_idx()
    fvals = f.eval_on(ctx.vpow(pts, q + 1))
    rou = _unit_root_mask(ctx, t * (q - 1))
    m_count = int(np.count_nonzero((fvals == 0) & ~rou))
    predicted = 1 + t * (q - 1) + m_count
    one_minus = ctx.vadd(np.ones_like(pts), ctx.vneg(ctx.vpow(pts, t * (q - 1))))
    identity = ctx.vmul(np.int64(c.i), ctx.vmul(ctx.vmul(ctx.vpow(pts, t), one_minus), fvals))
    return _assemble(
        ctx, k, g, ctx.zero, predicted, "example1",
        {"t": t, "f": f.indices(), "M": m_count}, identity,
    )


# ----------------------------------------------------------------------
# family: g = c X^t prod_(r in R) (X^q + X + r)
# ----------------------------------------------------------------------
def build_example2(ctx: FieldCtx, k: int, t: int, R: Sequence[Felt]) -> ConstructionReport:
    """g(X) = c X^t prod (X^q + X + r) over r in R, a subset of GF(q)*.

    Each factor contributes its zeros that are not t(q-1)-th roots of
    unity; zero sets of distinct factors are disjoint.  R must avoid 0,
    which would double count x = 0.
    """
    _k_gate(ctx, k)
    _validate_t(ctx, t)
    q = ctx.q
    R = list(R)
    _validate_subset(ctx, R, "R")
    for r in R:
        if not r.in_subfield():
            raise ValidationRefused(f"R must lie in GF(q); got {r!r}")
        if r.is_zero():
            raise ValidationRefused("0 in R would double count x = 0 in the zero-count formula")
    if t + len(R) * q > (q - k) * q - 1:
        raise ValidationRefused(
            f"t + |R|q = {t + len(R) * q} exceeds (q-k)q-1 = {(q - k) * q - 1}"
        )
    c = skew_element(ctx)
    g = Poly.monomial(ctx, ctx.one, t)
    factor_vals = []
    pts = ctx.points_idx()
    frob_pts = ctx.vfrob(pts)
    for r in R:
        coeffs = np.zeros(q + 1, dtype=np.int64)
        coeffs[0] = r.i
        coeffs[1] = 1
        coeffs[q] = 1
        g = g * Poly(ctx, coeffs)
        factor_vals.append(ctx.vadd(ctx.vadd(frob_pts, pts), np.int64(r.i)))
    g = g.scale(c)
    _degree_gate(ctx, k, g)

    rou = _unit_root_mask(ctx, t * (q - 1))
    n_r = {r.index: int(np.count_nonzero((vals == 0) & ~rou)) for r, vals in zip(R, factor_vals)}
    predicted = 1 + t * (q - 1) + sum(n_r.values())
    prod_vals = np.ones_like(pts)
    for vals in factor_vals:
        prod_vals = ctx.vmul(prod_vals, vals)
    one_minus = ctx.vadd(np.ones_like(pts), ctx.vneg(ctx.vpow(pts, t * (q - 1))))
    identity = ctx.vmul(np.int64(c.i), ctx.vmul(ctx.vmul(ctx.vpow(pts, t), one_minus), prod_vals))
    return _assemble(
        ctx, k, g, ctx.zero, predicted, "example2",
        {"t": t, "R": [r.index for r in R], "N_r": n_r}, identity,
    )


# ----------------------------------------------------------------------
# family: g = c X^t prod_(e in R) (X^(q-1) + e), R inversion-closed roots of unity
# ----------------------------------------------------------------------
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
    if t + len(R) * (q - 1) > (q - k) * q - 1:
        raise ValidationRefused(
            f"t + |R|(q-1) = {t + len(R) * (q - 1)} exceeds (q-k)q-1 = {(q - k) * q - 1}"
        )
    c = skew_element(ctx)
    g = Poly.monomial(ctx, ctx.one, t)
    factor_vals = []
    pts = ctx.points_idx()
    pow_qm1 = ctx.vpow(pts, q - 1)
    for e in R:
        coeffs = np.zeros(q, dtype=np.int64)
        coeffs[0] = e.i
        coeffs[q - 1] = 1
        g = g * Poly(ctx, coeffs)
        factor_vals.append(ctx.vadd(pow_qm1, np.int64(e.i)))
    g = g.scale(c)
    _degree_gate(ctx, k, g)

    rou = _unit_root_mask(ctx, t_eff * (q - 1))
    n_e = {e.index: int(np.count_nonzero((vals == 0) & ~rou)) for e, vals in zip(R, factor_vals)}
    predicted = 1 + t_eff * (q - 1) + sum(n_e.values())
    prod_vals = np.ones_like(pts)
    for vals in factor_vals:
        prod_vals = ctx.vmul(prod_vals, vals)
    one_minus = ctx.vadd(np.ones_like(pts), ctx.vneg(ctx.vpow(pts, t_eff * (q - 1))))
    identity = ctx.vmul(np.int64(c.i), ctx.vmul(ctx.vmul(ctx.vpow(pts, t), one_minus), prod_vals))
    return _assemble(
        ctx, k, g, ctx.zero, predicted, "example3",
        {"t": t, "R": [e.index for e in R], "N_e": n_e}, identity,
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


def _abs_trace_values(ctx: FieldCtx) -> np.ndarray:
    """Pointwise GF(q^2) -> GF(p) trace, sum of x^(p^j) for j < 2h, on the enumeration."""
    pts = ctx.points_idx()
    return ctx.vsum(ctx.vpow_outer(pts, ctx.p ** np.arange(2 * ctx.h)), axis=0)


def trace_one_elements(ctx: FieldCtx) -> list[Felt]:
    """GF(q) elements with absolute trace 1, in enumeration order."""
    return [x for x in ctx.subfield_elems() if trace_to_prime(ctx, x) == ctx.one]


def square_elements(ctx: FieldCtx) -> list[Felt]:
    """Nonzero squares of GF(q) (q odd), in enumeration order."""
    return [x for x in ctx.subfield_elems() if x and x ** ((ctx.q - 1) // 2) == ctx.one]


def _default_R(ctx: FieldCtx, k: int, eligible: list[Felt]) -> list[Felt]:
    size = ctx.q - k - 1
    if len(eligible) < size:
        raise ValidationRefused(f"only {len(eligible)} eligible elements for |R| = {size}")
    return eligible[:size]


def even_min_g(ctx: FieldCtx, k: int, R: Sequence[Felt] | None = None) -> tuple[Poly, list[Felt]]:
    """g = tr(X) prod (X^q + X + e) over trace-one e; |R| = q-k-1, q even."""
    q = ctx.q
    if ctx.p != 2:
        raise ValidationRefused(f"the even-q construction requires q even; got q={q}")
    if not q // 2 <= k <= q - 1:
        raise ValidationRefused(f"the even-q construction requires q/2 <= k <= q-1; got k={k}")
    R = list(R) if R is not None else _default_R(ctx, k, trace_one_elements(ctx))
    if len(R) != q - k - 1:
        raise ValidationRefused(f"|R| = {len(R)} must equal q-k-1 = {q - k - 1}")
    _validate_subset(ctx, R, "R")
    for e in R:
        if not e.in_subfield() or trace_to_prime(ctx, e) != ctx.one:
            raise ValidationRefused(f"R must consist of trace-one GF(q) elements; got {e!r}")
    g = _trace_poly(ctx)
    for e in R:
        coeffs = np.zeros(q + 1, dtype=np.int64)
        coeffs[0] = e.i
        coeffs[1] = 1
        coeffs[q] = 1
        g = g * Poly(ctx, coeffs)
    return g, R


def build_even_q_min(ctx: FieldCtx, k: int, R: Sequence[Felt] | None = None) -> ConstructionReport:
    """The minimum-weight construction for even q: weight q(k+1-q/2).

    g + g^q agrees pointwise with tr(x) prod (x^q + x + e), the trace taken
    down to GF(2) from GF(q^2); the zero count is q(q-k-1) + q^2/2 exactly.
    """
    q = ctx.q
    g, R = even_min_g(ctx, k, R)
    _degree_gate(ctx, k, g)
    predicted = q * (q - k - 1) + q * q // 2
    pts = ctx.points_idx()
    identity = _abs_trace_values(ctx)
    frob_pts = ctx.vfrob(pts)
    for e in R:
        identity = ctx.vmul(identity, ctx.vadd(ctx.vadd(frob_pts, pts), np.int64(e.i)))
    report = _assemble(
        ctx, k, g, ctx.zero, predicted, "even_q_min",
        {"R": [e.index for e in R]}, identity,
    )
    expected_weight = q * (k + 1 - q // 2)
    if report.vector.weight() != expected_weight:
        raise SelfCheckFailed(
            f"even_q_min weight {report.vector.weight()} != q(k+1-q/2) = {expected_weight}"
        )
    return report


def odd_min_g(ctx: FieldCtx, k: int, R: Sequence[Felt] | None = None) -> tuple[Poly, list[Felt]]:
    """g = X^((q+1)/2) prod (X^(q+1) - e) over nonzero squares e; q odd."""
    q = ctx.q
    if ctx.p == 2:
        raise ValidationRefused(f"the odd-q construction requires q odd; got q={q}")
    if not (q + 1) // 2 <= k <= q - 1:
        raise ValidationRefused(f"the odd-q construction requires (q+1)/2 <= k <= q-1; got k={k}")
    R = list(R) if R is not None else _default_R(ctx, k, square_elements(ctx))
    if len(R) != q - k - 1:
        raise ValidationRefused(f"|R| = {len(R)} must equal q-k-1 = {q - k - 1}")
    _validate_subset(ctx, R, "R")
    for e in R:
        if e.is_zero() or not e.in_subfield() or e ** ((q - 1) // 2) != ctx.one:
            raise ValidationRefused(f"R must consist of nonzero GF(q) squares; got {e!r}")
    g = Poly.monomial(ctx, ctx.one, (q + 1) // 2)
    for e in R:
        coeffs = np.zeros(q + 2, dtype=np.int64)
        coeffs[0] = (-e).i
        coeffs[q + 1] = 1
        g = g * Poly(ctx, coeffs)
    return g, R


def build_odd_q_min(ctx: FieldCtx, k: int, R: Sequence[Felt] | None = None) -> ConstructionReport:
    """The minimum-weight construction for odd q: weight (q+1)(k-(q-1)/2).

    g + g^q agrees pointwise with (x^((q^2+q)/2) + x^((q+1)/2)) prod
    (x^(q+1) - e); the zero count is (q^2+1)/2 + (q-k-1)(q+1) exactly.
    """
    q = ctx.q
    g, R = odd_min_g(ctx, k, R)
    _degree_gate(ctx, k, g)
    predicted = (q * q + 1) // 2 + (q - k - 1) * (q + 1)
    pts = ctx.points_idx()
    identity = ctx.vadd(ctx.vpow(pts, (q * q + q) // 2), ctx.vpow(pts, (q + 1) // 2))
    norm_pts = ctx.vnorm(pts)
    for e in R:
        identity = ctx.vmul(identity, ctx.vadd(norm_pts, np.int64((-e).i)))
    report = _assemble(
        ctx, k, g, ctx.zero, predicted, "odd_q_min",
        {"R": [e.index for e in R]}, identity,
    )
    expected_weight = (q + 1) * (k - (q - 1) // 2)
    if report.vector.weight() != expected_weight:
        raise SelfCheckFailed(
            f"odd_q_min weight {report.vector.weight()} != (q+1)(k-(q-1)/2) = {expected_weight}"
        )
    return report


# ----------------------------------------------------------------------
# full-length codes at k = q-1, q an odd power of two
# ----------------------------------------------------------------------
def qsq_valid_scalars(ctx: FieldCtx) -> list[Felt]:
    """All e with e^(q+1) = 1 and e^((q+1)/3) != 1, in discrete-log order."""
    q = ctx.q
    _qsq_gate(ctx)
    return [ctx.w ** ((q - 1) * s) for s in range(1, q + 1) if s % 3 != 0]


def _qsq_gate(ctx: FieldCtx) -> None:
    if ctx.p != 2 or ctx.h < 3 or ctx.h % 2 == 0:
        raise ValidationRefused(
            f"the length q^2+1 construction requires q = 2^r with r odd and r >= 3; got q={ctx.q}. "
            "Existence is open for even r >= 8 and fails at q=4."
        )


def build_qsq_plus_one(ctx: FieldCtx, e: Felt | None = None) -> ConstructionReport:
    """A Hermitian self-orthogonal [q^2+1, q-1] code for q = 2^r, r odd >= 3.

    Built from h(X) = e X^3 + e^q X^(3q) + X^(q+1) + 1, which has no zeros
    in GF(q^2) whenever e is a (q+1)-st root of unity that is not a cube
    among them.  The canonical e is the one of smallest discrete log.
    """
    q = ctx.q
    _qsq_gate(ctx)
    if e is None:
        s = next(s for s in range(1, q + 2) if s % 3 != 0)
        e = ctx.w ** ((q - 1) * s)
    else:
        if e.ctx is not ctx:
            raise ValueError("e belongs to a different field context")
        if e ** (q + 1) != ctx.one or e ** ((q + 1) // 3) == ctx.one:
            raise ValidationRefused(
                "e must satisfy e^(q+1) = 1 and e^((q+1)/3) != 1"
            )
    k = q - 1
    # g with g + g^q = e X^3 + e^q X^(3q) + 1 as functions: the constant
    # comes from any g0 of trace one down to GF(q)
    g0 = next(x for x in ctx.elems() if x + x**q == ctx.one)
    g = Poly.monomial(ctx, e, 3) + Poly.monomial(ctx, g0, 0)
    _degree_gate(ctx, k, g)
    pts = ctx.points_idx()
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
    if g.ctx is not ctx or c.ctx is not ctx:
        raise ValueError("inputs belong to a different field context")
    _degree_gate(ctx, k, g)
    if not c.in_subfield():
        raise ValidationRefused("c must lie in GF(q)")
    measured, _ = distinct_zeros(_reduced_h(ctx, k, g, c))
    return _assemble(
        ctx, k, g, c, measured, "custom",
        {"deg_g": g.degree}, None,
    )


def search_zero_free(ctx: FieldCtx, exponents: Sequence[int], cap: int = 10**4) -> Poly | None:
    """Bounded brute-force hook for zero-free h of the open-problem shape.

    Scans h(X) = sum_i (h_i X^i + h_i^q X^(iq)) + c + X^(q+1) over the given
    exponent slots (1 <= i <= q-1), h_i in GF(q^2) and c in GF(q), returning
    the first h with no zeros in GF(q^2), or None if the scanned region has
    none.  Refuses when the assignment space exceeds ``cap``; the feasible
    region of this search is undetermined.
    """
    q, q2 = ctx.q, ctx.q2
    exponents = sorted(set(int(i) for i in exponents))
    if not all(1 <= i <= q - 1 for i in exponents):
        raise ValidationRefused("exponent slots must lie in 1..q-1")
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
