from __future__ import annotations

import numpy as np
import pytest

from hermgrs import constructions, grscode
from hermgrs.constructions import (
    build_custom,
    build_even_q_min,
    build_example1,
    build_example2,
    build_example3,
    build_odd_q_min,
    build_qsq_plus_one,
    qsq_valid_scalars,
    search_zero_free,
    square_elements,
    trace_one_elements,
)
from hermgrs.errors import CapExceeded, SelfCheckFailed, ValidationRefused
from hermgrs.field import make_field, skew_element
from hermgrs.poly import Poly, distinct_zeros
from hermgrs.puncture import membership, puncture_direct

from oracle import felt_trace_to_prime, function_zero_positions, pow_by_mul


def test_example1_end_to_end(ctx5):
    rep = build_example1(ctx5, 4, 3, Poly.one(ctx5))
    assert rep.predicted_zero_count == 13 == rep.zero_count
    assert (rep.params.n, rep.params.k, rep.params.d) == (12, 4, 9)
    assert rep.params.quantum == (12, 4, 5, 5)
    assert rep.checks["self_orthogonal"] and rep.checks["factored_identity"]
    assert rep.checks["mds"] == "minors"
    assert membership(puncture_direct(ctx5, 4), rep.vector)


def test_example1_zero_count_oracle(ctx5):
    # independent scalar-loop count of the zeros of c x^3 (1 - x^12)
    c = skew_element(ctx5)

    def fn(x):
        return c * pow_by_mul(x, 3) * (ctx5.one - pow_by_mul(x, 12))

    assert len(function_zero_positions(ctx5, fn)) == 13


def test_example1_nonsquare_roots(ctx7):
    # q = 7: f = X - e with e a non-square; M = q+1 = 8, N = 1 + 12 + 8 = 21
    q = ctx7.q
    nonsquare = next(
        x for x in ctx7.subfield_elems() if x and pow_by_mul(x, (q - 1) // 2) != ctx7.one
    )
    f = Poly.from_indices(ctx7, [(-nonsquare).i, 1])
    rep = build_example1(ctx7, 5, 2, f)
    assert rep.parameters["M"] == 8
    assert rep.zero_count == 21
    assert rep.code.n == 28
    assert rep.params.quantum == (28, 18, 6, 7)


def test_example1_validation(ctx5):
    with pytest.raises(ValidationRefused):
        build_example1(ctx5, 4, 4, Poly.one(ctx5))  # 4 does not divide q+1 = 6
    with pytest.raises(ValidationRefused):
        build_example1(ctx5, 4, 3, Poly.x(ctx5))  # f(0) = 0
    with pytest.raises(ValidationRefused):
        build_example1(ctx5, 4, 3, Poly.zero(ctx5))
    with pytest.raises(ValidationRefused):
        # degree bound: t + deg(f)(q+1) = 3 + 6 > (q-k)q-1 = 4
        build_example1(ctx5, 4, 3, Poly.from_indices(ctx5, [1, 1]))
    with pytest.raises(ValidationRefused):
        # f must have GF(q) coefficients
        build_example1(ctx5, 2, 3, Poly.from_indices(ctx5, [ctx5.w.i]))


def test_example2_empty_R_matches_example1(ctx5):
    rep1 = build_example1(ctx5, 4, 3, Poly.one(ctx5))
    rep2 = build_example2(ctx5, 4, 3, [])
    assert rep2.zero_count == 1 + 3 * (ctx5.q - 1) == rep1.zero_count
    assert rep2.vector == rep1.vector
    assert rep2.code.support == rep1.code.support


def test_example2_trace_one_factor(ctx4):
    # q=4, k=2, t=1: one factor X^q + X + r with tr(r) = 1 contributes
    # N_r = 4 zeros, none of them cube roots of unity; N = 1 + 3 + 4 = 8
    r = trace_one_elements(ctx4)[0]
    rep = build_example2(ctx4, 2, 1, [r])

    def factor(x):
        return pow_by_mul(x, 4) + x + r

    zeros = function_zero_positions(ctx4, factor)
    assert len(zeros) == 4
    assert rep.parameters["N_r"] == {r.index: 4}
    assert rep.zero_count == 8
    assert rep.code.n == 8
    assert rep.params.quantum == (8, 4, 3, 4)


def test_example2_validation(ctx4):
    with pytest.raises(ValidationRefused):
        build_example2(ctx4, 2, 1, [ctx4.zero])  # 0 in R
    with pytest.raises(ValidationRefused):
        build_example2(ctx4, 2, 5, [trace_one_elements(ctx4)[0]])  # degree bound
    with pytest.raises(ValidationRefused):
        build_example2(ctx4, 2, 1, [ctx4.w])  # r outside GF(q)


def test_example3_empty_R(ctx5):
    rep = build_example3(ctx5, 4, 3, [])
    assert rep.zero_count == 1 + 3 * (ctx5.q - 1)
    assert rep.vector == build_example1(ctx5, 4, 3, Poly.one(ctx5)).vector


def test_example3_inverse_pair(ctx5):
    # q = 5: e a primitive sixth root of unity; R = {e, e^-1}, t = 4, so
    # t - |R| = 2 divides q+1 = 6.  (k = 2 keeps the degree bound
    # t + |R|(q-1) = 12 <= (q-k)q-1 = 14.)
    e = ctx5.w ** ((ctx5.q2 - 1) // 6)
    assert pow_by_mul(e, 6) == ctx5.one and pow_by_mul(e, 3) != ctx5.one
    R = [e, e.inverse()]
    rep = build_example3(ctx5, 2, 4, R)

    def reduced(x):
        prod = ctx5.one - pow_by_mul(x, 8)
        for el in R:
            prod = prod * (pow_by_mul(x, 4) + el)
        return pow_by_mul(x, 4) * prod

    oracle_zeros = len(function_zero_positions(ctx5, reduced))
    assert rep.zero_count == oracle_zeros == 17
    assert rep.code.n == 8
    assert rep.params.quantum == (8, 4, 3, 5)


def test_example3_validation(ctx5):
    e = ctx5.w ** ((ctx5.q2 - 1) // 6)
    with pytest.raises(ValidationRefused):
        build_example3(ctx5, 2, 4, [e])  # not inversion closed
    minus_one = -ctx5.one
    assert minus_one.inverse() == minus_one
    with pytest.raises(ValidationRefused):
        build_example3(ctx5, 2, 3, [minus_one])  # product is -1, not 1
    with pytest.raises(ValidationRefused):
        build_example3(ctx5, 2, 7, [e, e.inverse()])  # t - |R| = 5 does not divide 6
    with pytest.raises(ValidationRefused):
        build_example3(ctx5, 3, 4, [e, e.inverse()])  # degree bound at k = 3
    with pytest.raises(ValidationRefused):
        build_example3(ctx5, 2, 4, [ctx5.one + ctx5.one, ctx5.one])  # not roots of unity


def test_even_q_min_small(ctx4):
    rep = build_even_q_min(ctx4, 3)
    assert rep.parameters["R"] == []
    assert rep.zero_count == 8  # tr zeros: q^2/2
    assert rep.vector.weight() == 8 == 4 * (3 + 1 - 2)
    assert rep.params.quantum == (8, 2, 4, 4)


def test_even_q_min_q8_range(ctx8):
    q = ctx8.q
    for k in range(4, 8):
        rep = build_even_q_min(ctx8, k)
        assert rep.zero_count == q * (q - k - 1) + q * q // 2
        assert rep.vector.weight() == q * (k + 1 - q // 2)
        assert rep.checks["self_orthogonal"]


def test_even_q_min_trace_zero_count_oracle(ctx4):
    def abs_trace(x):
        acc = ctx4.zero
        t = x
        for _ in range(4):  # [GF(q^2):GF(2)] = 4 at q = 4
            acc = acc + t
            t = t * t
        return acc

    assert len(function_zero_positions(ctx4, abs_trace)) == ctx4.q2 // 2


def test_even_q_min_validation(ctx4, ctx5, ctx8):
    with pytest.raises(ValidationRefused):
        build_even_q_min(ctx5, 3)  # q odd
    with pytest.raises(ValidationRefused):
        build_even_q_min(ctx4, 1)  # k below q/2
    with pytest.raises(ValidationRefused):
        build_even_q_min(ctx8, 5, trace_one_elements(ctx8)[:1])  # |R| wrong
    bad = next(x for x in ctx8.subfield_elems() if felt_trace_to_prime(ctx8, x).is_zero())
    with pytest.raises(ValidationRefused):
        build_even_q_min(ctx8, 6, [bad])


def test_odd_q_min_small(ctx5):
    rep = build_odd_q_min(ctx5, 4)
    assert rep.zero_count == 13 == (25 + 1) // 2
    assert rep.vector.weight() == 12 == 6 * (4 - 2)
    rep = build_odd_q_min(ctx5, 3, [ctx5.one])
    assert rep.zero_count == 19
    assert rep.vector.weight() == 6


def test_odd_q_min_q7_q9(ctx7, ctx9):
    rep = build_odd_q_min(ctx7, 4)
    assert rep.vector.weight() == 8
    for k in range(5, 9):
        rep = build_odd_q_min(ctx9, k)
        assert rep.zero_count == (81 + 1) // 2 + (9 - k - 1) * 10
        assert rep.vector.weight() == 10 * (k - 4)


def test_odd_q_min_validation(ctx4, ctx5):
    with pytest.raises(ValidationRefused):
        build_odd_q_min(ctx4, 3)  # q even
    with pytest.raises(ValidationRefused):
        build_odd_q_min(ctx5, 2)  # k below (q+1)/2
    nonsquare = next(x for x in ctx5.subfield_elems() if x and pow_by_mul(x, 2) != ctx5.one)
    with pytest.raises(ValidationRefused):
        build_odd_q_min(ctx5, 3, [nonsquare])


def test_qsq_plus_one_q8(ctx8):
    rep = build_qsq_plus_one(ctx8)
    assert rep.zero_count == 0
    assert rep.code.n == 65 and rep.code.k == 7
    assert rep.params.quantum == (65, 51, 8, 8)
    assert rep.c == ctx8.one
    scalars = qsq_valid_scalars(ctx8)
    assert len(scalars) == 6
    for e in scalars:
        assert build_qsq_plus_one(ctx8, e).zero_count == 0


def test_qsq_plus_one_builds_no_generator(ctx8):
    """C(65, 7) minors and 64^7 words are past both MDS caps, so neither
    tier reads the generator and the code never builds it."""
    code = build_qsq_plus_one(ctx8).code
    assert "gen" not in vars(code)
    assert grscode.mds_status(code) == "asserted_by_construction"
    assert "gen" not in vars(code)
    assert code.gen.shape == (7, 65) and "gen" in vars(code)


def test_qsq_plus_one_refusals(ctx4, ctx8):
    with pytest.raises(ValidationRefused):
        build_qsq_plus_one(ctx4)  # q = 4: r = 2 is even
    with pytest.raises(ValidationRefused):
        build_qsq_plus_one(make_field(2, 4))  # q = 16: r = 4 is even
    with pytest.raises(ValidationRefused):
        build_qsq_plus_one(make_field(3, 1))  # odd characteristic
    cube = ctx8.w ** (3 * (ctx8.q - 1))
    with pytest.raises(ValidationRefused):
        build_qsq_plus_one(ctx8, cube)  # e^((q+1)/3) = 1


def test_custom_c_only(ctx4):
    rep = build_custom(ctx4, 2, Poly.zero(ctx4), ctx4.one)
    assert rep.code.n == ctx4.q2
    assert rep.checks["self_orthogonal"]


def test_custom_matches_example1(ctx5):
    c = skew_element(ctx5)
    rep = build_custom(ctx5, 4, Poly.monomial(ctx5, c, 3), ctx5.zero)
    ref = build_example1(ctx5, 4, 3, Poly.one(ctx5))
    assert rep.vector == ref.vector
    assert rep.code.support == ref.code.support
    assert rep.params.quantum == ref.params.quantum


def test_custom_random_max_degree(ctx4):
    """Random g of maximal degree at q=4, k=2: n = 16 - zeros, Gram zero."""
    import random

    import oracle

    rng = random.Random(15)
    bound = (ctx4.q - 2) * ctx4.q - 1
    built = 0
    while built < 3:
        coeffs = [rng.randrange(ctx4.q2) for _ in range(bound)] + [rng.randrange(1, ctx4.q2)]
        g = Poly.from_indices(ctx4, coeffs)
        try:
            rep = build_custom(ctx4, 2, g, ctx4.zero)
        except ValidationRefused:
            continue  # the induced vector was too short for a 2-dim code
        built += 1
        assert rep.code.n == ctx4.q2 - rep.zero_count
        ref = oracle.gram_matrix(rep.code)
        assert all(x.is_zero() for row in ref for x in row)


def test_custom_refuses_short_codes(ctx4):
    with pytest.raises(ValidationRefused):
        build_custom(ctx4, 2, Poly.zero(ctx4), ctx4.zero)  # zero vector
    with pytest.raises(ValidationRefused):
        build_custom(ctx4, 2, Poly.monomial(ctx4, ctx4.one, 8), ctx4.zero)  # degree


def test_search_zero_free_finds_qsq_shape(ctx8):
    found = search_zero_free(ctx8, [3], cap=10**4)
    assert found is not None
    assert distinct_zeros(found)[0] == 0
    with pytest.raises(CapExceeded):
        search_zero_free(ctx8, [1, 2, 3, 4], cap=10**4)


@pytest.mark.parametrize("slots", [[1.7], [True], ["1"], [1, 1], [np.int64(1), 1], [[1]], 1])
def test_search_zero_free_refuses_what_is_not_a_distinct_integer_slot(slots):
    """The rule of ``FieldCtx.indices`` for each slot, and no slot twice."""
    with pytest.raises(ValidationRefused):
        search_zero_free(make_field(2, 2), slots)


@pytest.mark.parametrize("p,h", [(2, 1), (2, 2), (2, 3), (3, 2), (2, 6), (5, 2), (7, 2)])
def test_trace_one_elements_match_the_felt_trace(p, h):
    ctx = make_field(p, h)
    expected = [x for x in ctx.subfield_elems() if felt_trace_to_prime(ctx, x) == ctx.one]
    assert trace_one_elements(ctx) == expected


def test_search_zero_free_visits_c_in_enumeration_order(ctx8):
    """The first zero-free h, scanning h_3 and, inside each h_3, c in 0, 1, w^(q+1), ..."""
    found = search_zero_free(ctx8, [3])
    assert found.indices() == [55, 0, 0, 2, 0, 0, 0, 0, 0, 1] + [0] * 14 + [9]


def test_eligible_element_helpers(ctx8, ctx5):
    ones = trace_one_elements(ctx8)
    assert len(ones) == 4
    squares = square_elements(ctx5)
    assert len(squares) == 2  # {1, 4} in GF(5)


def test_all_family_vectors_lie_in_the_puncture_code(ctx4, ctx5):
    """Every construction lands inside P(C), cross-checked by the solver."""
    reports = [
        (ctx5, 4, build_example1(ctx5, 4, 3, Poly.one(ctx5))),
        (ctx4, 2, build_example2(ctx4, 2, 1, [trace_one_elements(ctx4)[0]])),
        (ctx5, 2, build_example3(ctx5, 2, 4,
                                 [ctx5.w ** 4, (ctx5.w ** 4).inverse()])),
        (ctx4, 3, build_even_q_min(ctx4, 3)),
        (ctx5, 4, build_odd_q_min(ctx5, 4)),
        (ctx4, 2, build_custom(ctx4, 2, Poly.zero(ctx4), ctx4.one)),
    ]
    for ctx, k, rep in reports:
        assert membership(puncture_direct(ctx, k), rep.vector), rep.family


def _count_evaluations(monkeypatch):
    calls = []
    evaluate = Poly.eval_on

    def counted(self, xs):
        calls.append(self.degree)
        return evaluate(self, xs)

    monkeypatch.setattr(Poly, "eval_on", counted)
    return calls


def _count_q_powers(monkeypatch):
    calls = []
    q_power = constructions.q_power_mod

    def counted(g):
        calls.append(g.degree)
        return q_power(g)

    monkeypatch.setattr(constructions, "q_power_mod", counted)
    return calls


def test_custom_evaluates_g_and_h_once_each(ctx4, monkeypatch):
    calls = _count_evaluations(monkeypatch)
    q_powers = _count_q_powers(monkeypatch)
    g = Poly.from_indices(ctx4, [0, 1])
    build_custom(ctx4, 2, g, ctx4.zero)
    # g in g_form_vector, then h = g + g^q to compare with its values pointwise
    assert calls == [1, 4]
    assert q_powers == [1]


def test_named_family_evaluates_each_polynomial_once(ctx5, monkeypatch):
    calls = _count_evaluations(monkeypatch)
    q_powers = _count_q_powers(monkeypatch)
    build_example1(ctx5, 4, 3, Poly.one(ctx5))
    # f on the norms and g in g_form_vector; the family's factored identity
    # is pointwise, so no h is built or evaluated
    assert len(calls) == 2
    assert q_powers == []


def test_family_identity_off_at_one_point_fails_pointwise(monkeypatch):
    """One factor value changed where the identity is nonzero: the vector no longer matches it."""
    ctx = make_field(2, 3)
    _, identity = constructions.even_min_values(ctx, 5)
    at = int(np.flatnonzero(identity)[0])
    trace_factor_values = constructions._trace_factor_values

    def perturbed(ctx, R):
        values = [vals.copy() for vals in trace_factor_values(ctx, R)]
        values[0][at] = 0
        return values

    monkeypatch.setattr(constructions, "_trace_factor_values", perturbed)
    with pytest.raises(SelfCheckFailed, match="fails pointwise"):
        build_even_q_min(ctx, 5)


def test_custom_h_off_by_a_constant_fails_pointwise(ctx4, monkeypatch):
    """Tr(x) and Tr(x) + 1 have equally many zeros, so only a pointwise check tells them apart."""
    q_power = constructions.q_power_mod
    monkeypatch.setattr(constructions, "q_power_mod", lambda g: q_power(g) + Poly.one(ctx4))
    with pytest.raises(SelfCheckFailed, match="fails pointwise"):
        build_custom(ctx4, 2, Poly.x(ctx4), ctx4.zero)
