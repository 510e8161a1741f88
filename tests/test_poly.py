from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hermgrs.errors import ValidationRefused
from hermgrs.field import Felt, FieldCtx, make_field
from hermgrs.poly import Poly, distinct_zeros, eval_rows, q_power_mod

from oracle import felt_eval, pow_by_mul


def rand_poly(ctx, rng, max_deg):
    return Poly.from_indices(ctx, [rng.randrange(ctx.q2) for _ in range(max_deg + 1)])


def test_canonical_form(ctx4):
    p = Poly.from_indices(ctx4, [1, 2, 0, 0])
    assert p.degree == 1
    assert Poly.from_indices(ctx4, [0, 0]).is_zero()
    assert Poly.zero(ctx4).degree == -1


@pytest.mark.parametrize("bad", [1.9, True, "2", -1, 16])
def test_from_indices_refuses_what_is_not_an_element_index(ctx4, bad):
    """Also inside a list, where np.asarray([1, True]) would be int64."""
    with pytest.raises(ValidationRefused):
        Poly.from_indices(ctx4, [1, bad])


@pytest.mark.parametrize("bad", [[[1, 2], [3, 4]], 5, np.int64(5), np.array(5)], ids=["nested", "int", "np-int", "0-d"])
def test_from_indices_refuses_what_is_not_one_flat_list(ctx4, bad):
    """A nested list would give a two-dimensional coefficient array, a single value a 0-d one."""
    with pytest.raises(ValidationRefused, match="must be one list"):
        Poly.from_indices(ctx4, bad)


def test_eval_examples(ctx5):
    w = ctx5.w
    assert felt_eval(Poly.zero(ctx5), w).is_zero()
    assert felt_eval(Poly.x(ctx5), w) == w
    # q = 5: X^6 = X^(q+1) at w equals the 6-fold product, a GF(5) element
    val = felt_eval(Poly.monomial(ctx5, ctx5.one, 6), w)
    assert val == pow_by_mul(w, 6)
    assert val.in_subfield()


def test_eval_all_examples(ctx4):
    const = Poly.from_indices(ctx4, [ctx4.w.i])
    assert np.all(const.eval_all() == ctx4.w.i)
    assert np.array_equal(Poly.x(ctx4).eval_all(), ctx4.points_idx())
    vals = Poly.monomial(ctx4, ctx4.one, 5).eval_all()  # X^(q+1)
    assert np.array_equal(ctx4.vfrob(vals), vals)  # norms land in GF(4)


def test_eval_single_matches_eval_all(ctx5):
    rng = random.Random(7)
    for _ in range(10):
        p = rand_poly(ctx5, rng, 12)
        vals = p.eval_all()
        for i in (1, 2, 9, 25):
            assert felt_eval(p, ctx5.elem(i)).i == int(vals[i - 1])


def test_sparse_and_dense_eval_agree(ctx8):
    rng = random.Random(8)
    # sparse polynomial: few monomials, high degree
    coeffs = np.zeros(50, dtype=np.int64)
    for _ in range(4):
        coeffs[rng.randrange(50)] = rng.randrange(ctx8.q2)
    sparse = Poly(ctx8, coeffs)
    dense_like = Poly(ctx8, coeffs + 0)  # same values; force dense path via padding
    pts = ctx8.points_idx()
    # dense Horner reference computed by scalar evaluation
    ref = np.array([felt_eval(sparse, ctx8.elem(i + 1)).i for i in range(ctx8.q2)])
    assert np.array_equal(sparse.eval_on(pts), ref)
    assert np.array_equal(dense_like.eval_on(pts), ref)


def test_ring_operations(ctx4):
    rng = random.Random(9)
    p = rand_poly(ctx4, rng, 6)
    assert p + Poly.zero(ctx4) == p
    xp1 = Poly.from_indices(ctx4, [1, 1])
    assert xp1 * xp1 == Poly.from_indices(ctx4, [1, 0, 1])  # (X+1)^2 = X^2+1 in char 2
    for _ in range(20):
        f = rand_poly(ctx4, rng, rng.randrange(1, 8))
        g = rand_poly(ctx4, rng, rng.randrange(1, 8))
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).degree == f.degree + g.degree
        x = ctx4.elems()[rng.randrange(ctx4.q2)]
        assert felt_eval(f + g, x) == felt_eval(f, x) + felt_eval(g, x)
        assert felt_eval(f * g, x) == felt_eval(f, x) * felt_eval(g, x)
        s = ctx4.elems()[rng.randrange(1, ctx4.q2)]
        assert felt_eval(f.scale(s), x) == s * felt_eval(f, x)


def test_poly_context_mismatch(ctx4, ctx5):
    with pytest.raises(ValueError):
        _ = Poly.x(ctx4) + Poly.x(ctx5)


def test_q_power_mod_monomials(ctx4):
    q = ctx4.q
    for j in range(q):
        assert q_power_mod(Poly.monomial(ctx4, ctx4.one, j)) == Poly.monomial(ctx4, ctx4.one, j * q)
    # coefficients in GF(q) at exponents i(q+1) stay fixed
    p = Poly.from_indices(ctx4, [1]) + Poly.monomial(ctx4, ctx4.subfield_elems()[2], q + 1)
    assert q_power_mod(p) == p


def test_q_power_mod_transport_example(ctx4):
    # q = 4: w X -> w^4 X^4, also checked pointwise against the Frobenius x ** q
    p = Poly.monomial(ctx4, ctx4.w, 1)
    out = q_power_mod(p)
    assert out == Poly.monomial(ctx4, ctx4.w**4, 4)
    for x in ctx4.elems():
        assert felt_eval(out, x) == felt_eval(p, x) ** ctx4.q


@pytest.mark.parametrize("p,h", [(2, 2), (3, 1), (5, 1)])
def test_q_power_mod_is_pointwise_frobenius(p, h):
    ctx = make_field(p, h)
    rng = random.Random(10)
    for _ in range(10):
        g = rand_poly(ctx, rng, ctx.q2 - 1)
        out = q_power_mod(g)
        vals = g.eval_all()
        assert np.array_equal(out.eval_all(), ctx.vfrob(vals))


def test_q_power_mod_degree_cap(ctx4):
    with pytest.raises(ValidationRefused):
        q_power_mod(Poly.monomial(ctx4, ctx4.one, ctx4.q2))


def test_distinct_zeros_trivial(ctx4):
    count, zero_set = distinct_zeros(Poly.zero(ctx4))
    assert count == ctx4.q2 and zero_set == tuple(range(1, ctx4.q2 + 1))
    # X^(q^2-1) - 1 vanishes exactly on the nonzero elements
    p = Poly.monomial(ctx4, ctx4.one, ctx4.q2 - 1) + Poly.from_indices(ctx4, [(-ctx4.one).i])
    count, zero_set = distinct_zeros(p)
    assert count == ctx4.q2 - 1
    assert zero_set == tuple(range(2, ctx4.q2 + 1))


def test_distinct_zeros_of_product_is_union(ctx5):
    rng = random.Random(11)
    for _ in range(10):
        f = rand_poly(ctx5, rng, 4)
        g = rand_poly(ctx5, rng, 4)
        if f.is_zero() or g.is_zero():
            continue
        _, zf = distinct_zeros(f)
        _, zg = distinct_zeros(g)
        _, zfg = distinct_zeros(f * g)
        assert set(zfg) == set(zf) | set(zg)


def test_zero_free_polynomial_at_q8(ctx8):
    """e X^3 + e^q X^24 + X^9 + 1 has no zeros over GF(64) for a primitive
    ninth root of unity e that is not a cube among them."""
    q = ctx8.q
    e = ctx8.w ** (q - 1)
    assert pow_by_mul(e, q + 1) == ctx8.one
    assert pow_by_mul(e, (q + 1) // 3) != ctx8.one
    h = (
        Poly.monomial(ctx8, e, 3)
        + Poly.monomial(ctx8, e**q, 3 * q)
        + Poly.monomial(ctx8, ctx8.one, q + 1)
        + Poly.one(ctx8)
    )
    count, zero_set = distinct_zeros(h)
    assert count == 0 and zero_set == ()


# q -> (p, h) for the dense-evaluation checks: p = 2, prime q, odd composite q
EVAL_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
               16: (2, 4), 25: (5, 2), 27: (3, 3)}


@given(st.sampled_from(sorted(EVAL_FIELDS)), st.data())
def test_dense_eval_on_matches_scalar_horner(q, data):
    ctx = make_field(*EVAL_FIELDS[q])
    coeff = st.one_of(st.just(0), st.integers(1, ctx.q2 - 1))
    coeffs = data.draw(st.lists(coeff, min_size=1, max_size=ctx.q2 + 8))
    poly = Poly.from_indices(ctx, coeffs)
    assume(np.count_nonzero(poly.c) * 4 > len(poly.c))  # the dense path
    xs = [0] + data.draw(st.lists(st.integers(0, ctx.q2 - 1), max_size=12))
    got = poly.eval_on(np.array(xs, dtype=np.int64))
    assert got.tolist() == [felt_eval(poly, Felt(ctx, x)).i for x in xs]


def test_dense_eval_on_spans_several_blocks_at_q64():
    """Degree 1000 at q = 64 counts 1001 x 4096 terms, past the transform's
    2q(q^2-1) + 2^12, so ``FieldCtx.spectrum`` takes the transform; the
    direct route's blocks at this size are in
    ``test_transform_eval_all_matches_eval_on``."""
    ctx = make_field(2, 6)
    rng = random.Random(64)
    poly = Poly.from_indices(ctx, [rng.randrange(1, ctx.q2) for _ in range(1001)])
    vals = poly.eval_all()
    assert vals.shape == (ctx.q2,)
    for x in [0, 1, 2] + rng.sample(range(3, ctx.q2), 40):
        assert int(vals[x]) == felt_eval(poly, Felt(ctx, x)).i


@pytest.mark.parametrize("q", sorted(EVAL_FIELDS) + [49])
def test_eval_on_sparse_zero_and_constant_polynomials_match_horner(q):
    """At most 4 monomials of degree up to q^2 - 1, the zero polynomial and
    constants, on 2-D point arrays of several shapes (q = 49 has four
    base-7 digits per GF(q^2) element)."""
    ctx = make_field(*EVAL_FIELDS.get(q, (7, 2)))
    rng = random.Random(q)
    polys = [Poly.zero(ctx), Poly.one(ctx), Poly.from_indices(ctx, [rng.randrange(2, ctx.q2)])]
    for size in range(1, 5):
        top = [ctx.q2 - 1] if size % 2 else []  # the odd sizes reach degree q^2 - 1
        exps = top + rng.sample(range(ctx.q2 - len(top)), size - len(top))
        coeffs = np.zeros(max(exps) + 1, dtype=np.int64)
        coeffs[exps] = [rng.randrange(1, ctx.q2) for _ in exps]
        polys.append(Poly.from_indices(ctx, coeffs))
    for shape in ((3, 4), (1, 5), (2, 0)):
        xs = np.array([rng.randrange(ctx.q2) for _ in range(shape[0] * shape[1])], dtype=np.int64).reshape(shape)
        if xs.size:
            xs[0, 0] = 0
        for poly in polys:
            got = poly.eval_on(xs)
            assert got.shape == xs.shape
            assert got.tolist() == [[felt_eval(poly, Felt(ctx, int(x))).i for x in row] for row in xs]


@pytest.mark.parametrize("q", [3, 4, 9, 16])
def test_eval_rows_of_a_batch_is_eval_on_of_each_row(q):
    """Dense rows, a row with zeros, the zero row and a column zero in every
    row, on a 2-D point array holding 0, and a batch of empty vectors."""
    ctx = make_field(*EVAL_FIELDS[q])
    rng = np.random.default_rng(q)
    coeffs = rng.integers(0, ctx.q2, (4, 3 * q))
    coeffs[1, ::3] = 0
    coeffs[2] = 0
    coeffs[:, 5] = 0
    xs = rng.integers(0, ctx.q2, (2, 5))
    xs[0, 0] = 0
    got = eval_rows(ctx, coeffs, xs)
    assert got.shape == (4, 2, 5)
    assert np.array_equal(got, np.stack([Poly(ctx, row).eval_on(xs) for row in coeffs]))
    assert np.array_equal(eval_rows(ctx, np.zeros((3, 0), dtype=np.int64), xs), np.zeros((3, 2, 5)))


# every q = p^h <= 64, for the transform
ALL_FIELDS = {p**h: (p, h) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
              for h in range(1, 7) if p**h <= 64}


@given(st.sampled_from(sorted(ALL_FIELDS)), st.data())
def test_transform_eval_all_matches_eval_on(q, data):
    """Dense, sparse and zero polynomials of degree up to q^2 - 1, whose
    coefficient of X^(q^2-1) folds onto X^0 at every point but 0, through
    each route of ``FieldCtx.spectrum`` on every point, and by Horner at
    0, 1, w^(q^2-2) and a sample.  Dense polynomials are one draw in eight
    at q >= 49, where the direct route of degree 4095 takes a third of a
    second."""
    ctx = make_field(*ALL_FIELDS[q])
    kinds = ["dense", "sparse", "sparse", "zero"] if q < 49 else ["dense"] + ["sparse"] * 6 + ["zero"]
    kind = data.draw(st.sampled_from(kinds))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    degree = data.draw(st.one_of(st.just(ctx.q2 - 1), st.integers(0, ctx.q2 - 1)))
    coeffs = np.zeros(degree + 1, dtype=np.int64)
    if kind == "dense":
        coeffs[:] = rng.integers(0, ctx.q2, degree + 1)
    elif kind == "sparse":
        exps = rng.choice(degree + 1, size=min(degree + 1, data.draw(st.integers(1, 6))), replace=False)
        coeffs[exps] = rng.integers(1, ctx.q2, exps.size)
    if kind != "zero":
        coeffs[degree] = rng.integers(1, ctx.q2)
    poly = Poly(ctx, coeffs)
    pts = ctx.points_idx()
    routes = []
    for route in (FieldCtx._spectrum_direct, FieldCtx._spectrum_dft):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FieldCtx, "spectrum", route)
            routes.append(poly.eval_on(pts))
    direct, transform = routes
    assert np.array_equal(transform, direct)
    assert np.array_equal(poly.eval_all(), direct)
    for x in [0, 1, ctx.q2 - 1, *rng.integers(0, ctx.q2, 5)]:
        assert int(direct[x]) == felt_eval(poly, Felt(ctx, int(x))).i
