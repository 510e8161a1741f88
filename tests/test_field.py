from __future__ import annotations

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from hermgrs import field
from hermgrs.errors import ValidationRefused
from hermgrs.field import (
    Felt,
    FieldCtx,
    code_sum,
    make_field,
    skew_element,
)

from oracle import ReferenceField, felt_trace_to_prime, pow_by_mul

ALL_PH = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
# every q = p^h <= 64
ALL_Q_PH = [(p, h) for p in range(2, 65) if all(p % d for d in range(2, p))
            for h in range(1, 7) if p**h <= 64]


def _arithmetic_pairs(ctx, negs):
    """Every pair (a, b) at q <= 9; above, every pair with a zero, every
    (a, -a) and a fixed random sample."""
    q2 = ctx.q2
    if ctx.q <= 9:
        return [(a, b) for a in range(q2) for b in range(q2)]
    rng = random.Random(ctx.q)
    return ([(0, b) for b in range(q2)] + [(a, 0) for a in range(1, q2)]
            + [(a, negs[a]) for a in range(q2)]
            + [(rng.randrange(q2), rng.randrange(q2)) for _ in range(2000)])


def _reference_frobenius(ref, exp, q, t):
    """t^q in the reference field by linearity: the coefficients of t lie in
    GF(p), which x -> x^q fixes, so t^q = sum_j t_j (x^q)^j."""
    out = ref.zero()
    for j, c in enumerate(t):
        out = ref.add(out, tuple(c * v % ref.p for v in exp[j * q % len(exp)]))
    return out


# the exponents of the power test: negative, zero, the Frobenius, the norm,
# the group order and past it, and past int64
def _exponents(q):
    return [-q * q, -1, 0, 1, q, q + 1, q * q - 1, q * q, 2**70, 2**200]


@pytest.mark.parametrize("p,h", ALL_Q_PH)
def test_scalar_arithmetic_matches_reference_field(p, h):
    """The ``Felt`` operators and the table-driven vadd/vneg agree with raw
    coefficient arithmetic; the pair-sum table is as small as carry-free
    addition allows.

    Index i >= 1 is x^(i-1) in the reference, so inverses and powers there
    are exponent arithmetic on its own powers of x, and GF(q) is the set
    its Frobenius fixes.  Zero has no inverse and no negative power, and
    0^m = 0 for m > 0 while 0^0 = 1."""
    ctx = make_field(p, h)
    ref = ReferenceField(p, h, ctx.modulus)
    n = ctx.n_units
    exp = ref.exp_table(n)  # also certifies w = x has full order
    to_ref = [ref.zero()] + exp
    to_idx = {t: i for i, t in enumerate(to_ref)}
    negs = [to_idx[ref.neg(t)] for t in to_ref]
    invs = [None] + [to_idx[exp[-i % n]] for i in range(n)]
    assert all(ref.mul(to_ref[a], to_ref[invs[a]]) == ref.one() for a in range(1, ctx.q2))
    elems = ctx.elems()
    pairs = _arithmetic_pairs(ctx, negs)
    sums = [to_idx[ref.add(to_ref[a], to_ref[b])] for a, b in pairs]
    for (a, b), s in zip(pairs, sums):
        x, y = elems[a], elems[b]
        assert (x + y).i == s
        assert (x - y).i == to_idx[ref.add(to_ref[a], ref.neg(to_ref[b]))]
        assert (x * y).i == to_idx[ref.mul(to_ref[a], to_ref[b])]
        if b:
            assert (x / y).i == to_idx[ref.mul(to_ref[a], to_ref[invs[b]])]
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
    fixed = {a for a in range(ctx.q2) if _reference_frobenius(ref, exp, ctx.q, to_ref[a]) == to_ref[a]}
    assert len(fixed) == ctx.q
    for a, x in enumerate(elems):
        assert (-x).i == negs[a]
        assert x.in_subfield() is (a in fixed)
        if a:
            assert x.inverse().i == invs[a]
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        for m in _exponents(ctx.q):
            if a:
                assert (x**m).i == to_idx[exp[(a - 1) * m % n]]
            elif m < 0:
                with pytest.raises(ZeroDivisionError):
                    x**m
            else:
                assert (x**m).i == (m == 0)
    a, b = np.array(pairs, dtype=np.int64).T
    assert np.array_equal(ctx.vadd(a, b), sums)
    assert np.array_equal(ctx.vneg(a), np.array(negs)[a])
    assert ctx._pair_sum.shape == ((2 * p - 1) ** (2 * h),)


def test_field_tables_are_read_only():
    """Contexts are shared through the ``make_field`` cache, so no caller
    may write a table."""
    ctx = make_field(3, 1)
    tables = {name: t for name, t in [*vars(ctx).items(), *vars(ctx.fq).items()] if isinstance(t, np.ndarray)}
    assert {"_pair_sum", "_spread", "_neg", "_polyint", "compact_of_idx"} <= tables.keys()
    for table in tables.values():
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = table[(0,) * table.ndim]


@pytest.mark.parametrize("p,h", [(2, 2), (3, 1), (5, 1)])
def test_modulus_is_lex_smallest_primitive(p, h):
    ctx = make_field(p, h)
    deg = 2 * h
    order = p ** deg - 1
    found = None
    for counter in range(p**deg):
        coeffs = []
        v = counter
        for _ in range(deg):
            v, rem = divmod(v, p)
            coeffs.append(rem)
        coeffs.reverse()
        if coeffs[0] == 0:
            continue
        mod = tuple(coeffs) + (1,)
        ref = ReferenceField(p, h, mod)
        val = ref.x()
        full_order = True
        for _ in range(1, order):  # val runs over x^1 .. x^(order-1)
            if val == ref.one():
                full_order = False
                break
            val = ref.mul(val, ref.x())
        if full_order and val == ref.one():  # loop left val = x^order
            found = mod
            break
    assert ctx.modulus == found


def _unfiltered_modulus_search(p, deg):
    """The first candidate in lexicographic order, c_0 first, not divisible
    by x and with x primitive: every candidate is tested."""
    order = p**deg - 1
    prime_divs = field._prime_factors(order)
    for counter in range(p**deg):
        coeffs = [counter // p ** (deg - 1 - i) % p for i in range(deg)]  # c_0 is the high digit
        if coeffs[0] and field._x_is_primitive(coeffs + [1], p, order, prime_divs):
            return tuple(coeffs + [1])
    raise AssertionError("no primitive polynomial")


@pytest.mark.parametrize("p,h", ALL_Q_PH, ids=[f"q{p**h}" for p, h in ALL_Q_PH])
def test_modulus_search_skips_no_primitive_candidate(p, h):
    """Skipping every c_0 whose norm (-1)^deg c_0 does not generate GF(p)*
    finds the same lex-smallest modulus as testing every candidate."""
    assert field._find_modulus(p, 2 * h) == _unfiltered_modulus_search(p, 2 * h) == make_field(p, h).modulus


# the defining modulus of every q <= 64, coefficients low degree first, kept
# as literals so that no rewrite of the primitivity test is its own reference
MODULI = {
    2: (1, 1, 1), 4: (1, 0, 0, 1, 1), 8: (1, 0, 0, 0, 0, 1, 1), 16: (1, 0, 0, 0, 1, 1, 1, 0, 1),
    32: (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), 64: (1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1),
    3: (2, 1, 1), 9: (2, 0, 0, 1, 1), 27: (2, 0, 0, 0, 0, 1, 1), 5: (2, 1, 1), 25: (2, 0, 2, 1, 1),
    7: (3, 1, 1), 49: (3, 0, 1, 1, 1), 11: (2, 4, 1), 13: (2, 1, 1), 17: (3, 1, 1), 19: (2, 1, 1),
    23: (5, 2, 1), 29: (2, 5, 1), 31: (3, 2, 1), 37: (2, 4, 1), 41: (6, 3, 1), 43: (3, 1, 1),
    47: (5, 2, 1), 53: (2, 4, 1), 59: (2, 1, 1), 61: (2, 1, 1),
}
# sha256 over every read-only table of every context, contexts in the order
# of ALL_Q_PH and tables by name, each table preceded by "q name dtype shape"
TABLES_DIGEST = "4653cbe884c23197c5565a3eb42eb7ef71f011516a51abb33829c47e5edbf007"


@pytest.mark.parametrize("p,h", ALL_Q_PH, ids=[f"q{p**h}" for p, h in ALL_Q_PH])
def test_modulus_is_pinned(p, h):
    assert field._find_modulus(p, 2 * h) == make_field(p, h).modulus == MODULI[p**h]


def test_field_tables_are_pinned():
    """Every element index, sum, product and GF(q) label in the package's
    output is read from these tables, so they must not move by a byte."""
    digest = hashlib.sha256()
    for p, h in ALL_Q_PH:
        ctx = make_field(p, h)
        named = [*vars(ctx).items(), *((f"fq.{name}", t) for name, t in vars(ctx.fq).items())]
        for name, table in sorted(named, key=lambda item: item[0]):
            if isinstance(table, np.ndarray):
                digest.update(f"{p**h} {name} {table.dtype} {table.shape}".encode())
                digest.update(np.ascontiguousarray(table).tobytes())
    assert digest.hexdigest() == TABLES_DIGEST


def test_make_field_rejects_bad_input():
    with pytest.raises(ValidationRefused):
        make_field(4, 1)
    with pytest.raises(ValidationRefused):
        make_field(2, 7)  # q = 128 > 64
    with pytest.raises(ValidationRefused):
        make_field(2, 0)


def test_make_field_refuses_huge_p_and_h_before_testing_them():
    """Refused before the trial division to sqrt(p) and before computing p^h."""
    for p, h in [(2**61 - 1, 1), (2**127 - 1, 1), (2, 100_000_000), (3, 10**18)]:
        with pytest.raises(ValidationRefused, match="exceeds the supported cap"):
            make_field(p, h)


def test_make_field_examples():
    ctx = make_field(2, 3)
    assert ctx.q == 8 and ctx.q2 == 64 and len(ctx.elems()) == 64
    assert make_field(5, 1).q2 == 25
    ctx4 = make_field(2, 2)
    assert ctx4.q == 4
    assert ctx4.elems()[0].is_zero()
    assert ctx4.elems()[1] == ctx4.one


def test_make_field_is_deterministic_and_cached():
    a = make_field(3, 1)
    assert make_field(3, 1) is a
    fresh = FieldCtx(3, 1)
    assert fresh.modulus == a.modulus
    for table in ("_spread", "_pair_sum", "_neg"):
        assert np.array_equal(getattr(fresh, table), getattr(a, table))
    assert np.array_equal(fresh._polyint[1:], a._polyint[1:])


@pytest.mark.parametrize("bad", [1.9, True, "2", -1, 16])
def test_felt_refuses_what_is_not_an_element_index(ctx4, bad):
    """1.9, True and "2" are not read as an index; -1 and q^2 = 16 are out of range."""
    with pytest.raises(ValidationRefused):
        ctx4.felt(bad)


def test_enumeration_convention(ctx5):
    elems = ctx5.elems()
    assert elems[0].is_zero()
    for i in range(1, ctx5.q2):
        assert elems[i] == ctx5.w ** (i - 1)


def test_exp_log_tables_roundtrip(ctx9):
    # exp[log[x]] = x for every nonzero x, in the polynomial representation
    for polyint in ctx9._polyint[1:]:
        idx = int(ctx9._idx_of_poly[polyint])
        assert idx >= 1
        assert int(ctx9._polyint[idx]) == int(polyint)


def test_cross_context_rejected(ctx4, ctx5):
    with pytest.raises(ValueError):
        _ = ctx4.one + ctx5.one
    with pytest.raises(ValueError):
        _ = ctx4.one - ctx5.one
    fresh = FieldCtx(2, 2)
    with pytest.raises(ValueError):
        _ = fresh.one * ctx4.one  # same (p, h), different instance


@pytest.mark.parametrize("p,h", ALL_PH)
def test_field_axioms_on_random_triples(p, h):
    ctx = make_field(p, h)
    rng = random.Random(1)
    elems = ctx.elems()
    for _ in range(150):
        a, b, c = (elems[rng.randrange(ctx.q2)] for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == ctx.one


@pytest.mark.parametrize("p,h", ALL_PH)
def test_frobenius_is_an_automorphism(p, h):
    """The Frobenius is the operator x ** q."""
    ctx = make_field(p, h)
    q = ctx.q
    rng = random.Random(2)
    elems = ctx.elems()
    for _ in range(80):
        a, b = elems[rng.randrange(ctx.q2)], elems[rng.randrange(ctx.q2)]
        assert (a + b) ** q == a**q + b**q
        assert (a * b) ** q == a**q * b**q
        assert (a**q) ** q == a
    assert sum(1 for x in elems if x**q == x) == q


def test_frobenius_examples(ctx4):
    assert (ctx4.zero ** ctx4.q).is_zero()
    for x in ctx4.subfield_elems():
        assert x ** ctx4.q == x
    # x = w at q = 4: repeated-squaring oracle gives w^4
    w = ctx4.w
    expected = ((w * w) * (w * w))
    assert w ** ctx4.q == expected == pow_by_mul(w, 4)


@pytest.mark.parametrize("p,h", ALL_PH)
def test_norm_maps_onto_subfield_with_equal_fibers(p, h):
    ctx = make_field(p, h)
    fibers = Counter((x ** (ctx.q + 1)).i for x in ctx.elems() if x)
    assert len(fibers) == ctx.q - 1
    assert all(v == ctx.q + 1 for v in fibers.values())
    subfield = {x.i for x in ctx.subfield_elems()}
    assert set(fibers) <= subfield


def test_norm_examples(ctx3):
    assert ctx3.one**4 == ctx3.one  # the norm is x ** (q+1)
    assert (ctx3.zero**4).is_zero()
    w = ctx3.w
    chain = w * w * w * w  # multiplication-chain oracle for w^4
    assert w**4 == chain
    # w^4 generates GF(3)^*: it is not 1 but its square is
    assert chain != ctx3.one and chain * chain == ctx3.one


@pytest.mark.parametrize("p,h", ALL_PH)
def test_trace_to_subfield_fibers(p, h):
    ctx = make_field(p, h)
    fibers = Counter((x + x**ctx.q).i for x in ctx.elems())
    assert len(fibers) == ctx.q
    assert all(v == ctx.q for v in fibers.values())


def test_trace_examples(ctx4, ctx5, ctx8):
    # the trace to GF(q) is x + x ** q
    for x in ctx4.subfield_elems():
        assert (x + x**4).is_zero()  # x + x = 0 in char 2
    two = ctx5.one + ctx5.one
    for x in ctx5.subfield_elems():
        assert x + x**5 == two * x
    assert felt_trace_to_prime(ctx8, ctx8.zero).is_zero()
    ones = sum(1 for x in ctx8.subfield_elems() if felt_trace_to_prime(ctx8, x) == ctx8.one)
    assert ones == 4
    assert felt_trace_to_prime(ctx4, ctx4.one).is_zero()


@pytest.mark.parametrize("p,h", ALL_PH)
def test_solve_norm_properties(p, h):
    """``vnorm_root`` solves theta^(q+1) = lam for all of GF(q)* in one call,
    with the smallest discrete log, which fixes every record's thetas."""
    ctx = make_field(p, h)
    lams = [lam for lam in ctx.subfield_elems() if lam]
    thetas = ctx.vnorm_root(np.array([lam.i for lam in lams], dtype=np.int64))
    for lam, theta in zip(lams, thetas.tolist()):
        # discrete-log scan oracle: smallest j with (w^j)^(q+1) = lam
        j = next(j for j in range(ctx.n_units) if pow_by_mul(ctx.w**j, ctx.q + 1) == lam)
        assert ctx.felt(theta) == ctx.w**j


@pytest.mark.parametrize("p,h", ALL_PH)
def test_skew_element(p, h):
    ctx = make_field(p, h)
    c = skew_element(ctx)
    assert c
    assert c + c**ctx.q == ctx.zero


def test_skew_element_examples(ctx5, ctx8):
    assert skew_element(ctx8) == ctx8.one
    c = skew_element(ctx5)
    assert c == ctx5.w**3
    assert pow_by_mul(c, 5) == -c


@pytest.mark.parametrize("p,h", ALL_PH)
def test_vectorized_ops_match_scalar(p, h):
    """The array methods against the ``Felt`` operators, element by element."""
    ctx = make_field(p, h)
    elems = ctx.elems()
    rng = np.random.default_rng(3)
    a = rng.integers(0, ctx.q2, 400)
    b = rng.integers(0, ctx.q2, 400)
    va, vm, vn = ctx.vadd(a, b), ctx.vmul(a, b), ctx.vneg(a)
    for i in range(400):
        x, y = elems[a[i]], elems[b[i]]
        assert va[i] == (x + y).i
        assert vm[i] == (x * y).i
        assert vn[i] == (-x).i
    # one power map: an exponent column gives the table a^m, a scalar
    # exponent a row of it, and Python ints a Python int
    ms = np.array([0, 1, 2, ctx.q, ctx.q + 1, ctx.q2 - 1, 3 * (ctx.q2 - 1) + 5])
    table = ctx.vpow(ctx.points_idx(), ms[:, None])
    assert table.tolist() == [[(x ** int(m)).i for x in elems] for m in ms]
    assert table[:, 0].tolist() == [1] + [0] * (ms.size - 1)  # 0^0 = 1, 0^m = 0
    for m, row in zip(ms.tolist(), table):
        assert np.array_equal(ctx.vpow(a, m), row[a])
        scalars = [ctx.vpow(x, m) for x in range(ctx.q2)]
        assert all(type(v) is int for v in scalars) and scalars == row.tolist()
    total = ctx.zero
    for x in a:
        total = total + elems[x]
    assert int(ctx.vsum(a)) == total.i


@pytest.mark.parametrize("p,h", ALL_Q_PH, ids=[f"q{p**h}" for p, h in ALL_Q_PH])
def test_vmul_and_vinv0_match_mul_i_and_inv_i(p, h):
    """The table-read product and inverse of arrays equal the ``Felt`` product
    and ``inverse()``: every pair at q <= 9; above, every pair with a zero
    and a fixed random sample."""
    ctx = make_field(p, h)
    elems = ctx.elems()
    pairs = _arithmetic_pairs(ctx, [(-x).i for x in elems])
    a, b = np.array(pairs, dtype=np.int64).T
    assert np.array_equal(ctx.vmul(a, b), [(elems[x] * elems[y]).i for x, y in pairs])
    units = np.arange(1, ctx.q2)
    assert np.array_equal(ctx._vinv0(units), [x.inverse().i for x in elems[1:]])
    assert ctx._vinv0(np.int64(0)) == 0
    assert np.array_equal(ctx.vmul(ctx._vinv0(units), units), np.ones_like(units))


def test_vmul_takes_lists_scalars_and_broadcast_shapes(ctx9):
    w5, w7 = 6, 8  # indices of w^5 and w^7
    elems = ctx9.elems()
    prod = (elems[w5] * elems[w7]).i
    out = ctx9.vmul([w5, 0, 1], [w7, w5, 0])
    assert out.dtype == np.int64 and out.tolist() == [prod, 0, 0]
    scalar = ctx9.vmul(np.int64(w5), np.int64(w7))
    assert scalar.dtype == np.int64 and scalar == prod
    col, row = np.arange(ctx9.q2)[:, None], np.array([[0, 1, w5, ctx9.q2 - 1]])
    table = ctx9.vmul(col, row)
    assert table.shape == (ctx9.q2, 4) and table.dtype == np.int64
    assert table.tolist() == [[(x * elems[y]).i for y in row[0]] for x in elems]
    inv = ctx9._vinv0([[0, 1], [w5, w7]])
    assert inv.dtype == np.int64 and inv.tolist() == [[0, 1], [elems[w5].inverse().i, elems[w7].inverse().i]]


@pytest.mark.parametrize("p,h", [(2, 1), (3, 2), (2, 6)])
def test_multiply_tables_are_read_only(p, h):
    ctx = make_field(p, h)
    for table in (ctx._log, ctx._exp, ctx._inv):
        assert table.dtype == np.int64
        with pytest.raises(ValueError):
            table[0] = table[0]


def test_subfield_tables_consistent(ctx9):
    fq = ctx9.fq
    for ca in range(ctx9.q):
        for cb in range(ctx9.q):
            xa = Felt(ctx9, fq.idx_of_compact[ca])
            xb = Felt(ctx9, fq.idx_of_compact[cb])
            assert int(fq.idx_of_compact[fq.add[ca, cb]]) == (xa + xb).i
            assert int(fq.idx_of_compact[fq.mul[ca, cb]]) == (xa * xb).i


def test_split_components_roundtrip(ctx9):
    xi = ctx9.xi_idx
    pts = ctx9.points_idx()
    c0, c1 = ctx9.split_components(pts)
    rebuilt = ctx9.vadd(
        ctx9.fq.idx_of_compact[c0],
        ctx9.vmul(ctx9.fq.idx_of_compact[c1], np.int64(xi)),
    )
    assert np.array_equal(rebuilt, pts)



@pytest.mark.parametrize("p,h", ALL_Q_PH, ids=[f"q{p**h}" for p, h in ALL_Q_PH])
def test_subfield_elems_come_in_enumeration_order(p, h):
    """0, 1, w^(q+1), w^(2(q+1)), ...: written out, not read off the label order."""
    ctx = make_field(p, h)
    q = ctx.q
    assert [x.i for x in ctx.subfield_elems()] == [0] + [1 + j * (q + 1) for j in range(q - 1)]


def _fold_add(ctx, a, axis):
    """Field sums along ``axis`` by ``Felt`` additions, one element at a time."""
    a = np.moveaxis(a, axis, -1)
    out = np.zeros(a.shape[:-1], dtype=np.int64)
    for pos in np.ndindex(out.shape):
        acc = ctx.zero
        for x in a[pos]:
            acc = acc + Felt(ctx, x)
        out[pos] = acc.i
    return out


@pytest.mark.parametrize("p,h", ALL_Q_PH, ids=[f"q{p**h}" for p, h in ALL_Q_PH])
def test_code_sum_and_vsum_match_a_fold_of_add_i(p, h):
    """2-D and 3-D arrays along axes 0, 1 and -1, empty axes included.

    ``code_sum`` adds GF(q^2) polynomial-basis integers (2h digits) and
    GF(q) labels (h digits) and keeps their dtype; q = 27 has six GF(q^2)
    digits and q = 49 four.
    """
    ctx = make_field(p, h)
    fq = ctx.fq
    rng = np.random.default_rng(ctx.q)
    for shape in [(4, 5), (3, 4, 5), (0, 3), (3, 0, 2)]:
        a = rng.integers(0, ctx.q2, shape)
        labels = rng.integers(0, ctx.q, shape).astype(np.uint8)
        for axis in (0, 1, -1):
            expect = _fold_add(ctx, a, axis)
            assert np.array_equal(ctx.vsum(a, axis=axis), expect)
            codes = code_sum(p, 2 * h, ctx._polyint[a], axis)
            assert codes.dtype == np.uint16
            assert np.array_equal(ctx._idx_of_poly[codes], expect)
            label_sum = code_sum(p, h, labels, axis)
            assert label_sum.dtype == np.uint8
            expect = _fold_add(ctx, fq.idx_of_compact[labels], axis)
            assert np.array_equal(fq.idx_of_compact[label_sum], expect)
