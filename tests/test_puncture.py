from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hermgrs import constructions, linalg, puncture
from hermgrs.errors import CapExceeded, SelfCheckFailed, ValidationRefused
from hermgrs.field import Felt, FieldCtx, make_field
from hermgrs.poly import Poly, distinct_zeros, eval_rows, q_power_mod
from hermgrs.puncture import (
    PunctureVector,
    constructive_witness,
    dim_formula,
    g_form_vector,
    membership,
    min_weight_formula,
    min_weight_pc,
    parity_check,
    power_sums,
    primal_basis,
    puncture_direct,
    small_support_witness,
    u_space_basis,
    weight_distribution,
)

from oracle import (
    basis_rows,
    function_zero_positions,
    pow_by_mul,
    same_vector,
    u_space_by_elimination,
    vector_is_zero,
)


def rand_g(ctx, rng, k):
    bound = (ctx.q - k) * ctx.q - 1
    if bound < 0:
        return Poly.zero(ctx)
    return Poly.from_indices(ctx, [rng.randrange(ctx.q2) for _ in range(bound + 1)])


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (11, 1)])
def test_dimension_law_and_method_agreement(p, h):
    ctx = make_field(p, h)
    q = ctx.q
    for k in range(1, q + 1):
        direct = puncture_direct(ctx, k)
        uspace = u_space_basis(ctx, k)
        assert direct.dim == uspace.dim == q * q + 1 - k * k
        assert direct.row_space_equals(uspace)
    assert puncture_direct(ctx, q + 1).dim == 0
    assert u_space_basis(ctx, q + 1).dim == 0


def test_k_equals_q_gives_all_ones(ctx4):
    basis = puncture_direct(ctx4, ctx4.q)
    assert basis.dim == 1
    assert np.all(basis.matrix[0] == 1)


def test_direct_solver_cap(ctx4):
    with pytest.raises(CapExceeded):
        puncture_direct(ctx4, 2, max_q=3)


def test_g_form_vector_trivial(ctx4):
    v = g_form_vector(ctx4, 2, Poly.zero(ctx4), ctx4.zero)
    assert vector_is_zero(v)


def test_g_form_vector_c_only(ctx4):
    # g = 0, c = 1: entries a_i^((q-k)(q+1)) plus a final 1; only a_1 = 0
    # vanishes, so the weight is q^2
    k = 2
    v = g_form_vector(ctx4, k, Poly.zero(ctx4), ctx4.one)
    assert v.weight() == ctx4.q2
    assert v.serialized()[ctx4.q2] == ctx4.one.i
    assert v.serialized()[0] == 0


def test_g_form_vector_example1_weight(ctx5):
    # q=5, k=4: g = c X^3 with c^q = -c gives 1 + 3*4 = 13 zeros, hence
    # weight 25 - 13 = 12; the zero count is verified on the factored form
    # c x^3 (1 - x^12) evaluated pointwise by a scalar loop
    from hermgrs.field import skew_element

    c = skew_element(ctx5)
    g = Poly.monomial(ctx5, c, 3)
    v = g_form_vector(ctx5, 4, g, ctx5.zero)

    def factored(x):
        return c * pow_by_mul(x, 3) * (ctx5.one - pow_by_mul(x, 12))

    zeros = function_zero_positions(ctx5, factored)
    assert len(zeros) == 13
    assert v.weight() == 25 - 13 == 12


def test_g_form_vector_degree_cap(ctx4):
    with pytest.raises(ValidationRefused):
        g_form_vector(ctx4, 2, Poly.monomial(ctx4, ctx4.one, (ctx4.q - 2) * ctx4.q), ctx4.zero)


def test_g_form_weight_identity(small_grid):
    rng = random.Random(22)
    for ctx, k in small_grid:
        q = ctx.q
        for _ in range(5):
            g = rand_g(ctx, rng, k)
            c = ctx.subfield_elems()[rng.randrange(q)]
            v = g_form_vector(ctx, k, g, c)
            h = g + q_power_mod(g)
            if c:
                h = h + Poly.monomial(ctx, c, (q - k) * (q + 1))
            zeros, _ = distinct_zeros(h)
            assert v.weight() == (ctx.q2 - zeros) + (1 if c else 0)


def test_puncture_vector_serialization_roundtrip(ctx4):
    v = small_support_witness(ctx4, 2)
    back = PunctureVector.from_serialized(ctx4, v.serialized())
    assert same_vector(back, v)
    assert all(
        ctx4.felt(i).in_subfield() for i in v.serialized()
    )


@pytest.mark.parametrize("bad", [1.9, True, "1", None, -1, 16, 2**70, 2])
def test_from_serialized_refuses_what_is_not_a_gf_q_index(ctx4, bad):
    """Index 1 is the element 1; 1.9, True and "1" are not read as it.  Indices
    outside 0..q^2-1, and index 2 (w, outside GF(4)), are refused too."""
    good = PunctureVector(ctx4, np.ones(ctx4.q2 + 1, dtype=np.uint8)).serialized()
    assert good[0] == 1
    with pytest.raises(ValidationRefused):
        PunctureVector.from_serialized(ctx4, [bad] + good[1:])


@pytest.mark.parametrize(
    "bad", [5, [5], [[1] * 26], [1] * 25, [1] * 27], ids=["scalar", "one", "nested", "short", "long"]
)
def test_from_serialized_refuses_what_is_not_a_list_of_length_q2_plus_1(ctx5, bad):
    """Index 5 is not in GF(5) inside GF(25), but the shape is refused first."""
    with pytest.raises(ValidationRefused, match=r"not a list of length q\^2\+1 = 26"):
        PunctureVector.from_serialized(ctx5, bad)


def test_membership_basics(ctx4):
    basis = puncture_direct(ctx4, 2)
    zero = PunctureVector(ctx4, np.zeros(ctx4.q2 + 1, dtype=np.uint8))
    assert membership(basis, zero)
    for row in basis_rows(basis):
        assert membership(basis, row)
    # a weight-1 vector cannot lie in P(C): its minimum weight is 2k >= 2
    v = np.zeros(ctx4.q2 + 1, dtype=np.uint8)
    v[3] = 1
    assert not membership(basis, PunctureVector(ctx4, v))


def test_puncture_vector_rejects_labels_outside_gf_q(ctx4):
    """Out-of-range entries are refused, not wrapped by the uint8 cast."""
    for bad in (257, -255, ctx4.q, -1):
        v = np.zeros(ctx4.q2 + 1, dtype=np.int64)
        v[5] = bad
        with pytest.raises(ValidationRefused):
            PunctureVector(ctx4, v)
    with pytest.raises(ValidationRefused):
        PunctureVector(ctx4, np.full(ctx4.q2 + 1, 1.5))
    v = np.zeros(ctx4.q2 + 1, dtype=np.int64)
    v[5] = ctx4.q - 1
    assert PunctureVector(ctx4, v).support() == (6,)


def test_membership_of_random_g_form(small_grid):
    rng = random.Random(23)
    for ctx, k in small_grid:
        basis = puncture_direct(ctx, k)
        for _ in range(10):
            g = rand_g(ctx, rng, k)
            c = ctx.subfield_elems()[rng.randrange(ctx.q)]
            assert membership(basis, g_form_vector(ctx, k, g, c))


def test_min_weight_formula_tables():
    assert [min_weight_formula(4, k) for k in range(1, 5)] == [2, 4, 8, 17]
    assert [min_weight_formula(5, k) for k in range(1, 6)] == [2, 4, 6, 12, 26]
    assert [min_weight_formula(8, k) for k in range(1, 9)] == [2, 4, 6, 8, 16, 24, 32, 65]
    assert [min_weight_formula(3, k) for k in range(1, 4)] == [2, 4, 10]
    assert min_weight_formula(7, 4) == 8
    assert [min_weight_formula(9, k) for k in range(5, 9)] == [10, 20, 30, 40]
    with pytest.raises(ValidationRefused):
        min_weight_formula(4, 5)


def test_small_support_witness(ctx8):
    for k in range(1, ctx8.q // 2 + 1):
        v = small_support_witness(ctx8, k)
        assert v.weight() == 2 * k
        if ctx8.q <= 11:
            assert membership(puncture_direct(ctx8, k), v)


def test_small_support_witness_membership(ctx5):
    for k in (1, 2):
        v = small_support_witness(ctx5, k)
        assert v.weight() == 2 * k
        assert membership(puncture_direct(ctx5, k), v)


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (2, 3), (3, 2), (2, 4)])
def test_small_support_witness_sits_on_the_first_subfield_points(p, h):
    """Its 2k points are the first 2k of 0, 1, w^(q+1), ..., whatever the labels."""
    ctx = make_field(p, h)
    points = [x.i for x in ctx.subfield_elems()]
    for k in range(1, ctx.q // 2 + 1):
        assert small_support_witness(ctx, k).support() == tuple(i + 1 for i in points[: 2 * k])


# q -> (p, h) for every prime power 2 <= q <= 64
WITNESS_FIELDS = {p**h: (p, h) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
                  for h in range(1, 7) if p**h <= 64}

# sha256 of bytes(constructive_witness(ctx, k).v) fed for q ascending, then
# k = 1..q, as produced by the version that multiplied out g, evaluated it
# and solved the Vandermonde kernels
WITNESS_DIGEST = "12dde52ecc19aaa42876dc7cffb6fd4a006c0b8612f89dc3de12d2c3bc7e0b28"


def test_constructive_witnesses_are_pinned():
    hasher = hashlib.sha256()
    for q in sorted(WITNESS_FIELDS):
        ctx = make_field(*WITNESS_FIELDS[q])
        for k in range(1, q + 1):
            hasher.update(bytes(constructive_witness(ctx, k).v))
    assert hasher.hexdigest() == WITNESS_DIGEST


@pytest.mark.parametrize("q", sorted(WITNESS_FIELDS))
def test_small_support_witness_is_the_vandermonde_kernel(q):
    """The closed form is the one RREF kernel row of H on the same 2k points."""
    ctx = make_field(*WITNESS_FIELDS[q])
    points = np.array([x.i for x in ctx.subfield_elems()], dtype=np.int64)
    for k in range(1, q // 2 + 1):
        kernel, _ = linalg.kernel_basis(ctx.fq, parity_check(ctx, k, points[: 2 * k] + 1))
        v = small_support_witness(ctx, k)
        assert kernel.shape == (1, 2 * k) and np.count_nonzero(kernel) == v.weight() == 2 * k
        assert np.array_equal(v.v[points[: 2 * k]], kernel[0])


@pytest.mark.parametrize("q", [q for q in sorted(WITNESS_FIELDS) if q <= 16])
def test_constructive_witness_is_the_family_vector(q):
    """For 2k > q, k < q, the family's pointwise values give the vector that
    ``build_*_q_min`` takes from its multiplied-out g."""
    ctx = make_field(*WITNESS_FIELDS[q])
    build = constructions.build_even_q_min if q % 2 == 0 else constructions.build_odd_q_min
    for k in range(q // 2 + 1, q):
        assert same_vector(constructive_witness(ctx, k), build(ctx, k).vector)


def test_constructive_witness_multiplies_no_polynomial_and_solves_no_system(monkeypatch):
    ctxs = {q: make_field(*WITNESS_FIELDS[q]) for q in (9, 16, 64)}
    calls = []
    for owner, name in [(Poly, "__mul__"), (Poly, "eval_on"), (FieldCtx, "spectrum"),
                        (linalg, "kernel_basis"), (puncture, "parity_check")]:
        original = getattr(owner, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    for q, k in [(9, 7), (16, 4), (16, 12), (64, 40)]:
        assert constructive_witness(ctxs[q], k).weight() == min_weight_formula(q, k)
    assert calls == []


@pytest.mark.parametrize("p,h,k", [(5, 1, 2), (2, 3, 6), (3, 2, 7)])
def test_min_weight_pc_refuses_a_witness_with_one_label_changed(p, h, k, monkeypatch):
    """A word one coordinate away from a member of P(C) is not a member, as
    P(C) has no word of weight 1."""
    ctx = make_field(p, h)
    labels = constructive_witness(ctx, k).v.copy()
    pos = int(np.flatnonzero(labels)[-1])
    labels[pos] = ctx.fq.add[labels[pos], 1]
    monkeypatch.setattr(puncture, "constructive_witness", lambda ctx, k: PunctureVector(ctx, labels))
    with pytest.raises(SelfCheckFailed, match=r"not a member of P\(C\)"):
        min_weight_pc(ctx, k, cap=10)


def test_min_weight_pc_refuses_a_member_of_the_wrong_weight(monkeypatch):
    """Under cap = 0 no scan runs, and the witness weight must be the formula's."""
    ctx, k = make_field(2, 4), 9
    word = g_form_vector(ctx, k, rand_g(ctx, random.Random(16), k), ctx.zero)
    assert parity_check_holds(ctx, k, word) and word.weight() != min_weight_formula(16, k)
    monkeypatch.setattr(puncture, "constructive_witness", lambda ctx, k: word)
    with pytest.raises(SelfCheckFailed, match="weighs"):
        min_weight_pc(ctx, k, cap=0)


def test_min_weight_pc_exhaustive_cells(ctx4, ctx5):
    r = min_weight_pc(ctx4, 2)
    assert (r.weight, r.mode, r.agrees) == (4, "exhaustive", True)
    r = min_weight_pc(ctx5, 3)
    assert (r.weight, r.mode, r.agrees) == (6, "exhaustive", True)
    r = min_weight_pc(ctx4, 3)
    assert (r.weight, r.mode) == (8, "exhaustive")
    assert r.witness is not None and r.witness.weight() == 8
    assert membership(puncture_direct(ctx4, 3), r.witness)


def test_min_weight_pc_carries_the_constructive_witness_weight(small_grid, ctx4):
    cells = [(ctx, k, 10) for ctx, k in small_grid] + [(ctx4, k, 10**8) for k in (2, 3)]
    for ctx, k, cap in cells:  # constructive mode, then exhaustive mode
        r = min_weight_pc(ctx, k, cap=cap)
        assert r.witness_weight == constructive_witness(ctx, k).weight()


def test_min_weight_pc_trivial_for_large_k(ctx4):
    r = min_weight_pc(ctx4, ctx4.q + 1)
    assert r.mode == "empty" and r.weight is None and r.dim == 0


def test_min_weight_pc_constructive_fallback(ctx4):
    r = min_weight_pc(ctx4, 2, cap=10)
    assert r.mode == "constructive"
    assert r.weight == 4 and r.agrees
    assert r.witness is not None and r.witness.weight() == 4
    assert "formula" in r.note


def test_scan_result_is_independent_of_the_upper_bound_hint(ctx3, ctx4):
    from hermgrs import linalg

    for ctx, k in [(ctx3, 2), (ctx4, 3)]:
        basis = u_space_basis(ctx, k)
        upper_vec = small_support_witness(ctx, k) if 2 * k <= ctx.q else None
        bare = linalg.min_weight_scan(ctx.fq, basis.matrix)
        assert bare.admitted
        if upper_vec is not None:
            hinted = linalg.min_weight_scan(
                ctx.fq, basis.matrix, upper=(upper_vec.weight(), upper_vec.v)
            )
            assert hinted.admitted and hinted.weight == bare.weight
        assert bare.weight == min_weight_formula(ctx.q, k)


def test_weight_distribution_matches_scalar_enumeration(ctx2):
    """Pure-Python enumeration of the (2,1) row space as a reference."""
    basis = u_space_basis(ctx2, 1)
    fq = ctx2.fq
    m, n = basis.matrix.shape
    ref = [0] * (n + 1)
    for msg in range(ctx2.q**m):
        word = np.zeros(n, dtype=np.uint8)
        v = msg
        for r in range(m):
            v, c = divmod(v, ctx2.q)
            word = fq.add[word, fq.mul[np.uint8(c), basis.matrix[r]]]
        ref[int(np.count_nonzero(word))] += 1
    counts = weight_distribution(ctx2, 1)
    assert list(counts) == ref


def test_weight_distribution(ctx2, ctx4):
    counts = weight_distribution(ctx2, 1)
    assert counts[0] == 1
    assert counts.sum() == 2**4  # q^dim words including zero
    assert counts[1] == 0 and counts[2] > 0  # minimum weight 2k = 2
    counts = weight_distribution(ctx4, 3)
    assert counts.sum() == 4**8
    assert counts[17] == 0  # no full-weight word at (q, k) = (4, 3)
    with pytest.raises(CapExceeded):
        weight_distribution(ctx4, 2, cap=100)


def test_direct_basis_reads_its_pivots_off_the_kernel(small_grid, monkeypatch):
    shapes = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda fq, mat: shapes.append(mat.shape) or rref(fq, mat))
    for ctx, k in small_grid:
        shapes.clear()
        direct = puncture_direct(ctx, k)
        assert len(shapes) == 1  # the system, once: its kernel vectors are in RREF already
        assert direct.pivots == rref(ctx.fq, direct.matrix)[1] == u_space_basis(ctx, k).pivots


@pytest.mark.parametrize("q,k", [(2, 1), (4, 3), (9, 6), (64, 2), (64, 65)])
def test_pairs_are_built_once_and_read_only(q, k):
    """``_pairs`` is cached per (q, k): the pairs r <= s < k of
    ``np.triu_indices`` and their exponents rq+s, shared by every
    ``parity_check`` and ``power_sums``, so no caller may write them."""
    pairs = puncture._pairs(q, k)
    r, s, exps = pairs
    want_r, want_s = np.triu_indices(k)
    assert np.array_equal(r, want_r) and np.array_equal(s, want_s)
    assert np.array_equal(exps, want_r * q + want_s)
    assert not any(a.flags.writeable for a in pairs)
    with pytest.raises(ValueError):
        exps[0] = 1
    again = puncture._pairs(q, k)
    assert all(a is b for a, b in zip(again, pairs))


def parity_check_holds(ctx, k, v) -> bool:
    """H v = 0, read off the support of v as ``min_weight_pc`` checks its witness."""
    return not power_sums(ctx, k, v.support(), v.v[v.v != 0]).any()


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_parity_check_membership_matches_both_bases(p, h):
    """Random words of P(C), the same with one coordinate changed, and random vectors."""
    ctx = make_field(p, h)
    q, rng = ctx.q, random.Random(p * 10 + h)
    seen = {True: 0, False: 0}
    for k in range(1, q + 1):
        direct, uspace = puncture_direct(ctx, k), u_space_basis(ctx, k)
        full = parity_check(ctx, k, np.arange(1, ctx.q2 + 2))
        for trial in range(9):
            coeffs = np.array([rng.randrange(q) for _ in range(direct.dim)])
            word = linalg.matvec(ctx.fq, direct.matrix.T, coeffs)
            if trial % 3 == 1:  # the coefficient coordinate every other time
                pos = ctx.q2 if trial % 2 else rng.randrange(ctx.q2)
                word[pos] = ctx.fq.add[word[pos], rng.randrange(1, q)]
            elif trial % 3 == 2:
                word = np.array([rng.randrange(q) for _ in range(ctx.q2 + 1)], dtype=np.uint8)
            v = PunctureVector(ctx, word)
            expected = membership(direct, v)
            assert membership(uspace, v) is expected
            assert parity_check_holds(ctx, k, v) is expected
            assert (not linalg.matvec(ctx.fq, full, word).any()) is expected
            seen[expected] += 1
    assert seen[True] and seen[False]


def test_parity_check_on_the_coefficient_coordinate(ctx4):
    """Column q^2+1 of H is the unit vector of the real part of S_(k-1,k-1),
    the last of the k(k+1)/2 real rows of the pairs r <= s."""
    for k in range(1, ctx4.q + 2):
        H = parity_check(ctx4, k, [ctx4.q2 + 1, 1, ctx4.q2 + 1])
        unit = np.zeros(k * k, dtype=np.uint8)
        unit[k * (k + 1) // 2 - 1] = 1
        assert np.array_equal(H[:, 0], unit) and np.array_equal(H[:, 2], unit)
        at_zero = np.zeros(k * k, dtype=np.uint8)
        at_zero[0] = 1  # a_1 = 0 enters only S_(0,0), as 0^0 = 1
        assert np.array_equal(H[:, 1], at_zero)


@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]), st.data())
def test_puncture_vector_serialized_roundtrip(field, data):
    ctx = make_field(*field)
    labels = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=ctx.q2 + 1, max_size=ctx.q2 + 1))
    v = PunctureVector(ctx, np.array(labels))
    assert same_vector(PunctureVector.from_serialized(ctx, v.serialized()), v)


# q -> (p, h), every q <= 16 and three larger fields
PUNCTURE_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
                   11: (11, 1), 13: (13, 1), 16: (2, 4), 25: (5, 2), 27: (3, 3), 32: (2, 5)}

# sha256 of the JSON list [k, dim, mode, weight, scanned, witness] of min_weight_pc
# over k = 1..q, default cap, as produced by the version that row-reduced the
# u-space basis for every cell
MIN_WEIGHT_CELLS = {
    2: "ef3393ad4afb1d2357f90f606c44f4ff10981f853577ed16b3333a4a3c13cfb9",
    3: "f0c080748bb164730b4ab60ea254585c6c444aec444f6f04db14cdd0ee2e5d52",
    4: "0377629b82f35c611f33975e14e67365e930f7cc8ac1932b2dcdb68d1c78bd78",
    5: "f0ea9b66359f57174ceeb6d9e56b15dae58e3a5ae0eaa6854fc4a36a8a1c37a0",
    7: "729112d83150f7e26df09b269d46d6fd52923a1c546ae818aa3b7cceee20d98a",
    8: "934584c2e98606cdb2a25b5451bcb416af31a66ce827cef4cea31565f499a96b",
    9: "c6445b4715265738ec81ccd0962c85ab8543bd11c6b4c02deaa9453f48b40af8",
    11: "1c3acbc42c669ce108cda26b6754666e65826797fb30405cd3aa1d3aff89c64f",
    13: "fe96e9098c30cfd7b666bb08948a1d64de8033811b092053b9a46f7509b4747c",
    16: "5dbd2cb2e7570b09b0e88e4d7e83462dce910d9e59e72dc6ddc5f541d5486a75",
}


@pytest.mark.parametrize("q", sorted(MIN_WEIGHT_CELLS))
def test_min_weight_pc_predicts_the_scans_admission(q, monkeypatch):
    """min_weight_pc decides admission from the formula dimension and the witness
    weight; the scan on the real u-space basis decides it the same way.

    Admitted cells scan inside min_weight_pc (seen through a spy); on every
    other cell the real basis is refused by min_weight_scan itself.  The
    reports, ``scanned`` and witnesses included, are pinned.
    """
    ctx = make_field(*PUNCTURE_FIELDS[q])
    scan = linalg.min_weight_scan
    admissions = []

    def spy(*args, **kwargs):
        res = scan(*args, **kwargs)
        admissions.append(res.admitted)
        return res

    monkeypatch.setattr(linalg, "min_weight_scan", spy)
    cells = []
    for k in range(1, q + 1):
        admissions.clear()
        r = min_weight_pc(ctx, k)
        if r.mode == "exhaustive":
            assert admissions == [True]
        else:
            assert r.mode == "constructive" and admissions == [] and r.scanned == 0
            w = constructive_witness(ctx, k)
            assert not scan(ctx.fq, u_space_basis(ctx, k).matrix, upper=(w.weight(), w.v)).admitted
        cells.append([k, r.dim, r.mode, r.weight, r.scanned, r.witness.serialized()])
    assert hashlib.sha256(json.dumps(cells).encode()).hexdigest() == MIN_WEIGHT_CELLS[q]


U_SPACE_CELLS = ([(q, k) for q in sorted(MIN_WEIGHT_CELLS) for k in range(1, q + 2)]
                 + [(q, k) for q in (25, 27, 32) for k in (1, 2, q // 2, q - 1, q)])

# sha256 over u_space_basis at U_SPACE_CELLS in order, fed its matrix bytes and
# then the JSON [pivots, shape] per cell, as produced by the version that
# evaluated the traces Tr(c a^(iq+j)), c in {1, xi}, one slot row at a time
U_SPACE_DIGEST = "2a2a6d1b78a28690d9b62531997fbb2c6c9bc52388f0c004fb7dae5fb87e1f76"


@pytest.mark.parametrize("q,k", U_SPACE_CELLS)
def test_u_space_rref_has_the_formula_dimension(q, k):
    ctx = make_field(*PUNCTURE_FIELDS[q])
    assert u_space_basis(ctx, k).dim == dim_formula(q, k) == max(0, q * q + 1 - k * k)


@functools.cache
def cached_u_space(q: int, k: int):
    return u_space_basis(make_field(*PUNCTURE_FIELDS[q]), k)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
def test_parity_check_has_full_rank_and_the_u_space_kernel(q):
    """H has k^2 rows of rank k^2 on all q^2+1 coordinates, and its kernel is
    the u-space RREF, byte for byte."""
    ctx = make_field(*PUNCTURE_FIELDS[q])
    for k in range(1, q + 1):
        H = parity_check(ctx, k, np.arange(1, ctx.q2 + 2))
        assert H.shape == (k * k, ctx.q2 + 1)
        assert len(linalg.rref(ctx.fq, H)[1]) == k * k
        kernel, pivots = linalg.kernel_basis(ctx.fq, H)
        assert np.array_equal(kernel, cached_u_space(q, k).matrix) and pivots == cached_u_space(q, k).pivots


@pytest.mark.parametrize("q,k", U_SPACE_CELLS)
def test_both_routes_give_the_same_rref(q, k):
    """The kernel of H and the u-space remainders are the same bytes, matrix
    and pivots, and ``primal_basis`` returns them too."""
    ctx = make_field(*PUNCTURE_FIELDS[q])
    direct, uspace = puncture_direct(ctx, k, max_q=q), cached_u_space(q, k)
    assert np.array_equal(direct.matrix, uspace.matrix) and direct.pivots == uspace.pivots
    primal = primal_basis(ctx, k)
    assert np.array_equal(primal.matrix, uspace.matrix) and primal.pivots == uspace.pivots
    assert primal.method == ("direct" if k * k <= dim_formula(q, k) else "u_space")


def test_u_space_bytes_are_pinned():
    hasher = hashlib.sha256()
    for q, k in U_SPACE_CELLS:
        basis = cached_u_space(q, k)
        hasher.update(basis.matrix.tobytes())
        hasher.update(json.dumps([list(basis.pivots), list(basis.matrix.shape)]).encode())
    assert hasher.hexdigest() == U_SPACE_DIGEST


@pytest.mark.parametrize("q", sorted(MIN_WEIGHT_CELLS))
def test_u_space_matches_the_elimination_route(q):
    """The remainders give the bytes and pivots of the g-form rows row-reduced,
    at every 1 <= k <= q+1."""
    ctx = make_field(*PUNCTURE_FIELDS[q])
    for k in range(1, q + 2):
        new, old = cached_u_space(q, k), u_space_by_elimination(ctx, k)
        assert new.matrix.dtype == old.matrix.dtype == np.uint8
        assert np.array_equal(new.matrix, old.matrix) and new.pivots == old.pivots


def test_u_space_basis_eliminates_nothing(monkeypatch):
    """A spy on both GF(q) eliminations sees no call, k = 1 and k = q included."""
    calls = []
    for name in ("rref", "kernel_basis"):
        monkeypatch.setattr(linalg, name, lambda *args, _name=name: calls.append(_name))
    for q, k in [(2, 1), (3, 2), (4, 3), (5, 4), (7, 6), (8, 8), (9, 2), (16, 4), (25, 2), (27, 20)]:
        assert u_space_basis(make_field(*PUNCTURE_FIELDS[q]), k).dim == dim_formula(q, k)
    assert calls == []


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_u_space_refuses_an_exponent_set_not_closed_under_frobenius(q, monkeypatch):
    """Dropping jq+i but keeping iq+j (i = 0, j = 1) leaves an m with a
    coefficient outside GF(q)."""
    exponents = puncture._g_space_exponents
    monkeypatch.setattr(puncture, "_g_space_exponents", lambda q, k: exponents(q, k)[exponents(q, k) != q])
    ctx = make_field(*PUNCTURE_FIELDS[q])
    for k in range(1, q):
        with pytest.raises(SelfCheckFailed):
            u_space_basis(ctx, k)


@pytest.mark.parametrize("repeat", [lambda e, n: e[-1], lambda e, n: e[1] + n])
def test_u_space_refuses_a_repeated_residue(repeat, monkeypatch):
    """An exponent listed twice, or once more shifted by q^2-1, repeats a residue."""
    exponents = puncture._g_space_exponents
    monkeypatch.setattr(puncture, "_g_space_exponents",
                        lambda q, k: np.append(exponents(q, k), repeat(exponents(q, k), q * q - 1)))
    for q in (3, 4, 5):
        ctx = make_field(*PUNCTURE_FIELDS[q])
        for k in range(1, q):
            with pytest.raises(SelfCheckFailed):
                u_space_basis(ctx, k)


@pytest.mark.parametrize("p,h,k", [(7, 2, 2), (2, 6, 2), (2, 6, 3)])
def test_u_space_equals_the_kernel_of_h_at_large_q(p, h, k):
    """The two independent routes agree byte for byte where the elimination
    of the u-space rows took seconds: (49, 2), (64, 2) and (64, 3)."""
    ctx = make_field(p, h)
    uspace, direct = u_space_basis(ctx, k), puncture_direct(ctx, k, max_q=ctx.q)
    assert uspace.dim == dim_formula(ctx.q, k)
    assert np.array_equal(uspace.matrix, direct.matrix) and uspace.pivots == direct.pivots


@pytest.mark.parametrize("q", sorted(MIN_WEIGHT_CELLS))
def test_admitted_cells_build_one_basis_by_the_cheaper_route(q, basis_builds):
    """An admitted min_weight_pc cell builds one basis, the kernel of H when
    k^2 <= dim and the u-space otherwise; a refused cell builds none.  So no
    admitted cell with k^2 <= dim builds the u-space."""
    ctx = make_field(*PUNCTURE_FIELDS[q])
    for k in range(1, q + 1):
        basis_builds.clear()
        r = min_weight_pc(ctx, k)
        route = ("puncture_direct" if k * k <= dim_formula(q, k) else "u_space_basis", k)
        assert basis_builds == ([route] if r.mode == "exhaustive" else [])
        if q ** dim_formula(q, k) <= 10**7:  # the distribution's default cap
            basis_builds.clear()
            assert weight_distribution(ctx, k).sum() == q ** dim_formula(q, k)
            assert basis_builds == [route]


@pytest.mark.parametrize("q", sorted(MIN_WEIGHT_CELLS))
def test_min_weight_pc_admits_exactly_up_to_the_projected_work(q, monkeypatch):
    """The scan is called iff the unpruned words on levels 1..min(m, w-1) of the
    real basis (m rows, witness weight w) are at most the cap.

    A stub stands in for the scan, so the cap can sit at the boundary of
    every cell; the real scan refuses one below it.
    """
    ctx = make_field(*PUNCTURE_FIELDS[q])
    scan = linalg.min_weight_scan
    calls = []

    def stub(fq, basis, cap, upper):
        calls.append(cap)
        return linalg.ScanResult(True, upper[0], upper[1], 0)

    monkeypatch.setattr(linalg, "min_weight_scan", stub)
    for k in range(1, q + 1):
        basis = u_space_basis(ctx, k).matrix
        w = constructive_witness(ctx, k)
        m = len(basis)
        work = sum(math.comb(m, j) * (q - 1) ** j for j in range(1, min(m, w.weight() - 1) + 1))
        calls.clear()
        assert min_weight_pc(ctx, k, cap=work).mode == "exhaustive" and calls == [work]
        calls.clear()
        assert min_weight_pc(ctx, k, cap=work - 1).mode == "constructive" and calls == []
        assert not scan(ctx.fq, basis, cap=work - 1, upper=(w.weight(), w.v)).admitted


# (value, mode, scanned, sha256 of the JSON witness) of min_weight_pc at the
# default cap, as produced by the version that compared enumerated words on
# every column
CERTIFIED_CELLS = {
    (4, 2): (4, "exhaustive", 7020, "22bfb6675dee87d7577c3e9085f24f25b6a786e78f0db6e0304127931f009838"),
    (5, 3): (6, "exhaustive", 6937008, "94036702fb1a552bd8e432d7282300983c03f3eb72389325569460ba1cfda0cd"),
    (7, 2): (4, "exhaustive", 2956500, "60abfe00946a7ecfc5c4b35f3f2a92c54c2943f7feb15481c684fb34422b3d34"),
    (8, 2): (4, "exhaustive", 11291756, "e59f2e19b5fcafbe7fd70b81b557d12c84913cd9462315c27929b137d64d7e7e"),
    (9, 2): (4, "exhaustive", 36070720, "646af54b2ac1d1ea3f5a847afc33fcde537a2dcd26febc24b6cec926204d48e5"),
}


@pytest.mark.parametrize("q,k", sorted(CERTIFIED_CELLS))
def test_certified_cells_are_pinned(q, k):
    """Level scans of up to 36 M words (level 3 at (9,2)) keep their reports."""
    r = min_weight_pc(make_field(*PUNCTURE_FIELDS[q]), k)
    digest = hashlib.sha256(json.dumps(r.witness.serialized()).encode()).hexdigest()
    assert (r.weight, r.mode, r.scanned, digest) == CERTIFIED_CELLS[(q, k)]



# the same report of (11,2) at a cap of 10^9: its level 3 projects 2.7 * 10^8
# words, past the default cap, and scans 2.5 * 10^8; taken at the version
# that built each group's half words from the scalar multiples of every
# basis row
CERTIFIED_PAST_THE_DEFAULT_CAP = {
    (11, 2): (4, "exhaustive", 251861700, "c39b836350cc2d3724efbf5d4f8ed4590ec7b5b4f307f56059349de075f5916f"),
}


@pytest.mark.parametrize("q,k", sorted(CERTIFIED_PAST_THE_DEFAULT_CAP))
def test_certified_cells_past_the_default_cap_are_pinned(q, k):
    r = min_weight_pc(make_field(*PUNCTURE_FIELDS[q]), k, cap=10**9)
    digest = hashlib.sha256(json.dumps(r.witness.serialized()).encode()).hexdigest()
    assert (r.weight, r.mode, r.scanned, digest) == CERTIFIED_PAST_THE_DEFAULT_CAP[(q, k)]

# q -> (p, h) for the power-sum routes: p = 2, prime q and odd composite q
POWER_SUM_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2), 11: (11, 1),
                    16: (2, 4), 25: (5, 2), 27: (3, 3), 32: (2, 5)}


@given(st.sampled_from(sorted(POWER_SUM_FIELDS)), st.data())
def test_transform_power_sums_match_the_h_route(q, data):
    """Random GF(q)* entries on random coordinates in random order, with or
    without the zero point (column 1) and the coefficient coordinate
    (column q^2+1), for every k up to q+1, where the exponents
    (q-1)q + (q-1) = q^2-1 and past it reduce at the nonzero points only:
    each route of ``FieldCtx.spectrum`` against H lambda over {1, xi}."""
    ctx = make_field(*POWER_SUM_FIELDS[q])
    k = data.draw(st.integers(1, q + 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    size = data.draw(st.integers(0, ctx.q2 - 1))
    ends = [c for c, keep in ((1, data.draw(st.booleans())), (ctx.q2 + 1, data.draw(st.booleans()))) if keep]
    cols = rng.permutation(np.concatenate([ends, rng.choice(np.arange(2, ctx.q2 + 1), size, replace=False)]))
    cols = cols.astype(np.int64)
    lam = rng.integers(1, q, cols.size).astype(np.uint8)
    sums = linalg.matvec(ctx.fq, parity_check(ctx, k, cols), lam)
    r, s = np.triu_indices(k)
    comps = ctx.fq.idx_of_compact[sums]
    upper = comps[: r.size]
    upper[r < s] = ctx.vadd(upper[r < s], ctx.vmul(comps[r.size :], np.int64(ctx.xi_idx)))
    for route in (FieldCtx._spectrum_direct, FieldCtx._spectrum_dft):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FieldCtx, "spectrum", route)
            G = power_sums(ctx, k, cols, lam)
        assert np.array_equal(G[r, s], upper)
        assert np.array_equal(G[s, r], ctx.vfrob(upper))


def test_power_sums_route_by_counted_cost(monkeypatch):
    """The one rule of ``FieldCtx.spectrum``: the Gram of qsq-plus-one q = 32
    (k = 31, n = 1025) counts 1023 nonzero points x 496 pairs, past
    2 * 32 * 1023 + 2^12, and takes the transform; that of odd-min q = 49,
    k = 25 (n = 50) counts at most 50 x 325 and sums directly; at q = 32 the
    bound itself sums directly and one term past it takes the transform."""
    calls = []
    for name in ("_spectrum_direct", "_spectrum_dft"):
        route = getattr(FieldCtx, name)

        def counted(ctx, j, v, e, _name=name, _route=route):
            calls.append((_name, j.size, e.size))
            return _route(ctx, j, v, e)

        monkeypatch.setattr(FieldCtx, name, counted)
    report = constructions.build_qsq_plus_one(make_field(2, 5))
    assert (report.code.k, report.code.n) == (31, 1025)
    assert [c for c in calls if c[2] == 31 * 32 // 2] == [("_spectrum_dft", 1023, 496)]
    calls.clear()
    report = constructions.build_odd_q_min(make_field(7, 2), 25)
    assert (report.code.k, report.code.n) == (25, 50)
    assert [c[0] for c in calls if c[2] == 25 * 26 // 2] == ["_spectrum_direct"]
    calls.clear()
    bound = 2 * 32 * 1023 + 2**12
    for size in (bound, bound + 1):
        make_field(2, 5).spectrum(np.arange(size), np.ones(size, dtype=np.int64), [1])
    assert [c[0] for c in calls] == ["_spectrum_direct", "_spectrum_dft"]


# the cells of the batched g-form check: k < q on every kind of field, and
# k = q, where g is empty and the g-form is c at every coordinate
G_SAMPLE_CELLS = [(3, 2), (4, 3), (5, 1), (7, 6), (8, 5), (9, 2), (11, 3), (16, 4), (4, 4), (5, 5)]


@pytest.mark.parametrize("q,k", G_SAMPLE_CELLS)
def test_the_batch_is_the_per_sample_path_draw_by_draw(q, k, monkeypatch):
    """Each drawn (g, c) of ``sample_g_forms``, as ``g_form_vector`` and
    ``membership`` take it one at a time, against its row of the batch:
    the same word and the same answer.  A small block budget splits the
    draws into several blocks."""
    ctx = make_field(*PUNCTURE_FIELDS[q])
    monkeypatch.setattr(puncture, "_SAMPLE_BLOCK", 5 * 2 * q * ctx.n_units)
    basis = primal_basis(ctx, k)
    blocks = list(puncture._g_form_draws(ctx, k, 12, seed=q))
    assert [len(cs) for _, cs in blocks] == [5, 5, 2]
    for coeffs, cs in blocks:
        assert coeffs.shape == (len(cs), (q - k) * q)
        words = puncture._g_forms(ctx, k, eval_rows(ctx, coeffs, ctx.points_idx()), cs)
        members = linalg.in_row_space(ctx.fq, basis.matrix, basis.pivots, words)
        for g, c, word, member in zip(coeffs, cs, words, members):
            vector = g_form_vector(ctx, k, Poly.from_indices(ctx, g), ctx.felt(int(c)))
            assert np.array_equal(vector.v, word)
            assert member and membership(basis, vector) is True
    assert puncture.sample_g_forms(basis, 12, seed=q)


def test_the_basis_is_checked_once_for_all_blocks(monkeypatch):
    """``sample_g_forms`` builds one membership test, whose check of the
    basis is its only pass over all dim x n entries, and answers every
    block with it."""
    ctx = make_field(*PUNCTURE_FIELDS[11])
    monkeypatch.setattr(puncture, "_SAMPLE_BLOCK", 2 * 2 * 11 * ctx.n_units)
    basis = primal_basis(ctx, 3)
    built, answered, row_space_test = [], [], linalg.row_space_test

    def counted(*args):
        built.append(args)
        test = row_space_test(*args)
        return lambda stack: answered.append(len(stack)) or test(stack)

    monkeypatch.setattr(linalg, "row_space_test", counted)
    assert puncture.sample_g_forms(basis, 7, seed=0)
    assert len(built) == 1 and answered == [2, 2, 2, 1]


@pytest.mark.parametrize("q,k", [(4, 2), (9, 2), (11, 3)])
def test_a_changed_non_pivot_entry_fails_the_samples(q, k):
    """One free entry of the basis changed: the batch's product on the free
    columns sees it, as a sample whose coefficient on that row is nonzero
    leaves the row space."""
    ctx = make_field(*PUNCTURE_FIELDS[q])
    basis = primal_basis(ctx, k)
    assert puncture.sample_g_forms(basis, 16, seed=0)
    free = next(c for c in range(basis.matrix.shape[1]) if c not in basis.pivots)
    changed = basis.matrix.copy()
    changed[0, free] = ctx.fq.add[changed[0, free], 1]
    mutant = puncture.PunctureBasis(ctx, k, basis.method, changed, basis.pivots)
    assert not puncture.sample_g_forms(mutant, 16, seed=0)


def test_a_basis_not_the_identity_on_its_pivots_is_refused():
    ctx = make_field(2, 2)
    basis = u_space_basis(ctx, 2)
    changed = basis.matrix.copy()
    changed[1, basis.pivots[0]] = 1
    mutant = puncture.PunctureBasis(ctx, 2, basis.method, changed, basis.pivots)
    with pytest.raises(ValueError, match="identity on its pivot columns"):
        puncture.sample_g_forms(mutant, 4, seed=0)
    with pytest.raises(ValueError, match="identity on its pivot columns"):
        membership(mutant, g_form_vector(ctx, 2, Poly.zero(ctx), ctx.one))


@pytest.mark.parametrize("q,k", [(4, 2), (5, 3), (9, 2)])
def test_a_batch_row_outside_gf_q_raises(q, k, monkeypatch):
    """With the c-term's exponent (q-k)(q+1) moved by one, x^e is no longer in
    GF(q), and a row with c != 0 fails ``_labels``; the basis is built first,
    from the true exponents."""
    ctx = make_field(*PUNCTURE_FIELDS[q])
    basis = u_space_basis(ctx, k)
    assert any(cs.any() for _, cs in puncture._g_form_draws(ctx, k, 8, seed=1))
    monkeypatch.setattr(puncture, "_c_exponent", lambda q, k: (q - k) * (q + 1) + 1)
    with pytest.raises(SelfCheckFailed, match="left GF"):
        puncture.sample_g_forms(basis, 8, seed=1)


def _uniform_by_words(seed: int, m: int, size: int) -> list[int]:
    """``_uniform`` in Python integers: the same byte requests, each 2-byte
    little-endian word below 2^16 // m * m kept, mod m."""
    rng, limit, out = random.Random(seed), (1 << 16) // m * m, []
    while len(out) < size:
        data = rng.randbytes(2 * (size - len(out)))
        words = [int.from_bytes(data[i : i + 2], "little") for i in range(0, len(data), 2)]
        out += [w % m for w in words if w < limit]
    return out


@pytest.mark.parametrize("m", [16, 4096, 9, 25, 3**10])
def test_the_draw_is_seeded_uniform_and_below_m(m):
    """q^2 a power of 2 (no word rejected) and not; 3^10 = 59049 rejects a
    tenth of the words, so the stream is read again.  The same seed gives
    the same draws, no value reaches m, and every value of a long draw of a
    small m occurs."""
    size = 40 * min(m, 4096)
    draws = puncture._uniform(random.Random(7), m, size)
    assert draws.dtype == np.int64 and draws.shape == (size,)
    assert np.array_equal(draws, puncture._uniform(random.Random(7), m, size))
    assert not np.array_equal(draws, puncture._uniform(random.Random(8), m, size))
    assert 0 <= draws.min() and draws.max() < m
    assert draws.tolist() == _uniform_by_words(7, m, size)
    if m <= 4096:
        assert np.unique(draws).size == m


def test_g_form_draws_are_blocks_of_at_most_one_q64_transform():
    """At q = 64 a block is one sample; at q = 16, 2q(q^2-1) = 8160 terms a
    sample, 64 of them fill the budget of one q = 64 transform.  The c
    drawn are GF(q) indices."""
    ctx64 = make_field(2, 6)
    assert [len(cs) for _, cs in puncture._g_form_draws(ctx64, 62, 3, seed=0)] == [1, 1, 1]
    ctx16 = make_field(2, 4)
    blocks = list(puncture._g_form_draws(ctx16, 4, 150, seed=0))
    assert [len(cs) for _, cs in blocks] == [64, 64, 22]
    assert all((ctx16.fq.compact_of_idx[cs] >= 0).all() for _, cs in blocks)


def _numpy_random_and_ma_after(*argvs) -> str:
    """The sorted list of the numpy.random and numpy.ma modules a fresh
    process has imported after running each ``puncture`` argv, its output
    discarded, as printed."""
    code = (
        "import os, sys\n"
        "from hermgrs import cli\n"
        f"for argv in {[list(a) for a in argvs]!r}:\n"
        "    assert cli.main(['puncture', *argv, '--output', os.devnull]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['numpy', 'random'], ['numpy', 'ma'])))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_g_samples_import_neither_numpy_random_nor_numpy_ma():
    """numpy.random and numpy.ma each add to the resident set of a process;
    the sampled check draws from the standard library and needs neither."""
    assert _numpy_random_and_ma_after(
        ["--q", "11", "--k", "3", "--method", "all", "--g-samples", "9"],
        ["--q", "16", "--k", "4", "--method", "u-space", "--g-samples", "9"],
    ) == "[]"


def test_certification_imports_neither_numpy_random_nor_numpy_ma():
    """The level scan, the full-span search and the weight histogram need
    neither (``np.setdiff1d`` and ``np.unique`` would import numpy.ma)."""
    assert _numpy_random_and_ma_after(
        ["--q", "5", "--k", "3", "--method", "u-space", "--check-min-weight"],
        ["--q", "4", "--k", "3", "--method", "u-space", "--distribution"],
        ["--q", "3", "--k", "2", "--method", "all", "--check-min-weight", "--distribution"],
    ) == "[]"
