"""Differential tests of the GF(q) row reduction against scalar Felt elimination."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hermgrs import linalg
from hermgrs.field import make_field
from hermgrs.puncture import u_space_basis, u_space_generators

from oracle import (
    felt_in_row_space,
    felt_kernel,
    felt_matvec_is_zero,
    felt_rref,
    felts_to_labels,
    labels_to_felts,
)

# every kind of q: p = 2, prime q, and odd composite q
FIELDS = {
    2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
    11: (11, 1), 13: (13, 1), 16: (2, 4), 25: (5, 2), 27: (3, 3), 32: (2, 5),
}


@st.composite
def matrices(draw):
    """(ctx, labels) with shapes up to 7 x 9, often rank deficient.

    A random (rows x rank) coefficient matrix times a random (rank x cols)
    matrix has rank at most ``rank``; rank 0 gives the zero matrix.
    """
    ctx = make_field(*FIELDS[draw(st.sampled_from(sorted(FIELDS)))])
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(1, 9))
    rank = draw(st.integers(0, min(rows, cols)))
    label = st.integers(0, ctx.q - 1)
    left = labels_to_felts(ctx, draw(st.lists(st.lists(label, min_size=rank, max_size=rank),
                                              min_size=rows, max_size=rows)))
    right = labels_to_felts(ctx, draw(st.lists(st.lists(label, min_size=cols, max_size=cols),
                                               min_size=rank, max_size=rank)))
    prod = []
    for lrow in left:
        row = [ctx.zero] * cols
        for a, rrow in zip(lrow, right):
            row = [x + a * y for x, y in zip(row, rrow)]
        prod.append(row)
    return ctx, np.array(felts_to_labels(ctx, prod), dtype=np.uint8).reshape(rows, cols)


def _fixed_cases():
    """Zero, wide, tall and rank-deficient matrices at every q."""
    for q in sorted(FIELDS):
        rng = np.random.default_rng(q)
        tall = rng.integers(0, q, size=(9, 3))
        wide = rng.integers(0, q, size=(3, 9))
        deficient = np.vstack([wide, wide[:1], np.zeros((1, 9), dtype=np.int64)])
        for name, mat in [("zero", np.zeros((4, 5))), ("empty", np.zeros((0, 6))),
                          ("tall", tall), ("wide", wide), ("deficient", deficient)]:
            yield pytest.param(q, mat.astype(np.uint8), id=f"q{q}-{name}")


def _check_rref(ctx, mat):
    R, pivots = linalg.rref(ctx.fq, mat)
    ref_rows, ref_pivots = felt_rref(ctx, labels_to_felts(ctx, mat), mat.shape[1])
    assert pivots == tuple(ref_pivots)
    assert R.dtype == np.uint8 and R.shape == (len(ref_pivots), mat.shape[1])
    assert R.tolist() == felts_to_labels(ctx, ref_rows)


def _check_kernel(ctx, mat):
    K = linalg.kernel_basis(ctx.fq, mat)
    ncols = mat.shape[1]
    rows = labels_to_felts(ctx, mat)
    ref = felt_kernel(ctx, rows, ncols)
    assert K.shape == (len(ref), ncols)
    assert K.tolist() == felts_to_labels(ctx, ref)
    for vec in labels_to_felts(ctx, K):
        assert felt_matvec_is_zero(ctx, rows, vec)


@pytest.mark.parametrize("q,mat", list(_fixed_cases()))
def test_rref_and_kernel_fixed_shapes(q, mat):
    ctx = make_field(*FIELDS[q])
    _check_rref(ctx, mat)
    _check_kernel(ctx, mat)


@given(matrices())
def test_rref_matches_scalar_elimination(case):
    _check_rref(*case)


@given(matrices())
def test_kernel_basis_matches_scalar_elimination(case):
    _check_kernel(*case)


@given(matrices(), st.data())
def test_in_row_space_matches_rank_test(case, data):
    ctx, mat = case
    R, pivots = linalg.rref(ctx.fq, mat)
    ncols = mat.shape[1]
    ref_rows = labels_to_felts(ctx, R)
    # one arbitrary vector and one combination of the rows, which must lie inside
    label = st.integers(0, ctx.q - 1)
    v = np.array(data.draw(st.lists(label, min_size=ncols, max_size=ncols)), dtype=np.uint8)
    coeffs = labels_to_felts(ctx, [data.draw(st.lists(label, min_size=len(R), max_size=len(R)))])[0]
    combo = [ctx.zero] * ncols
    for a, row in zip(coeffs, ref_rows):
        combo = [x + a * y for x, y in zip(combo, row)]
    inside = np.array(felts_to_labels(ctx, [combo])[0], dtype=np.uint8)
    for vec in (v, inside):
        expect = felt_in_row_space(ctx, ref_rows, labels_to_felts(ctx, [vec])[0], ncols)
        assert linalg.in_row_space(ctx.fq, R, pivots, vec) == expect
    assert linalg.in_row_space(ctx.fq, R, pivots, inside)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_u_space_basis_is_rref_of_generator_vectors(q):
    """The one-shot evaluation equals row reducing the UPoly vectors one by one."""
    ctx = make_field(*FIELDS[q])
    for k in range(1, q + 1):
        stacked = np.stack([g.vector().v for g in u_space_generators(ctx, k)])
        R, pivots = linalg.rref(ctx.fq, stacked)
        basis = u_space_basis(ctx, k)
        assert basis.pivots == pivots
        assert np.array_equal(basis.matrix, R)


@pytest.mark.parametrize("q", sorted(FIELDS) + [49, 64])
def test_additive_codes_carry_the_label_arithmetic(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    ctx = make_field(p, round(np.log(q) / np.log(p)))
    fq = ctx.fq
    code, label = fq.code_of_label.astype(np.int64), fq.label_of_code
    assert sorted(code) == list(range(q)) and code[0] == 0 and code[1] == 1
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    assert np.array_equal(fq.add_code[code[a], code[b]], code[fq.add[a, b]])
    assert np.array_equal(fq.mul_code[code[a], code[b]], code[fq.mul[a, b]])
    assert np.array_equal(fq.neg_code[code], code[fq.neg])
    assert np.array_equal(fq.inv_code[code], code[fq.inv])
    assert np.array_equal(label[code], np.arange(q))
    if p == 2:
        assert np.array_equal(fq.add_code, a ^ b)
    elif q == p:
        assert np.array_equal(fq.add_code, (a + b) % p)
