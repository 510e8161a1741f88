"""Differential tests of the GF(q) row reduction against scalar Felt elimination."""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hermgrs import linalg
from hermgrs.field import Felt, make_field
from hermgrs.poly import Poly
from hermgrs.puncture import g_form_vector, u_space_basis

from oracle import (
    felt_first_lightest_word,
    felt_in_row_space,
    felt_kernel,
    felt_matvec_is_zero,
    felt_rref,
    felt_span_weights,
    felts_to_labels,
    first_lightest_word,
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
    K, pivots = linalg.kernel_basis(ctx.fq, mat)
    ncols = mat.shape[1]
    rows = labels_to_felts(ctx, mat)
    ref = felt_kernel(ctx, rows, ncols)
    assert K.shape == (len(ref), ncols)
    assert K.tolist() == felts_to_labels(ctx, ref)
    assert pivots == tuple(felt_rref(ctx, ref, ncols)[1])
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


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_kernel_basis_pivots_are_the_first_nonzero_columns(q):
    fq = make_field(*FIELDS[q]).fq
    rng = np.random.default_rng(q)
    for rows, cols in [(1, 1), (1, 6), (3, 3), (3, 8), (5, 9), (8, 4), (4, 12)]:
        for _ in range(5):
            mat = rng.integers(0, q, size=(rows, cols)).astype(np.uint8)
            mat[rng.random(mat.shape) < 0.3] = 0  # zero entries give sparse and rank-deficient cases
            K, pivots = linalg.kernel_basis(fq, mat)
            assert K.any(axis=1).all()
            assert pivots == tuple(np.argmax(K != 0, axis=1).tolist())


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


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_in_row_space_rejects_a_vector_off_the_pivots(q):
    """A combination of the rows is inside; the same vector changed on one
    non-pivot column matches the combination its pivot entries name on
    every pivot, and is outside."""
    fq = make_field(*FIELDS[q]).fq
    rng = np.random.default_rng(q)
    R, pivots = linalg.rref(fq, rng.integers(0, q, size=(3, 7)).astype(np.uint8))
    word = linalg.matvec(fq, R.T, rng.integers(0, q, size=len(R)).astype(np.uint8))
    assert linalg.in_row_space(fq, R, pivots, word)
    for col in sorted(set(range(R.shape[1])) - set(pivots)):
        for x in range(1, q):
            off = word.copy()
            off[col] = fq.add[off[col], x]
            assert not linalg.in_row_space(fq, R, pivots, off), (col, x)


@pytest.mark.parametrize("q", [2, 3, 9])
def test_in_row_space_of_no_rows_is_the_zero_vector(q):
    fq = make_field(*FIELDS[q]).fq
    R, pivots = linalg.rref(fq, np.zeros((2, 4), dtype=np.uint8))
    assert R.shape == (0, 4) and pivots == ()
    assert linalg.in_row_space(fq, R, pivots, np.zeros(4, dtype=np.uint8))
    for col, x in itertools.product(range(4), range(1, q)):
        v = np.zeros(4, dtype=np.uint8)
        v[col] = x
        assert not linalg.in_row_space(fq, R, pivots, v)


def test_in_row_space_matches_rank_test_at_q9():
    """At q = 9 each product in ``matvec`` is summed in two base-3 digits."""
    ctx = make_field(3, 2)
    rng = np.random.default_rng(9)
    for rows, cols in [(1, 5), (2, 6), (3, 8), (4, 9)]:
        mat = rng.integers(0, 9, size=(rows, cols)).astype(np.uint8)
        R, pivots = linalg.rref(ctx.fq, mat)
        ref_rows = labels_to_felts(ctx, R)
        inside = linalg.matvec(ctx.fq, R.T, rng.integers(0, 9, size=len(R)).astype(np.uint8))
        for v in [inside] + list(rng.integers(0, 9, size=(20, cols)).astype(np.uint8)):
            expect = felt_in_row_space(ctx, ref_rows, labels_to_felts(ctx, [v])[0], cols)
            assert linalg.in_row_space(ctx.fq, R, pivots, v) == expect


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_u_space_basis_is_rref_of_generator_vectors(q):
    """The one-shot evaluation equals row reducing P(C) in the paper's form: the
    g-forms of c X^e, c in {1, xi}, e <= (q-k)q-1, and of g = 0, c = 1."""
    ctx = make_field(*FIELDS[q])
    xi = ctx.felt(ctx.xi_idx)
    for k in range(1, q + 1):
        words = [g_form_vector(ctx, k, Poly.monomial(ctx, c, e), ctx.zero)
                 for e in range((q - k) * q) for c in (ctx.one, xi)]
        words.append(g_form_vector(ctx, k, Poly.zero(ctx), ctx.one))
        R, pivots = linalg.rref(ctx.fq, np.stack([w.v for w in words]))
        basis = u_space_basis(ctx, k)
        assert basis.pivots == pivots
        assert np.array_equal(basis.matrix, R)


@pytest.mark.parametrize("q", sorted(FIELDS) + [49, 64])
def test_additive_codes_carry_the_label_arithmetic(q):
    """The one GF(q) table set: labels are additive codes of GF(q) elements."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    ctx = make_field(p, round(np.log(q) / np.log(p)))
    fq = ctx.fq
    idx = fq.idx_of_compact
    fixed = [x.i for x in ctx.elems() if x**q == x]
    assert sorted(idx.tolist()) == fixed and idx[0] == 0 and idx[1] == 1
    assert np.array_equal(fq.compact_of_idx[idx], np.arange(q))
    assert (fq.compact_of_idx[np.setdiff1d(np.arange(ctx.q2), idx)] == -1).all()
    b_pows = [ctx.w ** ((q + 1) * j) for j in range(fq.h)]  # label sum_j d_j p^j is sum_j d_j b^j
    for c in range(q):
        elem = ctx.zero
        for j, bj in enumerate(b_pows):
            for _ in range(c // p**j % p):
                elem = elem + bj
        assert idx[c] == elem.i
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    assert np.array_equal(idx[fq.add[a, b]], ctx.vadd(idx[a], idx[b]))
    assert np.array_equal(idx[fq.mul[a, b]], ctx.vmul(idx[a], idx[b]))
    assert np.array_equal(idx[fq.neg], ctx.vneg(idx))
    assert np.array_equal(idx[fq.inv], ctx._vinv0(idx))
    if p == 2:
        assert np.array_equal(fq.add, a ^ b)
    elif q == p:
        assert np.array_equal(fq.add, (a + b) % p)


# the fields the enumerator is checked at, against a scalar reference
ENUM_QS = (2, 3, 4, 5, 7, 8, 9)
ENUM_MAX_WORDS = 729


def _label_multiples(fq, rows):
    """(m, q, n): [r, c] is label c times row r, by the label product table."""
    return fq.mul[np.arange(fq.q)[None, :, None], rows[:, None, :]]


def _label_span_weights(ctx, rows):
    """``span_weights`` of GF(q) label rows added through the label tables.

    The package adds GF(q) words as additive codes; its histogram must be
    the one this reference arithmetic gives.
    """
    fq = ctx.fq
    return linalg.span_weights(lambda a, b: fq.add[a, b], lambda a: fq.neg[a], _label_multiples(fq, rows))


def _label_lightest(ctx, rows):
    """The oracle's (weight, first lightest word) of GF(q) label rows,
    every word added up through the label tables, row 0's coefficient
    fastest; ``span_min_weight`` and the scan must find this word."""
    fq = ctx.fq
    return first_lightest_word(lambda a, b: fq.add[a, b], _label_multiples(fq, rows))


@st.composite
def independent_rows(draw):
    """(ctx, labels): m independent random GF(q) rows, q^m <= ENUM_MAX_WORDS."""
    q = draw(st.sampled_from(ENUM_QS))
    ctx = make_field(*FIELDS[q])
    m = draw(st.integers(1, max(j for j in range(1, 10) if q**j <= ENUM_MAX_WORDS)))
    n = draw(st.integers(m, 9))
    label = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(label, min_size=n, max_size=n), min_size=m, max_size=m))
    assume(len(felt_rref(ctx, labels_to_felts(ctx, rows), n)[1]) == m)
    return ctx, np.array(rows, dtype=np.uint8)


@given(independent_rows())
def test_span_weights_matches_scalar_enumeration(case):
    ctx, rows = case
    n = rows.shape[1]
    ref_counts, ref_weight = felt_span_weights(ctx, labels_to_felts(ctx, rows), n)
    assert _label_span_weights(ctx, rows).tolist() == ref_counts
    # the package's GF(q) callers, which enumerate in additive codes
    assert linalg.weight_distribution(ctx.fq, rows).tolist() == ref_counts
    weight, witness = linalg.span_min_weight(*linalg._label_span(ctx.fq, rows))
    assert weight == ref_weight
    assert witness.dtype == np.uint8 and np.count_nonzero(witness) == weight
    assert felt_in_row_space(ctx, labels_to_felts(ctx, rows), labels_to_felts(ctx, [witness])[0], n)
    assert np.array_equal(witness, _label_lightest(ctx, rows)[1])
    R = linalg.rref(ctx.fq, rows)[0]
    scan = linalg.min_weight_scan(ctx.fq, R)
    assert scan.scanned == ctx.q ** len(R) - 1  # the full-enumeration branch
    assert scan.weight == weight
    assert np.array_equal(scan.witness, _label_lightest(ctx, R)[1])  # the same word as on labels


@st.composite
def dependent_rows(draw):
    """(ctx, labels): m GF(q) rows, q^m <= ENUM_MAX_WORDS, one or more of
    them overwritten by a multiple of a row (a zero row at scalar 0, a
    copy at 1), so the rows are mostly dependent and zero words sit in the
    middle of the visiting order, not only at its start."""
    q = draw(st.sampled_from(ENUM_QS))
    ctx = make_field(*FIELDS[q])
    m = draw(st.integers(1, max(j for j in range(1, 10) if q**j <= ENUM_MAX_WORDS)))
    n = draw(st.integers(1, 9))
    label = st.integers(0, q - 1)
    rows = np.array(draw(st.lists(st.lists(label, min_size=n, max_size=n), min_size=m, max_size=m)),
                    dtype=np.uint8).reshape(m, n)
    for _ in range(draw(st.integers(1, m))):
        at, source = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        rows[at] = ctx.fq.mul[draw(label), rows[source]]
    return ctx, rows


@given(dependent_rows(), st.sampled_from([1, 7, linalg._BLOCK]))
def test_orbit_enumeration_of_dependent_rows_matches_scalar_enumeration(case, block):
    """Each enumerator compares one word per scalar orbit: the histogram is
    scaled back up to every combination, and the witness is the first
    lightest word of the whole span in B-major order, also when the rows
    are dependent and however the words are blocked."""
    ctx, rows = case
    n = rows.shape[1]
    felt_rows = labels_to_felts(ctx, rows)
    ref_counts, ref_weight = felt_span_weights(ctx, felt_rows, n)
    scalars = [Felt(ctx, ctx.fq.idx_of_compact[c]) for c in range(ctx.q)]  # label order
    ref_witness = felt_first_lightest_word(ctx, felt_rows, scalars, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_BLOCK", block)
        counts = _label_span_weights(ctx, rows)
        got_weight, got_witness = linalg.span_min_weight(*linalg._label_span(ctx.fq, rows))
        distribution = linalg.weight_distribution(ctx.fq, rows)
    assert counts.tolist() == distribution.tolist() == ref_counts
    assert got_weight == ref_weight
    if ref_witness is None:
        assert got_witness is None
    else:
        assert got_witness.tolist() == felts_to_labels(ctx, [ref_witness])[0]


@pytest.mark.parametrize("block", [1, 7, 64, linalg._BLOCK])
def test_enumeration_is_independent_of_block_size(monkeypatch, block):
    """The witness is the first lightest word in B-major order however the work is split into blocks."""
    ctx = make_field(3, 1)
    rows = np.random.default_rng(3).integers(0, 3, size=(7, 10)).astype(np.uint8)
    R, _ = linalg.rref(ctx.fq, rows)
    ref_counts = _label_span_weights(ctx, rows)
    ref_weight, ref_witness = _label_lightest(ctx, rows)
    ref_scan = linalg.min_weight_scan(ctx.fq, R)
    assert ref_scan.scanned == 3 ** len(R) - 1  # the full-enumeration branch
    monkeypatch.setattr(linalg, "_BLOCK", block)
    assert np.array_equal(_label_span_weights(ctx, rows), ref_counts)
    assert np.array_equal(linalg.weight_distribution(ctx.fq, rows), ref_counts)
    weight, witness = linalg.span_min_weight(*linalg._label_span(ctx.fq, rows))
    assert weight == ref_weight and np.array_equal(witness, ref_witness)
    scan = linalg.min_weight_scan(ctx.fq, R)
    assert (scan.weight, scan.scanned) == (ref_scan.weight, ref_scan.scanned)
    assert np.array_equal(scan.witness, ref_scan.witness)


@pytest.mark.parametrize("block", [1, 7, 64, linalg._BLOCK])
@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_span_min_weight_takes_the_oracles_first_lightest_word(monkeypatch, q, block):
    """``span_min_weight`` against ``oracle.first_lightest_word``, which adds
    up every word with row 0's coefficient fastest: the same weight and the
    same witness, however the words are blocked, and a histogram from
    ``span_weights`` that is empty below that weight.

    A zero row in each half and a row in both halves put zero words at
    every few indices, past index 0 and past the first block; rows that are
    all zero, or nonzero in one row only, have only zero words or a few
    nonzero ones.  GF(q) label rows are checked with the label arithmetic,
    and at q <= 3 the same rows read as GF(q^2) indices with the field's
    tables, as ``grscode.min_weight`` enumerates them; the oracle adds
    labels by the ``add`` table and GF(q^2) indices by ``FieldCtx.vadd``.
    """
    ctx = make_field(*FIELDS[q])
    fq = ctx.fq
    monkeypatch.setattr(linalg, "_BLOCK", block)
    r = np.random.default_rng(q).integers(0, q, size=(3, 9)).astype(np.uint8)
    zero = np.zeros(9, dtype=np.uint8)
    rows = np.array([r[0], zero, r[1], r[1], zero, r[2]])  # halves rows[:3] and rows[3:]
    lone = np.zeros_like(rows)
    lone[3] = rows[0]
    for case in (rows, lone, np.zeros_like(rows)):
        alphabets = [(linalg._label_span(fq, case), lambda a, b: fq.add[a, b])]
        if q <= 3:  # (q^2)^6 words
            multiples = ctx.vmul(ctx.points_idx()[None, :, None], case[:, None, :])
            alphabets.append(((ctx.vadd, ctx.vneg, multiples), ctx.vadd))
        for (add, neg, multiples), oracle_add in alphabets:
            counts = linalg.span_weights(add, neg, multiples)
            weight, witness = first_lightest_word(oracle_add, multiples)
            got_weight, got_witness = linalg.span_min_weight(add, neg, multiples)
            assert got_weight == weight
            if weight is None:
                assert got_witness is None and not counts[1:].any()
            else:
                assert counts[weight] and not counts[1:weight].any()
                assert np.array_equal(got_witness, witness) and got_witness.dtype == witness.dtype


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_orbit_span_is_the_scalar_one_ranges_of_the_span(q):
    """``_orbit_span`` of m rows is the zero word and the words [Q^r, 2 Q^r)
    of the span of all m rows, r = 0..m-1, in that order: dependent rows,
    GF(q) labels, and at q <= 3 the same rows read as GF(q^2) indices."""
    ctx = make_field(*FIELDS[q])
    rng = np.random.default_rng(q)
    r = rng.integers(0, q, size=(3, 6)).astype(np.uint8)
    rows = np.array([r[0], r[1], np.zeros(6, dtype=np.uint8), ctx.fq.mul[q - 1, r[0]], r[2]])
    alphabets = [linalg._label_span(ctx.fq, rows)]
    if q <= 3:
        alphabets.append((ctx.vadd, ctx.vneg, ctx.vmul(ctx.points_idx()[None, :, None], rows[:, None, :])))
    for add, _, multiples in alphabets:
        for m in range(len(rows) + 1):
            Q = multiples.shape[1]
            span = linalg._span(add, multiples[:m])
            expect = np.concatenate([span[:1]] + [span[Q**i : 2 * Q**i] for i in range(m)])
            got = linalg._orbit_span(add, multiples[:m])
            assert np.array_equal(got, expect) and got.dtype == expect.dtype, m


# block size -> ``scanned`` of the level scan below, and the sha256 of its
# witness bytes, as produced by the version that built each group's half
# words from the scalar multiples of every basis row
LEVEL_SCAN_BLOCKS = {1: 296, 7: 300, 64: 404, linalg._BLOCK: 404}
LEVEL_SCAN_WITNESS = "a2f48be87dab63f264f4959ddebc1faea76acf4ab74dadc983f49aa0b8278f97"


@pytest.mark.parametrize("block", sorted(LEVEL_SCAN_BLOCKS))
def test_level_scan_keeps_its_report_for_every_block_size(monkeypatch, block):
    """Twelve random rows over GF(3) on 20 columns, minimum weight 4, with
    the heaviest row (weight 8) as the ``upper`` hint: the full enumeration
    of 3^12 words is over twice the projected work of levels 1..7, so the
    level branch runs.  It finds weight 4 on level 3, then stops.  The
    groups change with the block, and with them ``scanned``; the witness
    is the same first lightest word for every block."""
    fq = make_field(3, 1).fq
    rows = np.random.default_rng(6).integers(0, 3, size=(12, 20)).astype(np.uint8)
    R, _ = linalg.rref(fq, rows)
    m = len(R)
    weights = np.count_nonzero(R, axis=1)
    heaviest = int(np.argmax(weights))
    upper = (int(weights[heaviest]), R[heaviest])
    assert upper[0] == 8 and 3**m > 2 * linalg.projected_work(3, m, upper[0] - 1, 10**8)
    monkeypatch.setattr(linalg, "_BLOCK", block)
    scan = linalg.min_weight_scan(fq, R, upper=upper)
    assert (scan.admitted, scan.weight, scan.scanned) == (True, 4, LEVEL_SCAN_BLOCKS[block])
    assert hashlib.sha256(scan.witness.tobytes()).hexdigest() == LEVEL_SCAN_WITNESS
    assert linalg.weight_distribution(fq, R)[1:4].sum() == 0  # weight 4 is the minimum
    assert linalg.in_row_space(fq, R, tuple(np.argmax(R != 0, axis=1)), scan.witness)


def test_span_weights_of_no_rows_is_the_zero_word():
    ctx = make_field(2, 2)
    rows = np.zeros((0, 5), dtype=np.uint8)
    assert _label_span_weights(ctx, rows).tolist() == [1, 0, 0, 0, 0, 0]
    assert linalg.span_min_weight(*linalg._label_span(ctx.fq, rows)) == (None, None)


@st.composite
def rref_bases(draw):
    """(ctx, RREF basis): random GF(q) rows, often sparse, so often not MDS.

    The basis spans at most ENUM_MAX_WORDS words; zero rows and dependent
    rows drop out of the RREF.
    """
    q = draw(st.sampled_from(ENUM_QS))
    ctx = make_field(*FIELDS[q])
    m = draw(st.integers(1, max(j for j in range(1, 10) if q**j <= ENUM_MAX_WORDS)))
    n = draw(st.integers(m, 10))
    label = st.integers(0, q - 1)
    if draw(st.booleans()):
        label = st.one_of(st.just(0), label)  # zero in over half of the entries
    rows = draw(st.lists(st.lists(label, min_size=n, max_size=n), min_size=m, max_size=m))
    R, _ = linalg.rref(ctx.fq, np.array(rows, dtype=np.uint8))
    assume(len(R))
    return ctx, R


@given(rref_bases(), st.booleans())
def test_level_scan_matches_brute_force(case, hinted):
    """The level branch, forced by a cap one below the row space's size.

    The levels hold the q^m - 1 nonzero words, so the scan is admitted, but
    the full enumeration of all q^m words is over the cap.

    With ``hinted`` the scan also starts from a verified upper bound, the
    first basis row, which stops it below that row's weight.
    """
    ctx, R = case
    m, n = R.shape
    felt_rows = labels_to_felts(ctx, R)
    _, ref_weight = felt_span_weights(ctx, felt_rows, n)
    upper = (int(np.count_nonzero(R[0])), R[0]) if hinted else None
    for block in (linalg._BLOCK, 1):  # one subset per group puts several groups in a wave
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_BLOCK", block)
            scan = linalg.min_weight_scan(ctx.fq, R, cap=ctx.q**m - 1, upper=upper)
        assert scan.admitted and scan.weight == ref_weight
        assert scan.scanned <= ctx.q**m - 1
        assert np.count_nonzero(scan.witness) == scan.weight
        assert felt_in_row_space(ctx, felt_rows, labels_to_felts(ctx, [scan.witness])[0], n)


@pytest.mark.parametrize("basis", [
    [[1, 1, 0], [1, 0, 1]],  # column 0 is the pivot of both rows
    [[1, 0, 2], [0, 2, 1]],  # the second pivot is 2, not 1
    [[1, 2, 0], [0, 0, 0]],  # a zero row
    [[0, 1, 1], [1, 1, 0]],  # the first row's pivot column is not zero in the second
    [[0, 0, 0], [1, 2, 0]],  # a zero row first, where column 0 holds the other row's pivot
])
def test_min_weight_scan_refuses_a_basis_that_is_not_reduced(basis):
    fq = make_field(3, 1).fq
    with pytest.raises(ValueError, match="identity on its pivot columns"):
        linalg.min_weight_scan(fq, np.array(basis, dtype=np.uint8))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_min_weight_scan_refuses_every_break_of_the_identity_on_the_pivots(q):
    """From an RREF basis: a second nonzero in a pivot column, a pivot that is
    neither 0 nor 1, a zero row and a row copied onto another are refused."""
    fq = make_field(*FIELDS[q]).fq
    rng = np.random.default_rng(q)
    R, pivots = linalg.rref(fq, rng.integers(0, q, size=(3, 7)).astype(np.uint8))
    assert len(R) == 3 and linalg.min_weight_scan(fq, R).admitted
    broken = []
    for i in range(len(R)):
        for j, c in enumerate(pivots):
            for v in range(2 if i == j else 1, q):  # any v off the diagonal, v >= 2 on it
                broken.append(R.copy())
                broken[-1][i, c] = v
        broken.append(R.copy())
        broken[-1][i] = 0
        broken.append(R.copy())
        broken[-1][i] = R[(i + 1) % len(R)]
    for basis in broken:
        with pytest.raises(ValueError, match="identity on its pivot columns"):
            linalg.min_weight_scan(fq, basis)


def test_min_weight_scan_accepts_unordered_reduced_rows():
    """Only the identity on the pivots matters, not the order of the rows."""
    fq = make_field(3, 1).fq
    scan = linalg.min_weight_scan(fq, np.array([[0, 1, 1, 0], [1, 0, 1, 0]], dtype=np.uint8))
    assert scan.admitted and scan.weight == 2  # the difference of the rows


def test_min_weight_scan_refusal_without_an_upper_bound():
    """A q = 16, k = 1 u-space basis (256 rows): the projected work passes the cap at level 3."""
    ctx = make_field(2, 4)
    basis = u_space_basis(ctx, 1).matrix
    scan = linalg.min_weight_scan(ctx.fq, basis)
    assert (scan.admitted, scan.weight, scan.witness, scan.scanned) == (False, None, None, 0)
    row = basis[0]  # weight 2, so only level 1 (3840 words) is needed: over a cap of 100
    scan = linalg.min_weight_scan(ctx.fq, basis, cap=100, upper=(int(np.count_nonzero(row)), row))
    assert (scan.admitted, scan.weight, scan.scanned) == (False, int(np.count_nonzero(row)), 0)
    assert np.array_equal(scan.witness, row) and scan.witness is not row


@pytest.mark.parametrize("hinted", [False, True])
def test_min_weight_scan_admits_exactly_up_to_the_projected_work(hinted):
    """Admitted iff the unpruned words on the needed levels are at most the cap."""
    fq = make_field(3, 1).fq
    basis = np.array([[1, 0, 0, 0, 1, 2], [0, 1, 0, 0, 2, 2], [0, 0, 1, 0, 1, 1], [0, 0, 0, 1, 2, 1]],
                     dtype=np.uint8)
    m = len(basis)
    upper = (3, basis[0]) if hinted else None
    depth = m if upper is None else upper[0] - 1
    projected = sum(math.comb(m, j) * 2**j for j in range(1, depth + 1))
    admitted = linalg.min_weight_scan(fq, basis, cap=projected, upper=upper)
    refused = linalg.min_weight_scan(fq, basis, cap=projected - 1, upper=upper)
    assert admitted.admitted and admitted.scanned > 0
    assert (refused.admitted, refused.scanned) == (False, 0)
    assert refused.weight == (3 if hinted else None)


@st.composite
def bases_with_unit_rows(draw):
    """(ctx, RREF basis) with one or more rows cut down to their pivot, a weight-1 word.

    Stripping a row of an RREF basis keeps it the identity on its pivot
    columns.  Several unit rows tie at the minimum weight, and the random
    rows around them often tie with each other.
    """
    ctx, R = draw(rref_bases())
    R = R.copy()
    pivots = np.argmax(R != 0, axis=1)
    for i in draw(st.lists(st.integers(0, len(R) - 1), min_size=1, unique=True)):
        R[i] = 0
        R[i, pivots[i]] = 1
    return ctx, R


@given(bases_with_unit_rows(), st.booleans())
def test_level_one_takes_the_first_lightest_row(case, hinted):
    """The level loop's first pass weighs each row: the first row of minimum weight is the witness.

    A one-row subset's lonely-column bound is its row's weight, so the
    rows are scanned lightest first, in groups of _BLOCK // (q-1) and
    waves of 8 groups; the first wave already reaches weight 1, below every
    later row, so the scan counts the q-1 multiples of the rows in that wave
    that are lighter than the bound.  ``hinted`` starts from the heaviest
    row as a verified upper bound.  The cap is one below the row space's
    size, so the level branch runs, not the full enumeration.
    """
    ctx, R = case
    m, n = R.shape
    q = ctx.q
    _, ref_weight = felt_span_weights(ctx, labels_to_felts(ctx, R), n)
    weights = np.count_nonzero(R, axis=1)
    heaviest = int(np.argmax(weights))
    upper = (int(weights[heaviest]), R[heaviest]) if hinted else None
    light = int(np.count_nonzero(weights < (weights[heaviest] if hinted else n + 1)))
    for block in (linalg._BLOCK, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_BLOCK", block)
            scan = linalg.min_weight_scan(ctx.fq, R, cap=q**m - 1, upper=upper)
        assert scan.admitted and scan.weight == ref_weight == 1
        assert np.array_equal(scan.witness, R[np.flatnonzero(weights == 1)[0]])
        assert scan.witness.dtype == np.uint8
        assert scan.scanned == (q - 1) * min(light, 8 * max(1, block // (q - 1)))


def test_projected_work_stops_past_the_cap():
    m, q = 10, 4
    full = sum(math.comb(m, j) * (q - 1) ** j for j in range(1, 6))
    assert linalg.projected_work(q, m, 5, full) == full
    assert linalg.projected_work(q, m, 0, 0) == 0
    # past the cap at level 2: levels 3..5 are not added
    assert linalg.projected_work(q, m, 5, m * (q - 1)) == m * (q - 1) + math.comb(m, 2) * (q - 1) ** 2


@pytest.mark.parametrize("block,scanned", [(1, 2 * 8), (4, 2 * 16), (linalg._BLOCK, 2 * 20)])
def test_level_one_counts_the_first_wave_only(monkeypatch, block, scanned):
    """20 rows over GF(3), unit rows and weight-2 rows interleaved.

    The level loop's first pass, level 1, scans groups of
    max(1, block // 2) one-row subsets; its first wave of 8 groups holds
    min(20, 8 * group) rows and finds weight 1, and no later row is
    lighter, so the later waves scan nothing.
    """
    fq = make_field(3, 1).fq
    m = 20
    R = np.zeros((m, m + 1), dtype=np.uint8)
    R[np.arange(m), np.arange(m)] = 1
    R[1::3, m] = 2  # rows 1, 4, ..., 19 weigh 2
    monkeypatch.setattr(linalg, "_BLOCK", block)
    scan = linalg.min_weight_scan(fq, R, cap=3**m - 1)
    assert (scan.admitted, scan.weight, scan.scanned) == (True, 1, scanned)
    assert np.array_equal(scan.witness, R[0])


@st.composite
def square_bases(draw):
    """(ctx, R) with R square: m independent rows of length m, reduced to the identity."""
    q = draw(st.sampled_from(ENUM_QS))
    ctx = make_field(*FIELDS[q])
    m = draw(st.integers(1, max(j for j in range(1, 10) if q**j <= ENUM_MAX_WORDS)))
    label = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(label, min_size=m, max_size=m), min_size=m, max_size=m))
    R, _ = linalg.rref(ctx.fq, np.array(rows, dtype=np.uint8))
    assume(len(R) == m)
    return ctx, R


@given(square_bases())
def test_scan_of_a_basis_without_non_pivot_columns(case):
    """n == m: no column is left to compare, and the halves of the full
    enumeration share none.  The level branch (a cap one below the row
    space's size) stops at level 1, as every row is a unit vector."""
    ctx, R = case
    m = len(R)
    ref_counts, ref_weight = felt_span_weights(ctx, labels_to_felts(ctx, R), m)
    assert linalg.weight_distribution(ctx.fq, R).tolist() == ref_counts
    for cap in (10**8, ctx.q**m - 1):
        scan = linalg.min_weight_scan(ctx.fq, R, cap=cap)
        assert scan.admitted and scan.weight == ref_weight == 1
        assert np.array_equal(scan.witness, R[0])


@pytest.mark.parametrize("q", ENUM_QS)
@pytest.mark.parametrize("shared", ["none", "every"])
def test_span_weights_at_the_edge_widths_of_the_shared_columns(q, shared):
    """Halves A (the first m//2 rows) and B that touch disjoint column sets,
    or whose rows have no zero at all, against the scalar enumeration."""
    ctx = make_field(*FIELDS[q])
    m = max(j for j in range(2, 7) if q**j <= ENUM_MAX_WORDS)
    rng = np.random.default_rng(q)
    if shared == "none":
        rows = np.zeros((m, 7), dtype=np.uint8)
        rows[: m // 2, :3] = rng.integers(0, q, size=(m // 2, 3))
        rows[m // 2 :, 3:] = rng.integers(0, q, size=(m - m // 2, 4))
    else:
        rows = rng.integers(1, q, size=(m, 7)).astype(np.uint8)
    n = rows.shape[1]
    counts = linalg.span_weights(*linalg._label_span(ctx.fq, rows))
    weight, witness = linalg.span_min_weight(*linalg._label_span(ctx.fq, rows))
    ref_counts, ref_weight = felt_span_weights(ctx, labels_to_felts(ctx, rows), n)
    assert counts.tolist() == ref_counts and weight == ref_weight
    assert np.count_nonzero(witness) == weight
    assert np.array_equal(witness, _label_lightest(ctx, rows)[1])
    assert felt_in_row_space(ctx, labels_to_felts(ctx, rows), labels_to_felts(ctx, [witness])[0], n)


def test_weights_past_255_columns_do_not_wrap():
    """q = 2, 4 dense rows on 4 + 255 columns: the non-pivot differences fit
    a uint8, but words weigh up to 259.  r0 + r1 weighs 3, the minimum, and
    r0 + r1 + r2 weighs 257, which a uint8 total would read as 1.  The
    default cap runs the full enumeration, a cap of 15 the level scan."""
    fq = make_field(2, 1).fq
    m, free = 4, 255
    R = np.ones((m, m + free), dtype=np.uint8)
    R[:, :m] = np.eye(m, dtype=np.uint8)
    for i in range(1, m):
        R[i, m : m + i] = 0  # row i is zero on the first i non-pivot columns
    counts = np.zeros(m + free + 1, dtype=np.int64)
    for coeffs in np.ndindex(*(2,) * m):
        counts[np.count_nonzero(np.bitwise_xor.reduce(R[np.flatnonzero(coeffs)], axis=0))] += 1
    assert counts[256:].any() and not counts[1:3].any() and counts[3]
    assert np.array_equal(linalg.weight_distribution(fq, R), counts)
    lightest = R[0] ^ R[1]
    for upper in (None, (3, lightest)):
        for cap in (10**8, 2**m - 1):
            scan = linalg.min_weight_scan(fq, R, cap=cap, upper=upper)
            assert scan.admitted and scan.weight == 3
            assert np.count_nonzero(scan.witness) == 3


def test_coeff_block_counts_with_the_last_coordinate_fastest():
    """The scan's witness is the first lightest word in this order."""
    for q, j in [(2, 0), (2, 3), (3, 2), (4, 1), (5, 3)]:
        ref = list(itertools.product(range(1, q), repeat=j))
        assert linalg._coeff_block(q, j).tolist() == [list(c) for c in ref], (q, j)
    assert linalg._coeff_block(3, 2).tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]


def test_combinations_are_the_lexicographic_subsets():
    """The level scan's subsets, in the order that fixes its witness and ``scanned``."""
    for m in range(1, 12):
        for j in range(1, m + 1):
            ref = np.array(list(itertools.combinations(range(m), j)), dtype=np.int64)
            assert np.array_equal(linalg._combinations(m, j), ref), (m, j)


@pytest.mark.parametrize("p,h", [(5, 2), (3, 3), (7, 2)], ids=["q25", "q27", "q49"])
def test_matvec_matches_scalar_products_at_odd_composite_q(p, h):
    """Every entry of M v against a scalar sum of products, as ``felt_matvec_is_zero`` forms it."""
    ctx = make_field(p, h)
    rng = np.random.default_rng(ctx.q)
    for rows, cols in ((1, 1), (5, 9), (7, 40), (3, 0)):
        M = rng.integers(0, ctx.q, (rows, cols)).astype(np.uint8)
        v = rng.integers(0, ctx.q, cols).astype(np.uint8)
        got = linalg.matvec(ctx.fq, M, v)
        vf = labels_to_felts(ctx, [v.tolist()])[0]
        expect = []
        for row in labels_to_felts(ctx, M.tolist()):
            total = ctx.zero
            for a, b in zip(row, vf):
                total = total + a * b
            expect.append(total)
        assert got.dtype == np.uint8
        assert labels_to_felts(ctx, [got.tolist()])[0] == expect
