from __future__ import annotations

import functools
import itertools
import json
import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hermgrs import constructions, grscode, linalg
from hermgrs.errors import CapExceeded, MalformedInput, SelfCheckFailed, ValidationRefused
from hermgrs.field import MAX_Q, make_field
from hermgrs.grscode import (
    CodeParams,
    GrsCode,
    check_mds,
    code_from_dict,
    code_to_dict,
    hermitian_gram,
    is_hermitian_self_orthogonal,
    mds_status,
    min_weight,
    truncate_scale,
)
from hermgrs.puncture import PunctureVector, puncture_direct, small_support_witness, u_space_basis

import oracle


def test_build_rs_shapes(ctx2, ctx4):
    code = oracle.full_length_rs(ctx2, 1)
    assert code.gen.shape == (1, 5)
    assert np.all(code.gen == 1)  # row of ones: evaluations of X^0, plus f_0
    code = oracle.full_length_rs(ctx4, 3)
    assert code.gen.shape == (3, 17)
    assert list(code.gen[:, 0]) == [1, 0, 0]  # column at a_1 = 0


def test_build_rs_rank_is_k(ctx4):
    code = oracle.full_length_rs(ctx4, 3)
    # any k evaluation columns at distinct points form a Vandermonde minor
    cols = [1, 4, 9]
    rows = [[ctx4.felt(int(code.gen[r][c])) for c in cols] for r in range(3)]
    assert oracle.nonsingular_by_elimination(ctx4, rows)


def test_build_rs_k_range(ctx4):
    with pytest.raises(ValidationRefused):
        oracle.full_length_rs(ctx4, 0)
    with pytest.raises(ValidationRefused):
        oracle.full_length_rs(ctx4, ctx4.q + 2)


def test_truncate_scale_all_ones(ctx4):
    lam = PunctureVector(ctx4, np.ones(ctx4.q2 + 1, dtype=np.uint8))
    out = truncate_scale(2, lam)
    assert out.n == ctx4.q2 + 1
    assert np.all(out.thetas == 1)  # vnorm_root(1) = 1, the smallest root


def test_truncate_scale_small_support(ctx5):
    k = 2
    lam = small_support_witness(ctx5, k)
    out = truncate_scale(k, lam)
    assert out.n == 2 * k == lam.weight()
    assert out.support == lam.support()


def test_truncate_scale_weight_below_k_refused(ctx4):
    v = np.zeros(ctx4.q2 + 1, dtype=np.uint8)
    v[0] = 1
    with pytest.raises(ValidationRefused):
        truncate_scale(3, PunctureVector(ctx4, v))


def test_gram_matches_direct_summation_oracle(ctx4):
    code = oracle.full_length_rs(ctx4, 3)
    gram = hermitian_gram(code)
    ref = oracle.gram_matrix(code)
    for r in range(3):
        for s in range(3):
            assert int(gram[r][s]) == ref[r][s].i
    assert gram.any()  # the full RS code at k=3, q=4 is not self-orthogonal


def test_gram_zero_on_self_orthogonal_truncation(ctx4):
    basis = puncture_direct(ctx4, 2)
    lam = basis.rows()[0]
    code = truncate_scale(2, lam)
    gram = hermitian_gram(code)
    assert not gram.any()
    assert is_hermitian_self_orthogonal(code)
    ref = oracle.gram_matrix(code)
    assert all(x.is_zero() for row in ref for x in row)


def test_gram_includes_coefficient_coordinate(ctx3):
    # k = q: P(C) is spanned by the all-one vector, support includes q^2+1
    k = ctx3.q
    lam = PunctureVector(ctx3, np.ones(ctx3.q2 + 1, dtype=np.uint8))
    code = truncate_scale(k, lam)
    assert code.has_coeff_coord
    assert is_hermitian_self_orthogonal(code)
    # dropping the coefficient coordinate must break self-orthogonality
    v = np.ones(ctx3.q2 + 1, dtype=np.uint8)
    v[-1] = 0
    broken = truncate_scale(k, PunctureVector(ctx3, v))
    assert not is_hermitian_self_orthogonal(broken)


def test_random_puncture_combinations_stay_self_orthogonal(small_grid):
    """Truncations scaled by random members of P(C) keep a zero Gram."""
    rng = random.Random(14)
    for ctx, k in small_grid:
        if k == ctx.q + 1:
            continue
        basis = puncture_direct(ctx, k)
        if basis.dim == 0:
            continue
        fq = ctx.fq
        for _ in range(5):
            combo = np.zeros(ctx.q2 + 1, dtype=np.uint8)
            for row in basis.matrix:
                c = rng.randrange(ctx.q)
                combo = fq.add[combo, fq.mul[np.uint8(c), row]]
            lam = PunctureVector(ctx, combo)
            if lam.weight() < k:
                continue
            assert is_hermitian_self_orthogonal(truncate_scale(k, lam))


def test_hermitian_form_vanishes_on_random_codeword_pairs(ctx5):
    """The plain form sum u_i v_i^q is zero on actual codewords of a
    certified code, coefficient coordinate included."""
    rng = random.Random(16)
    for k in (2, 3):
        basis = puncture_direct(ctx5, k)
        for lam in (basis.rows()[0], basis.rows()[-1]):
            code = truncate_scale(k, lam)
            assert is_hermitian_self_orthogonal(code)
            gen = [[ctx5.felt(int(x)) for x in row] for row in code.gen]
            for _ in range(5):
                u = [ctx5.zero] * code.n
                v = [ctx5.zero] * code.n
                for r in range(k):
                    cu = ctx5.elems()[rng.randrange(ctx5.q2)]
                    cv = ctx5.elems()[rng.randrange(ctx5.q2)]
                    u = [a + cu * g for a, g in zip(u, gen[r])]
                    v = [a + cv * g for a, g in zip(v, gen[r])]
                form = ctx5.zero
                for a, b in zip(u, v):
                    form = form + a * oracle.conj(b)
                assert form.is_zero()


def test_gram_zero_is_basis_independent(ctx4):
    rng = random.Random(12)
    basis = puncture_direct(ctx4, 2)
    code = truncate_scale(2, basis.rows()[1])
    assert is_hermitian_self_orthogonal(code)
    scales = [ctx4.elems()[rng.randrange(1, ctx4.q2)] for _ in range(code.k)]
    assert oracle.scaled_basis_gram_zero(code, scales)
    not_so = oracle.full_length_rs(ctx4, 3)
    scales = [ctx4.elems()[rng.randrange(1, ctx4.q2)] for _ in range(3)]
    assert not oracle.scaled_basis_gram_zero(not_so, scales)


def test_check_mds_on_truncations(ctx4):
    basis = puncture_direct(ctx4, 2)
    for lam in basis.rows()[:3]:
        if lam.weight() < 2:
            continue
        code = truncate_scale(2, lam)
        assert check_mds(code)


def test_check_mds_k1_votes_on_columns(ctx4):
    code = oracle.full_length_rs(ctx4, 1)
    assert check_mds(code)  # all thetas nonzero, so all columns nonzero


def test_check_mds_matches_minor_oracle(ctx4):
    rng = random.Random(13)
    k = 2
    support = tuple(sorted(rng.sample(range(1, ctx4.q2 + 1), 4)))
    thetas = np.array([rng.randrange(1, ctx4.q2) for _ in support], dtype=np.int64)
    code = GrsCode(ctx4, k, support, thetas)
    expected = True
    import itertools

    for cols in itertools.combinations(range(code.n), k):
        rows = [[ctx4.felt(int(code.gen[r][c])) for c in cols] for r in range(k)]
        expected &= oracle.nonsingular_by_elimination(ctx4, rows)
    assert check_mds(code) is expected is True


def test_check_mds_detects_repeat_free_failure(ctx4):
    # duplicate theta-scaled column pattern cannot happen with distinct
    # points, so force a non-MDS case with a doctored generator: k = 2 with
    # a zero theta is rejected upfront instead
    with pytest.raises(ValidationRefused):
        GrsCode(ctx4, 2, (1, 2, 3), np.array([1, 0, 1], dtype=np.int64))


@pytest.mark.parametrize("bad", [1.9, True, "2", -1, 16, 2**70])
def test_thetas_that_are_not_nonzero_element_indices_are_refused(ctx4, bad):
    """Neither wrapped into 1..q^2-1 nor read as an integer; the range is
    checked before the int64 conversion, which would overflow at 2^70."""
    with pytest.raises(ValidationRefused):
        GrsCode(ctx4, 1, (1, 2), [1, bad])


@pytest.mark.parametrize("bad", [1.5, True, "2", np.float64(2.0)])
def test_support_coordinates_that_are_not_integers_are_refused(ctx4, bad):
    """Not truncated into the int64 generator nor compared as a value."""
    with pytest.raises(ValidationRefused, match="a support coordinate must be an integer"):
        GrsCode(ctx4, 1, (bad, 3), [1, 1])


@pytest.mark.parametrize("bad", [2**70, -1, np.uint64(2**64 - 1), 0, 18])
def test_support_coordinates_out_of_range_are_refused(ctx4, bad):
    """Range-checked before the int64 conversion, which would overflow at 2^70:
    a refusal, not an OverflowError."""
    with pytest.raises(ValidationRefused, match="strictly increasing 1-based coordinates"):
        GrsCode(ctx4, 1, (bad, 17) if bad < 1 else (1, bad), [1, 1])


@pytest.mark.parametrize(
    "support,match",
    [
        ([[1, 2], [3, 4]], "one list of coordinates"),
        (functools.reduce(lambda v, _: [v], range(40), 1), "nested 40 deep"),
    ],
    ids=["equal-length-rows", "40-deep"],
)
def test_support_that_is_not_one_flat_list_is_refused(ctx4, support, match):
    """Rows of equal length pass the integer rule as a 2-D array; a list
    deeper than numpy iterates is refused by the rule itself."""
    with pytest.raises(ValidationRefused, match=match):
        GrsCode(ctx4, 1, support, [1, 1])


def test_numpy_integer_support_is_kept_as_python_ints(ctx4):
    code = GrsCode(ctx4, 1, (np.int64(1), np.int64(3)), [1, 1])
    assert code.support == (1, 3) and all(type(i) is int for i in code.support)
    json.dumps(code_to_dict(code, params=None, mds="minors"))


def test_check_mds_cap(ctx5):
    code = oracle.full_length_rs(ctx5, 4)
    with pytest.raises(CapExceeded):
        check_mds(code, cap=10)


def test_min_weight_examples(ctx2, ctx4):
    code = oracle.full_length_rs(ctx2, 1)  # k = 1, n = 5: every scaled row has full weight
    assert min_weight(code) == 5
    # q = 2 Reed-Solomon truncated to length 5 stays MDS: d = n-k+1 = 4;
    # reference: scalar enumeration of all 16 codewords
    code = oracle.full_length_rs(ctx2, 2)
    assert min_weight(code) == oracle.code_min_weight_enum(code) == 4
    basis = puncture_direct(ctx4, 2)
    code = truncate_scale(2, basis.rows()[0])
    assert check_mds(code)
    assert min_weight(code) == code.n - code.k + 1


def test_min_weight_cap(ctx5):
    with pytest.raises(CapExceeded):
        min_weight(oracle.full_length_rs(ctx5, 4), cap=100)


def test_quantum_params(ctx5):
    k = 2
    lam = small_support_witness(ctx5, k)
    code = truncate_scale(k, lam)
    assert is_hermitian_self_orthogonal(code)
    params = CodeParams.of_self_orthogonal(code)
    assert params.quantum == (4, 0, 3, 5)
    nq, kq, dq, _ = params.quantum
    assert nq == kq + 2 * (dq - 1)  # quantum Singleton with equality


def test_code_params_refusals(ctx5):
    with pytest.raises(ValidationRefused, match="Singleton bound violated"):
        CodeParams(n=4, k=3, d=4, alphabet=25, quantum=(4, -2, 4, 5))
    with pytest.raises(ValidationRefused, match="quantum Singleton bound violated"):
        CodeParams(n=4, k=2, d=3, alphabet=25, quantum=(4, 0, 4, 5))
    with pytest.raises(ValidationRefused, match="n >= 2k"):
        CodeParams.of_self_orthogonal(GrsCode(ctx5, 3, (1, 2, 3, 4, 5), np.ones(5, dtype=np.int64)))


def test_json_roundtrip(ctx5):
    k = 2
    code = truncate_scale(k, small_support_witness(ctx5, k))
    record = code_to_dict(code, params=CodeParams.of_self_orthogonal(code), mds="minors")
    back = code_from_dict(record)
    assert back.support == code.support
    assert np.array_equal(back.thetas, code.thetas)
    assert np.array_equal(back.gen, code.gen)
    assert record["schema"] == 1
    assert record["params"]["verified_d"] is True
    assert record["quantum"] == [4, 0, 3, 5]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("support"),
        lambda r: r["support"].append(r["support"][-1]),
        lambda r: r["thetas"].append(1),
        lambda r: r["thetas"].__setitem__(0, 0),
        lambda r: r.__setitem__("support", [0] + r["support"][1:]),
        lambda r: r.__setitem__("p", 6),
    ],
)
def test_malformed_records_rejected(ctx5, mutate):
    code = truncate_scale(2, small_support_witness(ctx5, 2))
    record = code_to_dict(code, params=CodeParams.of_self_orthogonal(code), mds="minors")
    mutate(record)
    with pytest.raises(MalformedInput):
        code_from_dict(record)


@st.composite
def small_codes(draw):
    """Random truncated, column-scaled GRS codes with at most 9^3 codewords.

    Half the draws keep the code's field, k and n but take a systematic
    generator [I | R] with random R instead: independent rows, in general
    neither MDS nor Hermitian self-orthogonal.
    """
    ctx = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2)])))
    k = draw(st.integers(1, 3 if ctx.q2 <= 9 else 2))
    n = draw(st.integers(k, min(ctx.q2 + 1, 8)))
    support = sorted(draw(st.lists(st.integers(1, ctx.q2 + 1), min_size=n, max_size=n, unique=True)))
    thetas = draw(st.lists(st.integers(1, ctx.q2 - 1), min_size=n, max_size=n))
    code = GrsCode(ctx, k, tuple(support), np.array(thetas, dtype=np.int64))
    if draw(st.booleans()):
        entry = st.integers(0, ctx.q2 - 1)
        rest = draw(st.lists(st.lists(entry, min_size=n - k, max_size=n - k), min_size=k, max_size=k))
        gen = np.hstack([np.eye(k, dtype=np.int64), np.array(rest, dtype=np.int64).reshape(k, n - k)])
        code = SimpleNamespace(ctx=ctx, k=k, n=n, gen=gen)  # element index 1 is the one
    return code


@given(small_codes())
def test_min_weight_matches_scalar_enumeration(code):
    assert min_weight(code) == oracle.code_min_weight_enum(code)


@st.composite
def dependent_generators(draw):
    """Generators over GF(q^2), q <= 4, with at most 9^3 codewords, one or
    more rows of which are overwritten by a multiple of a row (a zero row
    at entry 0), so the rows are mostly dependent; at least one entry is
    nonzero."""
    ctx = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2)])))
    k = draw(st.integers(1, 3 if ctx.q2 <= 9 else 2))
    n = draw(st.integers(1, 8))
    entry = st.integers(0, ctx.q2 - 1)
    gen = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k)),
                   dtype=np.int64).reshape(k, n)
    for _ in range(draw(st.integers(1, k))):
        at, source = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        gen[at] = ctx.vmul(draw(entry), gen[source])
    assume(gen.any())
    return SimpleNamespace(ctx=ctx, k=k, n=n, gen=gen)


@given(dependent_generators())
def test_min_weight_of_dependent_rows_matches_scalar_enumeration(code):
    """The enumeration compares one word per orbit of q^2 - 1 nonzero
    multiples; its weight and its witness, the first lightest word in
    B-major order, are those of the scalar enumeration of every message."""
    ctx = code.ctx
    assert min_weight(code) == oracle.code_min_weight_enum(code)
    multiples = ctx.vmul(ctx.points_idx()[None, :, None], code.gen[:, None, :])
    _, witness = linalg.span_min_weight(ctx.vadd, ctx.vneg, multiples)
    rows = [[ctx.felt(int(x)) for x in row] for row in code.gen]
    scalars = [ctx.felt(int(i)) for i in ctx.points_idx()]
    ref = oracle.felt_first_lightest_word(ctx, rows, scalars, code.n)
    assert witness.tolist() == [x.i for x in ref]


@pytest.mark.parametrize(
    "key,value",
    [
        ("k", 4.9),
        ("k", 2.0),
        ("k", True),
        ("p", 5.5),
        ("h", "1"),
        ("schema", 99),
        ("schema", True),
        ("schema", "1"),
        ("thetas", lambda r: [float(t) for t in r["thetas"]]),
        ("support", lambda r: [str(i) for i in r["support"]]),
        ("support", lambda r: [True] + r["support"][1:]),
        ("support", lambda r: "".join(map(str, r["support"]))),
    ],
)
def test_code_records_with_non_integer_fields_rejected(ctx5, key, value):
    code = truncate_scale(2, small_support_witness(ctx5, 2))
    record = code_to_dict(code, params=CodeParams.of_self_orthogonal(code), mds="minors")
    record[key] = value(record) if callable(value) else value
    with pytest.raises(MalformedInput):
        code_from_dict(record)


def test_code_record_without_schema_key_accepted(ctx5):
    code = truncate_scale(2, small_support_witness(ctx5, 2))
    record = code_to_dict(code, params=CodeParams.of_self_orthogonal(code), mds="minors")
    del record["schema"]
    assert np.array_equal(code_from_dict(record).gen, code.gen)


MDS_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def minors_by_oracle(code) -> bool:
    """Scalar elimination of every k-column minor."""
    gen = [[code.ctx.felt(int(x)) for x in row] for row in code.gen]
    return all(
        oracle.nonsingular_by_elimination(code.ctx, [[row[c] for c in cols] for row in gen])
        for cols in itertools.combinations(range(code.n), code.k)
    )


def check_mds_at_block_one(code) -> bool:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grscode, "_MDS_BLOCK", 1)  # one child per piece
        return check_mds(code)


@st.composite
def mds_candidates(draw):
    """Codes with k <= 6 and n <= 12 whose generators are often not MDS.

    Half the draws overwrite one entry of a GRS generator; the other half
    replace the generator by random entries, about a third of them zero.
    """
    ctx = make_field(*MDS_FIELDS[draw(st.sampled_from(sorted(MDS_FIELDS)))])
    k = draw(st.integers(1, min(ctx.q + 1, 6)))
    n = draw(st.integers(k, min(ctx.q2 + 1, 12)))
    support = sorted(draw(st.lists(st.integers(1, ctx.q2 + 1), min_size=n, max_size=n, unique=True)))
    thetas = draw(st.lists(st.integers(1, ctx.q2 - 1), min_size=n, max_size=n))
    code = GrsCode(ctx, k, tuple(support), np.array(thetas, dtype=np.int64))
    if draw(st.booleans()):
        gen = code.gen.copy()
        gen[draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))] = draw(st.integers(0, ctx.q2 - 1))
    else:
        entry = st.one_of(st.just(0), st.integers(1, ctx.q2 - 1), st.integers(1, ctx.q2 - 1))
        gen = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k)))
    code.gen = gen.astype(np.int64)
    return code


@given(mds_candidates())
def test_check_mds_matches_scalar_minors(code):
    expected = minors_by_oracle(code)
    assert check_mds(code) is expected
    assert check_mds_at_block_one(code) is expected


def _code_with_gen(ctx, gen):
    gen = np.array(gen, dtype=np.int64)
    k, n = gen.shape
    code = GrsCode(ctx, k, tuple(range(1, n + 1)), np.ones(n, dtype=np.int64))
    code.gen = gen
    return code


@pytest.mark.parametrize(
    "gen,expected",
    [
        ([[1, 2, 0], [3, 0, 1], [0, 5, 7]], True),  # k = n: the one minor decides
        ([[1, 2, 4], [2, 3, 5], [0, 5, 7]], False),  # k = n, row 1 is w times row 0
        ([[1, 0, 3, 4]], False),  # k = 1 with a zero column
        ([[1, 1, 1, 1]], True),
        ([[1, 2, 3, 4], [0, 0, 0, 0]], False),  # a zero row
    ],
)
def test_check_mds_fixed_cases(ctx4, gen, expected):
    code = _code_with_gen(ctx4, gen)
    assert minors_by_oracle(code) is expected
    assert check_mds(code) is expected
    assert check_mds_at_block_one(code) is expected


def _independent(ctx, u, v) -> bool:
    """Whether generator columns u and v are not proportional (some 2 x 2 minor is nonsingular)."""
    return any(
        oracle.nonsingular_by_elimination(ctx, [[ctx.felt(int(u[r])), ctx.felt(int(v[r]))] for r in rows])
        for rows in itertools.combinations(range(len(u)), 2)
    )


def _sum_of_two_columns(ctx):
    """k = 3, column 4 = column 1 + column 3: no two generator columns are
    proportional, but the residual columns 3 and 4 of the prefix {1} are."""
    gen = oracle.full_length_rs(ctx, 3).gen[:, :5].copy()
    gen[:, 4] = ctx.vadd(gen[:, 1], gen[:, 3])
    assert all(_independent(ctx, gen[:, i], gen[:, j]) for i, j in itertools.combinations(range(5), 2))
    return gen


def _multiple_of_the_prefix(ctx):
    """k = 3, column 3 = w * column 0: the residual of the prefix {0} is
    [0 : 0] at column 3, and only the nonzero test sees it."""
    gen = oracle.full_length_rs(ctx, 3).gen[:, :4].copy()
    gen[:, 3] = ctx.vmul(gen[:, 0], np.int64(2))
    return gen


@pytest.mark.parametrize(
    "make_gen,expected",
    [
        (_sum_of_two_columns, False),
        (lambda ctx: [[1, 0, 0, 1], [1, 1, 2, 2]], False),  # k = 2: [0 : 1] and [0 : w], key q^2 twice
        (lambda ctx: [[1, 1, 2, 1], [0, 0, 0, 1], [0, 1, 3, 1]], False),  # a = 0 twice below the prefix {0}
        (lambda ctx: [[1, 1, 0], [1, 2, 1]], True),  # key q^2 once
        (lambda ctx: [[1, 0, 1], [1, 0, 2]], False),  # k = 2: a [0 : 0] column
        (_multiple_of_the_prefix, False),
        # k >= 4: the prefix columns of every node are [0 : 0], equal points
        # at or before the prefix's last column, so sentinels must hide them
        (lambda ctx: oracle.full_length_rs(ctx, 4).gen, True),
        (lambda ctx: oracle.full_length_rs(ctx, 3).gen, True),
    ],
    ids=[
        "proportional-in-residual",
        "a-zero-twice",
        "a-zero-twice-below-prefix",
        "a-zero-once",
        "zero-column",
        "zero-in-residual",
        "equal-points-at-or-before-prefix-k4",
        "equal-points-at-or-before-prefix-k3",
    ],
)
def test_check_mds_two_row_step(ctx4, make_gen, expected):
    code = _code_with_gen(ctx4, make_gen(ctx4))
    assert minors_by_oracle(code) is expected
    assert check_mds(code) is expected
    assert check_mds_at_block_one(code) is expected


def _singular_minors(code) -> list[tuple[int, ...]]:
    gen = [[code.ctx.felt(int(x)) for x in row] for row in code.gen]
    return [
        cols
        for cols in itertools.combinations(range(code.n), code.k)
        if not oracle.nonsingular_by_elimination(code.ctx, [[row[c] for c in cols] for row in gen])
    ]


def _one_dependent_column(k, cols, scale=1):
    """RS over GF(16) on support 2..13 (n = 12) with column cols[-1] replaced
    by scale * column cols[0] plus the columns between: the minor on cols is
    singular."""
    ctx = make_field(2, 4)
    code = GrsCode(ctx, k, tuple(range(2, 14)), np.ones(12, dtype=np.int64))
    gen = code.gen.copy()
    gen[:, cols[-1]] = ctx.vmul(gen[:, cols[0]], np.int64(scale))
    for c in cols[1:-1]:
        gen[:, cols[-1]] = ctx.vadd(gen[:, cols[-1]], gen[:, c])
    code.gen = gen
    return code


@pytest.mark.parametrize(
    "k,cols,scale",
    [(4, (0, 3, 4, 9), 3), (3, (1, 6, 11), 1)],
    ids=["column-right-after-a-pivot", "last-column"],
)
def test_check_mds_finds_the_one_singular_minor(k, cols, scale):
    """A piece keeps the columns after its first pivot: column 4, right
    after the pivot 3 of the prefix (0, 3), is the first column of a piece
    that starts at that pivot, and column 11 is the last column of every
    piece; both must stay in the children that take them."""
    code = _one_dependent_column(k, cols, scale)
    assert _singular_minors(code) == [cols]
    assert minors_by_oracle(code) is False
    assert check_mds(code) is False
    assert check_mds_at_block_one(code) is False


@pytest.mark.parametrize("block", [1 << 10, grscode._MDS_BLOCK])
def test_check_mds_pieces_keep_only_the_columns_after_their_first_pivot(monkeypatch, block):
    """Odd-min (24, 6): each piece takes the next children of its level in
    column order and keeps the node's columns after the piece's first pivot
    c0, so a child's prefix ends at c - c0 - 1.  Its working arrays, r rows
    of n - c0 entries per child, hold at most the block unless the piece is
    one child, and every piece but a level's last would pass the block with
    one more child.  A level whose minors are all nonsingular takes every
    child."""
    code = constructions.build_odd_q_min(make_field(7, 1), 6).code
    walk = grscode._prefix_walk
    open_levels = []  # [n, r, children in column order, children taken] per open call with r > 2

    def checked(ctx, res, last):
        if open_levels:
            n, r, children, taken = open_levels[-1]
            piece = children[taken : taken + res.shape[0]]
            c0 = piece[0][0]
            assert res.shape == (len(piece), r - 1, n - c0 - 1)
            assert last.tolist() == [c - c0 - 1 for c, _ in piece]
            assert len(piece) == 1 or len(piece) * r * (n - c0) <= block
            assert taken + len(piece) == len(children) or (len(piece) + 1) * r * (n - c0) > block
            open_levels[-1][3] += len(piece)
        b, r, n = res.shape
        if r > 2:
            children = sorted((c, i) for i in range(b) for c in range(int(last[i]) + 1, n - r + 1))
            open_levels.append([n, r, children, 0])
        ok = walk(ctx, res, last)
        if r > 2:
            _, _, children, taken = open_levels.pop()
            assert taken == len(children)
        return ok

    monkeypatch.setattr(grscode, "_MDS_BLOCK", block)
    monkeypatch.setattr(grscode, "_prefix_walk", checked)
    assert check_mds(code) is True


def test_check_mds_at_k2_is_one_sort_of_projective_points():
    """RS at q = 32, k = 2: C(1025, 2) = 524800 minors, too many for the
    scalar oracle, so the singular case is checked on its one bad minor."""
    ctx = make_field(2, 5)
    code = oracle.full_length_rs(ctx, 2)
    assert check_mds(code) is True
    assert check_mds_at_block_one(code) is True
    code.gen = code.gen.copy()
    code.gen[:, 700] = ctx.vmul(code.gen[:, 300], np.int64(5))
    assert check_mds(code) is False
    assert check_mds_at_block_one(code) is False
    minor = [[ctx.felt(int(code.gen[r, c])) for c in (300, 700)] for r in range(2)]
    assert not oracle.nonsingular_by_elimination(ctx, minor)


def _singular_in_the_last_minor(code):
    """A copy of the code whose generator entry (k-1, n-1) makes the minor
    on the last k columns, the walk's last leaf, singular."""
    ctx, k = code.ctx, code.k
    doctored = GrsCode(ctx, k, code.support, code.thetas)
    doctored.gen = code.gen.copy()
    for x in range(ctx.q2):
        doctored.gen[k - 1, -1] = x
        minor = [[ctx.felt(int(v)) for v in row[-k:]] for row in doctored.gen]
        if not oracle.nonsingular_by_elimination(ctx, minor):
            return doctored
    raise AssertionError("no value of the entry makes the minor singular")


@pytest.mark.parametrize("family,p,h,k", [("odd-min", 7, 1, 6), ("even-min", 2, 4, 8)])
def test_check_mds_is_the_same_at_every_block_size(family, p, h, k):
    """Odd-min (24,6) and even-min (16,8) split the walk into several
    pieces at the default piece size, which the hypothesis codes (n <= 12)
    never do; at a block of 7 the children of one column fall into pieces
    of their own.  The verdict must not depend on the piece size."""
    build = {"odd-min": constructions.build_odd_q_min, "even-min": constructions.build_even_q_min}[family]
    code = build(make_field(p, h), k).code
    doctored = _singular_in_the_last_minor(code)
    for block in (1, 7, grscode._MDS_BLOCK, 10**6):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grscode, "_MDS_BLOCK", block)
            assert check_mds(code) is True
            assert check_mds(doctored) is False


def test_check_mds_walks_the_last_piece_of_a_level():
    """q = 16, k = 3, support 2..13, last column the sum of the two before
    it: the minor on columns {9, 10, 11} is the only singular one, and it
    lies below the last child of the root.  At a piece size of 64 the
    root's children, pivots 0..9 of a 12-column node, fall into the pieces
    {0}, {1}, {2, 3}, {4, 5}, {6, 7, 8} and {9}, 64 // (3 (12 - c0)) from
    each first pivot c0 on, so a walk that skips a level's last piece
    answers True; at the default size the root is one piece."""
    code = _one_dependent_column(3, (9, 10, 11))
    assert _singular_minors(code) == [(9, 10, 11)]
    assert check_mds(code) is False
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grscode, "_MDS_BLOCK", 64)
        assert check_mds(code) is False


def test_mds_status_raises_on_a_singular_minor(ctx5):
    code = GrsCode(ctx5, 2, (1, 2, 3, 4, 5), np.ones(5, dtype=np.int64))
    assert mds_status(code) == "minors"
    code.gen = code.gen.copy()
    code.gen[:, 3] = ctx5.vmul(code.gen[:, 1], np.int64(7))  # column 3 a multiple of column 1
    with pytest.raises(SelfCheckFailed, match="a k-column minor is singular"):
        mds_status(code)


def _enumeration_tier_cells(mds_cap: int, enum_cap: int) -> list[tuple[int, int, int]]:
    """Every (q, k, n) with q <= 64, 1 <= k <= q+1 and k <= n <= q^2+1 whose
    minors exceed mds_cap while its words stay within enum_cap."""
    def prime_power(q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        while q % p == 0:
            q //= p
        return q == 1

    fields = [q for q in range(2, MAX_Q + 1) if prime_power(q)]
    assert len(fields) == 27
    return [(q, k, n) for q in fields for k in range(1, q + 2) if q ** (2 * k) <= enum_cap
            for n in range(k, q * q + 2) if math.comb(n, k) > mds_cap]


def test_enumeration_tier_is_out_of_reach_at_the_default_caps():
    """mds_status enumerates only past mds_cap minors and within enum_cap
    words; at the default caps no code of any supported field is both."""
    assert _enumeration_tier_cells(grscode.MDS_CAP, grscode.ENUM_CAP) == []
    # a lowered minor cap reaches it, as the probe's --mds-cap 1 does at q = 3
    assert (3, 1, 10) in _enumeration_tier_cells(1, grscode.ENUM_CAP)


def test_check_mds_cap_message(ctx5):
    with pytest.raises(CapExceeded, match=re.escape("C(26,4) = 14950 minors exceed the cap 10")):
        check_mds(oracle.full_length_rs(ctx5, 4), cap=10)


GRAM_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@st.composite
def scaled_truncations(draw):
    """Truncated, column-scaled GRS codes over GF(q^2), q <= 9.

    About one draw in six truncates to a word of P(C), so the code is
    Hermitian self-orthogonal; the others take random supports, half of
    them with the coefficient coordinate, and random thetas, and are
    almost never self-orthogonal.
    """
    ctx = make_field(*draw(st.sampled_from(GRAM_FIELDS)))
    k = draw(st.integers(1, ctx.q + 1))
    if k <= ctx.q and draw(st.integers(0, 5)) == 0:
        basis = u_space_basis(ctx, k)
        coeffs = np.array(draw(st.lists(st.integers(0, ctx.q - 1), min_size=basis.dim, max_size=basis.dim)))
        word = PunctureVector(ctx, linalg.matvec(ctx.fq, basis.matrix.T, coeffs))
        if word.weight() >= k:
            return truncate_scale(k, word)
    n = draw(st.integers(k, min(ctx.q2 + 1, 20)))
    coeff = n > ctx.q2 or draw(st.booleans())
    evals = draw(st.lists(st.integers(1, ctx.q2), min_size=n - coeff, max_size=n - coeff, unique=True))
    support = sorted(evals) + ([ctx.q2 + 1] if coeff else [])
    thetas = draw(st.lists(st.integers(1, ctx.q2 - 1), min_size=n, max_size=n))
    return GrsCode(ctx, k, tuple(support), np.array(thetas, dtype=np.int64))


@given(scaled_truncations())
def test_gram_matches_scalar_oracle_on_random_truncations(code):
    ref = oracle.gram_matrix(code)
    assert hermitian_gram(code).tolist() == [[x.i for x in row] for row in ref]
    assert is_hermitian_self_orthogonal(code) is all(x.is_zero() for row in ref for x in row)


@pytest.mark.parametrize("k", [32, 33])
def test_gram_adds_up_coordinate_blocks(k):
    """At q = 32 and k >= 32, H is built for the 1025 coordinates in two blocks.

    With every theta one, sum_a a^e over GF(q^2) is 1 (that is, -1) for
    e = q^2-1 and 0 for every other e <= (k-1)(q+1), so the Gram is
    e_(q-1,q-1) + e_(k-1,k-1).  Scaling by w the columns at a = w (first
    block) and a = w^(q^2-2) (second block) adds (N(w) - 1) a^(rq+s) for each.
    """
    ctx = make_field(2, 5)
    q, points = ctx.q, (2, ctx.q2 - 1)  # field indices, one less than the coordinates
    thetas = np.ones(ctx.q2 + 1, dtype=np.int64)
    thetas[list(points)] = 2
    gram = hermitian_gram(GrsCode(ctx, k, tuple(range(1, ctx.q2 + 2)), thetas))
    delta = ctx.w ** (q + 1) - ctx.one
    for r in range(k):
        for s in range(k):
            want = ctx.felt(int((r * q + s == ctx.q2 - 1) != (r == s == k - 1)))
            for a in points:
                want = want + delta * ctx.felt(a) ** (r * q + s)
            assert int(gram[r, s]) == want.i, (r, s)


@given(scaled_truncations())
def test_code_record_json_roundtrip(code):
    params = CodeParams.of_self_orthogonal(code) if is_hermitian_self_orthogonal(code) else None
    record = json.loads(json.dumps(code_to_dict(code, params=params, mds="asserted_by_construction")))
    back = code_from_dict(record)
    assert back.support == code.support
    assert np.array_equal(back.thetas, code.thetas)
    assert np.array_equal(back.gen, code.gen)
