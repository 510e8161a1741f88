"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them)
and asserts both the exact expected values and the stated time budget.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager

import pytest

from hermgrs.constructions import (
    build_even_q_min,
    build_example1,
    build_odd_q_min,
    build_qsq_plus_one,
    qsq_valid_scalars,
)
from hermgrs.errors import ValidationRefused
from hermgrs.field import make_field
from hermgrs.grscode import check_mds, is_hermitian_self_orthogonal, min_weight, truncate_scale
from hermgrs.poly import Poly
from hermgrs.puncture import (
    g_form_vector,
    membership,
    min_weight_formula,
    min_weight_pc,
    puncture_direct,
    u_space_basis,
    weight_distribution,
)

from oracle import basis_rows

GRID_PH = [(2, 1), (3, 1), (2, 2), (5, 1)]

_codes_for_criterion_9: list = []


@contextmanager
def criterion(number: int, description: str, limit_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {number}: FAIL ({elapsed:.2f}s) {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s < {limit_s:g}s) {description}")
    assert elapsed < limit_s, f"criterion {number} exceeded its {limit_s}s budget"


def test_criterion_1_dimension_law():
    with criterion(1, "dim P(C) = q^2+1-k^2 and equal row spaces, both methods", 10.0):
        for p, h in GRID_PH:
            ctx = make_field(p, h)
            q = ctx.q
            for k in range(1, q + 1):
                direct = puncture_direct(ctx, k)
                uspace = u_space_basis(ctx, k)
                assert direct.dim == q * q + 1 - k * k
                assert uspace.dim == q * q + 1 - k * k
                assert direct.row_space_equals(uspace)


def test_criterion_2_triple_method_consistency():
    with criterion(2, "100 random (g, c) per cell are members of the direct basis", 30.0):
        rng = random.Random(0)
        for p, h in GRID_PH:
            ctx = make_field(p, h)
            q = ctx.q
            for k in range(1, q + 1):
                basis = puncture_direct(ctx, k)
                bound = (q - k) * q - 1
                for _ in range(100):
                    coeffs = [rng.randrange(ctx.q2) for _ in range(bound + 1)]
                    g = Poly.from_indices(ctx, coeffs) if bound >= 0 else Poly.zero(ctx)
                    c = ctx.felt(int(ctx.fq.idx_of_compact[rng.randrange(q)]))
                    assert membership(basis, g_form_vector(ctx, k, g, c))


def test_criterion_3_minimum_weight_formula():
    with criterion(3, "exhaustive minimum weight of P(C) equals the closed formula", 120.0):
        for p, h in GRID_PH:
            ctx = make_field(p, h)
            q = ctx.q
            for k in range(1, q + 1):
                result = min_weight_pc(ctx, k)
                assert result.mode == "exhaustive", (q, k)
                assert result.weight == min_weight_formula(q, k), (q, k, result.weight)
                assert result.witness is not None
                assert result.witness.weight() == result.weight


def test_criterion_4_no_weight_17_word_at_q4_k3():
    with criterion(4, "all 4^8 words of P(C) at (q,k)=(4,3): no weight-17 word", 1.0):
        ctx = make_field(2, 2)
        counts = weight_distribution(ctx, 3)
        assert int(counts.sum()) == 4**8
        assert int(counts[17]) == 0


def test_criterion_5_constructive_witnesses_q789():
    with criterion(5, "minimum-weight constructions at q in {7,8,9}: exact weights and zero counts", 10.0):
        ctx8 = make_field(2, 3)
        for k in range(4, 8):
            rep = build_even_q_min(ctx8, k)
            assert rep.vector.weight() == 8 * (k + 1 - 4)
            assert rep.zero_count == 8 * (8 - k - 1) + 32
        ctx7 = make_field(7, 1)
        for k in range(4, 7):
            rep = build_odd_q_min(ctx7, k)
            assert rep.vector.weight() == 8 * (k - 3)
            assert rep.zero_count == 25 + (7 - k - 1) * 8
        ctx9 = make_field(3, 2)
        for k in range(5, 9):
            rep = build_odd_q_min(ctx9, k)
            assert rep.vector.weight() == 10 * (k - 4)
            assert rep.zero_count == 41 + (9 - k - 1) * 10


def test_criterion_6_zero_free_polynomial_family():
    with criterion(6, "zero-free h at q in {8,32} for every valid e; q=4 refused", 5.0):
        for p, h in [(2, 3), (2, 5)]:
            ctx = make_field(p, h)
            for e in qsq_valid_scalars(ctx):
                rep = build_qsq_plus_one(ctx, e)
                assert rep.zero_count == 0
                assert rep.code.n == ctx.q2 + 1 and rep.code.k == ctx.q - 1
                assert is_hermitian_self_orthogonal(rep.code)
        with pytest.raises(ValidationRefused):
            build_qsq_plus_one(make_field(2, 2))


def test_criterion_7_example1_pipeline():
    with criterion(7, "[12,4,9]_25 self-orthogonal code and ((12,4,5))_5 parameters", 1.0):
        ctx = make_field(5, 1)
        rep = build_example1(ctx, 4, 3, Poly.one(ctx))
        assert (rep.params.n, rep.params.k, rep.params.d) == (12, 4, 9)
        assert rep.params.alphabet == 25
        assert rep.checks["self_orthogonal"] is True
        assert rep.checks["mds"] == "minors"
        assert rep.params.quantum == (12, 4, 5, 5)
        n, kq, dq, _ = rep.params.quantum
        assert n == kq + 2 * (dq - 1)  # quantum Singleton with equality


def test_criterion_8_gram_vanishes_on_every_basis_truncation():
    with criterion(8, "zero Gram for every basis word of P(C), q <= 5, k <= q-1", 60.0):
        _codes_for_criterion_9.clear()
        for p, h in GRID_PH:
            ctx = make_field(p, h)
            q = ctx.q
            for k in range(1, q):
                for lam in basis_rows(puncture_direct(ctx, k)):
                    assert lam.weight() >= 2 * k
                    code = truncate_scale(k, lam)
                    assert is_hermitian_self_orthogonal(code)
                    _codes_for_criterion_9.append(code)


def test_criterion_9_mds_on_certified_codes():
    with criterion(9, "MDS minors and enumerated distance on criterion-8 codes", 300.0):
        assert _codes_for_criterion_9, "criterion 8 must run first"
        for code in _codes_for_criterion_9:
            n, k = code.n, code.k
            if math.comb(n, k) <= 10**6:
                assert check_mds(code)
            if code.ctx.q2**k <= 10**6:
                assert min_weight(code) == n - k + 1
