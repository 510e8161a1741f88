"""GF(q) matrix machinery on compact labels, plus the row-space enumerator.

Matrices are numpy uint8 arrays of compact GF(q) labels, which are
additive codes (see ``field.SubfieldTables``): adding a multiple of a pivot
row is one gather from the q precomputed multiples of that row plus one
addition (XOR for p = 2, a uint8 add and a conditional subtract for q = p,
and one table gather for the other q).  A sum of many labels, as in
``matvec``, is one ``field.code_sum``: digitwise mod p, an XOR at p = 2.
No path does per-element Python arithmetic.

``_span_blocks`` is the one full row-space enumerator: given the scalar
multiples of each row, an addition and a negation, it meets in the middle
over any alphabet and yields the weights of the words block by block.
A word and its nonzero scalar multiples weigh the same, so both
enumerators compare one word per scalar orbit (of the Q - 1 nonzero
multiples, over an alphabet of Q scalars) and count the others.
Two results read it: ``span_weights`` adds each block into the weight
histogram, which only the weight distribution uses, and
``span_min_weight`` keeps each block's first lightest nonzero word, for
the full-enumeration branch of the minimum-weight search on GF(q) rows
and for ``grscode.min_weight`` on GF(q^2) generator rows with the field's
pair-sum and negation tables (``FieldCtx.vadd``, ``FieldCtx.vneg``).

The certified minimum-weight search enumerates row combinations of an RREF
basis by the number of nonzero combination coefficients ("level" j).  A
codeword built from exactly j rows has exactly j nonzero entries on the
pivot columns, hence weight >= j; therefore scanning levels 1..w-1 in full
certifies that a found weight w is the true minimum.  The same fact makes
a word's weight j plus its weight on the n - m non-pivot columns, so
every level, level 1 included, looks at those columns only.  Subsets
whose rows have at least ``best`` columns touched by exactly one row
(their j pivots among them) are skipped: such columns cannot cancel, so
no combination from the subset can beat ``best``.  Inside a subset the
coefficients are split in two halves A (the first j // 2 rows) and B,
and only the coefficient vectors whose first coordinate is label 1 are
compared, one per orbit.  Each level is built from the one before, one
step per level (``_next_level``): the j-subsets extend the (j-1)-subsets
in lexicographic order and are held by their ranks, each with its last
row and the ranks of the subset less its last row (its prefix) and less
its first row on the level before.  A subset's count of rows on each
non-pivot column, from which its lonely columns are read, is its
prefix's count plus its last row.  Every combination of every t-subset
of rows, on the non-pivot columns, is one table per half size t, built
the first time a level reads it: the table of t - 1 taken at the
prefixes, plus the q - 1 multiples of the last row (``_extend_table``;
the negated table once more for the A halves).  A chunk of subsets reads
each half with one ``take`` at the ranks of its subsets' halves, half A
j - j1 prefix steps and half B j1 first-row drops down, from the prefix
of the coefficient axis that label 1 opens in the half holding the first
coordinate.

Both enumerators weigh a word a + b without forming it: a + b is zero
exactly where b == -a, so its weight is the number of columns where b
differs from -a, and they compare only the columns where such a sum can
cancel.  Only the word returned as the witness is added up, at full width.
Every enumeration runs on the calling thread, one block after another.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded
from .field import SubfieldTables, code_sum

_BLOCK = 1 << 15
SCAN_CAP = 10**8  # projected words (``projected_work``) past which min_weight_scan refuses
DISTRIBUTION_CAP = 10**7  # words past which weight_distribution refuses


def _code_adder(fq: SubfieldTables):
    """In-place sum dst += src of two uint8 arrays of labels."""
    if fq.p == 2:

        def add_xor(dst: np.ndarray, src: np.ndarray) -> None:
            np.bitwise_xor(dst, src, out=dst)

        return add_xor
    if fq.h == 1:
        p = np.uint8(fq.p)

        def add_mod_p(dst: np.ndarray, src: np.ndarray) -> None:
            np.add(dst, src, out=dst)  # < 2p <= 122, no overflow
            np.minimum(dst, dst - p, out=dst)  # dst - p wraps around when dst < p

        return add_mod_p
    # one gather from the flattened table; a uint16 index is the fastest take
    flat, q = fq.add.ravel(), np.uint16(fq.q)

    def add_table(dst: np.ndarray, src: np.ndarray) -> None:
        dst[...] = flat.take(dst.astype(np.uint16) * q + src)

    return add_table


def rref(fq: SubfieldTables, mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form over GF(q).

    Returns (nonzero rows, pivot column indices); the input is not modified.
    Row r is zero left of its pivot column c when c is reached, so only
    columns c.. are updated.  Every row takes its multiple of the pivot row
    in place, the pivot row itself and the rows with a zero in column c
    adding the zero multiple: this is cheaper than gathering and scattering
    just the rows the pivot touches.
    """
    A = np.array(mat, dtype=np.uint8)  # a copy
    if A.ndim != 2:
        raise ValueError("rref expects a 2-D matrix")
    rows, cols = A.shape
    add = _code_adder(fq)
    MUL, NEG, INV = fq.mul, fq.neg, fq.inv
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        row = MUL[INV[A[r, c]], A[r, c:]]
        A[r, c:] = row
        coef = A[:, c].copy()
        coef[r] = 0
        if coef.any():
            multiples = MUL[NEG[:, None], row[None, :]]  # multiples[a] = -a * row
            add(A[:, c:], multiples[coef])
        pivots.append(c)
        r += 1
    return A[:r], tuple(pivots)


def kernel_basis(fq: SubfieldTables, mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """RREF basis of the right null space {x : mat @ x = 0} over GF(q).

    Returns (basis rows, pivot column indices), as ``rref`` does.  One
    elimination of the reversed columns, whose pivots are the last columns
    that span: the kernel vector e_f - sum_i R[i, f] e_(pivot i) of any
    other column f is nonzero only at f and at pivots right of f, so these
    vectors, by increasing f, are the kernel's RREF already, and the free
    columns f are its pivots.
    """
    R, reversed_pivots = rref(fq, np.asarray(mat)[..., ::-1])
    cols = R.shape[1]
    R = R[:, ::-1]
    pivots = [cols - 1 - c for c in reversed_pivots]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, cols), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = fq.neg[R[:, free]].T
    return basis, tuple(free.tolist())


def matvec(fq: SubfieldTables, M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The product M v over GF(q), for one v or a (B, cols) stack of them, whose
    products come back as (B, rows): each product one take from the flattened
    ``mul`` table, at v_j * q + M_ij, and the products of a row added up by
    one ``code_sum``."""
    products = fq.mul.ravel().take(M + v[..., None, :].astype(np.uint16) * np.uint16(fq.q))
    return code_sum(fq.p, fq.h, products, axis=-1)


# products per block of ``in_row_space``: about 1 MB of uint8 labels
_MEMBER_BLOCK = 1 << 20


def row_space_test(fq: SubfieldTables, R: np.ndarray, pivots: tuple[int, ...]):
    """The membership test of the row space of the RREF rows R with these
    pivot columns: a function that answers a (B, n) stack of vectors with a
    bool array of shape (B,).

    R must be the identity on its pivot columns, as an RREF is; that is
    checked here, once for every stack the test answers, and any other R
    is refused with a ValueError, so the shortcut below is as strong as the
    full product.  The one combination of R's rows that can equal v is
    sum_i v[pivots[i]] R_i, which equals v on the pivot columns by
    construction: v is in the row space exactly when R^T v[pivots] is v on
    the other columns, the n - dim free ones (k^2 for P(C)).  Only those
    are formed, in blocks of vectors of about 2^20 products.
    """
    piv = np.asarray(pivots, dtype=np.intp)
    free = np.ones(R.shape[1], dtype=bool)
    free[piv] = False
    R_free = R[:, free]
    # distinct pivots, one a row, whose columns hold only the diagonal's ones
    if (R.shape[0] != piv.size or R_free.shape[1] != R.shape[1] - piv.size
            or np.count_nonzero(R) - np.count_nonzero(R_free) != piv.size
            or np.count_nonzero(R[np.arange(piv.size), piv] == 1) != piv.size):
        raise ValueError("R is not the identity on its pivot columns")
    R_free_t = R_free.T
    step = max(1, _MEMBER_BLOCK // max(1, R_free.size))

    def test(stack: np.ndarray) -> np.ndarray:
        out = np.empty(len(stack), dtype=bool)
        for lo in range(0, len(stack), step):
            block = stack[lo : lo + step]
            out[lo : lo + step] = (matvec(fq, R_free_t, block[:, piv]) == block[:, free]).all(axis=1)
        return out

    return test


def in_row_space(fq: SubfieldTables, R: np.ndarray, pivots: tuple[int, ...], v: np.ndarray):
    """Whether v lies in the row space of the RREF rows R with these pivot
    columns, by ``row_space_test`` (a ValueError for an R that is not the
    identity on its pivot columns).

    v is one vector, answered by a bool, or a (B, n) stack of them,
    answered by a bool array of shape (B,).
    """
    vs = np.asarray(v, dtype=np.uint8)
    out = row_space_test(fq, R, pivots)(vs if vs.ndim == 2 else vs[None])
    return out if vs.ndim == 2 else bool(out[0])


@dataclass
class ScanResult:
    """Outcome of a certified minimum-weight search."""

    admitted: bool  # False when the projected work exceeded the cap
    weight: int | None
    witness: np.ndarray | None
    scanned: int  # words covered: (q-1) per word compared, one compared per scalar orbit


def _coeff_block(q: int, j: int) -> np.ndarray:
    """The (q-1)^j nonzero-coefficient vectors of length j, last coordinate fastest."""
    ints = np.arange((q - 1) ** j, dtype=np.int64)
    out = np.empty((len(ints), j), dtype=np.uint8)
    base = q - 1
    for t in range(j - 1, -1, -1):
        ints, rem = np.divmod(ints, base)
        out[:, t] = rem + 1
    return out


class _Level(NamedTuple):
    """Level t of the scan: the t-subsets of the rows of an m-row basis, in
    lexicographic order, held by their ranks; level 0 is the one empty
    subset."""

    last: np.ndarray  # (S,) each subset's last row; -1 on level 0
    parent: np.ndarray | None  # (S,) rank on level t - 1 of the subset less its last row
    drop: np.ndarray | None  # (S,) rank on level t - 1 of the subset less its first row
    base: np.ndarray | None  # (S of level t - 1,) its subset p extended by row x has rank base[p] + x


_LEVEL_0 = _Level(np.full(1, -1, dtype=np.int64), None, None, None)


def _next_level(level: _Level, m: int) -> _Level:
    """Level t + 1 from level t.

    Every t-subset p is extended by each larger row x, in order (a subset
    ending at row m - 1 has no extension), so the extensions of p are a
    run and p + x has rank base[p] + x.  Less its first row, p + x is
    p less its first row, extended by x.
    """
    reps = m - 1 - level.last
    parent = np.repeat(np.arange(len(reps)), reps)
    base = np.cumsum(reps) - reps - level.last - 1
    last = np.arange(len(parent)) - np.repeat(base, reps)
    if level.drop is None:  # each 1-subset less its row is the empty subset
        drop = np.zeros(len(last), dtype=np.int64)
    else:
        drop = level.base.take(level.drop.take(parent)) + last
    return _Level(last, parent, drop, base)


def _extend_table(add, table: np.ndarray, parent: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The combinations of the t-subsets from those of their (t-1)-prefixes.

    ``table`` is (N, S', C'): every combination of every (t-1)-subset, and
    ``last`` is (N, S, q - 1): the nonzero multiples of each t-subset's
    last row, in label order.  Each t-subset's combinations are its
    prefix's (row ``parent`` of ``table``) plus each multiple of its last
    row, the last coefficient fastest, so the result is (N, S, C' (q - 1)).
    Both operands are laid out in full first: an add that broadcasts
    over an axis of q - 1 entries is several times slower.
    """
    out = table.take(parent, axis=1).repeat(last.shape[2], axis=2)
    add(out, np.tile(last, (1, 1, table.shape[2])))
    return out


def _span(add, multiples: np.ndarray) -> np.ndarray:
    """All words of the span of the given rows, coefficient-major (last row slowest)."""
    out = np.zeros((1, multiples.shape[2]), dtype=multiples.dtype)
    for mult in multiples:
        out = add(mult[:, None, :], out[None, :, :]).reshape(-1, out.shape[1])
    return out


def _count_differences(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Entries x != y summed over the first axis of the broadcast pair.

    The first axis runs over the columns, so the count adds whole slices,
    in the narrowest unsigned type that holds the column count.
    """
    return np.add.reduce((x != y).view(np.uint8), axis=0, dtype=np.min_scalar_type(len(x)))


def _orbit_span(add, multiples: np.ndarray) -> np.ndarray:
    """One word per scalar orbit of the span of the given rows, in the order of ``_span``.

    These are the zero word and the words whose last nonzero coefficient
    is scalar 1 (``multiples[:, 1]``): the index ranges [Q^r, 2 Q^r) of
    ``_span``, for each row r, Q = ``multiples.shape[1]``.  Range r is the
    span of rows 0..r-1, which is the first Q^r words of the span of all
    rows but the last, plus scalar 1 times row r.
    """
    zero = np.zeros((1, multiples.shape[2]), dtype=multiples.dtype)
    Q = multiples.shape[1]
    head = _span(add, multiples[:-1])
    ranges = [add(mult[1][None, :], head[: Q**r]) for r, mult in enumerate(multiples)]
    return np.concatenate([zero] + ranges)


def _span_blocks(add, neg, multiples: np.ndarray):
    """The weights of one word per scalar orbit of a row space, one block at a time.

    ``multiples[r, c]`` is the c-th scalar multiple of row r, for every
    scalar of the alphabet: c = 0 the zero multiple, c >= 1 the Q - 1
    nonzero scalars, each once (Q = ``multiples.shape[1]``).  ``add`` adds
    two broadcast arrays of entries and ``neg`` negates one.  The words are
    the sums a + b of a word of the span A of the first m//2 rows and one
    of the span B of the others, visited B-major in one pass, one block of
    about ``_BLOCK`` words at a time.

    A word and its Q - 2 other nonzero multiples weigh the same, so half B
    keeps only its zero word and the words whose last nonzero coefficient
    is scalar 1 (``_orbit_span``).  Scaling a pair (a, b) with b nonzero by
    the Q - 1 nonzero scalars gives exactly one pair whose b is kept, and
    that b comes first among them in ``_span``'s order; the pairs with
    b = 0 are all kept.  So the visited words are 1 + (Q^m' - 1)/(Q - 1)
    per word of A, m' = m - m//2, and the first lightest nonzero word of
    the whole span, in B-major order, is visited.  This holds for any rows,
    dependent ones included, as the orbits are of coefficient vectors.

    A word's weight is the number of columns where b != -a, so no word is
    added up here.  Only the columns where both halves have a nonzero row
    are compared: on the others a + b is a or b, so a's weight on the
    columns B never touches and b's on the columns A never touches are
    counted once per half word.  On an RREF basis this drops at least the
    pivot columns.

    Returns (blocks, word): ``blocks`` yields, in visiting order, the index
    of a block's first word and the block's weights, a fresh flat array in
    the narrowest unsigned type that holds the column count; the first
    |A| words are those of A, b = 0.  ``word(i)`` is the i-th word visited.
    """
    m, _, n = multiples.shape
    A = _span(add, multiples[: m // 2])
    B = _orbit_span(add, multiples[m // 2 :])
    block = max(1, _BLOCK // len(A))
    in_a, in_b = A.any(axis=0), B.any(axis=0)
    shared = in_a & in_b
    # a column only one half touches adds that half's entry weight
    wide = np.min_scalar_type(n)
    own_a = np.count_nonzero(A[:, ~in_b], axis=1).astype(wide)
    own_b = np.count_nonzero(B[:, ~in_a], axis=1).astype(wide)
    neg_a = np.ascontiguousarray(neg(A[:, shared]).T)  # (shared, |A|)
    b_cols = np.ascontiguousarray(B[:, shared].T)  # (shared, |B|)

    def blocks():
        for lo in range(0, len(B), block):
            wts = _count_differences(b_cols[:, lo : lo + block, None], neg_a[:, None, :])
            wts = wts.astype(wide, copy=False)  # the shared columns alone may fit a narrower type
            wts += own_b[lo : lo + block, None]
            wts += own_a
            yield lo * len(A), wts.ravel()

    def word(at: int) -> np.ndarray:
        bi, ai = divmod(at, len(A))
        return add(B[bi], A[ai])

    return blocks(), word


def span_weights(add, neg, multiples: np.ndarray) -> np.ndarray:
    """Weight histogram of a row space, by the enumeration of ``_span_blocks``.

    Returns the counts indexed by weight, the zero word at index 0.  The
    words visited are the |A| words a + 0 and one pair per scalar orbit of
    the pairs with b nonzero, so with Q scalars the counts are
    (Q - 1) hist(visited) - (Q - 2) hist(A words): exact for any rows.
    """
    m, Q, n = multiples.shape
    blocks, _ = _span_blocks(add, neg, multiples)
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo, wts in blocks:
        if not lo:  # the first block opens with the Q^(m//2) words of A
            counts_a = np.bincount(wts[: Q ** (m // 2)], minlength=n + 1)
        counts += np.bincount(wts, minlength=n + 1)
    return (Q - 1) * counts - (Q - 2) * counts_a


def span_min_weight(add, neg, multiples: np.ndarray) -> tuple[int | None, np.ndarray | None]:
    """Minimum nonzero weight of a row space and the first word of that
    weight in the visiting order of ``_span_blocks``; (None, None) when no
    word is nonzero.  That word is the first lightest nonzero word of the
    whole span in B-major order: of each orbit of pairs (a, b) with b
    nonzero, the one ``_span_blocks`` visits comes first.

    Each block gives its first lightest word by one ``argmin``.  A zero
    word can sit anywhere when the rows are dependent, so the weights are
    taken less one in their unsigned type: a zero word wraps to the
    largest value, which is at least the column count n, and no block
    whose words are all zero beats the start value n.
    """
    blocks, word = _span_blocks(add, neg, multiples)
    best, at = multiples.shape[2], 0  # weight - 1 of the lightest nonzero word so far
    for lo, wts in blocks:
        wts -= 1
        i = int(wts.argmin())
        if wts[i] < best:
            best, at = int(wts[i]), lo + i
    if best == multiples.shape[2]:
        return None, None
    return best + 1, word(at)


def _label_span(fq: SubfieldTables, rows: np.ndarray):
    """The ``add``, ``neg`` and ``multiples`` of GF(q) rows of compact labels
    for the span enumerators, scalars in label order."""
    add_into = _code_adder(fq)

    def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.broadcast_to(a, np.broadcast_shapes(a.shape, b.shape)).copy()
        add_into(out, b)
        return out

    multiples = fq.mul[rows.T].transpose(1, 2, 0)  # (m, q, n): [r, c] is label c times row r
    return add, fq.neg.take, multiples


def projected_work(q: int, m: int, depth: int, cap: int) -> int:
    """Unpruned words on levels 1..depth of an m-row basis over GF(q).

    That is sum_j C(m, j) (q-1)^j, the scan's admission measure; the sum
    stops once it passes ``cap``, so it is exact whenever it is at most
    ``cap``.
    """
    projected = 0
    for j in range(1, depth + 1):
        projected += math.comb(m, j) * (q - 1) ** j
        if projected > cap:
            break
    return projected


def min_weight_scan(
    fq: SubfieldTables,
    basis: np.ndarray,
    cap: int = SCAN_CAP,
    upper: tuple[int, np.ndarray] | None = None,
) -> ScanResult:
    """Certified minimum nonzero weight of the row space of an RREF basis.

    When ``admitted=True`` the answer is exact: every level up to
    (final weight - 1) was covered, either by scanning or by the sound
    single-row-column skip, and words on deeper levels weigh at least their
    level.  A level-j word weighs j plus its weight on the non-pivot
    columns, the only columns the levels compare.  ``upper`` may supply
    a verified (weight, word) pair from a constructive existence result; it
    caps the certification depth but is never trusted for the lower bound.

    Admission is decided upfront from the projected unpruned work for the
    needed levels; past ``cap`` the search refuses without scanning so the
    caller can fall back to a constructive answer.

    A word and its q - 2 other nonzero multiples weigh the same, so a
    level compares only the coefficient vectors whose first coordinate is
    label 1: the first (q-1)^(t-1) combinations of the table half that
    holds that coordinate.  Inside a subset the first coordinate is the
    slowest, so of each orbit this vector comes first, and the first
    lightest word, the witness, is one of them.  ``scanned`` counts the
    words covered, q - 1 per word compared.

    Level j is derived from level j - 1 (``_next_level``): its subsets in
    lexicographic order, each with the ranks of the subset less its last
    row and less its first row, which lead to the ranks of its halves;
    each subset's count of rows on every non-pivot column, the prefix's
    count plus the last row, whose ones are the lonely columns; and, once
    a level reads it, the half table of j rows, that of j - 1 rows at the
    prefixes plus the q - 1 multiples of the last row.  Every level is
    kept for the rest of the call, the counts of the last level only.

    The subsets that can still beat the best weight are recounted once per
    wave of 8 groups, from the best weight as the wave starts, a group
    being max(1, ``_BLOCK`` // (q-1)^j) subsets, the words of all their
    coefficient vectors.  Which subsets are scanned, and so ``scanned``,
    depends only on this fixed cadence, so it is part of the result.
    Inside a wave the subsets are compared in chunks of about ``_BLOCK``
    compared words.

    Raises ValueError, unless it refuses, when the basis is not the
    identity on its pivot columns (the first nonzero column of each row):
    the level bound rests on it.
    """
    m, n = basis.shape
    if m == 0:
        return ScanResult(True, None, None, 0)
    best_w, best_vec = n + 1, None
    if upper is not None:
        best_w, best_vec = upper[0], np.array(upper[1], dtype=np.uint8, copy=True)
    depth = m if upper is None else min(m, best_w - 1)
    projected = projected_work(fq.q, m, depth, cap)
    if projected > cap:
        return ScanResult(False, None if upper is None else best_w, best_vec, 0)
    nonzero = basis != 0
    pivots = nonzero.argmax(axis=1)
    # each row is 1 at its pivot (a zero row has 0 at column 0) and alone in its column
    on_pivot = basis[np.arange(m), pivots] == 1
    if not (on_pivot.all() and (np.count_nonzero(nonzero, axis=0)[pivots] == 1).all()):
        raise ValueError("min_weight_scan needs a basis that is the identity on its pivot columns")
    full = fq.q**m
    if full <= cap and full <= 2 * projected:
        w, vec = span_min_weight(*_label_span(fq, basis))
        if w < best_w:
            best_w, best_vec = w, vec
        return ScanResult(True, best_w, best_vec, full - 1)

    q, qm1 = fq.q, fq.q - 1
    add = _code_adder(fq)
    # a word of level j weighs j on the pivots, so only the other columns are compared
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    touched = nonzero.T[free].view(np.uint8)  # (n - m, m)
    mult = fq.mul[basis[:, free].T]  # (n - m, m, q): [:, r, c] is label c times row r
    levels = [_LEVEL_0]

    @functools.cache
    def table(t: int) -> np.ndarray:
        """(n - m, C(m, t), (q-1)^t): every combination of every t-subset of
        rows, subsets by lexicographic rank and coefficients in the order of
        ``_coeff_block``; t = 0 is the zero word."""
        if not t:
            return np.zeros((len(mult), 1, 1), dtype=np.uint8)
        level = levels[t]
        return _extend_table(add, table(t - 1), level.parent, mult.take(level.last, axis=1)[:, :, 1:])

    @functools.cache
    def neg_table(t: int) -> np.ndarray:
        """``table(t)`` negated, for the A halves: for t >= 1 only the
        coefficient vectors whose first coordinate is label 1, the first
        (q-1)^(t-1)."""
        return fq.neg[table(t)[:, :, : qm1 ** max(t - 1, 0)]]

    wave = 8  # groups per recount of the subsets still worth scanning
    scanned = 0
    # per subset of the level before, how many of its rows touch each
    # non-pivot column: at most the level
    counts = np.zeros((n - m, 1), dtype=np.min_scalar_type(depth))
    for j in range(1, depth + 1):
        if j >= best_w:
            break
        level = _next_level(levels[-1], m)
        levels.append(level)
        counts = counts.take(level.parent, axis=1)
        counts += touched.take(level.last, axis=1)
        # columns touched by exactly one subset row cannot cancel, so they
        # lower-bound every weight the subset can produce: its j pivots and
        # the lonely non-pivot columns; held in the narrowest type that holds
        # n + 1, which the stable argsort ranks fastest
        lonely = np.add.reduce(counts == 1, axis=0, dtype=np.min_scalar_type(n + 1))
        lonely += j
        order = np.argsort(lonely, kind="stable")
        # meet in the middle inside the subset: halve the coefficient space,
        # the first j1 rows of the subset in half A and the others in half B
        j1 = j // 2
        ca, cb = qm1**j1, qm1 ** (j - j1)
        group = max(1, _BLOCK // (ca * cb))
        # one coefficient vector per scalar orbit, the one whose first
        # coordinate is label 1: a prefix of the half holding that coordinate
        if j1:
            ca //= qm1
        else:
            cb //= qm1
        chunk = max(1, _BLOCK // (ca * cb))
        # order ranks subsets by lonely, so those that can still beat best_w
        # are a prefix of it
        ranked = lonely[order]
        # half A, the subset less its last j - j1 rows, and half B, the
        # subset less its first j1 rows, by their ranks j - j1 and j1 levels down
        rank_a = rank_b = np.arange(len(level.last))
        for down in levels[j:j1:-1]:
            rank_a = down.parent.take(rank_a)
        for down in levels[j : j - j1 : -1]:
            rank_b = down.drop.take(rank_b)
        # the subsets that can still beat best_w, as of the last word that lowered it
        worth = int(np.searchsorted(ranked, best_w))
        for lo in range(0, len(order), wave * group):
            end = min(lo + wave * group, worth)
            if lo >= end:
                break
            for at in range(lo, end, chunk):
                chosen = order[at : min(at + chunk, end)]
                # a table is built by the first chunk that reads it
                neg_a = neg_table(j1).take(rank_a[chosen], axis=1)  # (n - m, S, ca)
                part_b = table(j - j1)[:, :, :cb].take(rank_b[chosen], axis=1)  # (n - m, S, cb)
                # a + b is zero exactly where b == -a
                wts = _count_differences(neg_a[:, :, :, None], part_b[:, :, None, :])
                scanned += qm1 * wts.size
                flat = int(wts.argmin())
                w = j + int(wts.reshape(-1)[flat])
                if w < best_w:  # the full-width word sum_t coeffs[t] * basis[rows[t]]
                    s, a, b = np.unravel_index(flat, wts.shape)
                    rows, r = [], chosen[s]
                    for down in levels[j:0:-1]:
                        rows.append(down.last[r])
                        r = down.parent[r]
                    rows.reverse()
                    coeffs = np.concatenate([_coeff_block(q, j1)[a], _coeff_block(q, j - j1)[b]])
                    best_w, best_vec = w, code_sum(fq.p, fq.h, fq.mul[coeffs[:, None], basis[rows]])
                    worth = int(np.searchsorted(ranked, best_w))
    return ScanResult(True, best_w, best_vec, scanned)


def weight_distribution(fq: SubfieldTables, basis: np.ndarray, cap: int = DISTRIBUTION_CAP) -> np.ndarray:
    """Weight enumerator of the row space by full enumeration.

    Returns counts indexed by weight (the zero word included at index 0).
    Refuses when the row space holds more than ``cap`` words.
    """
    m = basis.shape[0]
    total = fq.q**m
    if total > cap:
        raise CapExceeded(f"row space has q^{m} = {total} words, above the cap {cap}")
    return span_weights(*_label_span(fq, basis))
