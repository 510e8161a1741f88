"""Generalised Reed-Solomon codes over GF(q^2) and their verification.

The full-length code has q^2+1 coordinates: evaluations of every polynomial
of degree <= k-1 at all field elements, plus one coordinate carrying the
coefficient of X^(k-1).  Truncation and column scaling are driven by
puncture vectors; Hermitian self-orthogonality is certified by the k x k
Gram matrix H N(theta) of the scaled Hermitian form on the monomial basis
(H: P(C)'s parity check), which by sesquilinearity covers all codeword pairs.

MDS-ness (d = n-k+1) is checked on every k-column minor by one elimination
along the lexicographic tree of column subsets (``check_mds``): minors that
share a prefix share its work, and a node with three rows left builds its
children's two rows and closes all the minors below them in one step, by
one sort of projective points per child.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapExceeded, MalformedInput, SelfCheckFailed, ValidationRefused
from .field import FieldCtx, _integers, make_field
from .puncture import PunctureVector, power_sums

MDS_CAP = 10**6  # k-column minors past which check_mds refuses
ENUM_CAP = 10**6  # words past which min_weight refuses to enumerate the row space
# entries per working array of the MDS minor walk (see check_mds)
_MDS_BLOCK = 1 << 14


@dataclass(frozen=True)
class CodeParams:
    """Classical and derived quantum parameters of a verified code."""

    n: int
    k: int
    d: int
    alphabet: int  # q^2
    quantum: tuple[int, int, int, int]  # ((n, n-2k, k+1))_q

    def __post_init__(self) -> None:
        if self.k > self.n - self.d + 1:
            raise ValidationRefused(f"Singleton bound violated: k={self.k} > n-d+1={self.n - self.d + 1}")
        nq, kq, dq, _ = self.quantum
        if nq < kq + 2 * (dq - 1):
            raise ValidationRefused("quantum Singleton bound violated")

    @classmethod
    def of_self_orthogonal(cls, code: GrsCode) -> CodeParams:
        """Parameters of a code whose Hermitian Gram matrix is already known to vanish.

        The quantum code is ((n, n-2k, k+1))_q.  Its distance is the MDS value
        k+1 of the Hermitian dual; it can in principle be larger (coset
        minimum weights are not computed).
        """
        n, k, q = code.n, code.k, code.ctx.q
        if n < 2 * k:
            raise ValidationRefused(f"self-orthogonal parameters need n >= 2k; got n={n}, k={k}")
        return cls(n=n, k=k, d=n - k + 1, alphabet=code.ctx.q2, quantum=(n, n - 2 * k, k + 1, q))


class GrsCode:
    """A (possibly truncated, column-scaled) GRS code with its generator.

    ``support`` lists the surviving 1-based integer coordinates (q^2+1 denotes the
    coefficient coordinate); ``thetas`` holds the column scalings, indices
    in 1..q^2-1.  Only this constructor checks k, n >= k, support and thetas.
    Row r of the generator is theta_i * a_i^r on evaluation coordinates and
    (0, ..., 0, theta) on the coefficient coordinate (nonzero only at
    r = k-1).
    """

    def __init__(self, ctx: FieldCtx, k: int, support: tuple[int, ...], thetas: np.ndarray):
        q2 = ctx.q2
        if not 1 <= k <= ctx.q + 1:
            raise ValidationRefused(f"k={k} out of range 1..q+1={ctx.q + 1}")
        coords = _integers(support, "a support coordinate")
        if coords.ndim != 1:
            raise ValidationRefused(f"support must be one list of coordinates, got shape {coords.shape}")
        if coords.size < k:
            raise ValidationRefused(f"length n={coords.size} is below the dimension k={k}")
        # the range check comes before the int64 cast, which would overflow at 2^63
        if coords.min() < 1 or coords.max() > q2 + 1 or (np.diff(coords.astype(np.int64)) <= 0).any():
            raise ValidationRefused("support must be strictly increasing 1-based coordinates")
        support = tuple(coords.astype(np.int64).tolist())
        thetas = ctx.indices(thetas)
        if thetas.shape != (coords.size,) or np.any(thetas == 0):
            raise ValidationRefused("one nonzero theta per support coordinate is required")
        self.ctx = ctx
        self.k = k
        self.support = support
        self.thetas = thetas

    @functools.cached_property
    def gen(self) -> np.ndarray:
        """The k x n generator, built when a check first reads it."""
        ctx, k = self.ctx, self.k
        has_coeff = self.has_coeff_coord
        n_eval = len(self.support) - (1 if has_coeff else 0)
        pts = np.array([i - 1 for i in self.support[:n_eval]], dtype=np.int64)
        gen = np.zeros((k, len(self.support)), dtype=np.int64)
        gen[:, :n_eval] = ctx.vmul(self.thetas[:n_eval], ctx.vpow(pts, np.arange(k)[:, None]))
        if has_coeff:
            gen[k - 1, -1] = self.thetas[-1]
        return gen

    @property
    def n(self) -> int:
        return len(self.support)

    @property
    def has_coeff_coord(self) -> bool:
        return bool(self.support) and self.support[-1] == self.ctx.q2 + 1

    def __repr__(self) -> str:
        return f"GrsCode(q^2={self.ctx.q2}, n={self.n}, k={self.k})"


def truncate_scale(k: int, lam: PunctureVector) -> GrsCode:
    """The dimension-k code on the support of lam, scaling column i by a
    solution of theta^(q+1) = lam_i.

    Any norm solution gives a monomially equivalent code; the minimal
    discrete log is used for reproducibility.
    """
    ctx = lam.ctx
    thetas = ctx.vnorm_root(ctx.fq.idx_of_compact[lam.v[lam.v != 0]])
    return GrsCode(ctx, k, lam.support(), thetas)


def hermitian_gram(code: GrsCode) -> np.ndarray:
    """k x k matrix of the scaled Hermitian form on the monomial basis.

    Entry (r, s) is sum_i theta_i^(q+1) (a_i^r)^q a_i^s over evaluation
    coordinates, plus theta^(q+1) of the coefficient coordinate when
    r = s = k-1: the power sums of N(theta) (``puncture.power_sums``), read
    off the k^2 rows of H N(theta) for r <= s, with entry (s, r) the
    conjugate of entry (r, s).  The code is Hermitian self-orthogonal iff
    N(theta) lies in P(C).
    """
    ctx = code.ctx
    return power_sums(ctx, code.k, code.support, ctx.fq.compact_of_idx[ctx.vnorm(code.thetas)])


def is_hermitian_self_orthogonal(code: GrsCode) -> bool:
    return not hermitian_gram(code).any()


def _top_code(ctx: FieldCtx, x: np.ndarray) -> np.ndarray:
    """The top-row code of entries x (element indices, log x = x - 1 for a
    unit): 2(q^2-1) - 1 - log x, or 0 for x = 0 (see ``_walk_tables``)."""
    return np.where(x == 0, 0, 2 * ctx.n_units - x)


def _bottom_code(ctx: FieldCtx, x: np.ndarray) -> np.ndarray:
    """The code of bottom-row entries x: log x, or 3(q^2-1) for x = 0."""
    return np.where(x == 0, 3 * ctx.n_units, x - 1)


@dataclass(frozen=True)
class _WalkTables:
    """The tables of the MDS minor walk for one field, each read once per entry.

    The entries of three-row residuals are read as logs (``FieldCtx._log``)
    and as additive codes: the polynomial-basis integer at p = 2, where
    codes add by XOR, and the spread code (``FieldCtx._spread``) at odd p,
    where they add without carry; ``combine`` adds two codes.  The two
    rows that ``_distinct_points`` closes are read as the codes of
    ``_top_code`` and ``_bottom_code``, whose sum indexes ``keys``.
    """

    combine: np.ufunc
    code: np.ndarray  # element index -> code
    product: np.ndarray  # log a + log b -> the code of ab
    log_product: np.ndarray  # log a + log b -> log ab
    scale: np.ndarray  # log a -> log(-1/a), for a unit
    top_of_sum: np.ndarray  # a sum of two codes -> the top code of the sum
    bottom_of_sum: np.ndarray  # a sum of two codes -> the bottom code of the sum
    keys: np.ndarray  # top code + bottom code -> the key of the column, int32 for the sort


@functools.cache
def _walk_tables(ctx: FieldCtx) -> _WalkTables:
    """The walk's tables, built on the first walk over the field.

    The key of a column [a : b] is the index of b/a for units, 0 when
    b = 0, q^2 when a = 0, and q^2 + 1, past every point, when a = b = 0.
    With u = q^2 - 1 the sum of the codes is 2u - 1 + log b - log a in
    u .. 3u - 2 for units, log b in 0 .. u - 1 for a = 0, 3u for a = b = 0
    and 5u - 1 - log a in 4u .. 5u - 1 for b = 0.
    """
    if ctx.p == 2:
        combine, code, index_of_sum = np.bitwise_xor, ctx._polyint.astype(np.int64), ctx._idx_of_poly
    else:
        combine, code, index_of_sum = np.add, ctx._spread, ctx._pair_sum
    u = ctx.n_units
    keys = np.full(5 * u, ctx.q2, dtype=np.int32)
    keys[u : 3 * u - 1] = 1 + np.arange(u + 1, 3 * u) % u
    keys[3 * u] = ctx.q2 + 1
    keys[4 * u :] = 0
    tables = _WalkTables(
        combine=combine,
        code=code,
        product=code[ctx._exp],
        log_product=ctx._log[ctx._exp],
        scale=(ctx._log[ctx.vneg(1)] - np.arange(u)) % u,
        top_of_sum=_top_code(ctx, index_of_sum),
        bottom_of_sum=_bottom_code(ctx, index_of_sum),
        keys=keys,
    )
    for table in vars(tables).values():
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return tables


def _children(last: np.ndarray, r: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pivot column and the node of every child, in column order: node
    b has a child at each column from last[b] + 1 to n - r, which leaves
    r - 1 columns after it."""
    return np.nonzero(last[None, :] < np.arange(n - r + 1)[:, None])


def _pieces(col: np.ndarray, r: int, n: int):
    """(slice, start) per piece of the children with the sorted pivot
    columns ``col``, of nodes with r rows over n columns.  A piece keeps
    only the columns from start = c0 + 1 on, after its first pivot c0, and
    holds at most ``_MDS_BLOCK`` entries of r rows over n - c0 columns per
    child, or one child if even that is more."""
    lo = 0
    while lo < col.size:
        start = int(col[lo]) + 1
        hi = lo + max(1, _MDS_BLOCK // (r * (n - start + 1)))
        yield slice(lo, hi), start
        lo = hi


def _distinct_points(ctx: FieldCtx, top: np.ndarray, bottom: np.ndarray, last: np.ndarray) -> bool:
    """Whether every node with a two-row residual closes: no later column
    zero and no two later columns proportional (see ``check_mds``).

    ``top`` and ``bottom`` hold the codes of the two rows (``_top_code``,
    ``_bottom_code``) laid out (columns, nodes), so that every step runs
    along the nodes; node b's prefix ends at column last[b].  A later
    column's key is read at the sum of its codes (``_walk_tables``), the
    columns at or before ``last`` take distinct negative sentinels, and one
    sort along the columns decides: a repeated key is a pair of
    proportional columns, and a zero column sorts last, with the key
    q^2 + 1.
    """
    cols = np.arange(top.shape[0], dtype=np.int32)[:, None]
    key = np.where(cols > last, _walk_tables(ctx).keys[top + bottom], -1 - cols)
    key.sort(axis=0)
    return not ((key[1:] == key[:-1]).any() or (key[-1] == ctx.q2 + 1).any())


def _prefix_walk(ctx: FieldCtx, res: np.ndarray, last: np.ndarray) -> bool:
    """Whether every minor below the given prefix nodes is nonsingular (see ``check_mds``).

    ``res[b]`` is the (r, n) residual of node b, whose prefix ends at column
    ``last[b]`` and leaves r columns to choose.  Each child is one
    pivot-and-eliminate step, taken in column order in ``_pieces``; a piece
    keeps only the columns after its first pivot c0, so the prefix of a
    child with pivot c ends at c - c0 - 1.  Nodes with three rows build
    their children's two rows and close them in the same step
    (``_close_three_rows``); a two-row root closes at once.  A one-row
    residual (k = 1) needs only its nonzero test.
    """
    _, r, n = res.shape
    if r == 1:
        return bool(((res[:, 0, :] != 0) | (np.arange(n)[None, :] <= last[:, None])).all())
    if r == 2:
        rows = res.transpose(1, 2, 0)
        return _distinct_points(ctx, _top_code(ctx, rows[0]), _bottom_code(ctx, rows[1]), last)
    if r == 3:
        return _close_three_rows(ctx, res, last)
    others = np.array([[i for i in range(r) if i != p] for p in range(r)])  # row p: every row but p
    col, parent = _children(last, r, n)
    for piece, start in _pieces(col, r, n):
        c, node = col[piece], parent[piece]
        rows = np.arange(c.size)
        at_c = res[node, :, c]  # (B, r)
        prow = (at_c != 0).argmax(axis=1)
        lead = at_c[rows, prow]  # 0 where column c is zero: a singular minor
        if not lead.all():
            return False
        other = others[prow]  # (B, r-1)
        inv = ctx._vinv0(lead)
        factor = ctx.vmul(at_c[rows[:, None], other], ctx.vneg(inv)[:, None])
        pivot = res[node, prow, start:]  # (B, n - start)
        rest = res[node[:, None], other, start:]  # (B, r-1, n - start)
        child = ctx.vadd(rest, ctx.vmul(factor[:, :, None], pivot[:, None, :]))
        if not _prefix_walk(ctx, child, c - start):
            return False
    return True


def _close_three_rows(ctx: FieldCtx, res: np.ndarray, last: np.ndarray) -> bool:
    """``_prefix_walk`` of three-row nodes, each piece's children closed as
    they are built.

    The residuals are read once as logs and as codes (``_WalkTables``),
    laid out [column, row * nodes + node], and then the heads of all the
    children: the pivot row of a child with pivot column c is its node's
    first row nonzero at c (none is a singular minor), and the other two
    rows, in order, gain the multiples of it that clear them at c.  A
    piece's two child rows are built over its columns as (columns,
    children): per entry, one product read at log factor + log pivot, one
    ``combine`` with the other row's code and one read of the sum's code
    for ``_distinct_points``.
    """
    b_n, _, n = res.shape
    tables = _walk_tables(ctx)
    zero = ctx._log[0]
    flat = res.transpose(2, 1, 0).reshape(n, 3 * b_n)
    logs, codes = ctx._log[flat], tables.code[flat]
    col, parent = _children(last, 3, n)
    at = col * (3 * b_n) + parent  # row 0 of each child's column c in logs.ravel()
    l0, l1, l2 = (logs.ravel()[at + i * b_n] for i in range(3))
    z0 = l0 == zero
    z01 = z0 & (l1 == zero)
    if (z01 & (l2 == zero)).any():
        return False
    # the pivot row is z0 + z01, and the other two rows, in order, are ~z0 and 2 - z01
    scale = tables.scale[np.where(z0, np.where(z01, l2, l1), l0)]
    f0 = tables.log_product[np.where(z0, l0, l1) + scale]
    f1 = tables.log_product[np.where(z01, l1, l2) + scale]
    z01 = z01.astype(np.int64)
    p_at = (z0 + z01) * b_n + parent
    o0_at = (~z0) * b_n + parent
    o1_at = (2 - z01) * b_n + parent
    for piece, start in _pieces(col, 3, n):
        pivot = logs[start:, p_at[piece]]  # (n - start, B)
        top = tables.combine(codes[start:, o0_at[piece]], tables.product[pivot + f0[piece]])
        bottom = tables.combine(codes[start:, o1_at[piece]], tables.product[pivot + f1[piece]])
        if not _distinct_points(ctx, tables.top_of_sum[top], tables.bottom_of_sum[bottom], col[piece] - start):
            return False
    return True


def check_mds(code: GrsCode, cap: int = MDS_CAP) -> bool:
    """True iff every k-column minor of the generator is nonsingular.

    Equivalent to d = n-k+1.  Refuses (never guesses) when C(n, k)
    exceeds the combinatorial cap.

    The minors are the leaves of the lexicographic tree of column subsets,
    so minors that share a prefix share its elimination.  A node is a
    sorted prefix c1 < ... < cj holding the generator reduced by it: a
    (k-j) x n residual whose rows span the codewords that vanish on
    c1..cj.  Column c is independent of the prefix iff the residual is
    nonzero at c, so the minor on (c1..ck) is nonsingular iff the residual
    is nonzero at every step along its path.

    The walk closes each node with a two-row residual R at once.  Its
    prefix is nonsingular, so by the Schur complement the minor on the
    prefix and {c, j} is nonsingular iff R's 2 x 2 minor on columns c and j
    is.  Every minor below the node is therefore nonsingular iff no later
    column of R is zero and no two are proportional, i.e. their points
    [a : b] on the projective line PG(1, q^2) are distinct.  One sort along
    the row decides this (``_distinct_points``): the key of a later column
    is the index of b/a, q^2 when a = 0 and q^2 + 1 past every point when
    a = b = 0, read off the logs of a and b, and the earlier columns take
    distinct negative sentinels.  For k = 2 the whole check is that one
    sort.  Two-row nodes are never held: a node with three rows builds its
    children's two rows and closes them in the same step
    (``_close_three_rows``), laid out (columns, children) so that every
    step runs along a piece's children, not along the few columns after
    its pivot.

    The walk goes depth first and takes a node's children in column order,
    in pieces of at most ``_MDS_BLOCK`` = 2^14 entries (128 KB of int64)
    per working array unless a piece is one child, so its temporaries stay
    in cache and are not mapped afresh.  A piece keeps only the columns
    after its first pivot, the only ones its children can take.  In process
    (2-core Xeon guest, medians of 21 rounds), odd-min (24, 6), odd-min
    (20, 6) and even-min (16, 8) took 6.6 ms together at 2^14, 7.6 ms at
    2^13, 8.4 ms at 2^15, 10.5 ms at 2^12 and 2^16, and 13.6-15.1 ms at
    2^17 and 2^18; ``BENCH_40.json`` has each code's time.
    """
    n, k = code.n, code.k
    total = math.comb(n, k)
    if total > cap:
        raise CapExceeded(f"C({n},{k}) = {total} minors exceed the cap {cap}")
    return _prefix_walk(code.ctx, code.gen[None], np.array([-1], dtype=np.int64))


def min_weight(code: GrsCode, cap: int = ENUM_CAP) -> int:
    """Minimum Hamming weight by full enumeration of the row space.

    ``linalg.span_min_weight`` takes the q^2 multiples of each generator
    row, the scalars in ``points_idx`` order (index 0 is zero, the others
    the q^2 - 1 nonzero scalars), and compares one word per orbit of
    q^2 - 1 nonzero multiples; ``FieldCtx.vadd`` builds the two half
    spans, and a word's weight is the number of columns where one half is
    not the negative of the other.
    """
    ctx, k = code.ctx, code.k
    total = ctx.q2**k
    if total > cap:
        raise CapExceeded(f"row space has (q^2)^{k} = {total} words, above the cap {cap}")
    multiples = ctx.vmul(ctx.points_idx()[None, :, None], code.gen[:, None, :])  # (k, q^2, n)
    return linalg.span_min_weight(ctx.vadd, ctx.vneg, multiples)[0]


def mds_status(code: GrsCode, mds_cap: int = MDS_CAP, enum_cap: int = ENUM_CAP) -> str:
    """Tiered distance verification: minors, then enumeration, else asserted.

    Returns "minors" or "enumeration" when d = n-k+1 was independently
    verified, "asserted_by_construction" when both checks are out of scale.
    Raises SelfCheckFailed if a computable check contradicts MDS-ness.

    At the default caps (``MDS_CAP`` = ``ENUM_CAP`` = 10^6) the enumeration
    tier never runs: over every q <= 64, 1 <= k <= q+1 and k <= n <= q^2+1,
    no code has both C(n, k) > 10^6 minors and q^(2k) <= 10^6 words.  It
    runs only when mds_cap is lowered or enum_cap raised.
    """
    try:
        if check_mds(code, cap=mds_cap):
            return "minors"
        raise SelfCheckFailed("a k-column minor is singular; the code is not MDS")
    except CapExceeded:
        pass
    try:
        if min_weight(code, cap=enum_cap) == code.n - code.k + 1:
            return "enumeration"
        raise SelfCheckFailed("enumerated minimum weight contradicts MDS")
    except CapExceeded:
        return "asserted_by_construction"


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def code_to_dict(code: GrsCode, *, params: CodeParams | None, mds: str) -> dict:
    """JSON form of a code record (schema 1), given the parameters of a
    self-orthogonal code, or None for a code that is not."""
    n, k, q = code.n, code.k, code.ctx.q
    verified = mds in ("minors", "enumeration")
    return {
        "schema": 1,
        "kind": "code",
        "p": code.ctx.p,
        "h": code.ctx.h,
        "q": q,
        "k": k,
        "support": list(code.support),
        "thetas": code.thetas.tolist(),
        "params": {"n": n, "k": k, "d": n - k + 1, "verified_d": verified},
        "quantum": None if params is None else list(params.quantum),
        "self_orthogonal": params is not None,
        "mds": mds,
    }


def _strict_int(value) -> int:
    """A JSON integer; booleans, floats and strings are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInput(f"expected an integer, got {value!r}")
    return value


def _strict_int_list(value) -> list[int]:
    if not isinstance(value, (list, tuple)):
        raise MalformedInput(f"expected a list of integers, got {value!r}")
    return [_strict_int(x) for x in value]


def code_from_dict(obj: dict) -> GrsCode:
    """Rebuild a code from its JSON record, validating the schema strictly.

    A ``q``, when the record has one, must be the integer p^h.  A
    ``puncture_vector``, when the record has one, must be GF(q) element
    indices whose support is exactly the record's support.
    """
    try:
        if "schema" in obj and _strict_int(obj["schema"]) != 1:
            raise MalformedInput(f"unsupported schema {obj['schema']!r}; expected 1")
        p, h, k = (_strict_int(obj[key]) for key in ("p", "h", "k"))
        support = obj["support"]
        if not isinstance(support, (list, tuple)):  # GrsCode checks each coordinate
            raise MalformedInput(f"expected a list of integers, got {support!r}")
        thetas = obj["thetas"]
        if not isinstance(obj.get("self_orthogonal", False), bool):
            raise MalformedInput(f"self_orthogonal must be true or false, got {obj['self_orthogonal']!r}")
        if obj.get("quantum") is not None and len(_strict_int_list(obj["quantum"])) != 4:
            raise MalformedInput(f"quantum must be null or four integers, got {obj['quantum']!r}")
        if "params" in obj:
            claimed = obj["params"]
            if not isinstance(claimed, dict) or not isinstance(claimed["verified_d"], bool):
                raise MalformedInput(f"params must hold integers n, k, d and a boolean verified_d, got {claimed!r}")
            n, params_k, d = (_strict_int(claimed[key]) for key in ("n", "k", "d"))
            if (n, params_k, d) != (len(support), k, len(support) - k + 1):
                raise MalformedInput(f"params {claimed!r} disagree with the record's support and k")
        if "mds" in obj and obj["mds"] not in ("minors", "enumeration", "asserted_by_construction"):
            raise MalformedInput(f"mds must name a verification tier, got {obj['mds']!r}")
        if "params" in obj and "mds" in obj and claimed["verified_d"] != (obj["mds"] in ("minors", "enumeration")):
            raise MalformedInput(f"params.verified_d = {claimed['verified_d']} contradicts mds = {obj['mds']!r}")
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"missing or ill-typed code field: {exc}") from exc
    try:
        ctx = make_field(p, h)
        if "q" in obj and _strict_int(obj["q"]) != ctx.q:
            raise MalformedInput(f"q={obj['q']} is not p^h = {p}^{h}")
        code = GrsCode(ctx, k, tuple(support), thetas)
        if "puncture_vector" in obj:
            vector = PunctureVector.from_serialized(ctx, obj["puncture_vector"])
            if vector.support() != code.support:
                raise MalformedInput("the puncture_vector's support is not the record's support")
    except ValidationRefused as exc:
        raise MalformedInput(str(exc)) from exc
    return code
