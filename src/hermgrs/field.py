"""Exact arithmetic in GF(q^2) for q = p^h <= 64, via discrete-log tables.

Elements are handled through opaque indices into a canonical enumeration:
index 0 is the zero element and index i >= 1 is w^(i-1), where w is a fixed
generator of the multiplicative group.  A product is one read of immutable
tables, exp[log a + log b]: log i = i-1 for a unit, and log 0 is a sentinel
larger than any sum of two unit logs, past which exp reads zero, so zero
needs no mask.  Addition works on additive codes, the coordinates in the
polynomial basis 1, w, ..., w^(2h-1): two elements add through one
carry-free table read, and a sum of many through one ``code_sum``.  A
single element (``Felt``) reads the same tables as an array of indices.

The subfield GF(q) is realized as the Frobenius-fixed set {x : x^q = x}
inside the same context, with a compact labelling 0..q-1 and its own small
add/mul tables.  The label of an element is its additive code, its
coordinates in the polynomial basis 1, b, ..., b^(h-1) of b = w^(q+1), so
label addition is XOR for p = 2 and addition mod p for q = p; every GF(q)
matrix and vector in the package holds these labels.

Every sum of many elements is one ``code_sum`` of additive codes: GF(q)
labels or GF(q^2) polynomial-basis integers (``FieldCtx.vsum``).  Every
sum of the form sum_t v_t w^(j_t e) over the nonzero points w^e of
GF(q^2), polynomial evaluation and the power sums of P(C) alike, is one
``FieldCtx.spectrum``: term by term, or by the discrete Fourier
transform of length q^2-1 = (q-1)(q+1) (``FieldCtx.dft``) when that
counts fewer terms.

The defining modulus is the lexicographically smallest monic primitive
polynomial of degree 2h over GF(p), coefficients compared low-degree-first,
which makes w = x (the residue class) and fixes every table deterministically.
One piece of arithmetic in GF(p)[x]/(modulus) finds and lays out the field:
the companion matrix C of a candidate modulus, multiplication by x on
coefficient vectors.  Square-and-multiply with C mod p tests x for
primitivity, the companion matrices of a stack of candidates squared as
one product, and for the modulus found, doubling by C, C^2, C^4, ... lists
the coefficient vectors of w^0, ..., w^(q^2-1), the base-p digits of the
additive codes from which every table follows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationRefused

MAX_Q = 64


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _companion_squares(mods, p: int, count: int) -> list[np.ndarray]:
    """C, C^2, C^4, ..., C^(2^(count-1)) mod p, where C is the companion
    matrix of a monic modulus (coefficients low degree first, on the last
    axis of ``mods``): multiplication by x on the coefficient vectors of
    GF(p)[x]/(mod).  Stacked moduli give stacked (..., deg, deg) powers."""
    mods = np.asarray(mods, dtype=np.int64)
    deg = mods.shape[-1] - 1
    companion = np.zeros(mods.shape[:-1] + (deg, deg), dtype=np.int64)
    companion[..., np.arange(1, deg), np.arange(deg - 1)] = 1  # x * x^j = x^(j+1) for j < deg-1
    companion[..., -1] = -mods[..., :-1] % p  # x^deg = -(c_0 + ... + c_(deg-1) x^(deg-1))
    squares = [companion]
    for _ in range(count - 1):
        squares.append(squares[-1] @ squares[-1] % p)
    return squares


def _x_is_primitive(mods, p: int, order: int, prime_divs: list[int]):
    """Whether x has multiplicative order ``order`` modulo each modulus on
    the last axis of ``mods``: x^order = 1 and x^(order/l) != 1 for every
    prime l in ``prime_divs``.  The coefficient vector of x^e is C^e times
    that of 1, for the companion matrix C, by square-and-multiply mod p
    over the squares of C, which every exponent shares."""
    squares = _companion_squares(mods, p, order.bit_length())
    one = np.eye(squares[0].shape[-1], 1, dtype=np.int64)  # the column of 1

    def is_one(e: int):
        power = one
        for i, square in enumerate(squares):
            if e >> i & 1:
                power = square @ power % p
        return (power == one).all(axis=(-2, -1))

    primitive = is_one(order)
    for ell in prime_divs:
        primitive &= ~is_one(order // ell)
    return primitive


# candidate moduli tested as one stack: the first primitive one is the
# 42nd candidate tested at q = 64 and at most the 15th at every other q
_MODULUS_STACK = 32


def _find_modulus(p: int, deg: int) -> tuple[int, ...]:
    """Lex-smallest monic primitive polynomial of degree `deg` over GF(p).

    Lexicographic order compares the constant coefficient first, so the
    candidates are the base-p digits of a counter whose most significant
    digit is c_0.  The norm of a root x down to GF(p) is (-1)^deg c_0, and
    it generates GF(p)* when x generates GF(p^deg)*, so any other c_0 is
    skipped untested (at p = 2 that leaves c_0 = 1).  The others are
    tested by ``_x_is_primitive`` in order, ``_MODULUS_STACK`` at a time,
    each stack one matrix product per square of the companion matrices.
    """
    order = p**deg - 1
    prime_divs = _prime_factors(order)
    generators = [g for g in range(1, p) if all(pow(g, (p - 1) // ell, p) != 1 for ell in _prime_factors(p - 1))]
    coeffs = np.arange(p**deg)[:, None] // p ** np.arange(deg - 1, -1, -1) % p  # c_0 first
    coeffs = coeffs[np.isin((-1) ** deg * coeffs[:, 0] % p, generators)]
    mods = np.column_stack([coeffs, np.ones(len(coeffs), dtype=np.int64)])
    for lo in range(0, len(mods), _MODULUS_STACK):
        stack = mods[lo : lo + _MODULUS_STACK]
        hits = np.flatnonzero(_x_is_primitive(stack, p, order, prime_divs))
        if hits.size:
            return tuple(int(c) for c in stack[hits[0]])
    raise AssertionError(f"no primitive polynomial of degree {deg} over GF({p})")


def code_sum(p: int, digits: int, codes: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum along an axis of codes sum_j d_j p^j, j < ``digits``, digitwise mod p.

    An XOR at p = 2.  At odd p each digit but the last is peeled off by one
    divmod in the codes' dtype, which the result keeps; each digit is summed
    in int64 and reduced mod p.
    """
    codes = np.asarray(codes)
    if p == 2:
        return np.bitwise_xor.reduce(codes, axis=axis)
    rest, base = codes, codes.dtype.type(p)
    total = 0
    for j in range(digits - 1):
        rest, digit = np.divmod(rest, base)
        total += digit.sum(axis=axis, dtype=np.int64) % p * p**j
    total += rest.sum(axis=axis, dtype=np.int64) % p * p ** (digits - 1)
    return total.astype(codes.dtype)


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an object array of the same shape, each an int or a numpy
    integer.  A bool, a float or a string is refused, also inside a list,
    where np.asarray([1, True]) would be int64; so are lists too deep to iterate."""
    values = np.asarray(values, dtype=object)
    try:
        kinds = {type(v) for v in values.flat}
    except RuntimeError as exc:  # the iterator stops at 32 dimensions
        raise ValidationRefused(f"{what} must be an integer, got lists nested {values.ndim} deep") from exc
    for kind in kinds:
        if kind is bool or not issubclass(kind, (int, np.integer)):
            bad = next(v for v in values.flat if type(v) is kind)
            raise ValidationRefused(f"{what} must be an integer, got {bad!r}")
    return values


@dataclass(frozen=True)
class SubfieldTables:
    """Compact GF(q) arithmetic: elements labelled 0..q-1 by additive code.

    Label sum_j d_j p^j (0 <= d_j < p) is the element sum_j d_j b^j, where
    b = w^(q+1) generates GF(q)*.  Label addition is digitwise mod p, so it
    is XOR when p = 2 and addition mod p when q = p; ``add`` covers the
    other q.  Label 0 is the zero element and label 1 is the one.  The
    tables are small (q <= 64) and work through numpy fancy indexing.
    """

    q: int
    p: int
    h: int
    add: np.ndarray  # (q, q) uint8
    mul: np.ndarray  # (q, q) uint8
    neg: np.ndarray  # (q,)   uint8
    inv: np.ndarray  # (q,)   uint8, inv[0] = 0 placeholder
    idx_of_compact: np.ndarray  # (q,)  int64: compact label -> field index
    compact_of_idx: np.ndarray  # (q^2,) int64: field index -> label, -1 if not in GF(q)


class FieldCtx:
    """Arithmetic context for GF(q^2) with its GF(q) subfield.

    Do not instantiate directly in normal use; ``make_field(p, h)`` caches
    one context per (p, h) so element handles interoperate.  All tables are
    immutable after construction and the context is safe to share across
    threads.
    """

    def __init__(self, p: int, h: int):
        # bound p before the trial division and h before the power, so that
        # huge inputs are refused at once
        if p > MAX_Q:
            raise ValidationRefused(f"p={p} exceeds the supported cap {MAX_Q}")
        if _prime_factors(p) != [p]:
            raise ValidationRefused(f"p={p} is not prime")
        if h < 1:
            raise ValidationRefused(f"h={h} must be a positive integer")
        if h >= MAX_Q.bit_length() or p**h > MAX_Q:  # p^h >= 2^h > MAX_Q for the larger h
            raise ValidationRefused(f"q={p}^{h} exceeds the supported cap {MAX_Q}")
        q = p**h
        self.p = p
        self.h = h
        self.q = q
        self.q2 = q * q
        self.n_units = self.q2 - 1
        self.modulus = _find_modulus(p, 2 * h)
        self._build_tables()
        self._build_subfield()
        for table in [*vars(self).values(), *vars(self.fq).values()]:
            if isinstance(table, np.ndarray):
                table.flags.writeable = False

    # ------------------------------------------------------------------
    # table construction
    # ------------------------------------------------------------------
    def _build_tables(self) -> None:
        p, deg, n = self.p, 2 * self.h, self.n_units
        # coefficient vectors of w^0 .. w^(2^i - 1) as columns, doubled by
        # C^(2^i) for the companion matrix C of the modulus until they reach w^n
        powers = np.eye(deg, 1, dtype=np.int64)
        for square in _companion_squares(self.modulus, p, n.bit_length()):
            powers = np.concatenate((powers, square @ powers % p), axis=1)
        assert np.array_equal(powers[:, n], powers[:, 0]), "w does not have order q^2-1"
        digits = np.concatenate((np.zeros((1, deg), dtype=np.int64), powers[:, :n].T))  # per field index
        places = p ** np.arange(deg, dtype=np.int64)
        exp_poly = digits[1:] @ places  # polyint of w^e

        # polyint -> field index (0 stays 0)
        idx_of_poly = np.full(p**deg, -1, dtype=np.int64)
        idx_of_poly[0] = 0
        idx_of_poly[exp_poly] = np.arange(1, self.q2, dtype=np.int64)
        assert idx_of_poly.min() >= 0, "powers of w do not cover GF(q^2)*"
        self._idx_of_poly = idx_of_poly

        # polynomial-basis integer per field index (< q^2 <= 4096), the
        # additive code that field sums add up
        self._polyint = np.concatenate(([0], exp_poly)).astype(np.uint16)

        # two additive codes add without carry once each base-p digit sits at
        # a place of base 2p-1, since a sum of two digits is at most 2p-2;
        # _pair_sum reads a spread sum's digits back mod p
        self._spread = digits @ np.int64(2 * p - 1) ** np.arange(deg)
        self._neg = idx_of_poly[-digits % p @ places]
        pair_codes = np.zeros(1, dtype=np.int64)
        for j in reversed(range(deg)):  # the highest place varies slowest
            pair_codes = np.add.outer(pair_codes, np.arange(2 * p - 1) % p * places[j]).ravel()
        self._pair_sum = idx_of_poly[pair_codes]

        # products as exp[log a + log b]: log 0 is a sentinel past every sum of
        # two unit logs (at most 2n-2), and exp reads 0 from the sentinel on;
        # the inverse of w^l is w^(-l mod n), and inv[0] = 0
        sentinel = 2 * n - 1
        self._log = np.concatenate(([sentinel], np.arange(n, dtype=np.int64)))
        self._exp = np.zeros(2 * sentinel + 1, dtype=np.int64)
        self._exp[:sentinel] = 1 + np.arange(sentinel, dtype=np.int64) % n
        self._inv = np.concatenate(([0], 1 + -np.arange(n, dtype=np.int64) % n))

    def _build_subfield(self) -> None:
        q, q2, p, h = self.q, self.q2, self.p, self.h
        # label sum_j d_j p^j is the element sum_j d_j b^j, b = w^(q+1)
        codes = np.arange(q, dtype=np.int64)
        digits = (codes[:, None] // p ** np.arange(h, dtype=np.int64)[None, :]) % p
        digit_idx = self._idx_of_poly[digits]  # d_j as an element of GF(p)
        basis = 1 + (q + 1) * np.arange(h, dtype=np.int64) % self.n_units  # b^j
        idx_of_compact = self.vsum(self.vmul(digit_idx, basis[None, :]))
        compact_of_idx = np.full(q2, -1, dtype=np.int64)
        compact_of_idx[idx_of_compact] = codes
        assert (compact_of_idx[idx_of_compact] == codes).all(), "1, b, ..., b^(h-1) is not a GF(p)-basis"

        grid_a = idx_of_compact[:, None]
        grid_b = idx_of_compact[None, :]
        add = compact_of_idx[self.vadd(grid_a, grid_b)]
        mul = compact_of_idx[self.vmul(grid_a, grid_b)]
        assert add.min() >= 0 and mul.min() >= 0, "GF(q) not closed under the tables"
        if p == 2:
            assert np.array_equal(add, codes[:, None] ^ codes[None, :])
        elif h == 1:
            assert np.array_equal(add, (codes[:, None] + codes[None, :]) % p)
        neg = compact_of_idx[self.vneg(idx_of_compact)]
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = compact_of_idx[self._vinv0(idx_of_compact[1:])]
        self.fq = SubfieldTables(
            q=q,
            p=p,
            h=h,
            add=add.astype(np.uint8),
            mul=mul.astype(np.uint8),
            neg=neg.astype(np.uint8),
            inv=inv.astype(np.uint8),
            idx_of_compact=idx_of_compact,
            compact_of_idx=compact_of_idx,
        )

        # decomposition of GF(q^2) over GF(q) wrt the basis {1, xi}, where xi
        # is the first enumerated element outside GF(q)
        xi = next(i for i in range(q2) if compact_of_idx[i] < 0)
        self.xi_idx = xi
        comp0 = np.full(q2, -1, dtype=np.int64)
        comp1 = np.full(q2, -1, dtype=np.int64)
        span = self.vadd(idx_of_compact[:, None], self.vmul(idx_of_compact[None, :], np.int64(xi)))
        comp0[span] = np.broadcast_to(np.arange(q, dtype=np.int64)[:, None], (q, q))
        comp1[span] = np.broadcast_to(np.arange(q, dtype=np.int64)[None, :], (q, q))
        assert comp0.min() >= 0, "{1, xi} does not span GF(q^2) over GF(q)"
        self._comp0 = comp0.astype(np.uint8)
        self._comp1 = comp1.astype(np.uint8)

    # ------------------------------------------------------------------
    # vectorized index arithmetic (int64 arrays in and out)
    # ------------------------------------------------------------------
    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._pair_sum[self._spread[a] + self._spread[b]]

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product: one read of the exp table at log a + log b,
        where a zero factor's sentinel log lands on exp's zeros."""
        return self._exp[self._log[a] + self._log[b]]

    def vneg(self, a: np.ndarray) -> np.ndarray:
        return self._neg[a]

    def _vinv0(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverse with inv(0) = 0, for masked elimination loops:
        one read of the inverse table."""
        return self._inv[a]

    def vpow(self, a: np.ndarray | int, m: np.ndarray | int) -> np.ndarray | int:
        """a^m = w^((a-1)m) over the broadcast of a and m >= 0, masked to 0 where
        a = 0 < m, so 0^0 = 1.  Python ints give a Python int, an exponent
        column m[:, None] the table a_j^(m_i).  a and m are Python ints or
        int64 arrays: an unsigned a would wrap at a - 1."""
        res = (a - 1) * m
        res %= self.n_units
        res += 1
        res *= (a != 0) | (m == 0)
        return res

    def vfrob(self, a: np.ndarray) -> np.ndarray:
        return self.vpow(a, self.q)

    def vnorm(self, a: np.ndarray) -> np.ndarray:
        return self.vpow(a, self.q + 1)

    def vnorm_root(self, a: np.ndarray) -> np.ndarray:
        """Smallest-discrete-log theta with theta^(q+1) = a, for a in GF(q)*.

        a = w^((q+1)t) with 0 <= t < q-1, and theta = w^j solves it iff
        j = t mod q-1; the minimal j is t.
        """
        a = np.asarray(a, dtype=np.int64)
        thetas = 1 + (a - 1) // (self.q + 1) % (self.q - 1)
        assert np.array_equal(self.vnorm(thetas), a), "norm root argument outside GF(q)*"
        return thetas

    def vsum(self, a: np.ndarray, axis: int = -1) -> np.ndarray:
        """Field sum along an axis: the ``code_sum`` of the polynomial-basis
        integers, an XOR of them for p = 2."""
        a = np.asarray(a, dtype=np.int64)
        return self._idx_of_poly[code_sum(self.p, 2 * self.h, self._polyint[a], axis)]

    def spectrum(self, j: np.ndarray, v: np.ndarray, e: np.ndarray) -> np.ndarray:
        """out[i] = sum_t v_t w^(j_t e_i) in the shape of e, for distinct j_t >= 0.

        The one rule for such a sum: len(j) x len(e) terms directly, or the
        2q(q^2-1) terms of the transform plus 2^12 for its 30 to 50 extra
        numpy calls, whichever counts fewer.
        """
        j = np.asarray(j, dtype=np.int64)
        e = np.asarray(e, dtype=np.int64)
        if j.size * e.size > 2 * self.q * self.n_units + (1 << 12):
            return self._spectrum_dft(j, v, e)
        return self._spectrum_direct(j, v, e)

    def _spectrum_direct(self, j: np.ndarray, v: np.ndarray, e: np.ndarray) -> np.ndarray:
        """``spectrum`` term by term, in blocks of about 2^14 terms along j, one
        field sum per block; larger blocks were no faster below q = 64 and
        raised the peak resident set."""
        v = np.asarray(v, dtype=np.int64)
        j, logs = j[v != 0], v[v != 0] - 1  # v_t = w^(logs_t)
        flat = e.ravel()
        out = np.zeros_like(flat)
        step = max(1, (1 << 14) // max(1, flat.size))
        for lo in range(0, j.size, step):
            terms = np.multiply.outer(j[lo : lo + step], flat)  # v_t w^(j_t e) = w^(logs_t + j_t e)
            terms += logs[lo : lo + step, None]
            terms %= self.n_units
            terms += 1
            out = self.vadd(out, self.vsum(terms, axis=0))
        return out.reshape(e.shape)

    def _spectrum_dft(self, j: np.ndarray, v: np.ndarray, e: np.ndarray) -> np.ndarray:
        """``spectrum`` by the transform: v folds mod q^2-1, since w^(q^2-1) = 1,
        and the transform is read at e mod q^2-1."""
        n = self.n_units
        dense = np.zeros(-(-(int(j.max(initial=0)) + 1) // n) * n, dtype=np.int64)
        dense[j] = v
        return self.dft(self.vsum(dense.reshape(-1, n), axis=0))[e % n]

    def dft(self, v: np.ndarray) -> np.ndarray:
        """out[e] = sum_j v_j w^(je) for every e < q^2-1, from the q^2-1 values v_j.

        A Cooley-Tukey split of q^2-1 = (q-1)(q+1) with j = j2 + (q+1) j1 and
        e = e1 + (q-1) e2: a length-(q-1) transform with root w^(q+1) over
        j1, a twiddle by w^(e1 j2), and a length-(q+1) transform with root
        w^(q-1) over j2.  Each step is one ``vmul``, a table read per term,
        and one ``vsum``, about 2q(q^2-1) terms in all; the roots are built
        per call.
        """
        n1, n2, n = self.q - 1, self.q + 1, self.n_units
        v = np.asarray(v, dtype=np.int64).reshape(n1, n2)  # v[j1, j2] = v_(j2 + (q+1) j1)
        e1, j2 = np.arange(n1), np.arange(n2)
        root1 = 1 + n2 * np.multiply.outer(e1, e1) % n  # w^((q+1) j1 e1)
        spec = self.vsum(self.vmul(v.T[:, :, None], root1), axis=1)  # [j2, e1]
        spec = self.vmul(spec, 1 + np.multiply.outer(j2, e1) % n)
        root2 = 1 + n1 * np.multiply.outer(j2, j2) % n  # w^((q-1) j2 e2)
        out = self.vsum(self.vmul(spec[:, :, None], root2[:, None, :]), axis=0)  # [e1, e2]
        return out.T.ravel()

    def split_components(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write each element as c0 + c1*xi with c0, c1 in GF(q) (compact labels)."""
        a = np.asarray(a, dtype=np.int64)
        return self._comp0[a], self._comp1[a]

    # ------------------------------------------------------------------
    # element handles
    # ------------------------------------------------------------------
    def indices(self, values) -> np.ndarray:
        """Serialized element indices as an int64 array of the same shape.

        The one rule for an index: an int or a numpy integer in 0..q^2-1,
        range-checked before the int64 conversion.  A bool, a float or a
        string is refused, never read as an index, also inside a list.
        """
        values = _integers(values, "an element index")
        lo, hi = (values.min(), values.max()) if values.size else (0, 0)
        if lo < 0 or hi >= self.q2:
            raise ValidationRefused(f"element index {lo if lo < 0 else hi} out of range 0..{self.q2 - 1}")
        return values.astype(np.int64)

    def felt(self, index: int) -> Felt:
        """Element from its serialized enumeration index (0 for zero, i for w^(i-1))."""
        i = self.indices(index)
        if i.ndim:
            raise ValidationRefused(f"expected one element index, got {index!r}")
        return Felt(self, i)

    @property
    def zero(self) -> Felt:
        return Felt(self, 0)

    @property
    def one(self) -> Felt:
        return Felt(self, 1)

    @property
    def w(self) -> Felt:
        """The fixed generator of the multiplicative group of GF(q^2)."""
        return Felt(self, 2)

    def elem(self, i: int) -> Felt:
        """The i-th evaluation point a_i (1-based): a_1 = 0, a_(i+1) = w^(i-1)."""
        if not 1 <= i <= self.q2:
            raise ValidationRefused(f"evaluation point index {i} out of range 1..{self.q2}")
        return Felt(self, i - 1)

    def elems(self) -> tuple[Felt, ...]:
        """The canonical enumeration a_1, ..., a_(q^2) of all field elements."""
        return tuple(Felt(self, i) for i in range(self.q2))

    def points_idx(self) -> np.ndarray:
        """Index array of the enumeration (identity, by the representation)."""
        return np.arange(self.q2, dtype=np.int64)

    def subfield_elems(self) -> tuple[Felt, ...]:
        """GF(q) in enumeration order: 0, 1, w^(q+1), w^(2(q+1)), ..."""
        return (self.zero,) + tuple(Felt(self, 1 + (self.q + 1) * j) for j in range(self.q - 1))

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, h={self.h}, q={self.q})"


class Felt:
    """Opaque element of a specific FieldCtx.

    Its operators read the tables the array methods read (``vadd``,
    ``vneg``, ``vmul``), so a scalar and an array of indices share one
    arithmetic; ``**`` is ``vpow`` on Python ints, which builds no array
    and takes any exponent.  The maps of the Hermitian form are operators
    too: the Frobenius ``x ** q``, the norm ``x ** (q+1)`` and the trace
    to GF(q) ``x + x ** q``.

    Arithmetic between elements of different contexts is rejected even if the
    contexts were built from the same (p, h).
    """

    __slots__ = ("ctx", "i")

    def __init__(self, ctx: FieldCtx, i: int):
        self.ctx = ctx
        self.i = int(i)

    def _join(self, other: Felt) -> None:
        if not isinstance(other, Felt):
            raise TypeError(f"expected Felt, got {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise ValueError("elements belong to different field contexts")

    @property
    def index(self) -> int:
        """Serialized form: 0 for zero, i for w^(i-1)."""
        return self.i

    def is_zero(self) -> bool:
        return self.i == 0

    def in_subfield(self) -> bool:
        return bool(self.ctx.fq.compact_of_idx[self.i] >= 0)

    def __add__(self, other: Felt) -> Felt:
        self._join(other)
        return Felt(self.ctx, self.ctx.vadd(self.i, other.i))

    def __sub__(self, other: Felt) -> Felt:
        self._join(other)
        return self + -other

    def __neg__(self) -> Felt:
        return Felt(self.ctx, self.ctx.vneg(self.i))

    def __mul__(self, other: Felt) -> Felt:
        self._join(other)
        return Felt(self.ctx, self.ctx.vmul(self.i, other.i))

    def __truediv__(self, other: Felt) -> Felt:
        self._join(other)
        return self * other.inverse()

    def __pow__(self, m: int) -> Felt:
        """x^m for any integer m, with 0^0 = 1: ``vpow`` on Python ints, of
        the inverse for a negative m."""
        base = self.inverse() if m < 0 else self
        return Felt(self.ctx, self.ctx.vpow(base.i, abs(m)))

    def inverse(self) -> Felt:
        if not self.i:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return Felt(self.ctx, self.ctx._vinv0(self.i))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Felt) and other.ctx is self.ctx and other.i == self.i

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.i))

    def __bool__(self) -> bool:
        return self.i != 0

    def __repr__(self) -> str:
        if self.i == 0:
            return "0"
        if self.i == 1:
            return "1"
        if self.i == 2:
            return "w"
        return f"w^{self.i - 1}"


@functools.lru_cache(maxsize=None)
def make_field(p: int, h: int) -> FieldCtx:
    """Deterministic GF(q^2) context for q = p^h <= 64.

    Repeated calls with the same (p, h) return the same cached context, so
    element handles from separate call sites interoperate.
    """
    return FieldCtx(p, h)


def skew_element(ctx: FieldCtx) -> Felt:
    """A nonzero c with c^q = -c: 1 in characteristic 2, else w^((q+1)/2)."""
    if ctx.p == 2:
        return ctx.one
    return ctx.w ** ((ctx.q + 1) // 2)
