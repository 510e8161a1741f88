"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same pass over a case list takes 10-35% longer in
some minutes than in others, in spells that outlast a whole run.  The
child runs ``kernel()`` before the first case of a pass and after every
case, and the benchmark divides each case's time by the median kernel
time of its pass, which cancels the host's speed of the moment.  The kernel does not use the program, so a
change to the program does not change it; it mixes the kinds of work the
program does (a small GF(p) row reduction by table lookups in a Python
loop, batched table lookups and weight counts over a large array, and
combinations turned into index arrays).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

# about the kernel's median time on the 2.1 GHz Xeon KVM guest of
# BASELINE.md; it only converts kernel units back to seconds
REFERENCE_S = 0.0097

_P = 17
_R = np.arange(_P)
_ADD = ((_R[:, None] + _R[None, :]) % _P).astype(np.uint8)
_MUL = ((_R[:, None] * _R[None, :]) % _P).astype(np.uint8)
_NEG = ((-_R) % _P).astype(np.uint8)
_INV = np.array([0] + [pow(a, -1, _P) for a in range(1, _P)], dtype=np.uint8)
_rng = np.random.default_rng(7)
_MAT = _rng.integers(0, _P, size=(40, 80)).astype(np.uint8)
_WORDS = _rng.integers(0, _P, size=(512, 96)).astype(np.uint8)
_ROW = _rng.integers(0, _P, size=96).astype(np.uint8)


def _row_reduce() -> int:
    M = _MAT.copy()
    r = 0
    for c in range(M.shape[1]):
        if r >= M.shape[0]:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        M[[r, pr]] = M[[pr, r]]
        M[r] = _MUL[_INV[M[r, c]], M[r]]
        col = M[:, c].copy()
        col[r] = 0
        mask = col != 0
        M[mask] = _ADD[M[mask], _MUL[_NEG[col[mask]][:, None], M[r][None, :]]]
        r += 1
    return r


def _scan() -> int:
    best = _WORDS.shape[1]
    for a in range(1, 9):
        words = _ADD[_WORDS, _MUL[a, _ROW][None, :]]
        best = min(best, int((words != 0).sum(axis=1).min()))
    return best


def _combinations() -> int:
    cols = np.array(list(itertools.combinations(range(20), 4)), dtype=np.int64)
    return int(_MAT[:4, :20][:, cols].sum())


def kernel() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = time.perf_counter()
    _row_reduce()
    _scan()
    _combinations()
    return time.perf_counter() - t0
