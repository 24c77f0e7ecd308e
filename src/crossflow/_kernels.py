"""Numeric kernels in plain Python and numpy: the backtracking orientation
search, which the tests use as the reference for the frontier DP's count,
answer and witness, and the scan of all 2^(n-1) bipartitions that the
tests use as the reference for ``cuts._scan_masks``.  No other module of
the package imports this one; it stays in the package because solvebench
imports it, to time both kernels and to stamp ``USING_NUMBA``.
"""

from __future__ import annotations

import numpy as np

# Nothing is compiled.  solvebench's environment stamp and its list of
# kernels timed as measured still read this flag.
USING_NUMBA = False


def orient_search(lo, hi, cur, und, tgt, mode, out_dirs):
    """Backtracking search over directions of the undirected edges.

    Edge j runs between vertex indices lo[j] and hi[j] (lo[j] < hi[j]
    except for parallel bookkeeping; order fixed by the caller).  cur[v]
    holds the in-minus-out contribution of already-directed edges, und[v]
    the number of undirected edges at v; both are consumed in place.
    lo, hi, cur, und and tgt are plain lists, which index faster than
    numpy arrays here.  Direction code 1 means tail at lo (edge runs
    lo -> hi), 2 the reverse; out_dirs is an int8 buffer of length m.

    The search is exponential.  The tests count with mode 1 under an edge
    bound of their own, and read mode 0's witness as the reference for
    the one the oracle reads from the frontier DP.

    Feasibility pruning at each assignment, exact in both directions:
    a vertex with no undirected edges left must sit on its target residue
    mod 3; a vertex with exactly one left must sit off it; two or more
    undirected edges can reach every residue.

    mode 0: fill out_dirs with the first solution in lexicographic
    direction order and return 1, or return 0 when none exists.
    mode 1: return the number of valid completions.
    """
    n = len(cur)
    m = len(lo)
    for v in range(n):
        if und[v] == 0:
            if (cur[v] - tgt[v]) % 3 != 0:
                return 0
        elif und[v] == 1:
            if (cur[v] - tgt[v]) % 3 == 0:
                return 0
    if m == 0:
        return 1
    dirs = [0] * m
    count = 0
    j = 0
    while j >= 0:
        c = dirs[j]
        a = lo[j]
        b = hi[j]
        if c != 0:
            if c == 1:
                cur[a] += 1
                cur[b] -= 1
            else:
                cur[b] += 1
                cur[a] -= 1
            und[a] += 1
            und[b] += 1
            if c == 2:
                dirs[j] = 0
                j -= 1
                continue
        c = c + 1
        dirs[j] = c
        if c == 1:
            cur[a] -= 1
            cur[b] += 1
        else:
            cur[b] -= 1
            cur[a] += 1
        und[a] -= 1
        und[b] -= 1
        ok = True
        if und[a] == 0:
            if (cur[a] - tgt[a]) % 3 != 0:
                ok = False
        elif und[a] == 1:
            if (cur[a] - tgt[a]) % 3 == 0:
                ok = False
        if ok:
            if und[b] == 0:
                if (cur[b] - tgt[b]) % 3 != 0:
                    ok = False
            elif und[b] == 1:
                if (cur[b] - tgt[b]) % 3 == 0:
                    ok = False
        if not ok:
            continue
        if j == m - 1:
            if mode == 0:
                for t in range(m):
                    out_dirs[t] = dirs[t]
                return 1
            count += 1
            continue
        j += 1
    return count


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def cut_scan(iu, iv, nfree, ntotal, max_size, min_side):
    """Masks (over the nfree non-anchor vertices) whose vertex set cuts at
    most max_size edges with both sides of order >= min_side.  Edge j joins
    vertex indices iu[j], iv[j]; the anchor vertex carries index nfree and
    is always on the complement side, so each bipartition shows up exactly
    once.  Ascending mask order; vectorized and chunked to bound memory."""
    total = 1 << int(nfree)
    chunk = 1 << 16
    parts = []
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        masks = np.arange(max(start, 1), stop, dtype=np.int64)
        if masks.size == 0:
            continue
        pc = _POP8[masks & 0xFF]
        for shift in range(8, int(nfree) + 1, 8):
            pc = pc + _POP8[(masks >> shift) & 0xFF]
        keep = (pc >= min_side) & (ntotal - pc >= min_side)
        masks = masks[keep]
        if masks.size == 0:
            continue
        cnt = np.zeros(masks.shape[0], dtype=np.int64)
        for j in range(iu.shape[0]):
            cnt += ((masks >> int(iu[j])) ^ (masks >> int(iv[j]))) & 1
        parts.append(masks[cnt <= max_size])
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)

