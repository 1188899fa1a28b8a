"""Square-root trial division: the oracle for `squarefree_decompose`.

This is the decomposition as it was before the cube-root bound: it divides
by every candidate p with p*p <= n, so it costs O(sqrt(n)) on a prime.  It is
spelled out here rather than imported, so a change to the library's loop
cannot silently change the oracle.
"""

from __future__ import annotations

import math


def squarefree_decompose_sqrt(n: int) -> tuple[int, int]:
    """Write n > 0 as s**2 * d with d squarefree; returns (s, d)."""
    s, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * n


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))
