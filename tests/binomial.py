"""The binomial tail: the one rule for the false-failure rate of a test that asserts a count.

A test that asserts "at least m of n independent trials succeed", where each
succeeds with probability at least q, fails by chance with probability at
most ``cdf(m - 1, n, q)``.  The test states that bound and asserts it.
"""

import math


def cdf(k: int, n: int, q: float) -> float:
    """P(Bin(n, q) <= k), summed term by term."""
    return sum(math.comb(n, i) * q**i * (1 - q) ** (n - i) for i in range(k + 1))
