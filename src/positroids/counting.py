"""Closed-form counts of the sparse paving census.

Non-adjacent subsets of the cyclic ground set [n] obey a two-step recurrence
whose values are the Lucas numbers from n = 2 on, and they index the sparse
paving positroids of every middle rank.  This module imports nothing, so
`positroids enumerate --count-only` loads it and no other module of the
package.
"""


def count_nonadjacent(n: int) -> int:
    """Exact count of non-adjacent subsets: 1 and 2 for n = 0 and 1, then
    the n-th Lucas number (3, 4, 7, 11, ...), so each value from n = 4 on is
    the sum of the previous two.  It is also the nearest integer to the
    n-th power of the golden ratio phi: phi**n differs from the n-th Lucas
    number by (-1/phi)**n, below one half once n >= 2."""
    if n < 0:
        raise ValueError("count needs n >= 0")
    return (1, 2)[n] if n < 2 else lucas(n)


def lucas(n: int) -> int:
    """Lucas numbers 2, 1, 3, 4, 7, 11, ... with exact integers."""
    if n < 0:
        raise ValueError("Lucas numbers need n >= 0")
    if n == 0:
        return 2
    a, b = 2, 1
    for _ in range(1, n):
        a, b = b, a + b
    return b


def count_sparse_paving(k: int, n: int) -> int:
    """Number of sparse paving positroids on [n] of rank k: n+1 at the two
    extreme ranks, the non-adjacent count for every middle rank."""
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError(f"counting needs 1 <= k <= n-1, got k={k}, n={n}")
    if k == 1 or k == n - 1:
        return n + 1
    return count_nonadjacent(n)
