"""Arrangement-sum oracle for the symmetric and divided powers of a matrix on one row.

Every sorted s of the row's length is visited, and each coefficient is
summed over the distinct arrangements of s (symmetric power) or of the row
(divided power), so no stabiliser identity is used.  Test scale only.
"""

from itertools import combinations_with_replacement
from math import prod

from weylkit.places import multiset_permutations


def arrangement_row_image(g, row: tuple[int, ...], divided: bool) -> dict:
    """{sorted s: coefficient} of the symmetric (or divided) power of g on a sorted row, zeros left out.

    The coefficient of s is the sum over the distinct arrangements w of s
    of prod g[w_i, row_i]; in the divided power it is the sum over the
    distinct arrangements v of the row of prod g[s_i, v_i].
    """
    entries = g.entries
    out = {}
    for s in combinations_with_replacement(range(1, g.size + 1), len(row)):
        if divided:
            pairs = ((s, v) for v in multiset_permutations(row))
        else:
            pairs = ((w, row) for w in multiset_permutations(s))
        value = g.ring.normalize(sum(prod(entries[a - 1][b - 1] for a, b in zip(x, y)) for x, y in pairs))
        if value != 0:
            out[s] = value
    return out
