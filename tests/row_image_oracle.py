"""Oracles for the symmetric and divided powers of a matrix on one row.

``arrangement_row_image`` visits every sorted s of the row's length and
sums each coefficient over the distinct arrangements of s (symmetric
power) or of the row (divided power), so no stabiliser identity is used.
Test scale only.  ``separate_row_images`` computes the two powers apart,
one product each, with the stabiliser orders of ``places``.
"""

from itertools import combinations_with_replacement
from math import prod
from operator import floordiv, truediv

from weylkit.coeffs import QQ
from weylkit.duality import _line_product, _ring_terms
from weylkit.places import multiset_permutations, stabilizer_order


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


def separate_row_images(g, row: tuple[int, ...]) -> tuple[dict, dict]:
    """The symmetric and the divided power of g on a sorted row, each from its own product: ({s: coeff}, {s: coeff}).

    The divided power rescales the coefficient of s by
    ``stabilizer_order(s) / stabilizer_order(row)``; both are reduced into
    the ring, zeros left out.
    """
    divide = truediv if g.ring == QQ else floordiv
    symmetric = _line_product(g, row, alternating=False)
    stab = stabilizer_order(row)
    divided = {s: divide(v * stabilizer_order(s), stab) for s, v in _line_product(g, row, alternating=False).items()}
    return _ring_terms(g.ring, symmetric), _ring_terms(g.ring, divided)
