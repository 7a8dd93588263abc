"""The straightening loop on tableaux: the oracle of ``weyl.straighten``, and the oracles' lead reader.

:func:`straighten` is ``weyl.straighten`` as it ran before it moved onto
rows: a heap of tableau labels, where each step builds the public
``weyl.dual_snake`` and reads its lead with :func:`leading_coefficient` in
``row_order_key``.  Its ``coords`` and ``gamma`` are what the line loop
must give, in the same order, so that ``weylkit straighten`` prints the
same JSON.

:func:`leading_coefficient` reads a lead off a public element.  It is the
lead reader of every tableau oracle (this one, ``scan_oracle``,
``dual_image_oracles`` and the Schur pivot test), so none of them shares
code with ``weylkit.linalg.lead``, which they check.
"""

import heapq
from functools import partial

import weylkit.weyl as weyl
from weylkit.coeffs import LinComb
from weylkit.powers import SymLowerElement
from weylkit.tableaux import Tableau, row_order_key


def leading_coefficient(element, label, key):
    """Coefficient of ``label`` in ``element`` when every other label sorts below it.

    ``key`` maps a label to its sort key.  Returns ``None`` when some other
    label of the element does not sort strictly below ``label``.
    """
    top = key(label)
    if any(key(u) >= top for u in element.labels() if u != label):
        return None
    return element.coeff(label)


def straighten(x: SymLowerElement) -> weyl.StraighteningCertificate:
    """Rewrite x as semistandard coordinates modulo dual snake relations, one tableau at a time."""
    ring = x.ring
    max_entry = max([1, *(t.max_entry for t in x.labels())])
    key = partial(row_order_key, max_entry=max_entry)
    work = dict(x.lin.items())
    heap: list[tuple[tuple, Tableau]] = []
    gamma: list[tuple[Tableau, int, int, int, object]] = []

    def push(label):
        if not label.is_semistandard:
            heapq.heappush(heap, (tuple(-v for v in key(label)), label))

    for label in work:
        push(label)
    while heap:
        _, label = heapq.heappop(heap)
        coeff = work[label]
        if coeff == 0:
            continue
        i, j, jp = weyl._snake_pivot(label.rows)
        snake = weyl.dual_snake(label, i, j, jp, ring).element
        if leading_coefficient(snake, label, key) != 1:
            raise RuntimeError(f"dual snake {(i, j, jp)} on {label!r} does not lead with 1 in the row order")
        for u, c in snake.lin.items():
            if u not in work:
                push(u)
            work[u] = ring.sub(work.get(u, ring.zero), ring.mul(coeff, c))
        gamma.append((label, i, j, jp, ring.neg(coeff)))

    return weyl.StraighteningCertificate(x, SymLowerElement(LinComb(ring, work)), tuple(gamma))
