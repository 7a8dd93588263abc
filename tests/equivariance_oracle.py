"""The equivariance check one label at a time: the oracle of ``duality.equivariance_counterexample``.

This is the check as it ran before it summed the left side over the
sources and the right side over the targets.  Both sides are taken per
label, in enumeration order.  On the left, g acts on each of t's lines
apart, and every label s of the result goes through the map's basis
image, zero or not: Phi(g t) = sum over s of (g t)_s Phi(s).  On the
right, g acts on each line of each term u of Phi(t) apart, once per
(t, u).  Every coefficient of the difference is reduced into the ring,
whether it is exactly 0 or not.  A witness has its two sides computed
apart.  Everything is read from ``weylkit.duality`` when called, so a
test's patch of ``_part_image`` or of a label image reaches the oracle
as it reaches the check.
"""

import weylkit.duality as duality
from weylkit.powers import sum_images
from weylkit.tableaux import check_partition, enumerate_tableaux


def left_side(lines: tuple, g, space: str, image, acc: dict) -> dict:
    """``acc`` plus the map on g acting on the label with these lines, by linearity; unreduced."""
    return sum_images(duality._line_images(g, space, lines), image, acc)


def counterexample(shape, max_entry: int, g, which: str):
    """First basis label where the map fails to commute with the action, or None."""
    shape = check_partition(shape)
    if g.size < max_entry:
        raise duality.InputError("entry matrix too small for the alphabet")
    kind, space, target, image = duality._map(which)
    ring = g.ring
    for t in enumerate_tableaux(shape, max_entry, kind):
        lines = duality._lines(t, space)
        difference = left_side(lines, g, space, image, {})
        duality._functorial_terms(((key, -c) for key, c in image(lines).items()), g, target.space, difference)
        if any(map(ring.normalize, difference.values())):
            lhs = left_side(lines, g, space, image, {})
            rhs = duality._functorial_terms(image(lines).items(), g, target.space, {})
            lhs, rhs = (target._on_lines(ring, shape, side).to_json() for side in (lhs, rhs))
            return {"tableau": t.to_json(), "lhs": lhs, "rhs": rhs}
    return None
