"""Every memo in ``weylkit`` is on an allow-list that says why it is kept.

A function decorated with ``functools.cache`` or ``lru_cache`` holds every
value it returns for the life of the process, so a new one has to come with
a reason: how often the benchmark workloads or the tests reuse its values.
The ratios are hits over calls in one seed-1 run of each workload.
"""

import ast
from pathlib import Path

import weylkit

PACKAGE = Path(weylkit.__file__).parent

ALLOWED = {
    "tableaux.enumerate_tableaux": (
        "hit ratio 0.24 sweep-field (50 of 208 calls), 0.50 lattice-z (48 of 96), 0.875 equivariance (462 of 528)"
    ),
    "schur._polytabloid_int": (
        "hit ratio 0.59 sweep-field (757 of 1,292 calls, once duality._pairing_rows reads each polytabloid once "
        "per (shape, m); a column-standard label reads the image of its label without the last column from it, "
        "and the misses stay at 535), 0.60 lattice-z (132 of 220), 0.958 equivariance (3,929 of 4,101 calls: "
        "both sides of every check read each label's line-form image from it, so every matrix of a (shape, m) "
        "shares one set of images and the misses stay at 172)"
    ),
    "powers._wedge_of_rsym_int": (
        "hit ratio 0.65 sweep-field (1,907 of 2,925 calls; a row-sorted label reads the image of its label "
        "without the last row from it, and the misses stay at 1,018), 0.81 lattice-z (688 of 850), 0.959 "
        "equivariance (6,780 of 7,069 calls: both sides of every check read each label's line-form image from "
        "it, so every matrix of a (shape, m) shares one set of images and the misses stay at 289)"
    ),
    "verify.certificate": (
        "one cache for both sides: three rings share one certificate: hit ratio 0.67 sweep-field (216 of 324 "
        "calls); 0.00 lattice-z (0 of 116), whose ops are each a new (shape, m) over one ring"
    ),
    "verify._packed_block": (
        "one packed block per (side, shape, k) serves the certificate at every m >= k, and the block of a shape "
        "with three or more lines reads those of its two-line shapes at the same k, each once: hit ratio 0.62 "
        "sweep-field (160 of 260 calls), 0.65 lattice-z (180 of 276)"
    ),
    "schur._garnir_int": (
        "hit ratio 0.00 sweep-field (0 of 29 calls), 0.00 lattice-z (0 of 29), 0.00 element-ops (0 of 84), "
        "keyed by a label's columns: a sweep builds each two-column relation on a packed label once, in its "
        "packed block; bench/spans.py reads it"
    ),
    "weyl._dual_garnir_int": (
        "hit ratio 0.00 sweep-field (0 of 228 calls), 0.00 lattice-z (0 of 228), 0.38 element-ops (246 of 652), "
        "keyed by a label's rows: a sweep builds each two-row snake on a packed label once, in its packed block, "
        "and the hits are straighten's; bench/spans.py reads it"
    ),
    "places._positional_double_coset_reps": "no workload calls it; the tier-1 double-coset loops reuse it",
    "cli._parser": "hit ratio 0.998 element-ops (599 of 600 requests); one parser per process",
    "duality._basis_lines": (
        "hit ratio 0.857 equivariance (396 of 462 calls): the lines of every basis label of a (shape, m, map) serve "
        "every matrix of the check, which otherwise transposed the same column-standard labels again for each "
        "(1,968 Tableau.columns calls); no other workload calls it"
    ),
    "duality._pairing_rows": (
        "hit ratio 0.956 sweep-field (1,177 of 1,231 calls): one transposed polytabloid matrix per (shape, m) "
        "serves every label's pairing image, and each of its rows, one LinComb over Z, is the image over Z; no "
        "other workload calls it"
    ),
}


def _is_cache(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", None)
    return name in ("cache", "lru_cache")


def cached_functions(sources: dict[str, str]) -> set[str]:
    """``module.function`` for every function decorated with ``cache`` or ``lru_cache``."""
    return {
        f"{Path(name).stem}.{node.name}"
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_is_cache, node.decorator_list))
    }


def test_every_cache_has_a_stated_reason():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert cached_functions(sources) == set(ALLOWED)


def test_detects_every_spelling_of_a_cache():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@cache\ndef a(): pass\n\n"
        "@lru_cache(maxsize=8)\ndef b(): pass\n\n"
        "@functools.cache\ndef c(): pass\n\n"
        "class K:\n    @functools.lru_cache\n    def d(self): pass\n\n"
        "    @staticmethod\n    def e(): pass\n\n"
        "def f(): pass\n"
    )
    assert cached_functions({"m.py": source}) == {"m.a", "m.b", "m.c", "m.d"}
