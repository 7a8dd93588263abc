"""Workload definitions: the op list of each workload, built from a seed.

An op is one call into ``weylkit``'s public surface together with the gate
that decides whether its output is correct.  Ops look their target up on
the ``weylkit`` modules at call time, so a traced run sees the wrappers the
span recorder installs.

Workloads, and why each exists:

* ``sweep-field``: the tier-1 theorem sweep.  Both verify calls on every
  shape with |shape| <= 5, m in {1, 2, 3}, over Q, Z/2 and Z/3, plus the
  pairing check of ``duality-check`` per (shape, m).  Relation builders
  dominate and their caches are reused across rings; no Smith form runs.
* ``lattice-z``: the same verify calls over Z only, where the dense Smith
  form dominates.  A rank-only or relation-building change should leave it
  still.  The one-row and one-column shapes of size 5 at m = 3 are left
  out: their two Smith forms alone take 10 s, three times the rest, and a
  short repetition is what lets a run repeat it several times.  Shapes of
  size <= 3 at m = 4 are added, which moves the median op from about 0.6
  to 0.9 ms: the shorter an op, the more its time varies.
* ``equivariance``: both projection maps against the identity, every
  permutation matrix and three seeded random unimodular matrices per
  (shape, m), built as in acceptance criterion 8 (which draws 20).  The entry action and the tensor
  projections dominate; no linear algebra runs.
* ``element-ops``: 600 distinct single-element CLI requests through
  ``weylkit.cli.dispatch``, a committed list whose order the seed shuffles.
  Each request builds one cold relation or element; argument parsing is a
  large share of each.

The two sweeps are fixed lists in the order a user sweep takes (shape by
shape, then m, then ring), so their seed changes nothing.  The seed draws
the random matrices of ``equivariance`` and shuffles the order of its ops,
and shuffles ``element-ops`` within blocks of ``SHUFFLE_BLOCK`` requests.
The random matrices have no zero off-diagonal factor entries, so each is
dense and the amount of work hardly depends on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from itertools import permutations
from pathlib import Path

import weylkit
import weylkit.cli
import weylkit.duality
import weylkit.schur
import weylkit.tableaux
import weylkit.weyl

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
VERIFY_EXPECTED = EXPECTED_DIR / "verify.json"
ELEMENT_POOL = EXPECTED_DIR / "element_ops.jsonl"

FIELD_RINGS = ("q", "zmod:2", "zmod:3")
SWEEP_SIZE = 5
EQUIVARIANCE_SIZE = 4
ENTRY_RANGE = (1, 2, 3)
RANDOM_MATRICES = 3
LATTICE_SKIPPED = {((5,), 3), ((1, 1, 1, 1, 1), 3)}
LATTICE_EXTRA = (3, 4)  # also every shape of size <= 3 at m = 4
ELEMENT_REQUESTS = 600
SHUFFLE_BLOCK = 25

# A tiny run keeps only shapes of size <= 3 (100 requests for element-ops)
# and repeats the ops up to MIN_OPS, so p90 still has ten samples beyond it.
TINY_SIZE = 3
MIN_OPS = 100

# The content of a verify report that later changes to the report layout
# must keep: the Smith-form keys are left out on purpose.
VERIFY_RANKS = ("projection", "snake_span", "polytabloid_map", "garnir_span")


class Op:
    """One call and its correctness gate."""

    __slots__ = ("kind", "key", "payload")

    def __init__(self, kind: str, key: str, payload):
        self.kind = kind
        self.key = key
        self.payload = payload

    def run(self):
        return _RUNNERS[self.kind](self.payload)

    def check(self, result, expected) -> bool:
        return _GATES[self.kind](self, result, expected)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verify_key(kind: str, shape, m: int, ring: str) -> str:
    return f"{kind}|{','.join(map(str, shape))}|{m}|{ring}"


def verify_summary(report: dict) -> dict:
    """The gated part of a verify report."""
    return {
        "ok": report["ok"],
        "dims": report["dims"],
        "ranks": {k: report["ranks"][k] for k in VERIFY_RANKS if k in report["ranks"]},
    }


# ---------------------------------------------------------------------------
# runners: look the target up at call time


def _run_verify(payload):
    kind, shape, m, ring = payload
    fn = weylkit.schur.verify_schur_ses if kind == "schur" else weylkit.weyl.verify_weyl_kernel
    return fn(shape, m, weylkit.parse_ring(ring), size_cap=None, entry_cap=None)


def _run_pairing(payload):
    shape, m, ring_tag = payload
    ring = weylkit.parse_ring(ring_tag)
    rows = weylkit.tableaux.enumerate_tableaux(shape, m, weylkit.tableaux.ROW_SEMISTANDARD)
    mismatches = 0
    for t in rows:
        if weylkit.duality.pairing_image(t, m, ring) != weylkit.weyl.copolytabloid(t, ring):
            mismatches += 1
    return len(rows), mismatches


def _run_equivariance(payload):
    shape, m, g, which = payload
    return weylkit.duality.equivariance_counterexample(shape, m, g, which)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = weylkit.cli.dispatch(list(argv))
    return code, out.getvalue()


_RUNNERS = {
    "verify": _run_verify,
    "pairing": _run_pairing,
    "equivariance": _run_equivariance,
    "cli": _run_cli,
}


# ---------------------------------------------------------------------------
# gates


def cli_digest(argv, stdout: str) -> str:
    """Digest of a request's output; for straighten only the coordinates count."""
    if argv[0] == "straighten":
        obj = json.loads(stdout)
        if obj.get("verified") is not True:
            return "unverified"
        return digest(json.dumps(obj["coords"], sort_keys=True))
    return digest(stdout)


def _gate_verify(op, report, expected):
    return expected is not None and verify_summary(report) == expected


def _gate_pairing(op, result, expected):
    checked, mismatches = result
    return checked > 0 and mismatches == 0


def _gate_equivariance(op, result, expected):
    return result is None


def _gate_cli(op, result, expected):
    code, stdout = result
    return code == 0 and expected is not None and cli_digest(op.payload, stdout) == expected


_GATES = {
    "verify": _gate_verify,
    "pairing": _gate_pairing,
    "equivariance": _gate_equivariance,
    "cli": _gate_cli,
}


# ---------------------------------------------------------------------------
# op lists


def _shapes(max_size: int):
    return tuple(weylkit.partitions_up_to(max_size))


def _verify_ops(shape, m, rings):
    return [
        Op("verify", verify_key(kind, shape, m, ring), (kind, shape, m, ring))
        for ring in rings
        for kind in ("schur", "weyl")
    ]


def sweep_field_ops(max_size: int = SWEEP_SIZE, pairing: bool = True):
    ops = []
    for shape in _shapes(max_size):
        for m in ENTRY_RANGE:
            ops += _verify_ops(shape, m, FIELD_RINGS)
            if pairing:
                ops.append(Op("pairing", verify_key("pairing", shape, m, "z"), (shape, m, "z")))
    return ops


def lattice_ops(max_size: int = SWEEP_SIZE):
    ops = []
    for shape in _shapes(max_size):
        for m in ENTRY_RANGE:
            if (shape, m) not in LATTICE_SKIPPED:
                ops += _verify_ops(shape, m, ("z",))
    extra_size, extra_m = LATTICE_EXTRA
    for shape in _shapes(min(max_size, extra_size)):
        ops += _verify_ops(shape, extra_m, ("z",))
    return ops


def random_unimodular(rng: random.Random, m: int) -> list[list[int]]:
    """Upper times lower unitriangular times a signed permutation, as in criterion 8.

    The off-diagonal entries of the factors are drawn from {-2, -1, 1, 2}
    rather than criterion 8's -2..2: a zero there makes the matrix sparser
    and the entry action far cheaper, which would tie a run's cost to the seed.
    """
    entries = (-2, -1, 1, 2)
    upper = [[1 if i == j else (rng.choice(entries) if j > i else 0) for j in range(m)] for i in range(m)]
    lower = [[1 if i == j else (rng.choice(entries) if j < i else 0) for j in range(m)] for i in range(m)]
    perm = list(range(m))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(m)]
    pmat = [[signs[i] if perm[i] == j else 0 for j in range(m)] for i in range(m)]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m)] for i in range(m)]

    return mul(mul(upper, lower), pmat)


def _equivariance_ops(rng: random.Random, max_size: int):
    EntryMatrix = weylkit.EntryMatrix
    ops = []
    for shape in _shapes(max_size):
        for m in ENTRY_RANGE:
            matrices = [EntryMatrix.identity(m)]
            matrices += [EntryMatrix.permutation(images) for images in permutations(range(1, m + 1))]
            matrices += [EntryMatrix(weylkit.ZZ, random_unimodular(rng, m)) for _ in range(RANDOM_MATRICES)]
            for g in matrices:
                for which in ("lambda", "e"):
                    key = f"equivariance|{shape}|{m}|{which}|{[list(r) for r in g.entries]}"
                    ops.append(Op("equivariance", key, (shape, m, g, which)))
    return ops


def load_element_pool() -> list[dict]:
    with ELEMENT_POOL.open() as handle:
        return [json.loads(line) for line in handle]


def build(workload: str, seed: int, tiny: bool = False) -> tuple[list[Op], dict]:
    """The workload's ops in run order, and the expected value for each op key."""
    rng = random.Random(f"{workload}:{seed}")
    max_size = TINY_SIZE if tiny else None
    expected: dict = {}
    if workload == "sweep-field":
        ops = sweep_field_ops(max_size or SWEEP_SIZE)
        expected = json.loads(VERIFY_EXPECTED.read_text())
    elif workload == "lattice-z":
        ops = lattice_ops(max_size or SWEEP_SIZE)
        expected = json.loads(VERIFY_EXPECTED.read_text())
    elif workload == "equivariance":
        ops = _equivariance_ops(rng, max_size or EQUIVARIANCE_SIZE)
        rng.shuffle(ops)
    elif workload == "element-ops":
        picked = load_element_pool()[: MIN_OPS if tiny else ELEMENT_REQUESTS]
        ops = [Op("cli", json.dumps(rec["argv"]), rec["argv"]) for rec in picked]
        expected = {op.key: rec["digest"] for op, rec in zip(ops, picked)}
        # Only within blocks: peak RSS depends on when the largest requests
        # run, on top of the caches filled before them, and a full shuffle
        # moved it by up to 15% from one seed to another.
        blocks = [ops[i:i + SHUFFLE_BLOCK] for i in range(0, len(ops), SHUFFLE_BLOCK)]
        for block in blocks:
            rng.shuffle(block)
        ops = [op for block in blocks for op in block]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tiny and len(ops) < MIN_OPS:
        ops = [ops[i % len(ops)] for i in range(MIN_OPS)]
    return ops, expected
