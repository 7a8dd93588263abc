"""Command-line front end: subcommands, rendering, and verification reports.

Exit codes: 0 success / all checks passed, 1 a verification check failed
(the report carries a replayable counterexample), 2 usage error (unknown
subcommand, malformed input, size cap exceeded: a :class:`CliError` or an
:class:`~weylkit.coeffs.InputError`), 3 internal error (any other
exception, which is a bug in weylkit), 141 the reader closed stdout
(128 + SIGPIPE, what a shell reports for a writer killed by SIGPIPE).

Each subcommand is declared once, as a :class:`Command`, and
:func:`build_parser` turns the table into one argparse subparser per
command.  A process keeps one parser for all its requests, and argparse
reads the terminal width each time it prints help, usage or an error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import stat
import sys
import time
from dataclasses import dataclass

from .coeffs import QQ, CoefficientRing, InputError, LinComb, _is_ascii_digits, parse_ring
from .duality import (
    POLYTABLOID_MAP,
    WEDGE_MAP,
    EntryMatrix,
    equivariance_counterexample,
    pairing_image,
)
from .places import Relation
from .powers import SymLowerElement, TableauElement, rsym
from .schur import garnir, polytabloid, verify_schur_ses
from .tableaux import (
    ALL,
    COLUMN_STANDARD,
    ROW_SEMISTANDARD,
    SEMISTANDARD,
    Tableau,
    check_partition,
    count_tableaux,
    enumerate_tableaux,
    sort_rows,
)
from .verify import check, check_caps, report
from .weyl import (
    STAR_STAR_VARIANT,
    STAR_VARIANT,
    copolytabloid,
    dual_garnir,
    dual_garnir_double_coset,
    dual_snake,
    straighten,
    variant_relation,
    verify_weyl_kernel,
)


EXIT_BROKEN_PIPE = 141


class CliError(Exception):
    pass


@dataclass
class RunConfig:
    """Size caps and run options; WEYLKIT_MAX_SIZE, in ASCII digits, raises the size caps."""

    element_size_cap: int = 8
    verify_size_cap: int = 5
    verify_entry_cap: int = 3
    max_entries: int = 9

    @classmethod
    def from_env(cls) -> "RunConfig":
        cfg = cls()
        override = os.environ.get("WEYLKIT_MAX_SIZE")
        if override:
            if not _is_ascii_digits(override.removeprefix("-")):
                raise CliError(f"WEYLKIT_MAX_SIZE must be an integer, got {override!r}")
            cap = int(override)
            if cap <= 0:
                raise CliError(f"WEYLKIT_MAX_SIZE must be positive, got {override!r}")
            cfg.element_size_cap = cap
            cfg.verify_size_cap = cap
        return cfg


# ---------------------------------------------------------------------------
# argument parsing helpers


_SHAPE_RE = re.compile(r"(?:\s*[0-9]+\s*(?:,\s*[0-9]+\s*)*)?")


def parse_shape(text: str) -> tuple[int, ...]:
    """A comma-separated partition in ASCII digits; the empty string is the empty partition."""
    if not _SHAPE_RE.fullmatch(text):
        raise CliError(f"malformed shape {text!r}: expected ASCII digits separated by commas")
    try:
        return check_partition(tuple(int(p) for p in text.split(",")) if text else ())
    except ValueError as exc:
        raise CliError(f"malformed shape {text!r}: {exc}") from exc


def parse_tableau_arg(text: str) -> Tableau:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed tableau JSON: {exc}") from exc
    try:
        return Tableau.from_json(obj)
    except InputError as exc:
        raise CliError(f"malformed tableau JSON: {exc}") from exc


_BOX = r"\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)"
_BOX_RE = re.compile(_BOX)
_BOX_SET_RE = re.compile(rf"[ \t]*{_BOX}(?:[ \t]*,[ \t]*{_BOX})*[ \t]*")


def parse_boxes(text: str) -> frozenset:
    """Distinct boxes ``(i,j)`` in ASCII digits, separated by single commas; spaces and tabs are allowed."""
    if not _BOX_SET_RE.fullmatch(text):
        raise CliError(f"malformed box set {text!r}: expected e.g. '(1,1),(1,2)'")
    found = [(int(i), int(j)) for i, j in _BOX_RE.findall(text)]
    boxes = frozenset(found)
    if len(boxes) < len(found):
        i, j = next(box for k, box in enumerate(found) if box in found[:k])
        raise CliError(f"malformed box set {text!r}: box ({i},{j}) is repeated")
    return boxes


def _ascii_int(text: str) -> int:
    """An integer in ASCII digits with an optional leading minus, the type of ``--entries`` and ``--row``.

    Named ``int``, which argparse prints in its error: ``invalid int value: '...'``.
    """
    if not _is_ascii_digits(text.removeprefix("-")):
        raise ValueError(text)
    return int(text)


_ascii_int.__name__ = "int"


_PAIR_RE = re.compile(r"\s*([0-9]+)\s*:\s*([0-9]+)\s*")


def parse_pair(text: str, flag: str, expected: str) -> tuple[int, int]:
    """Two integers in ASCII digits, written ``a:b``, the value of ``flag``."""
    match = _PAIR_RE.fullmatch(text)
    if not match:
        raise CliError(f"malformed {flag} {text!r}: expected {expected}")
    return int(match[1]), int(match[2])


def parse_matrix_arg(text: str, ring: CoefficientRing) -> EntryMatrix:
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed matrix JSON: {exc}") from exc
    try:
        return EntryMatrix(ring, rows)
    except InputError as exc:
        raise CliError(f"bad entry matrix: {exc}") from exc


# ---------------------------------------------------------------------------
# rendering


# per human format: how a tableau is written, what joins a coefficient to it, and each space's brackets
_MARKUP = {
    "text": (
        lambda t: "[" + ",".join("[" + ",".join(str(v) for v in row) + "]" for row in t.rows) + "]",
        "*",
        {"tensor": ("", ""), "sym_upper": ("⌊", "⌋"), "sym_lower": ("rsym(", ")"), "wedge": ("|", "|")},
    ),
    "latex": (
        lambda t: "\\ytableaushort{" + ",".join("".join(f"{{{v}}}" for v in row) for row in t.rows) + "}",
        "\\,",
        {
            "tensor": ("\\ytab{", "}"),
            "sym_upper": ("\\yrowtab{", "}"),
            "sym_lower": ("\\yrsym{", "}"),
            "wedge": ("\\ycoltab{", "}"),
        },
    ),
}


def render_element(x: TableauElement, fmt: str) -> str:
    """Serialize an element: bit-stable JSON, without the cycle check as in :func:`_emit`, or a human/LaTeX sum."""
    if fmt == "json":
        return json.dumps(x.to_json(), check_circular=False)
    if fmt not in _MARKUP:
        raise CliError(f"unknown format {fmt!r}")
    if x.is_zero:
        return "0"
    tableau, times, wrap = _MARKUP[fmt]
    left, right = wrap[x.space]
    bits = []
    for t, c in x.items():
        c_str = x.ring.format_coeff(c)
        prefix = "" if c_str == "1" else c_str + times
        bits.append(f"{prefix}{left}{tableau(t)}{right}")
    return " + ".join(bits)


def _emit(obj) -> None:
    """Print a payload as indented JSON.

    Every payload is a tree built fresh for the request, so the encoder
    skips its cycle check; a cycle would be a bug, and it still ends in a
    ``RecursionError``, an internal error.
    """
    print(json.dumps(obj, indent=2, check_circular=False))


def _emit_element(x: TableauElement, args) -> int:
    print(render_element(x, args.format))
    return 0


def _emit_relation(rel: Relation, args) -> int:
    if args.format == "json":
        _emit(rel.to_json())
        return 0
    return _emit_element(rel.element, args)


def _emit_report(report: dict) -> int:
    _emit(report)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_dims(args, cfg):
    shape = parse_shape(args.shape)
    check_caps(shape, args.entries, cfg.element_size_cap, cfg.max_entries)
    _emit(
        {
            "ssyt": count_tableaux(shape, args.entries, SEMISTANDARD),
            "rssyt": count_tableaux(shape, args.entries, ROW_SEMISTANDARD),
            "csyt": count_tableaux(shape, args.entries, COLUMN_STANDARD),
        }
    )
    return 0


_CLASS_NAMES = {
    "all": ALL,
    "row": ROW_SEMISTANDARD,
    "column": COLUMN_STANDARD,
    "semistandard": SEMISTANDARD,
}


def _cmd_basis(args, cfg):
    shape = parse_shape(args.shape)
    check_caps(shape, args.entries, cfg.element_size_cap, cfg.max_entries)
    kind = _CLASS_NAMES[args.cls]
    if kind == ALL and args.entries ** sum(shape) > 10**6:
        raise CliError("size cap exceeded: refusing to list more than 10^6 tableaux")
    tabs = enumerate_tableaux(shape, args.entries, kind)
    _emit(
        {
            "shape": list(shape),
            "entries": args.entries,
            "class": args.cls,
            "count": len(tabs),
            "tableaux": [t.to_json() for t in tabs],
        }
    )
    return 0


def _element_op_common(args, cfg) -> tuple[Tableau, CoefficientRing]:
    t = parse_tableau_arg(args.tableau)
    if getattr(args, "shape", None) is not None and parse_shape(args.shape) != t.shape:
        raise CliError("--shape disagrees with the tableau")
    entries = getattr(args, "entries", None)
    check_caps(t.shape, entries or t.max_entry, cfg.element_size_cap, cfg.max_entries)
    if entries is not None and t.max_entry > entries:
        raise CliError(f"tableau entries exceed --entries {entries}")
    return t, parse_ring(args.ring)


def _cmd_rsym(args, cfg):
    t, ring = _element_op_common(args, cfg)
    return _emit_element(rsym(t, ring), args)


def _cmd_polytabloid(args, cfg):
    t, ring = _element_op_common(args, cfg)
    return _emit_element(polytabloid(t, ring), args)


def _cmd_copolytabloid(args, cfg):
    t, ring = _element_op_common(args, cfg)
    return _emit_element(copolytabloid(t, ring), args)


def _cmd_garnir(args, cfg):
    t, ring = _element_op_common(args, cfg)
    return _emit_relation(garnir(t, parse_boxes(args.boxA), parse_boxes(args.boxB), ring), args)


def _cmd_dual_garnir(args, cfg):
    t, ring = _element_op_common(args, cfg)
    box_a, box_b = parse_boxes(args.boxA), parse_boxes(args.boxB)
    if args.rows:
        ra, rb = parse_pair(args.rows, "--rows", "i:i'")
        if {b[0] for b in box_a} != {ra} or {b[0] for b in box_b} != {rb}:
            raise CliError("--rows disagrees with the box sets")
    builders = {
        "plain": dual_garnir,
        "dc": dual_garnir_double_coset,
        "star": lambda *a: variant_relation(*a[:3], STAR_VARIANT, a[3]),
        "star-star": lambda *a: variant_relation(*a[:3], STAR_STAR_VARIANT, a[3]),
    }
    return _emit_relation(builders[args.variant](t, box_a, box_b, ring), args)


def _cmd_snake(args, cfg):
    t, ring = _element_op_common(args, cfg)
    j, jp = parse_pair(args.cols, "--cols", "j:j'")
    return _emit_relation(dual_snake(t, args.row, j, jp, ring), args)


def _cmd_straighten(args, cfg):
    t, ring = _element_op_common(args, cfg)
    source = SymLowerElement(LinComb(ring, {sort_rows(t): 1}))
    cert = straighten(source)
    _emit(
        {
            "input": cert.source.to_json(),
            "coords": cert.coords.to_json(),
            "gamma": [
                {
                    "tableau": label.to_json(),
                    "row": i,
                    "cols": [j, jp],
                    "coeff": ring.format_coeff(coeff),
                }
                for label, i, j, jp, coeff in cert.gamma
            ],
            "verified": cert.verify(),
        }
    )
    return 0


def _cmd_verify(args, cfg):
    shape = parse_shape(args.shape)
    check_caps(shape, args.entries, cfg.verify_size_cap, cfg.verify_entry_cap)
    verify = verify_schur_ses if args.command == "schur-verify" else verify_weyl_kernel
    return _emit_report(verify(shape, args.entries, parse_ring(args.ring), None, None))


def _cmd_duality_check(args, cfg):
    shape = parse_shape(args.shape)
    check_caps(shape, args.entries, cfg.verify_size_cap, cfg.verify_entry_cap)
    started = time.perf_counter()
    counterexample = None
    checked = 0
    for t in enumerate_tableaux(shape, args.entries, ROW_SEMISTANDARD):
        checked += 1
        image = pairing_image(t, args.entries)
        expected = copolytabloid(t)
        if image != expected:
            counterexample = {
                "tableau": t.to_json(),
                "pairing_image": image.to_json(),
                "copolytabloid": expected.to_json(),
            }
            break
    instance = {"shape": list(shape), "entries": args.entries, "ring": "z"}
    checks = [check("pairing_image_matches_copolytabloid", counterexample is None, counterexample)]
    return _emit_report(report("duality-check", instance, {"rssyt_checked": checked}, checks, started))


def _cmd_equivariance(args, cfg):
    shape = parse_shape(args.shape)
    check_caps(shape, args.entries, cfg.verify_size_cap, cfg.verify_entry_cap)
    ring = parse_ring(args.ring)
    g = parse_matrix_arg(args.matrix, ring)
    started = time.perf_counter()
    counterexample = equivariance_counterexample(shape, args.entries, g, args.map)
    instance = {
        "shape": list(shape),
        "entries": args.entries,
        "ring": ring.tag,
        "map": args.map,
        # Fractions are not JSON; Z and Z/n entries stay plain integers.
        "matrix": [[ring.format_coeff(v) if ring == QQ else v for v in row] for row in g.entries],
    }
    checks = [check("map_commutes_with_action", counterexample is None, counterexample)]
    return _emit_report(report("equivariance", instance, {}, checks, started))


# ---------------------------------------------------------------------------
# parser


@dataclass(frozen=True)
class Command:
    """One subcommand: its handler, its line in ``weylkit --help`` and its arguments.

    Each argument is a pair (flag, keyword arguments of ``add_argument``).
    """

    name: str
    handler: object
    help: str
    args: tuple


_SHAPE = ("--shape", {"required": True})
_SHAPE_CHECK = ("--shape", {})
_ENTRIES = ("--entries", {"type": _ascii_int, "required": True})
_ENTRIES_BOUND = ("--entries", {"type": _ascii_int})
_TABLEAU = ("--tableau", {"required": True})
_BOXES = (("--boxA", {"required": True}), ("--boxB", {"required": True}))
_RING = ("--ring", {"default": "z", "help": "z | q | zmod:<n>"})
_RING_Q = ("--ring", {"default": "q", "help": "z | q | zmod:<n>"})
_FORMAT = ("--format", {"choices": ("json", "text", "latex"), "default": "json"})
_ELEMENT = (_TABLEAU, _SHAPE_CHECK, _ENTRIES_BOUND, _RING, _FORMAT)

_COMMANDS = (
    Command("dims", _cmd_dims, "basis cardinalities for one shape and alphabet", (_SHAPE, _ENTRIES)),
    Command(
        "basis",
        _cmd_basis,
        "list the tableaux of one classification",
        (
            _SHAPE,
            _ENTRIES,
            ("--class", {"dest": "cls", "choices": tuple(sorted(_CLASS_NAMES)), "default": "semistandard"}),
        ),
    ),
    Command("rsym", _cmd_rsym, "rsym of a tableau", _ELEMENT),
    Command("polytabloid", _cmd_polytabloid, "polytabloid of a tableau", _ELEMENT),
    Command("copolytabloid", _cmd_copolytabloid, "copolytabloid of a tableau", _ELEMENT),
    Command(
        "garnir",
        _cmd_garnir,
        "column-pair relation for (tableau, A, B)",
        (_TABLEAU, *_BOXES, _SHAPE_CHECK, _ENTRIES_BOUND, _RING, _FORMAT),
    ),
    Command(
        "dual-garnir",
        _cmd_dual_garnir,
        "row-pair relation for (tableau, A, B)",
        (
            _TABLEAU,
            *_BOXES,
            _SHAPE_CHECK,
            ("--rows", {"help": "i:i' sanity check against the box sets"}),
            _ENTRIES_BOUND,
            ("--variant", {"choices": ("plain", "dc", "star", "star-star"), "default": "plain"}),
            _RING,
            _FORMAT,
        ),
    ),
    Command(
        "snake",
        _cmd_snake,
        "adjacent-row relation labelled (tableau, i, (j, j'))",
        (
            _TABLEAU,
            ("--row", {"type": _ascii_int, "required": True}),
            ("--cols", {"required": True, "help": "j:j'"}),
            _ENTRIES_BOUND,
            _RING,
            _FORMAT,
        ),
    ),
    Command(
        "straighten", _cmd_straighten, "semistandard coordinates with certificate", (_TABLEAU, _ENTRIES, _RING)
    ),
    Command(
        "schur-verify", _cmd_verify, "rank bookkeeping of the column-side kernel", (_SHAPE, _ENTRIES, _RING_Q)
    ),
    Command("weyl-verify", _cmd_verify, "rank bookkeeping of the row-side kernel", (_SHAPE, _ENTRIES, _RING_Q)),
    Command("duality-check", _cmd_duality_check, "pairing image against copolytabloids", (_SHAPE, _ENTRIES)),
    Command(
        "equivariance",
        _cmd_equivariance,
        "map commutation with an entry matrix",
        (
            _SHAPE,
            _ENTRIES,
            ("--matrix", {"required": True}),
            ("--map", {"choices": (POLYTABLOID_MAP, WEDGE_MAP), "required": True}),
            _RING,
        ),
    ),
)


def build_parser() -> argparse.ArgumentParser:
    """A new parser on each call, with one subcommand parser per :class:`Command`.

    ``dispatch`` calls this once per process, through :func:`_parser`.
    """
    parser = argparse.ArgumentParser(
        prog="weylkit", description="Exact polytabloid/copolytabloid computations and theorem checks."
    )
    parser.add_argument("--output", help="write the result here instead of stdout")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        subparser = subparsers.add_parser(command.name, help=command.help)
        for flag, kwargs in command.args:
            subparser.add_argument(flag, **kwargs)
        subparser.set_defaults(func=command.handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every request in this process: ``build_parser``, called once.

    One parser serves many requests safely, because every default in
    ``_COMMANDS`` is immutable (a str, int or tuple), ``parse_args`` makes a
    fresh ``Namespace`` per call, and each time argparse prints help, usage
    or an error it makes a new formatter, which reads the terminal width,
    and looks up ``sys.stdout`` or ``sys.stderr``; so ``COLUMNS``,
    ``redirect_stdout`` and ``--output`` still reach it.
    """
    return build_parser()


def _file_mode(path: str) -> int:
    """Permissions of ``path``, or those ``open(path, "w")`` would create it with."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mask = os.umask(0)
        os.umask(mask)
        return 0o666 & ~mask


def _run_to_file(path: str, run) -> int:
    """Call ``run`` with stdout sent to ``path``, which changes only on exit 0 or 1.

    The output goes to a temp file beside ``path`` that replaces it once
    ``run`` returns 0 or 1.  On any other exit code, or an exception, the
    temp file is deleted and ``path`` is left as it was.  A replace that
    fails (say, because ``path`` is a directory) is a usage error.
    """
    import tempfile  # only on this path: importing it costs a cold start 3-6 ms (shutil, random)

    target = os.path.abspath(path)
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(target), prefix=f".{os.path.basename(target)}.", suffix=".tmp"
        )
    except OSError as exc:
        raise CliError(f"cannot write --output {path!r}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "w") as handle, contextlib.redirect_stdout(handle):
            code = run()
        if code in (0, 1):
            os.chmod(tmp, _file_mode(target))
            try:
                os.replace(tmp, target)
            except OSError as exc:
                raise CliError(f"cannot write --output {path!r}: {exc.strerror}") from exc
            tmp = None
        return code
    finally:
        if tmp is not None:
            os.unlink(tmp)


def dispatch(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = RunConfig.from_env()
        if args.output:
            return _run_to_file(args.output, lambda: args.func(args, cfg))
        return args.func(args, cfg)
    except (CliError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        import traceback  # only on this path: importing it costs a cold start about 2 ms

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    code = dispatch(argv)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # the interpreter flushes stdout again on exit: let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
