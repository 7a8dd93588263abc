"""The hand-written argument parser that the ``_COMMANDS`` table must reproduce.

Each subcommand's arguments are spelled out here one ``add_argument``
call at a time, as ``weylkit.cli.build_parser`` once did.  Tests run
``dispatch`` with this parser and with ``build_parser``, which derives
the same subcommands from ``weylkit.cli._COMMANDS``, and compare exit
codes, output and parsed namespaces.
"""

import argparse

from weylkit.cli import (
    _CLASS_NAMES,
    _ascii_int,
    _cmd_basis,
    _cmd_copolytabloid,
    _cmd_dims,
    _cmd_dual_garnir,
    _cmd_duality_check,
    _cmd_equivariance,
    _cmd_garnir,
    _cmd_polytabloid,
    _cmd_rsym,
    _cmd_snake,
    _cmd_straighten,
    _cmd_verify,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylkit",
        description="Exact polytabloid/copolytabloid computations and theorem checks.",
    )
    parser.add_argument("--output", help="write the result here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        return p

    def add_format(p):
        p.add_argument("--format", choices=("json", "text", "latex"), default="json")

    def add_ring(p, default="z"):
        p.add_argument("--ring", default=default, help="z | q | zmod:<n>")

    p = add("dims", _cmd_dims, help="basis cardinalities for one shape and alphabet")
    p.add_argument("--shape", required=True)
    p.add_argument("--entries", type=_ascii_int, required=True)

    p = add("basis", _cmd_basis, help="list the tableaux of one classification")
    p.add_argument("--shape", required=True)
    p.add_argument("--entries", type=_ascii_int, required=True)
    p.add_argument("--class", dest="cls", choices=sorted(_CLASS_NAMES), default="semistandard")

    for name, handler in (
        ("rsym", _cmd_rsym),
        ("polytabloid", _cmd_polytabloid),
        ("copolytabloid", _cmd_copolytabloid),
    ):
        p = add(name, handler, help=f"{name} of a tableau")
        p.add_argument("--tableau", required=True)
        p.add_argument("--shape")
        p.add_argument("--entries", type=_ascii_int)
        add_ring(p)
        add_format(p)

    p = add("garnir", _cmd_garnir, help="column-pair relation for (tableau, A, B)")
    p.add_argument("--tableau", required=True)
    p.add_argument("--boxA", required=True)
    p.add_argument("--boxB", required=True)
    p.add_argument("--shape")
    p.add_argument("--entries", type=_ascii_int)
    add_ring(p)
    add_format(p)

    p = add("dual-garnir", _cmd_dual_garnir, help="row-pair relation for (tableau, A, B)")
    p.add_argument("--tableau", required=True)
    p.add_argument("--boxA", required=True)
    p.add_argument("--boxB", required=True)
    p.add_argument("--shape")
    p.add_argument("--rows", help="i:i' sanity check against the box sets")
    p.add_argument("--entries", type=_ascii_int)
    p.add_argument("--variant", choices=("plain", "dc", "star", "star-star"), default="plain")
    add_ring(p)
    add_format(p)

    p = add("snake", _cmd_snake, help="adjacent-row relation labelled (tableau, i, (j, j'))")
    p.add_argument("--tableau", required=True)
    p.add_argument("--row", type=_ascii_int, required=True)
    p.add_argument("--cols", required=True, help="j:j'")
    p.add_argument("--entries", type=_ascii_int)
    add_ring(p)
    add_format(p)

    p = add("straighten", _cmd_straighten, help="semistandard coordinates with certificate")
    p.add_argument("--tableau", required=True)
    p.add_argument("--entries", type=_ascii_int, required=True)
    add_ring(p)

    for name, side in (("schur-verify", "column"), ("weyl-verify", "row")):
        p = add(name, _cmd_verify, help=f"rank bookkeeping of the {side}-side kernel")
        p.add_argument("--shape", required=True)
        p.add_argument("--entries", type=_ascii_int, required=True)
        add_ring(p, default="q")

    p = add("duality-check", _cmd_duality_check, help="pairing image against copolytabloids")
    p.add_argument("--shape", required=True)
    p.add_argument("--entries", type=_ascii_int, required=True)

    p = add("equivariance", _cmd_equivariance, help="map commutation with an entry matrix")
    p.add_argument("--shape", required=True)
    p.add_argument("--entries", type=_ascii_int, required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--map", choices=("e", "lambda"), required=True)
    add_ring(p)

    return parser
