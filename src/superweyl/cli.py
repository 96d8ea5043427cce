"""Command line front end for root data, numerators, and factorization checks.

Subcommands map one-to-one onto the library: ``datum`` and ``group`` print
root data and Weyl group tables, ``numerator`` prints normalized numerators
and their component factors or the truncated character, ``kgraph`` prints
ordered-partition counts and the alternating partition value, ``verify``
and ``search`` drive the tensor product factorization checks, the two
``atypical-*`` commands drive the singly atypical coefficient machinery,
and ``selftest`` runs the built-in acceptance suite.

Weights are written in a small grammar: terms joined by ``+`` or ``-``,
each an optional rational coefficient times one of ``omega[i]`` (even
fundamental weight), ``eps[i]`` / ``delta[j]`` (ambient coordinates),
``tau`` (sum of positive odd roots), or ``rho`` (Weyl vector).  A bare
``0`` is the zero weight.  Output is line-oriented ``key: value`` text
with canonical polynomial strings; identical invocations print identical
bytes.

``main`` parses every argv with one argument tree, built on first use
and shared by every later call in the process.

Exit codes: 0 when a conclusion was reached, 2 on precondition failures
(bad weights, wrong family, atypical inputs to typical-only commands) and
when the reader of stdout closes it early (``... | head -1``), 64 on usage
errors, 70 on internal failures.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from typing import Sequence

from .atypical import (
    DEFAULT_Z_TRUNCATION,
    atypical_context,
    atypical_match,
    closed_form_coefficient,
    coefficient_oracle,
)
from .errors import (
    InternalInvariant,
    NoSecondComponent,
    SuperweylError,
    UnknownSymbol,
    UnsupportedFamily,
    WeightParseError,
)
from .numerator import factor_numerator, normalized_character, numerator, x_signature
from .partitions import graph_of_datum, k_partition_counts
from .rootdata import (
    AlgebraDescriptor,
    RootDatum,
    Weight,
    as_weight,
    build_datum,
    datum_from_file,
    vadd,
    vscale,
    zero_weight,
)
from .unifac import iter_counterexamples, verify_tensor_isomorphism
from .weyl import component_group, full_group, sign

DEFAULT_SEED = 20250816

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


# -- weight grammar ----------------------------------------------------------


# ASCII only: str.isdigit() also accepts characters such as "²" that int() rejects.
_DIGITS = frozenset("0123456789")


class _Scanner:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def skip_space(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_space()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise WeightParseError(
                f"expected {ch!r}, found {got!r}" if got else f"expected {ch!r}",
                self.pos,
            )
        self.pos += 1

    def integer(self) -> int:
        self.skip_space()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.src) and self.src[self.pos] in _DIGITS:
            self.pos += 1
        try:
            return int(self.src[start : self.pos])
        except ValueError:  # no digits, or more than int() will convert
            raise WeightParseError("expected an integer", start) from None

    def rational(self) -> Fraction:
        num = self.integer()
        if self.peek() == "/":
            self.pos += 1
            self.skip_space()
            start = self.pos
            den = self.integer()
            if den == 0:
                raise WeightParseError("zero denominator", start)
            return Fraction(num, den)
        return Fraction(num)

    def name(self) -> tuple[str, int]:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isalpha():
            self.pos += 1
        return self.src[start : self.pos], start


def _coordinate_atom(datum: RootDatum, kind: str, index: int, pos: int) -> Weight:
    label = f"{kind}{index}"
    try:
        coord = datum.basis_labels.index(label)
    except ValueError:
        raise UnknownSymbol(
            f"no ambient coordinate {kind}[{index}] on {datum.label}", pos
        ) from None
    return as_weight(
        tuple(Fraction(1 if i == coord else 0) for i in range(datum.dim))
    )


def _atom(scanner: _Scanner, datum: RootDatum) -> Weight:
    word, pos = scanner.name()
    if word == "tau":
        return datum.tau
    if word == "rho":
        return datum.rho
    # omega[i], or name[i] for an ambient coordinate (a basis label)
    if word and (word in ("omega", "eps", "delta") or scanner.peek() == "["):
        scanner.expect("[")
        index = scanner.integer()
        scanner.expect("]")
        if word == "omega":
            if not 1 <= index <= datum.even_simple_count:
                raise UnknownSymbol(
                    f"omega[{index}] out of range 1..{datum.even_simple_count}",
                    pos,
                )
            return datum.fundamental_weight(index)
        return _coordinate_atom(datum, word, index, pos)
    raise WeightParseError(
        f"expected a symbol, found {word!r}" if word else "expected a symbol",
        pos,
    )


def _term(scanner: _Scanner, datum: RootDatum) -> Weight:
    ch = scanner.peek()
    start = scanner.pos
    if ch == "(":
        scanner.take()
        coeff = scanner.rational()
        scanner.expect(")")
    elif ch in _DIGITS or ch == "-":
        coeff = scanner.rational()
    else:
        return _atom(scanner, datum)
    if scanner.peek() == "*":
        scanner.take()
        return vscale(coeff, _atom(scanner, datum))
    if coeff == 0:
        return zero_weight(datum.dim)
    raise WeightParseError("a bare number is only valid as the zero weight", start)


def parse_weight(src: str, datum: RootDatum) -> Weight:
    """Evaluate a weight expression against a datum; exact arithmetic.

    Raises WeightParseError (with the offending position) on malformed
    input and UnknownSymbol on out-of-range indices or unknown names.
    """
    scanner = _Scanner(src)
    total = _term(scanner, datum)
    while True:
        ch = scanner.peek()
        if ch == "+":
            scanner.take()
            total = vadd(total, _term(scanner, datum))
        elif ch == "-":
            scanner.take()
            total = vadd(total, vscale(Fraction(-1), _term(scanner, datum)))
        elif ch == "":
            return total
        else:
            raise WeightParseError(f"unexpected character {ch!r}", scanner.pos)


def format_weight_expr(datum: RootDatum, w: Weight) -> str:
    """Render a weight in the grammar, coordinate by coordinate.

    parse_weight(format_weight_expr(datum, w), datum) == w for every
    weight, including rational ones.
    """
    parts = []
    for label, c in zip(datum.basis_labels, as_weight(w)):
        if c == 0:
            continue
        kind = label.rstrip("0123456789")
        index = label[len(kind) :]
        atom = f"{kind}[{index}]"
        if c == 1:
            parts.append(atom)
        elif c < 0 or c.denominator != 1:
            parts.append(f"({c})*{atom}")
        else:
            parts.append(f"{c}*{atom}")
    return " + ".join(parts) if parts else "0"


# -- argument plumbing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_datum_args(sub: argparse.ArgumentParser):
    sub.add_argument(
        "--family",
        choices=["sl", "b0", "osp", "G3", "F4"],
        help="built-in family tag",
    )
    sub.add_argument("--m", type=int, help="first matrix size for sl(m, n)")
    sub.add_argument(
        "--n", type=int, help="second size: sl(m, n), osp(2, 2n), B(0, n)"
    )
    sub.add_argument("--datum-file", help="load the root datum from a file")


def _resolve_datum(args) -> RootDatum:
    if args.datum_file and args.family:
        args.parser.error("--datum-file and --family are mutually exclusive")
    if args.datum_file:
        return datum_from_file(args.datum_file)
    if not args.family:
        args.parser.error("one of --family or --datum-file is required")
    try:
        return build_datum(
            AlgebraDescriptor(family=args.family, m=args.m, n=args.n)
        )
    except UnsupportedFamily as exc:
        args.parser.error(str(exc))


def _parse_weight_list(src: str, datum: RootDatum) -> list[Weight]:
    weights = [part.strip() for part in src.split(";")]
    if any(not part for part in weights):
        raise WeightParseError("empty weight in ';'-separated list")
    return [parse_weight(part, datum) for part in weights]


def _print_poly(prefix: str, datum: RootDatum, poly):
    text = poly.to_text(datum.x_label)
    print(f"{prefix}: {text}")


def _print_report(report):
    print(f"conclusion: {report.module_level_conclusion.value}")
    print(f"r_equals_s: {'true' if report.r_equals_s else 'false'}")
    print(
        "sigma_hypothesis: "
        + ("true" if report.sigma_hypothesis_holds else "false")
    )
    for m in report.pairing:
        print(
            f"match: component={m.component} lhs={m.lhs_index + 1} "
            f"rhs={m.rhs_index + 1} signature={m.signature}"
        )


# -- subcommands -------------------------------------------------------------


def _cmd_datum(args) -> int:
    datum = _resolve_datum(args)
    print(f"label: {datum.label}")
    print(f"family: {datum.family}")
    print(f"ambient: {', '.join(datum.basis_labels)}")
    print(f"even_simple_count: {datum.even_simple_count}")
    print(f"components: {len(datum.components)}")
    sizes = ", ".join(str(len(c)) for c in datum.components)
    print(f"component_sizes: {sizes}")
    print(f"positive_even: {len(datum.positive_even)}")
    print(f"positive_odd: {len(datum.positive_odd)}")
    print(f"rho: {datum.format_weight(datum.rho)}")
    print(f"tau: {datum.format_weight(datum.tau)}")
    return EXIT_OK


def _cmd_group(args) -> int:
    datum = _resolve_datum(args)
    if args.component is not None:
        group = component_group(datum, args.component)
    else:
        group = full_group(datum)
    print(f"order: {group.order}")
    for i, length in enumerate(group.lengths):
        print(f"elem {i}: word={group.describe(i)} length={length} sign={sign(length)}")
    return EXIT_OK


def _cmd_numerator(args) -> int:
    if args.trunc < 0:
        args.parser.error("--trunc must be at least 0")
    datum = _resolve_datum(args)
    lam = parse_weight(args.weight, datum)
    print(f"weight: {datum.format_weight(lam)}")
    signature = "; ".join(
        ", ".join(str(e) for e in comp) for comp in x_signature(datum, lam)
    )
    print(f"signature: {signature}")
    if args.char:
        _print_poly("char", datum, normalized_character(datum, lam, args.trunc))
        return EXIT_OK
    if args.factor:
        for i, factor in enumerate(factor_numerator(datum, lam), start=1):
            _print_poly(f"U{i}", datum, factor)
        return EXIT_OK
    _print_poly("U", datum, numerator(datum, lam))
    return EXIT_OK


def _cmd_kgraph(args) -> int:
    datum = _resolve_datum(args)
    graph = graph_of_datum(datum)
    if args.subset is not None:
        try:
            picks = [int(tok) for tok in args.subset.split(",")]
        except ValueError:
            args.parser.error("--subset wants comma-separated integers")
        if len(set(picks)) != len(picks):
            args.parser.error("--subset repeats an index")
        vertices = list(graph.vertices)
        for i in picks:
            if not 1 <= i <= len(vertices):
                args.parser.error(
                    f"--subset index {i} out of range 1..{len(vertices)}"
                )
        graph = graph.induced([vertices[i - 1] for i in picks])
    report = k_partition_counts(graph)
    print(f"vertices: {len(graph.vertices)}")
    print(f"c: {', '.join(str(c) for c in report.counts)}")
    print(f"k: {report.k_value}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    datum = _resolve_datum(args)
    lhs = _parse_weight_list(args.lhs, datum)
    rhs = _parse_weight_list(args.rhs, datum)
    report = verify_tensor_isomorphism(datum, lhs, rhs)
    _print_report(report)
    return EXIT_OK


def _cmd_search(args) -> int:
    if args.bound < 0:
        args.parser.error("--bound must be at least 0")
    if args.limit is not None and args.limit < 1:
        args.parser.error("--limit must be at least 1")
    datum = _resolve_datum(args)
    count = 0
    try:
        for hit in iter_counterexamples(
            datum, signature_bound=args.bound, tau_multiplier=args.tau_mult
        ):
            count += 1
            print(f"hit {count}:")
            print(f"  tau_multiplier: {hit.tau_multiplier}")
            for side, weights in (("lhs", hit.lhs), ("rhs", hit.rhs)):
                exprs = "; ".join(format_weight_expr(datum, w) for w in weights)
                sigs = "; ".join(str(x_signature(datum, w)) for w in weights)
                print(f"  {side}: {exprs}")
                print(f"  {side}_signature: {sigs}")
            if args.limit is not None and count >= args.limit:
                break
    except NoSecondComponent:
        # the search swaps diagram-component parts, so one component leaves
        # nothing to swap; block-crossed pairs (G(3), F(4)) stay unsearched
        print("note: single even diagram component; nothing to search")
    print(f"count: {count}")
    return EXIT_OK


def _cmd_atypical_coeff(args) -> int:
    if args.ztrunc < 0:
        args.parser.error("--ztrunc must be at least 0")
    datum = _resolve_datum(args)
    lam = parse_weight(args.weight, datum)
    ctx = atypical_context(
        datum, lam, special=args.special, z_truncation=args.ztrunc
    )
    print(f"weight: {datum.format_weight(lam)}")
    print(
        f"type: {datum.z_label(ctx.gamma_index)} = "
        f"{datum.format_weight(ctx.gamma.vector)}"
    )
    print(f"special: {'true' if ctx.special else 'false'}")
    print(f"ztrunc: {ctx.z_truncation}")
    oracle = coefficient_oracle(ctx) if args.mode in ("oracle", "both") else None
    closed = (
        closed_form_coefficient(ctx) if args.mode in ("closed", "both") else None
    )
    if oracle is not None:
        print(f"oracle: {oracle.value.to_text(datum.z_label)}")
    if closed is not None:
        print(f"closed: {closed.value.to_text(datum.z_label)}")
        print(f"closed_tag: {closed.tag}")
    if oracle is not None and closed is not None:
        verdict = "EQUAL" if oracle.value == closed.value else "DIFFER"
        print(f"verdict: {verdict}")
    return EXIT_OK


def _cmd_atypical_verify(args) -> int:
    if args.ztrunc < 0:
        args.parser.error("--ztrunc must be at least 0")
    datum = _resolve_datum(args)
    gamma = parse_weight(args.type, datum)
    lhs = _parse_weight_list(args.lhs, datum)
    rhs = _parse_weight_list(args.rhs, datum)
    report = atypical_match(datum, lhs, rhs, gamma, z_truncation=args.ztrunc)
    _print_report(report)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_all

    return run_all(seed=args.seed)


# -- parser assembly ---------------------------------------------------------


def _group_args(p: argparse.ArgumentParser):
    p.add_argument("--component", type=int, help="restrict to one diagram component, 1-based")


def _numerator_args(p: argparse.ArgumentParser):
    p.add_argument("--weight", required=True, help="weight expression")
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--factor", action="store_true", help="print one factor per component")
    shape.add_argument("--char", action="store_true", help="print the truncated character")
    p.add_argument("--trunc", type=int, default=6, help="character truncation degree")


def _kgraph_args(p: argparse.ArgumentParser):
    p.add_argument(
        "--subset",
        help="induced subgraph on these even diagram vertices (1-based, comma-separated)",
    )


def _verify_args(p: argparse.ArgumentParser):
    p.add_argument("--lhs", required=True, help="';'-separated weights")
    p.add_argument("--rhs", required=True, help="';'-separated weights")


def _search_args(p: argparse.ArgumentParser):
    p.add_argument("--bound", type=int, required=True, help="signature bound")
    p.add_argument("--tau-mult", type=int, required=True, help="base tau multiplier")
    p.add_argument("--limit", type=int, help="stop after this many hits")


def _atypical_coeff_args(p: argparse.ArgumentParser):
    p.add_argument("--weight", required=True, help="weight expression")
    p.add_argument("--special", action="store_true", help="use the flagged special form")
    p.add_argument("--ztrunc", type=int, default=DEFAULT_Z_TRUNCATION, help="Z truncation")
    mode = p.add_mutually_exclusive_group()
    for const, help_text in (
        ("oracle", "series oracle only"),
        ("closed", "closed form only"),
        ("both", "both routes and a verdict (default)"),
    ):
        mode.add_argument(
            f"--{const}", dest="mode", action="store_const", const=const, help=help_text
        )
    p.set_defaults(mode="both")


def _atypical_verify_args(p: argparse.ArgumentParser):
    p.add_argument("--type", required=True, help="atypicality type as a weight expression")
    p.add_argument("--lhs", required=True, help="';'-separated weights")
    p.add_argument("--rhs", required=True, help="';'-separated weights")
    p.add_argument("--ztrunc", type=int, default=DEFAULT_Z_TRUNCATION, help="Z truncation")


def _selftest_args(p: argparse.ArgumentParser):
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"seed for the randomized suites (default {DEFAULT_SEED})",
    )


# name -> (handler, help line, extra arguments, takes the datum arguments)
_SUBCOMMANDS = {
    "datum": (_cmd_datum, "print a root datum summary", None, True),
    "group": (_cmd_group, "print the even Weyl group table", _group_args, True),
    "numerator": (_cmd_numerator, "print a normalized Weyl numerator", _numerator_args, True),
    "kgraph": (_cmd_kgraph, "print partition counts and k(G)", _kgraph_args, True),
    "verify": (_cmd_verify, "compare two tensor products of typicals", _verify_args, True),
    "search": (_cmd_search, "search for cross-matched counterexamples", _search_args, True),
    "atypical-coeff": (
        _cmd_atypical_coeff,
        "coefficient of X^lambda in -log U for a singly atypical weight",
        _atypical_coeff_args,
        True,
    ),
    "atypical-verify": (
        _cmd_atypical_verify,
        "compare products of singly atypical numerators of one type",
        _atypical_verify_args,
        True,
    ),
    "selftest": (_cmd_selftest, "run the acceptance suite", _selftest_args, False),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argument tree, built once per process and shared by every parse."""
    parser = _Parser(
        prog="superweyl",
        description=(
            "Exact Weyl numerators, graph partition invariants, and tensor "
            "product factorization checks for basic classical Lie "
            "superalgebras."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, add_args, datum_args) in _SUBCOMMANDS.items():
        p = subs.add_parser(name, help=help_line)
        p.set_defaults(func=func, parser=p)
        if datum_args:
            _add_datum_args(p)
        if add_args is not None:
            add_args(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.func(args)
        # a reader that left early shows up here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout is gone; point it at devnull so the exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PRECONDITION
    except (InternalInvariant, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SuperweylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError:
        # a size too large to build, reported like a group over its cap
        print("error: out of memory", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
