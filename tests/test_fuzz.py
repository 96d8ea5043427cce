"""Fuzzing of the two text inputs, datum files and CLI weight arguments,
and of the series ``-log``.

A datum file may fail to parse, but only with a ``SuperweylError``; a CLI
run may fail, but only with a documented exit code and no traceback.
``neg_log`` may refuse a polynomial, but only with a ``SuperweylError``.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from superweyl.cli import EXIT_INTERNAL, EXIT_OK, EXIT_PRECONDITION, EXIT_USAGE, main
from superweyl.errors import SuperweylError
from superweyl.rootdata import datum_from_text
from superweyl.series import Poly, ZSeries, mono_from_pairs, neg_log

from test_rootdata import A3_TEXT, NON_INTEGRAL_CARTAN_TEXT

# sl(2, 1) written out: one even and one odd simple root.
SL21_TEXT = """\
family: sl21
ambient_dim: 3
gram:
1 0 0
0 1 0
0 0 -1
simple:
even 1 -1 0
odd 0 1 -1
positive_even:
1 -1 0
positive_odd:
0 1 -1
1 0 -1
"""

VALID_TEXTS = (A3_TEXT, NON_INTEGRAL_CARTAN_TEXT, SL21_TEXT)

KEYS = ("family", "ambient_dim", "gram", "simple", "positive_even", "positive_odd")
ENTRIES = ("0", "1", "-1", "2", "-2", "1/2", "-4/3", "3", "1/0", "x", "²", "١", "0.5", "")

entries = st.lists(st.sampled_from(ENTRIES), max_size=5).map(" ".join)
datum_lines = st.one_of(
    st.sampled_from(KEYS).map(lambda k: k + ":"),
    st.tuples(st.sampled_from(KEYS), entries).map(lambda p: f"{p[0]}: {p[1]}"),
    st.sampled_from(("even", "odd", "even:", "")).flatmap(
        lambda head: entries.map(lambda row: f"{head} {row}")
    ),
    entries,
    st.sampled_from(("# comment", "", "   ", "foo: bar", ":", "gram::")),
    st.text(max_size=12),
)


@st.composite
def mutated_texts(draw):
    lines = draw(st.sampled_from(VALID_TEXTS)).splitlines()
    i = draw(st.integers(0, len(lines)))
    action = draw(st.sampled_from(("replace", "insert", "delete")))
    if action == "insert" or i == len(lines):
        lines.insert(i, draw(datum_lines))
    elif action == "replace":
        lines[i] = draw(datum_lines)
    else:
        del lines[i]
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(st.lists(datum_lines, max_size=14).map("\n".join), mutated_texts()))
def test_datum_parser_raises_only_library_errors(text):
    try:
        datum_from_text(text)
    except SuperweylError:
        pass


WEIGHT_TOKENS = (
    "omega[1]", "omega[2]", "omega[0]", "eps[1]", "eps[3]", "delta[1]", "delta[2]",
    "tau", "rho", "omega", "eps[", "]", "[", "(", ")", "*", "+", "-", "/",
    "0", "1", "2", "3", "-1", "1/2", "(1/2)", "(-3/2)", "1/0", "²", "١", "x", "é", ";",
)
weights = st.lists(st.sampled_from(WEIGHT_TOKENS), max_size=8).map(" ".join)
DATUM_ARGS = (
    ["--family", "sl", "--m", "2", "--n", "1"],
    ["--family", "sl", "--m", "2", "--n", "2"],
)


@st.composite
def weight_commands(draw):
    datum = list(draw(st.sampled_from(DATUM_ARGS)))
    w = [draw(weights) for _ in range(3)]
    return draw(st.sampled_from((
        ["numerator", *datum, "--weight", w[0]],
        ["numerator", *datum, "--factor", "--weight", w[0]],
        ["verify", *datum, "--lhs", f"{w[0]};{w[1]}", "--rhs", w[2]],
        ["atypical-coeff", *datum, "--weight", w[0], "--ztrunc", "2"],
        ["atypical-verify", *datum, "--type", w[0], "--lhs", w[1], "--rhs", w[2]],
    )))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=weight_commands())
def test_cli_weight_arguments_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (EXIT_OK, EXIT_PRECONDITION, EXIT_USAGE, EXIT_INTERNAL), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# any integer exponents, so terms of negative and of zero X degree occur
monos = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-2, 3)), max_size=3
).map(mono_from_pairs)
fraction_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
series_coeffs = st.dictionaries(
    st.lists(st.tuples(st.integers(0, 1), st.integers(1, 2)), max_size=2).map(mono_from_pairs),
    fraction_coeffs,
    max_size=3,
).map(lambda d: ZSeries(2, d))


@st.composite
def neg_log_inputs(draw):
    ztrunc = draw(st.sampled_from((None, 2)))
    coeff = fraction_coeffs if ztrunc is None else series_coeffs
    terms = draw(st.dictionaries(monos, coeff, max_size=5))
    poly = Poly(terms, ztrunc)
    if draw(st.booleans()):
        # half the cases get a unit constant term, so the recurrence runs
        poly = Poly.one(ztrunc) + Poly({m: c for m, c in terms.items() if m}, ztrunc)
    return poly, draw(st.integers(0, 6)), draw(st.one_of(st.none(), monos))


@settings(max_examples=200, deadline=None)
@given(neg_log_inputs())
def test_neg_log_raises_only_library_errors(case):
    poly, bound, cap = case
    try:
        neg_log(poly, bound, cap)
    except SuperweylError:
        pass
