"""Root datum construction, invariants, and the datum file format."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superweyl.atypical import shift_to_type
from superweyl.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MalformedDatumFile,
    SuperweylError,
    UnsupportedFamily,
)
from superweyl.numerator import _dominant_walk, x_signature
from superweyl.rootdata import (
    AlgebraDescriptor,
    Dominance,
    RootDatum,
    _Solver,
    as_weight,
    build_datum,
    build_b0,
    build_f4,
    build_g3,
    build_osp2,
    build_sl,
    datum_from_text,
    vadd,
    vscale,
    vsub,
    zero_weight,
)
from form_reference import (
    dense_atypicality,
    dense_dominance,
    dense_dominant_labels,
    dense_inner,
    dense_labels,
    dense_signature,
)
from golden import DATUM_GOLDEN, datum_dump, golden_builders
from weyl_reference import pairing

F = Fraction


def test_sl32_basic_data():
    d = build_sl(3, 2)
    assert d.dim == 5
    assert d.rho == as_weight((0, -1, -2, 2, 1))
    assert d.tau == as_weight((2, 2, 2, -3, -3))
    assert len(d.positive_even) == 4
    assert len(d.positive_odd) == 6
    assert d.even_positions == (0, 1, 3)
    assert [i for i, r in enumerate(d.simple_roots) if r.odd] == [2]
    assert d.components == ((0, 1), (3,))
    assert d.generator_blocks == ((0, 1), (2,))
    assert [g.label for g in d.generators] == ["s1", "s2", "s3"]
    assert all(g.pi_index is not None for g in d.generators)


def test_sl32_tau_pairing_is_five():
    d = build_sl(3, 2)
    for r in d.positive_odd:
        assert d.inner(d.tau, r.vector) == 5


def test_sl21_frozen_vectors():
    d = build_sl(2, 1)
    assert d.rho == as_weight((0, -1, 1))
    assert d.tau == as_weight((1, 1, -2))
    assert d.inner(d.tau, d.positive_odd[0].vector) == 5
    assert len(d.components) == 1


def test_weyl_vector_law_all_builtins():
    data = [
        build_sl(2, 1),
        build_sl(3, 2),
        build_sl(1, 3),
        build_sl(4, 3),
        build_b0(2),
        build_b0(3),
        build_osp2(1),
        build_osp2(2),
        build_osp2(3),
        build_g3(),
        build_f4(),
    ]
    for d in data:
        for r in d.simple_roots:
            assert d.inner(d.rho, r.vector) == d.inner(r.vector, r.vector) / 2, d.label


def test_osp24_structure():
    d = build_osp2(2)
    assert d.rho == as_weight((-2, 2, 1))
    assert d.tau == as_weight((4, 0, 0))
    assert d.components == ((0, 1),)
    assert len(d.positive_odd) == 4
    # odd roots ordered: eps - delta_j block first, then eps + delta_j
    assert d.positive_odd[0].vector == as_weight((1, -1, 0))
    assert d.positive_odd[2].vector == as_weight((1, 1, 0))
    assert all(r.isotropic for r in d.positive_odd)


def test_b02_structure():
    d = build_b0(2)
    assert d.rho == as_weight((F(3, 2), F(1, 2)))
    assert not any(r.isotropic for r in d.positive_odd)
    assert d.is_typical(zero_weight(2))
    # extra generator 2 delta_n beyond the even simple roots
    labels = [(g.label, g.pi_index) for g in d.generators]
    assert labels == [("s1", 0), ("s2", None)]
    assert d.generators[1].vector == as_weight((0, 2))
    assert d.generator_blocks == ((0, 1),)


def test_g3_structure():
    d = build_g3()
    assert d.rho == as_weight((2, 3, F(-5, 2)))
    assert d.tau == as_weight((0, 0, 7))
    assert len(d.positive_even) == 7
    assert len(d.positive_odd) == 7
    assert [g.vector for g in d.generators] == [
        as_weight((1, 0, 0)),
        as_weight((-1, 1, 0)),
        as_weight((0, 0, 2)),
    ]
    assert d.generators[2].pi_index is None
    assert d.components == ((0, 1),)
    # 2 delta is orthogonal to G_2: one diagram component, two blocks
    assert d.generator_blocks == ((0, 1), (2,))


def test_f4_structure():
    d = build_f4()
    assert d.rho == as_weight((F(5, 2), F(3, 2), F(1, 2), F(-3, 2)))
    assert d.tau == as_weight((0, 0, 0, 4))
    assert len(d.positive_even) == 10
    assert len(d.positive_odd) == 8
    assert len(d.generators) == 4
    assert d.generators[3].vector == as_weight((0, 0, 0, 1))
    assert d.generators[3].pi_index is None
    assert d.generator_blocks == ((0, 1, 2), (3,))
    simple_odd = d.simple_roots[3]
    assert simple_odd.odd and simple_odd.isotropic


def root_fields(roots):
    return [(r.vector, r.odd, r.isotropic) for r in roots]


def vec(dim, *terms):
    """The vector sum of c * e_i over (i, c) in terms, coordinates 0-based."""
    v = [F(0)] * dim
    for i, c in terms:
        v[i] += F(c)
    return tuple(v)


def type_c(dim, coords):
    """Positive roots of type C on coords: e_i - e_j, then e_i + e_j (i < j), then 2 e_i."""
    roots = []
    for sign in (-1, 1):
        for a in range(len(coords)):
            for b in range(a + 1, len(coords)):
                roots.append((vec(dim, (coords[a], 1), (coords[b], sign)), False, False))
    for i in coords:
        roots.append((vec(dim, (i, 2)), False, False))
    return roots


def textbook_sl(p, q):
    """eps_1..eps_p, delta_1..delta_q; the odd roots eps_i - delta_j are all isotropic.
    The even diagram is the eps chain and the delta chain, each one block."""
    dim = p + q
    simple = [(vec(dim, (i, 1), (i + 1, -1)), False) for i in range(p - 1)]
    simple.append((vec(dim, (p - 1, 1), (p, -1)), True))
    simple += [(vec(dim, (j, 1), (j + 1, -1)), False) for j in range(p, dim - 1)]
    even = []
    for block in (range(p), range(p, dim)):
        for i in block:
            for j in block:
                if i < j:
                    even.append((vec(dim, (i, 1), (j, -1)), False, False))
    odd = [(vec(dim, (i, 1), (j, -1)), True, True) for i in range(p) for j in range(p, dim)]
    components = tuple(c for c in (tuple(range(p - 1)), tuple(range(p, dim - 1))) if c)
    blocks = tuple(c for c in (tuple(range(p - 1)), tuple(range(p - 1, dim - 2))) if c)
    return simple, even, odd, components, blocks


def textbook_b0(n):
    """delta_1..delta_n; the odd roots delta_j are not isotropic.  One C_n block:
    the delta chain and the extra generator 2 delta_n."""
    simple = [(vec(n, (i, 1), (i + 1, -1)), False) for i in range(n - 1)]
    simple.append((vec(n, (n - 1, 1)), True))
    odd = [(vec(n, (j, 1)), True, False) for j in range(n)]
    return simple, type_c(n, list(range(n))), odd, (tuple(range(n - 1)),), (tuple(range(n)),)


def textbook_osp2(n):
    """eps_1, delta_1..delta_n; the odd roots eps_1 -+ delta_j are all isotropic.
    One C_n block: the delta chain ending in 2 delta_n."""
    dim = n + 1
    simple = [(vec(dim, (j, 1), (j + 1, -1)), False) for j in range(1, n)]
    simple.append((vec(dim, (n, 2)), False))
    simple.append((vec(dim, (0, 1), (1, -1)), True))
    odd = [(vec(dim, (0, 1), (j, sign)), True, True) for sign in (-1, 1) for j in range(1, dim)]
    chain = (tuple(range(n)),)
    return simple, type_c(dim, list(range(1, dim))), odd, chain, chain


def textbook_g3():
    """(eps_1, eps_2, delta) with eps_3 = -eps_1 - eps_2: even G_2 and 2 delta; odd
    eps_3 + delta, delta - eps_2, delta - eps_1, delta, eps_1 + delta, eps_2 + delta,
    -eps_3 + delta, isotropic except delta itself.  One diagram component (G_2),
    two blocks (G_2 and 2 delta)."""
    simple = [((1, 0, 0), False), ((-1, 1, 0), False), ((-1, -1, 1), True)]
    even = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (-1, 1, 0), (2, 1, 0), (1, 2, 0), (0, 0, 2)]
    odd = [(-1, -1, 1), (0, -1, 1), (-1, 0, 1), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    return (
        [(as_weight(v), o) for v, o in simple],
        [(as_weight(v), False, False) for v in even],
        [(as_weight(v), True, v != (0, 0, 1)) for v in odd],
        ((0, 1),),
        ((0, 1), (2,)),
    )


def textbook_f4():
    """(eps_1, eps_2, eps_3, delta): even B_3 and delta; odd (+-eps_1 +-eps_2 +-eps_3 +
    delta)/2, all isotropic, the simple one with every sign negative.  One diagram
    component (B_3), two blocks (B_3 and delta)."""
    h = F(1, 2)
    simple = [
        (vec(4, (0, 1), (1, -1)), False),
        (vec(4, (1, 1), (2, -1)), False),
        (vec(4, (2, 1)), False),
        ((-h, -h, -h, h), True),
    ]
    even = []
    for sign in (-1, 1):
        for i in range(3):
            for j in range(i + 1, 3):
                even.append(vec(4, (i, 1), (j, sign)))
    even += [vec(4, (i, 1)) for i in range(3)] + [vec(4, (3, 1))]
    odd = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                odd.append(((s1 * h, s2 * h, s3 * h, h), True, True))
    return simple, [(v, False, False) for v in even], odd, ((0, 1, 2),), ((0, 1, 2), (3,))


TEXTBOOK = {
    "sl": (build_sl, textbook_sl),
    "b0": (build_b0, textbook_b0),
    "osp": (build_osp2, textbook_osp2),
    "G3": (build_g3, textbook_g3),
    "F4": (build_f4, textbook_f4),
}
TEXTBOOK_CASES = (
    [("sl", (p, q)) for p in range(1, 5) for q in range(1, 5) if (p, q) not in ((1, 1), (2, 2))]
    + [("b0", (n,)) for n in range(2, 5)]
    + [("osp", (n,)) for n in range(1, 5)]
    + [("G3", ()), ("F4", ())]
)


@pytest.mark.parametrize(
    "family, args", TEXTBOOK_CASES, ids=[f"{f}{a}" for f, a in TEXTBOOK_CASES]
)
def test_builtin_roots_match_the_textbook_listing(family, args):
    build, textbook = TEXTBOOK[family]
    d = build(*args)
    simple, even, odd, components, blocks = textbook(*args)
    assert [(r.vector, r.odd) for r in d.simple_roots] == simple
    assert root_fields(d.positive_even) == even
    assert root_fields(d.positive_odd) == odd
    assert d.components == components
    assert d.generator_blocks == blocks


def test_rejected_families():
    with pytest.raises(UnsupportedFamily):
        build_sl(1, 1)
    with pytest.raises(UnsupportedFamily):
        build_sl(2, 2)
    with pytest.raises(UnsupportedFamily):
        build_b0(1)
    with pytest.raises(UnsupportedFamily):
        build_osp2(0)
    with pytest.raises(UnsupportedFamily):
        build_datum(AlgebraDescriptor("nope"))


def test_build_datum_dispatch():
    assert build_datum(AlgebraDescriptor("sl", m=3, n=2)).label == "sl(3,2)"
    assert build_datum(AlgebraDescriptor("b0", n=2)).label == "B(0,2)"
    assert build_datum(AlgebraDescriptor("osp", n=2)).label == "osp(2,4)"
    assert build_datum(AlgebraDescriptor("G3")).label == "G(3)"
    assert build_datum(AlgebraDescriptor("F4")).label == "F(4)"


def test_fundamental_weights_sl32():
    d = build_sl(3, 2)
    w1 = d.fundamental_weight(1)
    w2 = d.fundamental_weight(2)
    w3 = d.fundamental_weight(3)
    assert w1 == as_weight((F(2, 3), F(-1, 3), F(-1, 3), 0, 0))
    assert w3 == as_weight((0, 0, 0, F(1, 2), F(-1, 2)))
    for i, w in enumerate((w1, w2, w3), start=1):
        for j in range(1, 4):
            expected = 1 if i == j else 0
            assert pairing(d, w, d.simple_roots[d.even_positions[j - 1]].vector) == expected
    with pytest.raises(IndexOutOfRange):
        d.fundamental_weight(4)
    with pytest.raises(IndexOutOfRange):
        d.fundamental_weight(0)


def test_fundamental_weights_all_builtins():
    for d in (build_sl(2, 3), build_b0(2), build_osp2(2), build_g3(), build_f4()):
        for i in range(1, d.even_simple_count + 1):
            w = d.fundamental_weight(i)
            for j in range(1, d.even_simple_count + 1):
                alpha = d.simple_roots[d.even_positions[j - 1]].vector
                assert pairing(d, w, alpha) == (1 if i == j else 0)


def test_dominance_tri_state():
    d = build_sl(3, 2)
    lam = vadd(d.fundamental_weight(1), vscale(2, d.fundamental_weight(2)))
    assert d.is_dominant_integral(lam) == Dominance.YES
    assert d.is_dominant_integral(vscale(-1, lam)) == Dominance.NO
    assert d.is_dominant_integral(vscale(F(1, 2), d.fundamental_weight(1))) == Dominance.NO
    g = build_g3()
    assert d.is_dominant_integral(zero_weight(5)) == Dominance.YES
    assert g.is_dominant_integral(zero_weight(3)) == Dominance.NECESSARY_ONLY
    assert g.is_dominant_integral(vscale(-1, g.fundamental_weight(1))) == Dominance.NO


def test_atypicality_sl21():
    d = build_sl(2, 1)
    assert d.atypicality(zero_weight(3)) == (1,)
    assert d.positive_odd[1].vector == as_weight((0, 1, -1))
    # tau itself is atypical here; twice tau is typical
    assert not d.is_typical(d.tau)
    assert d.is_typical(vscale(2, d.tau))


def test_typicality_osp24():
    d = build_osp2(2)
    lam = zero_weight(3)
    (idx,) = d.atypicality(lam)
    assert d.positive_odd[idx].vector == as_weight((1, -1, 0))


@pytest.mark.parametrize(
    "builder",
    [
        lambda: build_sl(2, 1),
        lambda: build_sl(3, 2),
        lambda: build_sl(4, 3),
        lambda: build_b0(3),
        lambda: build_osp2(3),
        build_g3,
        build_f4,
        lambda: datum_from_text(A3_TEXT),
    ],
    ids=["sl(2,1)", "sl(3,2)", "sl(4,3)", "B(0,3)", "osp(2,6)", "G(3)", "F(4)", "A3 file"],
)
def test_label_map_matches_the_gram_pairing(builder):
    d = builder()
    rng = random.Random(13)
    vectors = [d.rho, d.tau] + [r.vector for r in d.positive_odd]
    vectors += [
        tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d.dim)) for _ in range(20)
    ]
    for v in vectors:
        labels = d.labels(v)
        assert len(labels) == len(d.generators)
        for g, a in zip(d.generators, labels):
            assert a == pairing(d, v, g.vector)
    for k, g in enumerate(d.generators):
        assert d.labels(g.vector) == d.generator_cartan[k]


def test_labels_reject_wrong_length():
    d = build_sl(3, 2)
    with pytest.raises(DimensionMismatch):
        d.labels(zero_weight(d.dim + 1))


def test_labels():
    d = build_sl(3, 2)
    assert d.x_label(0) == "a1"
    assert d.x_label(1) == "a2"
    assert d.x_label(2) == "b1"
    assert d.x_label(3) == "a3"
    assert d.z_label(0) == "g1"
    assert d.z_label(5) == "g6"
    with pytest.raises(IndexOutOfRange):
        d.z_label(6)


def test_expansions():
    d = build_sl(3, 2)
    v = d.positive_odd[4].vector  # eps_3 - delta_1
    coeffs = d.expand_simple(v)
    assert coeffs == (0, 0, 1, 0)
    top = d.positive_odd[1].vector  # eps_1 - delta_2
    assert d.expand_simple(top) == (1, 1, 1, 1)
    with pytest.raises(MalformedDatumFile):
        d.expand_simple(as_weight((1, 0, 0, 0, 0)))


@pytest.mark.parametrize(
    "builder",
    [
        lambda: build_sl(3, 2),
        lambda: build_sl(4, 3),
        lambda: build_b0(3),
        lambda: build_osp2(3),
        build_g3,
        build_f4,
    ],
    ids=["sl(3,2)", "sl(4,3)", "B(0,3)", "osp(2,6)", "G(3)", "F(4)"],
)
def test_expand_simple_reconstructs_every_positive_root(builder):
    d = builder()
    for r in d.positive_even + d.positive_odd:
        coeffs = d.expand_simple(r.vector)
        assert all(c.denominator == 1 and c >= 0 for c in coeffs), r
        total = zero_weight(d.dim)
        for c, s in zip(coeffs, d.simple_roots):
            total = vadd(total, vscale(c, s.vector))
        assert total == r.vector


@pytest.mark.parametrize("p, q", [(2, 1), (3, 2), (4, 3)])
def test_expand_simple_rejects_vectors_off_the_span(p, q):
    d = build_sl(p, q)
    assert d.dim == len(d.simple_roots) + 1
    with pytest.raises(MalformedDatumFile):
        d.expand_simple(as_weight((1,) + (0,) * (d.dim - 1)))


A3_TEXT = """\
family: A3
ambient_dim: 4
gram:
1 0 0 0
0 1 0 0
0 0 1 0
0 0 0 1
simple:
even 1 -1 0 0
even 0 1 -1 0
even 0 0 1 -1
positive_even:
1 -1 0 0
0 1 -1 0
0 0 1 -1
1 0 -1 0
0 1 0 -1
1 0 0 -1
positive_odd:
"""


A1A1B_TEXT = """\
family: A1A1B
ambient_dim: 5
gram:
1 0 0 0 0
0 1 0 0 0
0 0 1 0 0
0 0 0 1 0
0 0 0 0 -1
simple:
even 1 -1 0 0 0
even 0 0 1 -1 0
odd 0 0 0 0 1
positive_even:
1 -1 0 0 0
0 0 1 -1 0
0 0 0 0 2
positive_odd:
0 0 0 0 1
"""


def test_datum_file_pure_even():
    d = datum_from_text(A3_TEXT)
    assert d.label == "A3"
    assert d.dim == 4
    assert d.rho == as_weight((F(3, 2), F(1, 2), F(-1, 2), F(-3, 2)))
    assert d.tau == zero_weight(4)
    assert len(d.components) == 1
    assert d.components == ((0, 1, 2),)
    assert d.is_typical(zero_weight(4))
    assert d.is_dominant_integral(zero_weight(4)) == Dominance.NECESSARY_ONLY


def textbook_or_file(family, args):
    return datum_from_text(args[0]) if family == "file" else TEXTBOOK[family][0](*args)


DIAGRAM_CASES = TEXTBOOK_CASES + [("file", (A3_TEXT,)), ("file", (A1A1B_TEXT,))]
DIAGRAM_IDS = [f"{f}{a}" for f, a in TEXTBOOK_CASES] + ["A3 file", "A1A1B file"]


@pytest.mark.parametrize("family, args", DIAGRAM_CASES, ids=DIAGRAM_IDS)
def test_root_and_generator_coords_are_the_simple_expansions(family, args):
    d = textbook_or_file(family, args)
    for r in d.simple_roots + d.positive_even + d.positive_odd + d.generators:
        assert r.coords == d.expand_simple(r.vector)
        assert all(type(c) is int for c in r.coords)


@pytest.mark.parametrize("family, args", DIAGRAM_CASES, ids=DIAGRAM_IDS)
def test_adjacency_is_non_orthogonality_of_even_simple_roots(family, args):
    d = textbook_or_file(family, args)
    even = {p: d.simple_roots[p].vector for p in d.even_positions}
    reference = {
        p: {q for q, w in even.items() if q != p and d.inner(v, w) != 0} for p, v in even.items()
    }
    assert d.adjacency() == reference


def datum_file_text(d, scales=None):
    """Render a datum in the datum file format.

    With scales, over the basis x_i -> s_i x_i: vectors times s_i, Gram
    entries over s_i s_j.
    """
    scales = scales or [1] * d.dim

    def row(v):
        return " ".join(str(s * x) for s, x in zip(scales, v))

    lines = [f"family: {d.label}", f"ambient_dim: {d.dim}", "gram:"]
    lines += [" ".join(str(x / (si * sj)) for sj, x in zip(scales, r))
              for si, r in zip(scales, d.gram)]
    lines.append("simple:")
    lines += [("odd " if r.odd else "even ") + row(r.vector) for r in d.simple_roots]
    lines.append("positive_even:")
    lines += [row(r.vector) for r in d.positive_even]
    lines.append("positive_odd:")
    lines += [row(r.vector) for r in d.positive_odd]
    return "\n".join(lines) + "\n"


def test_datum_file_round_trip():
    for d in (build_sl(3, 2), build_osp2(2), build_g3(), build_f4(), build_b0(2)):
        d2 = datum_from_text(datum_file_text(d))
        assert d2.gram == d.gram
        for name in ("simple_roots", "positive_even", "positive_odd"):
            assert root_fields(getattr(d2, name)) == root_fields(getattr(d, name)), name
        assert d2.rho == d.rho
        assert d2.tau == d.tau
        assert [g.vector for g in d2.generators] == [g.vector for g in d.generators]


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (lambda t: t.replace("family: A3\n", ""), "family"),
        (lambda t: t.replace("ambient_dim: 4", "ambient_dim: four"), "integer"),
        (lambda t: t.replace("even 1 -1 0 0", "even 1 -1 0"), "entries"),
        (lambda t: t.replace("even 1 -1 0 0", "1 -1 0 0"), "even"),
        (lambda t: t.replace("1 0 -1 0", "1 0 -1/0 0"), "rational"),
        (lambda t: t.replace("gram:", "metric:"), "unknown key"),
        (lambda t: t.replace("1 0 0 0\n", "", 1), "rows"),
        (lambda t: t.replace("even 0 0 1 -1", "even 1 0 -1 0"), "linearly dependent"),
        # an odd simple root declared even is not in the even positive list
        (
            lambda _: datum_file_text(build_sl(2, 1)).replace("odd ", "even "),
            "missing from the matching positive list",
        ),
    ],
)
def test_datum_file_errors(mutation, fragment):
    with pytest.raises(MalformedDatumFile) as exc:
        datum_from_text(mutation(A3_TEXT))
    assert fragment in str(exc.value)


NON_INTEGRAL_CARTAN_TEXT = """\
family: X2
ambient_dim: 2
gram:
2 -4/3
-4/3 1/3
simple:
even 1 0
even 0 1
positive_even:
1 0
0 1
positive_odd:
2 4
"""


def test_datum_file_rejects_non_integral_cartan_entry():
    # Every other check passes (the odd root fixes the Weyl vector law),
    # but the two reflections generate no finite Weyl group.
    with pytest.raises(MalformedDatumFile, match=r"Cartan entry <s2, s1\^vee> = -4/3"):
        datum_from_text(NON_INTEGRAL_CARTAN_TEXT)


DEPENDENT_GENERATORS_TEXT = """\
family: X2
ambient_dim: 2
gram:
1 0
0 1
simple:
odd 1 0
even 0 1
positive_even:
0 1
2 0
1 1
positive_odd:
1 0
"""


def test_datum_file_rejects_dependent_even_generators():
    # 2 0 and 1 1 are both indecomposable, so with the simple 0 1 there are
    # three even generators in a plane.
    with pytest.raises(MalformedDatumFile, match="even generators are linearly dependent"):
        datum_from_text(DEPENDENT_GENERATORS_TEXT)


SINGULAR_EVEN_CARTAN_TEXT = """\
family: X3
ambient_dim: 3
gram:
2 -2 -2
-2 2 -2
-2 -2 -2
simple:
even 1 0 0
even 0 1 0
odd 0 0 1
positive_even:
1 0 0
0 1 0
positive_odd:
0 0 1
"""


def test_datum_file_rejects_singular_even_cartan_block():
    # Every other check passes (the odd root fixes the Weyl vector law), but
    # the even simple Cartan block is the singular [[2, -2], [-2, 2]], so no
    # fundamental weights exist; construction solves for them and refuses.
    with pytest.raises(MalformedDatumFile, match="^even simple roots are linearly dependent$"):
        datum_from_text(SINGULAR_EVEN_CARTAN_TEXT)


def test_datum_file_error_line_numbers():
    bad = A3_TEXT.replace("0 1 -1 0\n0 0 1 -1\n1 0 -1 0", "0 1 -1 0\n0 0 1 -1\nx y z w")
    with pytest.raises(MalformedDatumFile) as exc:
        datum_from_text(bad)
    assert exc.value.line == 16
    assert str(exc.value).startswith("line 16:")


def test_datum_file_rejects_broken_structure():
    # dropping a positive even root breaks the Weyl vector law
    broken = A3_TEXT.replace("1 0 0 -1\n", "")
    with pytest.raises(MalformedDatumFile) as exc:
        datum_from_text(broken)
    assert "Weyl vector law" in str(exc.value)
    # a root outside the simple span
    off_span = A3_TEXT.replace("1 0 0 -1", "1 0 0 1")
    with pytest.raises(MalformedDatumFile):
        datum_from_text(off_span)
    # no even simple roots at all
    no_even = """\
family: tiny
ambient_dim: 1
gram:
-1
simple:
odd 1
positive_even:
positive_odd:
1
"""
    with pytest.raises(MalformedDatumFile) as exc:
        datum_from_text(no_even)
    assert "no even simple roots" in str(exc.value)


def test_datum_file_data_before_section():
    text = "family: x\nambient_dim: 2\n1 0\n"
    with pytest.raises(MalformedDatumFile) as exc:
        datum_from_text(text)
    assert exc.value.line == 3


# sl(2,1) over the basis of its simple roots alpha (even) and beta (odd,
# isotropic): the Gram matrix is the form on that basis, with (alpha, beta)
# off the diagonal, and alpha + beta is the second isotropic root.
SL21_SIMPLE_BASIS_TEXT = """\
family: SL21B
ambient_dim: 2
gram:
2 -1
-1 0
simple:
even 1 0
odd 0 1
positive_even:
1 0
positive_odd:
0 1
1 1
"""

FORM_BUILDERS = {
    "sl(3,2)": lambda: build_sl(3, 2),
    "sl(4,3)": lambda: build_sl(4, 3),
    "B(0,3)": lambda: build_b0(3),
    "osp(2,6)": lambda: build_osp2(3),
    "G(3)": build_g3,
    "F(4)": build_f4,
    "SL21B file": lambda: datum_from_text(SL21_SIMPLE_BASIS_TEXT),
}
_FORM_DATA = {}


def form_datum(name):
    if name not in _FORM_DATA:
        _FORM_DATA[name] = FORM_BUILDERS[name]()
    return _FORM_DATA[name]


def shiftable(d):
    """Isotropic odd indices that shift_to_type can reach: (tau, gamma) != 0."""
    return [
        i for i, r in enumerate(d.positive_odd)
        if r.isotropic and dense_inner(d, d.tau, r.vector) != 0
    ]


rationals = st.one_of(st.just(F(0)), st.fractions(-9, 9, max_denominator=6))


def vectors(dim):
    return st.lists(rationals, min_size=dim, max_size=dim).map(tuple)


@st.composite
def weights_near_types(draw, d):
    """A random weight, or one shifted onto the wall of a random reachable type."""
    lam = draw(vectors(d.dim))
    targets = shiftable(d)
    if targets and draw(st.booleans()):
        lam = shift_to_type(d, lam, draw(st.sampled_from(targets)))
    return lam


def test_sl21_simple_basis_file_has_an_off_diagonal_gram():
    d = form_datum("SL21B file")
    assert d.gram[0][1] != 0
    assert [r.isotropic for r in d.positive_odd] == [True, True]
    assert d.rho == as_weight((0, -1))
    assert shiftable(d) == [0, 1]
    assert form_datum("G(3)").gram[0][1] != 0


@pytest.mark.parametrize("name", FORM_BUILDERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inner_matches_the_dense_form(name, data):
    d = form_datum(name)
    u = data.draw(vectors(d.dim))
    v = data.draw(vectors(d.dim))
    assert d.inner(u, v) == dense_inner(d, u, v)
    for r in d.positive_odd + d.positive_even:
        assert d.inner(u, r.vector) == dense_inner(d, u, r.vector)


@pytest.mark.parametrize("name", FORM_BUILDERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_atypicality_matches_the_dense_pairing(name, data):
    d = form_datum(name)
    lam = data.draw(weights_near_types(d))
    assert d.atypicality(lam) == dense_atypicality(d, lam)
    assert d.is_typical(lam) == (dense_atypicality(d, lam) == ())


@st.composite
def off_scale_weights(draw, d):
    """A random rational weight, or sum c_i omega_i + t tau with t in (1/2) Z or (1/3) Z.

    Denominators 2 and 3 lie off the scale of most datums, so the integer
    label maps meet weights whose lcm denominator is not the datum's.
    """
    if draw(st.booleans()):
        return draw(vectors(d.dim))
    n = d.even_simple_count
    coeffs = draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n))
    t = F(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 3))))
    return vadd(d.coefficient_weight(coeffs), vscale(t, d.tau))


def outcome(fn, *args):
    """fn(*args), or the class of the library error it raises."""
    try:
        return fn(*args)
    except SuperweylError as exc:
        return type(exc)


def fraction_dominant_labels(d, lam):
    """The walked dominant labels as Fractions, the values their (nums, den) stand for."""
    shifted, den = d._shifted_labels(lam)
    return tuple(F(a, den) for a in _dominant_walk(d, shifted))


@pytest.mark.parametrize("name", FORM_BUILDERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_label_maps_match_the_dense_references(name, data):
    d = form_datum(name)
    lam = data.draw(off_scale_weights(d))
    labels = d.labels(lam)
    assert labels == dense_labels(d, lam)
    assert all(type(x) is F for x in labels)
    assert d.atypicality(lam) == dense_atypicality(d, lam)
    assert d.is_dominant_integral(lam) is dense_dominance(d, lam)
    assert outcome(fraction_dominant_labels, d, lam) == outcome(dense_dominant_labels, d, lam)
    assert outcome(x_signature, d, lam) == outcome(dense_signature, d, lam)


@pytest.mark.parametrize("name", FORM_BUILDERS)
def test_atypicality_finds_every_shifted_type(name):
    d = form_datum(name)
    for idx in shiftable(d):
        lam = shift_to_type(d, zero_weight(d.dim), idx)
        assert idx in d.atypicality(lam)
        assert d.atypicality(lam) == dense_atypicality(d, lam)
    if not any(r.isotropic for r in d.positive_odd):
        assert d.atypicality(zero_weight(d.dim)) == ()


@pytest.mark.parametrize("name", FORM_BUILDERS)
def test_atypicality_rejects_wrong_length(name):
    d = form_datum(name)
    for lam in (zero_weight(d.dim - 1), zero_weight(d.dim + 1)):
        with pytest.raises(DimensionMismatch):
            d.atypicality(lam)
        with pytest.raises(DimensionMismatch):
            d.is_typical(lam)


# -- every rejection of RootDatum construction, word for word -------------------

A2_TEXT = """\
family: A2
ambient_dim: 3
gram:
1 0 0
0 1 0
0 0 1
simple:
even 1 -1 0
even 0 1 -1
positive_even:
1 -1 0
0 1 -1
1 0 -1
positive_odd:
"""

# sl(2,1) over the odd simple system e1 - d1, d1 - e2: both simple roots odd
# and isotropic, and their sum e1 - e2 the only even root.
ODD_ODD_TEXT = """\
family: SL21O
ambient_dim: 3
gram:
1 0 0
0 1 0
0 0 -1
simple:
odd 1 0 -1
odd 0 -1 1
positive_even:
1 -1 0
positive_odd:
1 0 -1
0 -1 1
"""

TWO_ODD_TEXT = """\
family: B2O
ambient_dim: 2
gram:
-1 0
0 -1
simple:
odd 1 0
odd 0 1
positive_even:
2 0
0 2
positive_odd:
1 0
0 1
"""

ISOTROPIC_GENERATOR_TEXT = """\
family: A1Z
ambient_dim: 1
gram:
0
simple:
even 1
positive_even:
1
positive_odd:
"""

THREE_COMPONENTS_TEXT = """\
family: A1A1A1
ambient_dim: 3
gram:
1 0 0
0 1 0
0 0 1
simple:
even 1 0 0
even 0 1 0
even 0 0 1
positive_even:
1 0 0
0 1 0
0 0 1
positive_odd:
"""


def _under(section, row):
    """A2 with one more row under a section."""
    return A2_TEXT.replace(f"{section}:\n", f"{section}:\n{row}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        (A2_TEXT.replace("0 1 0\n0 0 1\nsimple", "1 1 0\n0 0 1\nsimple"),
         "gram matrix is not symmetric"),
        (_under("positive_odd", "0 0 0"), "zero vector listed as a root"),
        (_under("positive_even", "0 0 0"), "zero vector listed as a root"),
        (_under("positive_even", "1 0 -1"), "duplicate positive root (1, 0, -1)"),
        # a repeated extra generator is reported as a repeat, not as dependent generators
        (A1A1B_TEXT.replace("0 0 0 0 2\n", "0 0 0 0 2\n0 0 0 0 2\n"),
         "duplicate positive root (0, 0, 0, 0, 2)"),
        (_under("positive_odd", "1/2 0 -1/2"),
         "positive root (1/2, 0, -1/2) is not a non-negative integer combination "
         "of the simple roots"),
        (_under("positive_odd", "-1 1 0"),
         "positive root (-1, 1, 0) is not a non-negative integer combination "
         "of the simple roots"),
        (_under("positive_odd", "1 0 0"), "vector does not lie in the span of the simple roots"),
        (ODD_ODD_TEXT, "more than one isotropic simple root"),
        (TWO_ODD_TEXT, "more than one odd simple root"),
        (ISOTROPIC_GENERATOR_TEXT, "reflection generator s1 is isotropic"),
        (THREE_COMPONENTS_TEXT, "even simple diagram has 3 components; expected 1 or 2"),
        (A2_TEXT.replace("1 0 0\n0 1 0\n0 0 1\n", "1/2 0 0\n0 1/2 0\n0 0 1/3\n"),
         "Weyl vector law fails on simple root #2: (rho, b) = 1/3, (b, b)/2 = 5/12"),
    ],
    ids=["asymmetric", "zero odd", "zero even", "duplicate", "duplicate generator",
         "non-integral", "negative", "off span", "two isotropic", "two odd",
         "isotropic generator", "three components", "Weyl vector law"],
)
def test_datum_file_rejection_messages(text, message):
    with pytest.raises(MalformedDatumFile) as exc:
        datum_from_text(text)
    assert str(exc.value) == message


def test_constructor_rejection_messages():
    simple = [(as_weight((1, -1, 0)), False), (as_weight((0, 1, -1)), False)]
    even = [v for v, _ in simple] + [as_weight((1, 0, -1))]
    gram = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(MalformedDatumFile) as exc:
        RootDatum("custom", "A2", [[1, 0, 0], [0, 1], [0, 0, 1]], simple, even, [])
    assert str(exc.value) == "gram matrix is not square"
    with pytest.raises(DimensionMismatch) as exc:
        RootDatum("custom", "A2", gram, simple, even, [as_weight((1, 0))])
    assert str(exc.value) == "root (1, 0) has length 2, ambient dimension is 3"
    with pytest.raises(MalformedDatumFile) as exc:
        RootDatum("custom", "A2", gram, simple, even, [], basis_labels=("x", "y"))
    assert str(exc.value) == "basis label count does not match ambient dimension"


# -- root data equal to the recorded goldens -------------------------------------

_DATUM_GOLDEN = json.loads(DATUM_GOLDEN.read_text(encoding="utf-8"))
_GOLDEN_BUILDERS = golden_builders()


def test_golden_covers_every_builder():
    assert sorted(_DATUM_GOLDEN) == sorted(_GOLDEN_BUILDERS)
    assert len(_GOLDEN_BUILDERS) == 41


@pytest.mark.parametrize("name", sorted(_GOLDEN_BUILDERS))
def test_datum_equals_the_golden_dump(name):
    dump = json.loads(json.dumps(datum_dump(_GOLDEN_BUILDERS[name]())))
    assert dump == _DATUM_GOLDEN[name]


# -- the odd-root reflection table -------------------------------------------------

ODD_REFLECTION_DATA = {
    **_GOLDEN_BUILDERS,
    "SL21B file": lambda: datum_from_text(SL21_SIMPLE_BASIS_TEXT),
}


@pytest.mark.parametrize("name", sorted(ODD_REFLECTION_DATA))
def test_odd_reflections_are_the_vector_reflection(name):
    """Every generator, extras included, sends each positive odd root to the index
    of its reflected vector, and to None exactly where that is no positive odd root."""
    d = ODD_REFLECTION_DATA[name]()
    odd = [r.vector for r in d.positive_odd]
    assert len(d.odd_reflections) == len(d.generators)
    for g, images in zip(d.generators, d.odd_reflections):
        expected = []
        for v in odd:
            image = vsub(v, vscale(pairing(d, v, g.vector), g.vector))
            expected.append(odd.index(image) if image in odd else None)
        assert list(images) == expected


@pytest.mark.parametrize(
    "builder", [lambda: build_b0(3), build_g3, build_f4], ids=["B(0,3)", "G(3)", "F(4)"]
)
def test_only_the_extra_generator_leaves_the_positive_odd_roots(builder):
    d = builder()
    for g, images in zip(d.generators, d.odd_reflections):
        assert (None in images) == (g.pi_index is None)


# -- the same datums over a rescaled ambient basis --------------------------------

nonzero_scales = st.builds(
    F, st.integers(1, 12).map(lambda k: k * (-1) ** k), st.integers(1, 12)
)


@pytest.mark.parametrize("name", FORM_BUILDERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rescaled_basis_keeps_coordinates_isotropy_and_cartan(name, data):
    d = form_datum(name)
    scales = data.draw(st.lists(nonzero_scales, min_size=d.dim, max_size=d.dim))
    e = datum_from_text(datum_file_text(d, scales))
    for attr in ("simple_roots", "positive_even", "positive_odd"):
        assert [(r.odd, r.isotropic, r.coords) for r in getattr(e, attr)] == [
            (r.odd, r.isotropic, r.coords) for r in getattr(d, attr)
        ]
    assert [g.coords for g in e.generators] == [g.coords for g in d.generators]
    assert e.generator_cartan == d.generator_cartan
    assert e.generator_blocks == d.generator_blocks
    assert e.components == d.components
    assert e.rho == tuple(s * x for s, x in zip(scales, d.rho))
    assert e.expand_simple(e.rho) == d.expand_simple(d.rho)


# -- the fraction-free solver on random integer systems ---------------------------


@st.composite
def mixed_systems(draw):
    """Independent integer columns M = U T, with U a product of row operations.

    T is upper triangular with a non-zero diagonal, so U e_j (j >= rank) is
    off the span of M.  Returns M's columns and U's columns.
    """
    dim = draw(st.integers(1, 5))
    rank = draw(st.integers(1, dim))
    small = st.integers(-4, 4)
    t = [[draw(small) if r < c else 0 for c in range(rank)] for r in range(dim)]
    for k in range(rank):
        t[k][k] = draw(small.filter(bool))
    u = [[int(r == c) for c in range(dim)] for r in range(dim)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if i == j:
            continue
        f = draw(small)
        for m in (t, u):
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
        if draw(st.booleans()):
            t[i], t[j], u[i], u[j] = t[j], t[i], u[j], u[i]
    return [tuple(col) for col in zip(*t)], [tuple(col) for col in zip(*u)]


@settings(max_examples=200, deadline=None)
@given(system=mixed_systems(), data=st.data())
def test_solver_recovers_rational_coefficients(system, data):
    columns, u_columns = system
    solver = _Solver(columns, "columns")
    coeffs = data.draw(st.lists(rationals, min_size=len(columns), max_size=len(columns)))
    v = tuple(sum(c * col[r] for c, col in zip(coeffs, columns)) for r in range(len(columns[0])))
    assert [F(n, solver.det) for n in solver.numerators(v)] == coeffs
    for extra in u_columns[len(columns):]:
        with pytest.raises(MalformedDatumFile, match="does not lie in the span of the columns"):
            solver.numerators(tuple(a + b for a, b in zip(v, extra)))
    mix = data.draw(st.lists(st.integers(-3, 3), min_size=len(columns), max_size=len(columns)))
    dependent = tuple(sum(m * col[r] for m, col in zip(mix, columns)) for r in range(len(v)))
    with pytest.raises(MalformedDatumFile, match="columns are linearly dependent"):
        _Solver(columns + [dependent], "columns")
