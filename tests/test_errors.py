"""The library raises only its own error classes.

Every failure a caller can handle derives from ``SuperweylError``; a
builtin exception escaping the library is a bug.  Internal checks raise
``InternalInvariant``, never ``assert``, so that they also run under
``python -O``.
"""

import ast
import builtins
import re
from fractions import Fraction
from pathlib import Path

import pytest

from superweyl.errors import SuperweylError, WeightParseError
from superweyl.numerator import numerator
from superweyl.rootdata import RootDatum, as_weight, build_sl
from superweyl.unifac import verify_tensor_isomorphism

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "superweyl"


def builtin_raises(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else None
        if isinstance(getattr(builtins, name or "", None), type):
            yield f"{path.name}:{node.lineno} raises {name}"


def asserts(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno} asserts"


def test_library_raises_no_builtin_exceptions():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in builtin_raises(path)]
    assert found == []


def test_library_has_no_assert_statements():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in asserts(path)]
    assert found == []


def unused_imports(path):
    """Module-level imports that the module never reads; ``__all__`` counts as a read."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in node.value.elts}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
    for name, lineno in imported.items():
        if name not in read:
            yield f"{path.name}:{lineno} imports {name} and never uses it"


def test_library_has_no_unused_imports():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in unused_imports(path)]
    assert found == []


def definitions(scope):
    """(name, line) of each function, class or assignment directly in ``scope``."""
    for node in scope.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, node.lineno


def private_definitions(tree):
    """(name, line) of each private function, class or assignment at module or class level."""
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for scope in scopes:
        for name, lineno in definitions(scope):
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, lineno


def loaded_names(tree):
    """Names a module reads: loaded names and loaded attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_library_has_no_orphaned_private_names():
    """Every private (non-dunder) name defined in the library is read somewhere in it."""
    defined = {}
    read = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, lineno in private_definitions(tree):
            defined.setdefault(name, f"{path.name}:{lineno}")
        read.update(loaded_names(tree))
    found = [
        f"{where} defines {name}, which nothing reads"
        for name, where in sorted(defined.items())
        if name not in read
    ]
    assert found == []


def test_library_has_no_test_only_public_names():
    """Every public module-level function, class or constant of the library is
    read in the library, in perfbench or in README.md; definitions, imports and
    ``__all__`` do not count as reads."""
    defined = {}
    read = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read.update(loaded_names(tree))
        if path.parent != SRC:
            continue
        for name, lineno in definitions(tree):
            if not name.startswith("_"):
                defined.setdefault(name, f"{path.name}:{lineno}")
    found = [
        f"{where} defines {name}, which the library, perfbench and README.md never read"
        for name, where in sorted(defined.items())
        if name not in read
    ]
    assert found == []


def valid_sl32_weight():
    datum = build_sl(3, 2)
    return datum, datum.coefficient_weight((1, 2, 3), 1)


# Weights whose entries are not exact rationals: ``Fraction`` refuses the
# first three (ValueError, ZeroDivisionError, TypeError), and a float is
# refused outright rather than turned into a binary fraction.
BAD_ENTRIES = {
    "word": lambda w: ("x",) * len(w),
    "zero denominator": lambda w: ("1/0",) * len(w),
    "none": lambda w: (None,) * len(w),
    "float copy": lambda w: tuple(map(float, w)),
}


@pytest.mark.parametrize("kind", BAD_ENTRIES)
def test_numerator_refuses_inexact_weight_entries(kind):
    datum, lam = valid_sl32_weight()
    numerator(datum, lam)
    with pytest.raises(WeightParseError):
        numerator(datum, BAD_ENTRIES[kind](lam))


@pytest.mark.parametrize("kind", BAD_ENTRIES)
def test_verify_refuses_inexact_weight_entries(kind):
    datum, lam = valid_sl32_weight()
    bad = BAD_ENTRIES[kind](lam)
    verify_tensor_isomorphism(datum, [lam, lam], [lam, lam])
    with pytest.raises(WeightParseError):
        verify_tensor_isomorphism(datum, [bad, lam], [lam, lam])
    with pytest.raises(WeightParseError):
        verify_tensor_isomorphism(datum, [lam, lam], [lam, bad])


@pytest.mark.parametrize("kind", BAD_ENTRIES)
def test_datum_label_maps_refuse_inexact_weight_entries(kind):
    datum, lam = valid_sl32_weight()
    bad = BAD_ENTRIES[kind](lam)
    for label_map in (datum.labels, datum.atypicality, datum.is_typical,
                      datum.is_dominant_integral):
        label_map(lam)
        with pytest.raises(WeightParseError):
            label_map(bad)


def test_as_weight_keeps_exact_entries_and_converts_ints_and_strings():
    _, lam = valid_sl32_weight()
    assert all(a is b for a, b in zip(as_weight(lam), lam))
    assert as_weight([1, "3/2", "-2"]) == (1, Fraction(3, 2), -2)
    assert all(type(e) is Fraction for e in as_weight([1, "3/2"]))
    with pytest.raises(WeightParseError):
        as_weight(None)


# A2 in the plane x + y + z = 0 of R^3, as plain ints.
A2_GRAM = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
A2_SIMPLE = [((1, -1, 0), False), ((0, 1, -1), False)]
A2_EVEN = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]


def test_datum_refuses_a_float_root_entry():
    RootDatum("custom", "A2", A2_GRAM, A2_SIMPLE, A2_EVEN, [])
    simple = [((1.0, -1.0, 0.0), False), A2_SIMPLE[1]]
    with pytest.raises(WeightParseError):
        RootDatum("custom", "A2", A2_GRAM, simple, A2_EVEN, [])
    with pytest.raises(SuperweylError):
        RootDatum("custom", "A2", A2_GRAM, A2_SIMPLE, A2_EVEN[:2] + [(1.0, 0, -1)], [])


def test_datum_refuses_a_float_gram_entry():
    gram = [[0.1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(WeightParseError):
        RootDatum("custom", "A2", gram, A2_SIMPLE, A2_EVEN, [])
    # a float equal to an int entry is refused too, not matched to that int
    gram = [[1.0, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(WeightParseError):
        RootDatum("custom", "A2", gram, A2_SIMPLE, A2_EVEN, [])
