"""Built-in acceptance suite: thirteen checks over the whole library.

Each criterion is a self-contained function returning pass/fail plus a
one-line detail.  ``run_all`` executes them in order, prints one line per
criterion with the elapsed time, and enforces the per-criterion runtime
budgets.  The randomized checks derive their generators from the given
seed, so identical seeds print identical reports.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .atypical import (
    atypical_context,
    closed_form_coefficient,
    coefficient_f1,
    coefficient_oracle,
    shift_to_type,
)
from .errors import InternalInvariant, NoSecondComponent, SuperweylError
from .numerator import (
    factor_numerator,
    normalized_character,
    numerator,
    x_signature,
)
from .partitions import graph_of_datum, k_partition_counts
from .rootdata import (
    RootDatum,
    Weight,
    build_b0,
    build_f4,
    build_g3,
    build_osp2,
    build_sl,
    vadd,
    vscale,
)
from .series import Poly, mono_from_pairs, mono_key, neg_log, theta
from .unifac import Conclusion, iter_counterexamples, verify_tensor_isomorphism

EXIT_OK = 0
EXIT_FAIL = 70

TIME_LIMITS = {**dict.fromkeys(range(1, 13), 1.0), 13: 7.0}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float
    limit: float


# -- helpers -----------------------------------------------------------------


def _random_typical(datum: RootDatum, count: int, rng: random.Random):
    """Seeded dominant typical weights: fundamental coefficients plus tau."""
    rank = datum.even_simple_count
    found = []
    while len(found) < count:
        coeffs = [rng.randrange(5) for _ in range(rank)]
        lam = datum.coefficient_weight(coeffs, rng.randrange(4))
        if datum.is_typical(lam):
            found.append(lam)
    return found


def _atypical_weight(datum: RootDatum, idx: int, coeff_bound: int = 3) -> Weight:
    """Smallest fundamental-coefficient weight shifting onto type ``idx``."""
    rank = datum.even_simple_count
    candidates = sorted(
        itertools.product(range(coeff_bound + 1), repeat=rank),
        key=lambda c: (sum(c), c),
    )
    for coeffs in candidates:
        try:
            lam = shift_to_type(datum, datum.coefficient_weight(coeffs), idx)
        except SuperweylError:
            continue
        if datum.atypicality(lam) == (idx,):
            return lam
    raise InternalInvariant(f"no weight of type {idx} found on {datum.label}")


def _text(datum: RootDatum, poly: Poly) -> str:
    return poly.to_text(datum.x_label)


_EXAMPLE_COEFFS = {
    "lambda1": (1, 2, 3),
    "lambda2": (1, 4, 5),
    "mu1": (1, 4, 3),
    "mu2": (1, 2, 5),
}

_CHAIN_FACTOR = (
    "1 - X[a1]^2 - X[a2]^{b} + X[a1]^2*X[a2]^{ab}"
    " + X[a1]^{ab}*X[a2]^{b} - X[a1]^{ab}*X[a2]^{ab}"
)

_EXAMPLE_GOLDEN = {
    "lambda1": (_CHAIN_FACTOR.format(b=3, ab=5), "1 - X[a3]^4"),
    "lambda2": (_CHAIN_FACTOR.format(b=5, ab=7), "1 - X[a3]^6"),
    "mu1": (_CHAIN_FACTOR.format(b=5, ab=7), "1 - X[a3]^4"),
    "mu2": (_CHAIN_FACTOR.format(b=3, ab=5), "1 - X[a3]^6"),
}


def _example_weights(datum: RootDatum) -> dict[str, Weight]:
    return {
        name: datum.coefficient_weight(coeffs, 1)
        for name, coeffs in _EXAMPLE_COEFFS.items()
    }


# -- criteria ----------------------------------------------------------------


def _c1_example_goldens(seed: int):
    datum = build_sl(3, 2)
    weights = _example_weights(datum)
    checked = 0
    for name, lam in weights.items():
        factors = factor_numerator(datum, lam)
        rendered = tuple(_text(datum, f) for f in factors)
        if rendered != _EXAMPLE_GOLDEN[name]:
            return False, f"factor text mismatch for {name}: {rendered}"
        checked += len(factors)
    return True, f"{checked} factor expansions are bit-exact"


def _c2_cross_matched_pair(seed: int):
    datum = build_sl(3, 2)
    weights = _example_weights(datum)
    lhs = [weights["lambda1"], weights["lambda2"]]
    rhs = [weights["mu1"], weights["mu2"]]
    lhs_product = numerator(datum, lhs[0]) * numerator(datum, lhs[1])
    rhs_product = numerator(datum, rhs[0]) * numerator(datum, rhs[1])
    if lhs_product != rhs_product:
        return False, "numerator products differ"
    report = verify_tensor_isomorphism(datum, lhs, rhs)
    if report.module_level_conclusion is not Conclusion.CROSS_MATCHED:
        return False, f"conclusion was {report.module_level_conclusion.value}"
    if report.sigma_hypothesis_holds:
        return False, "component-preserving pairing was not ruled out"
    return True, "products agree exactly and the pairing crosses components"


def _c3_tau_pairings(seed: int):
    datum = build_sl(3, 2)
    values = [datum.inner(datum.tau, r.vector) for r in datum.positive_odd]
    if values != [Fraction(5)] * 6:
        return False, f"got {values}"
    return True, "(tau, eps_i - delta_j) = 5 for all six odd roots"


def _c4_rho_pairing_identity(seed: int):
    data = [
        build_sl(2, 1),
        build_sl(3, 1),
        build_sl(3, 2),
        build_sl(4, 3),
        build_b0(2),
        build_b0(3),
        build_osp2(1),
        build_osp2(2),
        build_osp2(3),
        build_g3(),
        build_f4(),
    ]
    checked = 0
    for datum in data:
        for root in datum.simple_roots:
            lhs = datum.inner(datum.rho, root.vector)
            rhs = datum.inner(root.vector, root.vector) / 2
            if lhs != rhs:
                return False, f"{datum.label}: (rho, beta) = {lhs}, half norm {rhs}"
            checked += 1
    return True, f"(rho, beta) equals half the norm for {checked} simple roots"


def _c5_factor_product_law(seed: int):
    cases = [(build_sl(3, 2), "sl"), (build_sl(4, 3), "sl43")]
    total = 0
    for datum, tag in cases:
        rng = random.Random(f"{seed}-factors-{tag}")
        for lam in _random_typical(datum, 100, rng):
            product = Poly.one()
            for factor in factor_numerator(datum, lam):
                product = product * factor
            if product != numerator(datum, lam):
                return False, f"factor product mismatch on {datum.label}"
            total += 1
    return True, f"numerator equals the factor product for {total} weights"


def _c6_partition_values(seed: int):
    data = [
        build_sl(4, 4),
        build_sl(4, 3),
        build_b0(3),
        build_osp2(3),
        build_g3(),
        build_f4(),
    ]
    connected = 0
    disconnected = 0
    for datum in data:
        graph = graph_of_datum(datum)
        verts = graph.vertices
        for size in range(1, len(verts) + 1):
            for subset in itertools.combinations(verts, size):
                sub = graph.induced(subset)
                value = k_partition_counts(sub).k_value
                if sub.is_connected():
                    if value != 1:
                        return False, f"connected {subset} on {datum.label}: k = {value}"
                    connected += 1
                else:
                    if value != 0:
                        return (
                            False,
                            f"disconnected {subset} on {datum.label}: k = {value}",
                        )
                    disconnected += 1
    return True, f"k = 1 on {connected} connected, 0 on {disconnected} disconnected"


def _c7_log_lowest_term(seed: int):
    datum = build_sl(3, 2)
    rng = random.Random(f"{seed}-log")
    nvars = len(datum.simple_roots)
    checked = 0
    for lam in _random_typical(datum, 25, rng):
        factors = factor_numerator(datum, lam)
        signature = x_signature(datum, lam)
        for comp, sig, factor in zip(datum.components, signature, factors):
            target = mono_from_pairs(zip(comp, sig))
            degree = sum(e for _, e in target)
            series = theta(neg_log(factor, degree + 2), comp)
            terms = sorted(
                series.terms.items(), key=lambda kv: mono_key(kv[0], nvars)
            )
            if not terms or terms[0] != (target, Fraction(1)):
                return (
                    False,
                    f"lowest term of -log factor on {comp} is not X^lambda",
                )
            checked += 1
    return True, f"lowest -log term is 1*X^lambda for {checked} factors"


def _c8_distinct_numerators(seed: int):
    datum = build_sl(3, 2)
    seen = {}
    for coeffs in itertools.product((1, 2, 3), repeat=3):
        lam = datum.coefficient_weight(coeffs, 1)
        while not datum.is_typical(lam):
            lam = vadd(lam, datum.tau)
        text = _text(datum, numerator(datum, lam))
        if text in seen:
            return False, f"{coeffs} and {seen[text]} share a numerator"
        seen[text] = coeffs
    return True, f"{len(seen)} grid numerators are pairwise distinct"


_ORACLE_VALUES: list[tuple[str, object]] = []


def _c9_cases():
    cases = []
    for p in (3, 4):
        datum = build_sl(p, 1)
        for idx in range(len(datum.positive_odd)):
            cases.append((f"sl({p},1) type {idx}", datum, idx, False))
    for n, indices in ((2, (0, 1, 2, 3)), (3, (0, 1, 2, 5))):
        datum = build_osp2(n)
        for idx in indices:
            cases.append((f"osp(2,{2 * n}) type {idx}", datum, idx, False))
    for builder, tag in ((build_g3, "G(3)"), (build_f4, "F(4)")):
        datum = builder()
        idx = datum.atypicality(vscale(0, datum.tau))[0]
        cases.append((f"{tag} generic", datum, idx, False))
        cases.append((f"{tag} special", datum, idx, True))
    datum = build_sl(4, 3)
    for p, q in ((2, 2), (3, 2)):
        idx = (p - 1) * 3 + (q - 1)
        cases.append((f"sl(4,3) interior ({p},{q})", datum, idx, False))
    return cases


def _c9_closed_forms(seed: int):
    _ORACLE_VALUES.clear()
    for name, datum, idx, special in _c9_cases():
        lam = _atypical_weight(datum, idx)
        ctx = atypical_context(datum, lam, special=special, z_truncation=3)
        oracle = coefficient_oracle(ctx)
        closed = closed_form_coefficient(ctx)
        if oracle.value != closed.value:
            return False, f"{name}: oracle and {closed.tag} closed form differ"
        _ORACLE_VALUES.append((name, oracle.value))
    return True, f"oracle equals the closed form in {len(_ORACLE_VALUES)} cases"


def _c10_pair_preserving_unit(seed: int):
    checked = []
    for p, q, datum in [
        (2, 2, build_sl(4, 3)),
        (3, 2, build_sl(4, 3)),
        (2, 2, build_sl(5, 3)),
        (3, 2, build_sl(5, 3)),
        (4, 2, build_sl(5, 3)),
    ]:
        value = coefficient_f1(datum, p, q)
        if value != 1:
            return False, f"{datum.label} interior ({p},{q}): f1 = {value}"
        checked.append((datum.label, p, q))
    return True, f"pair-preserving coefficient is 1 in {len(checked)} cases"


def _c11_oracles_nonzero(seed: int):
    if not _ORACLE_VALUES:
        return False, "no oracle values recorded"
    for name, value in _ORACLE_VALUES:
        if not any(c != 0 for c in value.terms.values()):
            return False, f"{name}: oracle coefficient vanishes"
    return True, f"all {len(_ORACLE_VALUES)} oracle coefficients are nonzero"


def _c12_character_positivity(seed: int):
    cases = [(build_sl(2, 1), "sl21"), (build_sl(3, 2), "sl32"), (build_osp2(2), "osp")]
    total = 0
    for datum, tag in cases:
        rng = random.Random(f"{seed}-char-{tag}")
        for lam in _random_typical(datum, 10, rng):
            char = normalized_character(datum, lam, 6)
            for mono, coeff in char.terms.items():
                if coeff.denominator != 1 or coeff < 0:
                    return (
                        False,
                        f"{datum.label}: coefficient {coeff} at {mono}",
                    )
            total += 1
    return True, f"characters of {total} weights have nonnegative integer terms"


def _c13_search(seed: int):
    datum = build_sl(3, 2)
    target_lhs = (((2, 3), (4,)), ((2, 5), (6,)))
    target_rhs = (((2, 3), (6,)), ((2, 5), (4,)))
    hits = 0
    pattern_found = False
    for hit in iter_counterexamples(datum, signature_bound=5, tau_multiplier=1):
        hits += 1
        lhs_sigs = tuple(sorted(x_signature(datum, w) for w in hit.lhs))
        rhs_sigs = tuple(sorted(x_signature(datum, w) for w in hit.rhs))
        if {lhs_sigs, rhs_sigs} == {target_lhs, target_rhs}:
            pattern_found = True
    if hits == 0:
        return False, "no counterexamples found on sl(3,2)"
    if not pattern_found:
        return False, "example signature pattern missing from the search"
    for builder in (lambda: build_sl(3, 1), build_g3):
        other = builder()
        try:
            found = list(iter_counterexamples(other, 5, 1))
        except NoSecondComponent:
            found = []
        if found:
            return False, f"unexpected counterexample on {other.label}"
    return True, f"pattern found among {hits} hits; single-component searches empty"


CRITERIA: list[tuple[int, str, Callable[[int], tuple[bool, str]]]] = [
    (1, "example factor expansions", _c1_example_goldens),
    (2, "cross-matched product identity", _c2_cross_matched_pair),
    (3, "tau pairings on sl(3,2)", _c3_tau_pairings),
    (4, "rho pairing identity", _c4_rho_pairing_identity),
    (5, "numerator factor product law", _c5_factor_product_law),
    (6, "partition values on induced subgraphs", _c6_partition_values),
    (7, "lowest term of -log factors", _c7_log_lowest_term),
    (8, "distinct numerators on a grid", _c8_distinct_numerators),
    (9, "atypical closed forms against the oracle", _c9_closed_forms),
    (10, "pair-preserving coefficient is one", _c10_pair_preserving_unit),
    (11, "oracle coefficients are nonzero", _c11_oracles_nonzero),
    (12, "character coefficient positivity", _c12_character_positivity),
    (13, "counterexample search", _c13_search),
]


def run_criteria(seed: int) -> list[CriterionResult]:
    results = []
    for number, title, func in CRITERIA:
        start = time.monotonic()
        try:
            passed, detail = func(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.monotonic() - start
        limit = TIME_LIMITS[number]
        if passed and elapsed > limit:
            passed = False
            detail = f"exceeded {limit:.0f}s budget: {detail}"
        results.append(
            CriterionResult(number, title, passed, detail, elapsed, limit)
        )
    return results


def render(results: list[CriterionResult]) -> list[str]:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"criterion {r.number}: {status} {r.title}; {r.detail} ({r.seconds:.2f}s)"
        )
    return lines


def run_all(seed: int) -> int:
    print(f"seed: {seed}")
    results = run_criteria(seed)
    for line in render(results):
        print(line)
    passed = sum(1 for r in results if r.passed)
    print(f"result: {passed}/{len(results)} passed")
    return EXIT_OK if passed == len(results) else EXIT_FAIL
