"""Reference Weyl groups as exact reflection matrices, for differential tests.

The library enumerates groups as integer label trees (``superweyl.weyl``).
This module keeps the direct construction: breadth-first products of
``Fraction`` reflection matrices, deduplicated by matrix and sorted by
(length, word), and orbit sums that apply each matrix to the weight.  The
word (k_1, ..., k_L) stands for the matrix s_{k_1} ... s_{k_L}.  It is slow,
so it refuses groups above ``MAX_ORDER`` elements.
"""

from fractions import Fraction

from superweyl.atypical import _prefactor
from superweyl.errors import NotDominant
from superweyl.numerator import _checked_labels
from superweyl.rootdata import as_weight, vadd, vsub
from superweyl.series import Poly, weight_monomial

from form_reference import dense_inner

MAX_ORDER = 720


def pairing(datum, v, alpha):
    """2 (v, alpha) / (alpha, alpha) straight from the Gram form, alpha non-isotropic."""
    return 2 * dense_inner(datum, v, alpha) / dense_inner(datum, alpha, alpha)


def reflection_matrix(datum, alpha):
    """Matrix (by rows) of the reflection in a non-isotropic root."""
    dim = datum.dim
    images = []
    for j in range(dim):
        e = tuple(Fraction(int(k == j)) for k in range(dim))
        c = pairing(datum, e, alpha)
        images.append(tuple(e[i] - c * alpha[i] for i in range(dim)))
    return tuple(tuple(images[j][i] for j in range(dim)) for i in range(dim))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def act(matrix, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in matrix)


def sign(word):
    return -1 if len(word) % 2 else 1


_groups = {}


def reference_group(datum, gids=None):
    """[(word, matrix)] for the group on ``gids`` (all generators by default).

    Built once per datum and generator set.
    """
    chosen = tuple(g.gid for g in datum.generators) if gids is None else tuple(sorted(set(gids)))
    if (datum, chosen) not in _groups:
        _groups[datum, chosen] = _build(datum, chosen)
    return _groups[datum, chosen]


def _build(datum, chosen):
    refl = {g: reflection_matrix(datum, datum.generators[g].vector) for g in chosen}
    identity = tuple(
        tuple(Fraction(int(i == j)) for j in range(datum.dim)) for i in range(datum.dim)
    )
    seen = {identity: ()}
    frontier = [((), identity)]
    while frontier:
        new = []
        for word, m in frontier:
            for g in chosen:
                p = mat_mul(m, refl[g])
                if p not in seen:
                    if len(seen) >= MAX_ORDER:
                        raise ValueError("reference group above MAX_ORDER")
                    seen[p] = word + (g,)
                    new.append((word + (g,), p))
        frontier = new
    return sorted(((w, m) for m, w in seen.items()), key=lambda e: (len(e[0]), e[0]))


def orbit_sum(datum, elements, eta):
    """sum of sign(w) X^(eta - w eta) over (word, matrix) pairs."""
    terms = {}
    for word, m in elements:
        mono = weight_monomial(datum.expand_simple(vsub(eta, act(m, eta))))
        terms[mono] = terms.get(mono, 0) + sign(word)
    return Poly({m: c for m, c in terms.items() if c != 0})


def dominant_representative(datum, eta):
    for _, m in reference_group(datum):
        image = act(m, eta)
        if all(pairing(datum, image, g.vector) > 0 for g in datum.generators):
            return image
    raise NotDominant("shifted weight lies on a wall of the even Weyl chambers")


def numerator(datum, lam):
    lam = as_weight(lam)
    _checked_labels(datum, *datum._shifted(lam))
    eta_plus = dominant_representative(datum, vadd(lam, datum.rho))
    return orbit_sum(datum, reference_group(datum), eta_plus)


def factors(datum, lam):
    """Per-component orbit sums at lambda + rho, in component order."""
    eta = vadd(as_weight(lam), datum.rho)
    out = []
    for comp in datum.components:
        gids = [g.gid for g in datum.generators if g.pi_index in comp]
        out.append(orbit_sum(datum, reference_group(datum, gids), eta))
    return out


def atypical_numerator(ctx):
    """U(lambda) of a singly atypical context, term by term over the matrices."""
    datum = ctx.datum
    eta = vadd(ctx.lam, datum.rho)
    pi0 = [g.gid for g in datum.generators if g.pi_index is not None]
    terms = {}
    odd = [r.vector for r in datum.positive_odd]
    for word, m in reference_group(datum, pi0):
        idx = odd.index(act(m, ctx.gamma.vector))
        mono = weight_monomial(datum.expand_simple(vsub(eta, act(m, eta))))
        coeff = _prefactor(ctx, idx).scale(sign(word))
        terms[mono] = terms[mono] + coeff if mono in terms else coeff
    return Poly(terms, ctx.z_truncation)
