"""The invariant form as a dense double loop, for differential tests.

``RootDatum`` pairs a weight with its generators and isotropic roots as
integer dot products of the weight's numerators with rows built once at
construction.  This module keeps the direct route in exact ``Fraction``
arithmetic: the full double sum over the Gram matrix, labels as
2 (v, g) / (g, g), typicality by pairing lam + rho with each isotropic
root, and the dominant representative by reflecting vectors.
"""

from superweyl.errors import NonIntegralExponent, NotDominant
from superweyl.rootdata import Dominance, vadd, vscale, vsub


def dense_inner(datum, u, v):
    """sum_ij u_i G_ij v_j over every entry of the Gram matrix G."""
    return sum(
        (u[i] * datum.gram[i][j] * v[j] for i in range(datum.dim) for j in range(datum.dim)),
        0,
    )


def dense_atypicality(datum, lam):
    """Indices of the isotropic positive odd gamma with (lam + rho, gamma) = 0."""
    eta = vadd(lam, datum.rho)
    return tuple(
        idx
        for idx, r in enumerate(datum.positive_odd)
        if r.isotropic and dense_inner(datum, eta, r.vector) == 0
    )


def dense_pairing(datum, v, alpha):
    """<v, alpha^vee> = 2 (v, alpha) / (alpha, alpha) for a non-isotropic root alpha."""
    return 2 * dense_inner(datum, v, alpha) / dense_inner(datum, alpha, alpha)


def dense_labels(datum, v):
    """The labels <v, g^vee> of v, one per generator in gid order."""
    return tuple(dense_pairing(datum, v, g.vector) for g in datum.generators)


def dense_dominance(datum, lam):
    """The even dominance test: every even simple label a non-negative integer."""
    for pos in datum.even_positions:
        value = dense_pairing(datum, lam, datum.simple_roots[pos].vector)
        if value.denominator != 1 or value < 0:
            return Dominance.NO
    return Dominance.YES if datum.family in ("sl", "osp") else Dominance.NECESSARY_ONLY


def dense_dominant_labels(datum, lam):
    """Labels of the dominant representative of lam + rho, by reflecting the vector.

    Reflects in the first generator with a negative label, s_g(v) = v -
    <v, g^vee> g, until none is left; a zero label is a chamber wall.
    """
    v = vadd(lam, datum.rho)
    while True:
        labels = dense_labels(datum, v)
        if 0 in labels:
            raise NotDominant("shifted weight lies on a wall")
        k = next((k for k, a in enumerate(labels) if a < 0), None)
        if k is None:
            return labels
        v = vsub(v, vscale(labels[k], datum.generators[k].vector))


def dense_signature(datum, lam):
    """Pairings of lam + rho with the even simple roots, by component, as integers."""
    eta = vadd(lam, datum.rho)
    out = []
    for comp in datum.components:
        values = [dense_pairing(datum, eta, datum.simple_roots[pos].vector) for pos in comp]
        if any(value.denominator != 1 for value in values):
            raise NonIntegralExponent("a pairing is not an integer")
        out.append(tuple(int(value) for value in values))
    return tuple(out)
