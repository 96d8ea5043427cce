"""The invariant form as a dense double loop, for differential tests.

``RootDatum`` pairs vectors through sparse rows of its Gram matrix, and
tests a weight's typicality against one precomputed form row and (rho,
gamma) per isotropic positive odd root.  This module keeps the direct
route: the full double sum over the Gram matrix, and typicality by
pairing lam + rho with each isotropic root.
"""

from superweyl.rootdata import vadd


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
