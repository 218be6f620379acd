"""Reference-element machinery for P^k Lagrange spaces on tetrahedra.

The basis function of lattice point alpha factorises over the
barycentric coordinates,

    phi_alpha = prod_m f_{alpha_m}(l_m) / alpha_m!,   f_c(x) = prod_{r<c} (k x - r),

and every f_c has integer coefficients, so each barycentric monomial
coefficient of a basis function, or of its formal derivative, is an
integer numerator over the common denominator (k!)^4.  Element
integrals reduce to the closed form

    integral over T of l0^a l1^b l2^c l3^d  =  3! |T| a! b! c! d! / (a+b+c+d+3)!

so stiffness, mass and divergence matrices are contracted in Python
integers and each entry is divided once: no quadrature error and no
symbolic algebra.  Only load vectors (general integrands) use a
numerical rule, a Grundmann-Moller simplex rule of degree 9.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

MAX_ORDER = 4


@lru_cache(maxsize=None)
def lattice_points(k: int):
    """Barycentric multi-indices (a0,a1,a2,a3) with sum k, canonical order.

    Order is lexicographically descending, so the four vertices come
    first for k = 1.
    """
    return tuple(_compositions(k, 4))


def _basis_table(k: int, derivative: int | None):
    """The P^k basis in lattice order, or its formal derivative in the
    barycentric coordinate ``derivative``, as exact monomial coefficients:
    (exponents (n_mon, 4), integer numerators (n_loc, n_mon) as an object
    array, common denominator).  The exponents are every 4-tuple of the
    basis' degree or less."""
    # factor[c][j] is the x^j coefficient of f_c(x) k!/c! and d_factor[c][j]
    # that of its derivative, so a coefficient over (k!)^4 is the product
    # of one entry per coordinate
    f, factor = [1] + [0] * k, []
    for c in range(k + 1):
        factor.append([factorial(k) // factorial(c) * a for a in f])
        f = [k * lo - c * hi for lo, hi in zip([0] + f[:-1], f)]
    d_factor = [[j * a for j, a in enumerate(row)][1:] + [0] for row in factor]
    alpha = np.array(lattice_points(k))
    exponents = np.array(list(_compositions(k - (derivative is not None), 5)))[:, :4]
    numerators = np.ones((len(alpha), len(exponents)), dtype=object)
    for m in range(4):
        table = np.array(d_factor if m == derivative else factor, dtype=object)
        numerators *= table[np.ix_(alpha[:, m], exponents[:, m])]
    return exponents, numerators, factorial(k) ** 4


def _integral_matrix(a, b):
    """Integrals of the products of the functions of two basis tables per
    unit tet volume: the monomial Gram contraction taken in Python ints
    over one common denominator, each entry divided once (int / int
    rounds correctly)."""
    (ea, na, da), (eb, nb, db) = a, b
    sums = ea[:, None, :] + eb[None, :, :]
    degree = sums.sum(axis=2)
    top = int(degree.max()) + 3
    fact = np.array([factorial(i) for i in range(top + 1)], dtype=object)
    # 6 beta! / (|beta|+3)! over the denominator top!
    gram = 6 * fact[sums].prod(axis=2) * (fact[top] // fact[degree + 3])
    return ((na @ gram @ nb.T) / (da * db * fact[top])).astype(np.float64)


@lru_cache(maxsize=None)
def mass_reference(k: int):
    """M[i,j] = integral of phi_i phi_j per unit tet volume."""
    table = _basis_table(k, None)
    return _integral_matrix(table, table)


@lru_cache(maxsize=None)
def stiffness_reference(k: int):
    """S[m,n,i,j] = integral of d_m(phi_i) d_n(phi_j) per unit tet volume.

    d_m is the formal partial derivative in the m-th barycentric
    coordinate; the physical gradient contraction with grad(l_m) is
    geometry and happens per element.
    """
    n_loc = len(lattice_points(k))
    S = np.empty((4, 4, n_loc, n_loc))
    tables = [_basis_table(k, m) for m in range(4)]
    for m in range(4):
        for n in range(m, 4):
            S[m, n] = _integral_matrix(tables[m], tables[n])
            S[n, m] = S[m, n].T
    return S


@lru_cache(maxsize=None)
def divergence_reference(k_vel: int, k_pres: int):
    """N[m,q,i] = integral of psi_q d_m(phi_i) per unit tet volume."""
    pres = _basis_table(k_pres, None)
    return np.stack([_integral_matrix(pres, _basis_table(k_vel, m)) for m in range(4)])


def basis_values_at(k: int):
    """Float basis values at the points of :func:`tet_quadrature`:
    (n_pts, n_loc), each the product over the coordinates of f_c(l_m) / c!."""
    pts = tet_quadrature()[0]
    factors = [np.ones_like(pts)]  # factors[c] = f_c(pts) / c!
    for c in range(k):
        factors.append(factors[-1] * (k * pts - c) / (c + 1))
    factors = np.array(factors)
    alpha = np.array(lattice_points(k))
    values = np.ones((len(pts), len(alpha)))
    for m in range(4):
        values *= factors[alpha[:, m], :, m].T
    return values


# -- Grundmann-Moller quadrature -------------------------------------------


@lru_cache(maxsize=None)
def tet_quadrature():
    """Symmetric simplex quadrature exact for polynomials up to degree 9.

    Returns (barycentric points (m, 4), weights (m,)) normalised so that
    the integral over a tet T is |T| * sum_j w_j f(p_j).  Weights are
    rationals of the Grundmann-Moller family (some are negative).
    """
    s, d, n = 4, 9, 3  # degree d = 2s+1 in n = 3 dimensions
    points, weights = [], []
    for i in range(s + 1):
        denom = d + n - 2 * i
        w = Fraction((-1) ** i) * Fraction(denom**d, 4**s * factorial(i) * factorial(d + n - i))
        for beta in _compositions(s - i, n + 1):
            points.append([Fraction(2 * b + 1, denom) for b in beta])
            weights.append(w)
    pts = np.array([[float(c) for c in p] for p in points])
    # normalise to unit volume: the raw rule integrates over the standard
    # simplex of volume 1/n!
    wts = np.array([float(w * factorial(n)) for w in weights])
    return pts, wts


def _compositions(total, parts):
    """Tuples of ``parts`` non-negative ints summing to ``total``, in
    lexicographically descending order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest
