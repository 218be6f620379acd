"""Reference-element machinery for P^k Lagrange spaces on tetrahedra.

Basis functions are expanded symbolically into barycentric monomials
with exact rational coefficients, and element integrals reduce to the
closed form

    integral over T of l0^a l1^b l2^c l3^d  =  3! |T| a! b! c! d! / (a+b+c+d+3)!

so stiffness, mass and divergence matrices are assembled without any
quadrature error.  Only load vectors (general integrands) use a
numerical rule, a Grundmann-Moller simplex rule of degree 9.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

import numpy as np

MAX_ORDER = 4


@lru_cache(maxsize=None)
def lattice_points(k: int):
    """Barycentric multi-indices (a0,a1,a2,a3) with sum k, canonical order.

    Order is lexicographically descending, so the four vertices come
    first for k = 1.
    """
    return tuple(_compositions(k, 4))


def _monomial_integral_unit(exponents) -> Fraction:
    # per unit volume: integral / |T|
    s = sum(exponents)
    num = 6
    for e in exponents:
        num *= factorial(e)
    return Fraction(num, factorial(s + 3))


# -- polynomials over barycentric coordinates ------------------------------
# representation: dict mapping exponent 4-tuples to Fraction coefficients


def _poly_mul(p, q):
    out = {}
    for ep, cp in p.items():
        for eq, cq in q.items():
            e = (ep[0] + eq[0], ep[1] + eq[1], ep[2] + eq[2], ep[3] + eq[3])
            out[e] = out.get(e, Fraction(0)) + cp * cq
    return out


def _poly_diff(p, m):
    out = {}
    for e, c in p.items():
        if e[m] > 0:
            enew = list(e)
            enew[m] -= 1
            out[tuple(enew)] = c * e[m]
    return out


def _univariate_factor(k, m, c):
    # product over r < c of (k*l_m - r)/(c - r), as a poly in l_m
    poly = {(0, 0, 0, 0): Fraction(1)}
    lin_base = [0, 0, 0, 0]
    for r in range(c):
        lin = {}
        e = lin_base.copy()
        e[m] = 1
        lin[tuple(e)] = Fraction(k, c - r)
        if r:
            lin[(0, 0, 0, 0)] = Fraction(-r, c - r)
        poly = _poly_mul(poly, lin)
    return poly


@lru_cache(maxsize=None)
def lagrange_basis(k: int):
    """Exact monomial expansions of the P^k Lagrange basis, lattice order."""
    basis = []
    for alpha in lattice_points(k):
        poly = {(0, 0, 0, 0): Fraction(1)}
        for m, c in enumerate(alpha):
            if c:
                poly = _poly_mul(poly, _univariate_factor(k, m, c))
        basis.append(poly)
    return tuple(basis)


@lru_cache(maxsize=None)
def _basis_coeff_table(k: int, derivative: int | None):
    """Coefficient matrix (n_loc x n_mon) over a shared monomial list."""
    polys = lagrange_basis(k)
    if derivative is not None:
        polys = tuple(_poly_diff(p, derivative) for p in polys)
    monos = sorted({e for p in polys for e in p})
    index = {e: i for i, e in enumerate(monos)}
    coeffs = [[Fraction(0)] * len(monos) for _ in polys]
    for i, p in enumerate(polys):
        for e, c in p.items():
            coeffs[i][index[e]] = c
    return tuple(monos), tuple(tuple(row) for row in coeffs)


def _pair_integral_matrix(monos_a, coeffs_a, monos_b, coeffs_b):
    # exact Gram contraction C_a G C_b^T, G the monomial Gram matrix: each
    # factor is scaled to integers by the lcm of its denominators, the
    # product is taken in Python ints, and each entry is divided once;
    # int / int rounds correctly, so it equals float() of the Fraction
    gram = [
        [_monomial_integral_unit(tuple(ea[m] + eb[m] for m in range(4))) for eb in monos_b]
        for ea in monos_a
    ]
    (ca, da), (g, dg), (cb, db) = (_integer_matrix(x) for x in (coeffs_a, gram, coeffs_b))
    return ((ca @ g @ cb.T) / (da * dg * db)).astype(np.float64)


def _integer_matrix(rows):
    """(object array of Python ints N, int d) with rows == N / d exactly."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return np.array([[x.numerator * (d // x.denominator) for x in row] for row in rows], dtype=object), d


@lru_cache(maxsize=None)
def mass_reference(k: int):
    """M[i,j] = integral of phi_i phi_j per unit tet volume."""
    monos, coeffs = _basis_coeff_table(k, None)
    return _pair_integral_matrix(monos, coeffs, monos, coeffs)


@lru_cache(maxsize=None)
def stiffness_reference(k: int):
    """S[m,n,i,j] = integral of d_m(phi_i) d_n(phi_j) per unit tet volume.

    d_m is the formal partial derivative in the m-th barycentric
    coordinate; the physical gradient contraction with grad(l_m) is
    geometry and happens per element.
    """
    n_loc = len(lattice_points(k))
    S = np.empty((4, 4, n_loc, n_loc))
    tables = [_basis_coeff_table(k, m) for m in range(4)]
    for m in range(4):
        for n in range(m, 4):
            block = _pair_integral_matrix(*tables[m], *tables[n])
            S[m, n] = block
            if n != m:
                S[n, m] = block.T
    return S


@lru_cache(maxsize=None)
def divergence_reference(k_vel: int, k_pres: int):
    """N[m,q,i] = integral of psi_q d_m(phi_i) per unit tet volume."""
    monos_p, coeffs_p = _basis_coeff_table(k_pres, None)
    n_p, n_v = len(lattice_points(k_pres)), len(lattice_points(k_vel))
    N = np.empty((4, n_p, n_v))
    for m in range(4):
        monos_d, coeffs_d = _basis_coeff_table(k_vel, m)
        N[m] = _pair_integral_matrix(monos_p, coeffs_p, monos_d, coeffs_d)
    return N


@lru_cache(maxsize=None)
def basis_values_at(k: int):
    """Float basis values at the points of :func:`tet_quadrature`:
    (n_pts, n_loc)."""
    pts = tet_quadrature()[0]
    polys = lagrange_basis(k)
    out = np.empty((pts.shape[0], len(polys)))
    for j, poly in enumerate(polys):
        acc = np.zeros(pts.shape[0])
        for e, c in poly.items():
            term = np.full(pts.shape[0], float(c))
            for m in range(4):
                if e[m]:
                    term = term * pts[:, m] ** e[m]
            acc += term
        out[:, j] = acc
    return out


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
