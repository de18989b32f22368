"""Independent oracles for the test suite.

None of these touch the package's Hilbert engine: the genus-0 oracle expands
the Eagon-Northcott resolution of the Hankel determinantal ideal, the k=1
oracle is a Riemann-Roch computation on the symmetric square of the curve
with its classical intersection theory, and the hypersurface oracle covers
the cases where the secant variety has codimension one.
"""

from __future__ import annotations

from fractions import Fraction

from secantinv import binomial


def hypersurface_chi(twist: int, ambient_dim: int, hyp_degree: int) -> int:
    """chi of a twist on a degree-``hyp_degree`` hypersurface in P^ambient_dim."""
    return binomial(twist + ambient_dim, ambient_dim) - binomial(
        twist - hyp_degree + ambient_dim, ambient_dim
    )


def genus0_hilbert_function(d: int, k: int, n: int) -> int:
    """Hilbert function of the order-k secant variety of the rational normal
    curve of degree d, via the Eagon-Northcott resolution of the maximal
    minors of the (k+2) x (d-k) Hankel matrix (valid for d >= 2k+1).

    The resolution has i-th term of rank C(d-k, k+i+1) * C(k+i, i-1) in
    degree k+i+1 for i = 1 .. d-2k-1, over the coordinate ring of P^d.  The
    term of index i contributes C(n-k-i-1+d, d), which is 0 for i >= n-k, so
    the sum stops there and costs O(n) binomials at any d.
    """
    if n < 0:
        return 0
    total = binomial(n + d, d)
    for i in range(1, min(d - 2 * k, n - k)):
        total += (-1) ** i * eagon_northcott_rank(d, k, i) * binomial(n - k - i - 1 + d, d)
    return total


def eagon_northcott_rank(d: int, k: int, i: int) -> int:
    """Rank C(d-k, k+i+1) * C(k+i, i-1) of the i-th term (i >= 1) of the
    Eagon-Northcott resolution of the maximal minors of the (k+2) x (d-k)
    Hankel matrix; it sits in degree k+i+1."""
    return binomial(d - k, k + i + 1) * binomial(k + i, i - 1)


def genus0_generators(d: int, k: int) -> int:
    """Minimal generators of the Hankel determinantal ideal: the maximal
    minors, one per choice of k+2 of the d-k columns."""
    return binomial(d - k, k + 2)


def _sym_square_dot(g: int, u: tuple[Fraction, Fraction], v: tuple[Fraction, Fraction]) -> Fraction:
    """Intersection form on the symmetric square of a genus-g curve in the
    basis (x, theta): x.x = 1, x.theta = g, theta.theta = g(g-1)."""
    (a1, b1), (a2, b2) = u, v
    return a1 * a2 + g * (a1 * b2 + a2 * b1) + g * (g - 1) * b1 * b2


def chi_sym_square_sheaf(g: int, d: int, m: int) -> Fraction:
    """chi on the symmetric square C_2 of the m-th symmetric power of the
    rank-2 tautological sheaf of a degree-d line bundle, by Riemann-Roch.

    Chern data of the tautological sheaf: c1 = (d-g-1)x + theta, and ch2 as
    computed by Grothendieck-Riemann-Roch along the double cover C x C -> C_2
    (ramified along the diagonal).  The canonical class is theta - (3-g)x and
    chi(O_{C_2}) = (g-1)(g-2)/2.
    """
    K = (Fraction(g - 3), Fraction(1))
    c1 = (Fraction(d - g - 1), Fraction(1))
    chi_structure = Fraction((g - 1) * (g - 2), 2)
    x_dot_K = _sym_square_dot(g, (Fraction(1), Fraction(0)), K)
    K_dot_K = _sym_square_dot(g, K, K)
    ch2 = (
        Fraction((1 - g) ** 2 + d * (1 - g))
        + Fraction((2 - 2 * g + d), 2) * x_dot_K
        + Fraction(K_dot_K, 2)
        - 2 * chi_structure
    )
    c1_sq = _sym_square_dot(g, c1, c1)
    c2 = Fraction(c1_sq, 2) - ch2
    # Chern character of the m-th symmetric power of a rank-2 sheaf.
    sum_sq = Fraction(m * (m + 1) * (2 * m + 1), 6)
    sum_cross = Fraction(m * (m + 1) * (m - 1), 6)
    ch2_sym = Fraction(sum_sq, 2) * (c1_sq - 2 * c2) + sum_cross * c2
    ch1_sym_dot_K = Fraction(m * (m + 1), 2) * _sym_square_dot(g, c1, K)
    return ch2_sym - Fraction(ch1_sym_dot_K, 2) + (m + 1) * chi_structure


def order1_chi(g: int, d: int, m: int) -> int:
    """chi of the twist-m line bundle on the order-1 secant variety, for any
    genus: the sheaf Euler characteristic on C_2 splits off g copies of the
    curve's Riemann-Roch polynomial d*m + 1 - g."""
    value = chi_sym_square_sheaf(g, d, m) + g * (d * m + 1 - g)
    assert value.denominator == 1
    return int(value)


def order1_degree(g: int, d: int) -> int:
    """Classical degree of the chordal variety: C(d-1, 2) - g."""
    return binomial(d - 1, 2) - g
