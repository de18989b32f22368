"""Structure that Ein-Niu-Park prove for secant varieties of curves, read
from the Hilbert series numerator Q alone, on fixed grids.

For d >= 2g+2k+1 the order-k secant variety is arithmetically Cohen-Macaulay
(Ein-Niu-Park, "Singularities and syzygies of secant varieties of
nonsingular projective curves", Invent. Math. 2020), so Q is the
h-polynomial of an artinian reduction of its coordinate ring: deg Q is the
Castelnuovo-Mumford regularity of that ring, and Q(s)(1-s)^c, with c the
codimension, is the alternating sum of its graded Betti numbers.
"""

from secantinv import SecantInstance, binomial, generator_count, hilbert_series

from oracles import eagon_northcott_rank


def grid(genera, orders, excess):
    """(g, d, k) with d = 2g+2k+1+p for each p in ``excess``."""
    for g in genera:
        for k in orders:
            for p in excess:
                yield SecantInstance(g, 2 * g + 2 * k + 1 + p, k)


def numerator(inst):
    return [int(c) for c in hilbert_series(inst).numerator.coefficients]


def linear_strand(inst):
    """(-1)^i [s^{i+k+1}] Q(s)(1-s)^c for 1 <= i <= d-2g-2k-1."""
    g, d, k = inst.genus, inst.degree, inst.order
    q, c = numerator(inst), d - g - 2 * k - 1

    def coefficient(n):  # of s^n in Q(s)(1-s)^c
        return sum(q[j] * (-1) ** (n - j) * binomial(c, n - j)
                   for j in range(min(n, len(q) - 1) + 1))

    return [(-1) ** i * coefficient(i + k + 1) for i in range(1, d - 2 * g - 2 * k)]


def test_regularity():
    """Ein-Niu-Park, Invent. Math. 2020: for deg L >= 2g+2k+1 the k-th secant
    variety is arithmetically Cohen-Macaulay and, for g >= 1, its coordinate
    ring has regularity 2k+2.  At g = 0 its ideal is that of the maximal
    minors of a Hankel matrix, whose Eagon-Northcott resolution is linear,
    so the regularity is k+1.  So deg Q = 2k+2 for g >= 1 and k+1 for
    g = 0, except at g = 0, d = 2k+1, where the variety is all of P^{2k+1}
    and Q = 1."""
    for inst in grid(range(7), range(6), range(8)):
        g, d, k = inst.genus, inst.degree, inst.order
        if g >= 1:
            expected = 2 * k + 2
        else:
            expected = 0 if d == 2 * k + 1 else k + 1
        assert len(numerator(inst)) - 1 == expected, inst


def test_genus_one_numerator_is_a_palindrome():
    """Fisher, "The higher secant varieties of an elliptic normal curve", and
    von Bothmer-Hulek, manuscripta math. 2004: every secant variety of an
    elliptic normal curve is arithmetically Gorenstein, so (being
    Cohen-Macaulay) its h-polynomial Q is a palindrome (Stanley)."""
    instances = [*grid([1], range(12), range(12)),
                 *(SecantInstance(1, 2 * k + 3 + p, k) for k in (12, 20, 40) for p in (0, 3))]
    for inst in instances:
        q = numerator(inst)
        assert q == q[::-1], inst


def test_linear_strand():
    """Ein-Niu-Park, Invent. Math. 2020: for deg L >= 2g+2k+1+p the k-th
    secant variety satisfies N_{k+2,p}: its ideal is generated in degree k+2
    and the first p syzygy modules are linear.  Then no other Betti number
    falls in degree i+k+1 for 1 <= i <= p = d-2g-2k-1, so
    (-1)^i [s^{i+k+1}] Q(s)(1-s)^c is the Betti number beta_{i,i+k+1}: a
    nonnegative integer, equal to the generator count at i = 1 and, at
    g = 0, to the rank of the i-th Eagon-Northcott term."""
    for inst in grid(range(5), range(4), range(1, 6)):
        strand = linear_strand(inst)
        assert all(beta >= 0 for beta in strand), inst
        assert strand[0] == generator_count(inst), inst
        if inst.genus == 0:
            d, k = inst.degree, inst.order
            assert strand == [eagon_northcott_rank(d, k, i) for i in range(1, len(strand) + 1)]


def test_genus_one_strand_example():
    # an elliptic normal curve of degree 10, order 1: the strand is symmetric
    assert linear_strand(SecantInstance(1, 10, 1)) == [50, 175, 252, 175, 50]
