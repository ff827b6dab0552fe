"""Reference constructions from the paper, used only as test oracles.

build_H_prime and det_P are the idealized restriction matrix H'_l and the
closed-form determinant of P_d; scan_hit is the brute-force linear scan
that the minimal-hit solver circle.first_hit must agree with; relabel is
the bare support relabelling that the automorphism criterion tests
against.  All are exact; numeric comparisons go through
HermitianMatrix.to_numpy().
"""

from fractions import Fraction

from nctorus.algebra import AlgebraElement
from nctorus.lattice import as_matrix, mat_vec
from nctorus.scalars import PhaseScalar, as_fraction
from nctorus.states import HermitianMatrix


def build_H_prime(p, q, d: int, l: int, N: int) -> HermitianMatrix:
    """Idealized (d+1)x(d+1) restriction [p 1 q_N e(l/d) q_2N e(2l/d) ...].

    q maps lattice-difference scales (multiples of N) to real values;
    missing entries are 0.
    """
    if not 1 <= l <= d:
        raise ValueError(f"need 1 <= l <= d, got l={l}, d={d}")
    if N < 1:
        raise ValueError("N must be positive")
    n = d + 1
    pf = as_fraction(p)
    rows = [[PhaseScalar.zero()] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = PhaseScalar.one()
    for jj in range(1, n):
        rows[0][jj] = PhaseScalar.rational(pf)
        rows[jj][0] = PhaseScalar.rational(pf)
    for j in range(1, n):
        for i in range(j + 1, n):
            qv = as_fraction(q.get((i - j) * N, 0))
            if qv:
                rows[j][i] = PhaseScalar.root_of_unity(Fraction((i - j) * l, d), qv)
                rows[i][j] = rows[j][i].conjugate()
    return HermitianMatrix(rows, exact=True)


def det_P(p, d: int) -> Fraction:
    """Closed-form determinant 1 - d*p^2 of P_d = [p; 1; 0; ...; 0]."""
    if d < 1:
        raise ValueError("d must be positive")
    pf = as_fraction(p)
    return 1 - d * pf * pf


def scan_hit(a: int, m: int, t: int, w: int, limit: int) -> int | None:
    """Minimal k in 1..limit with ((k*a - t) mod m) <= w, by linear scan."""
    a %= m
    pos = 0
    for k in range(1, limit + 1):
        pos = (pos + a) % m
        if (pos - t) % m <= w:
            return k
    return None


def relabel(theta, a: AlgebraElement) -> AlgebraElement:
    """The raw support relabelling W_m -> W_(Theta m), no contract attached.

    This is multiplicative exactly when theta preserves the form; act()
    certifies that and is what code outside these tests uses.
    """
    t = as_matrix(theta)
    return AlgebraElement(a.dimension, {mat_vec(t, m): c for m, c in a.items()})
