"""Integer symplectic linear algebra on Z^(2g).

Vectors are tuples of ints and matrices are tuples of row tuples; all
operations are pure and exact.  The pairing convention for genus 1 is
sigma(m, n) = m1*n2 - m2*n1, i.e. the canonical form has matrix
[[0, 1], [-1, 0]]; replacing sigma by -sigma would only conjugate phases.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import gcd as _gcd

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


def as_vector(v) -> Vec:
    """The package's one rule for integers: each entry x becomes int(x), and
    must equal it, so 2, 2.0 and Fraction(4, 2) pass while 1.5 and "1"
    raise ValueError, and so do true and numpy.True_: x must be a
    numbers.Number other than a bool."""
    return tuple(map(as_integer, v))


def as_integer(x) -> int:
    """A single integer field, by as_vector's rule; a plain int is returned at once."""
    if type(x) is int:
        return x
    n = int(x)
    # int(True) == True, yet a truth value is no integer; numpy.bool_ is no numbers.Number
    if n != x or isinstance(x, bool) or not isinstance(x, numbers.Number):
        raise ValueError(f"expected an integer, got {x}")
    return n


def as_matrix(m) -> Mat:
    rows = tuple(as_vector(row) for row in m)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return rows


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# skew forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkewForm:
    """An integer skew-symmetric bilinear form on Z^(2g)."""

    matrix: Mat

    def __post_init__(self):
        m = as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        n = len(m)
        if n == 0 or n % 2:
            raise ValueError("skew form dimension must be a positive even number")
        for i in range(n):
            for j in range(n):
                if m[i][j] != -m[j][i]:
                    raise ValueError("form matrix is not skew-symmetric")

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    @property
    def genus(self) -> int:
        return len(self.matrix) // 2


SIGMA2 = SkewForm(((0, 1), (-1, 0)))


def pairing(form: SkewForm, m, n) -> int:
    """sigma(m, n) = m^T * Sigma * n; antisymmetric and bilinear."""
    mv, nv = as_vector(m), as_vector(n)
    d = form.dimension
    if len(mv) != d or len(nv) != d:
        raise ValueError(f"dimension mismatch: form is {d}-dimensional, "
                         f"vectors have lengths {len(mv)}, {len(nv)}")
    sig = form.matrix
    return sum(mv[i] * sig[i][j] * nv[j] for i in range(d) for j in range(d))


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalForm:
    """Divisors (d1 | d2 | ... ) and a unimodular U with U^T Sigma U = (+) di*sigma2."""

    divisors: tuple[int, ...]
    basis_change: Mat


def symplectic_normal_form(form: SkewForm) -> NormalForm:
    """Bring an integer skew form to its block normal form.

    Alternating Smith elimination: pick the nonzero entry of least absolute
    value as pivot, Euclid-reduce its row pair, and force the pivot to
    divide the trailing block before splitting it off.  The accumulated
    column operations give |det U| = 1, and divisibility of each block by
    the previous pivot yields the divisor chain.  Congruence by a unimodular
    matrix keeps the rank, so a degenerate form (det = 0) is exactly one
    that reaches a zero trailing block, and it raises ValueError there.
    """
    n = form.dimension
    a = [list(row) for row in form.matrix]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap(j, k):
        if j == k:
            return
        for row in a:
            row[j], row[k] = row[k], row[j]
        a[j], a[k] = a[k], a[j]
        for row in u:
            row[j], row[k] = row[k], row[j]

    def negate(j):
        for row in a:
            row[j] = -row[j]
        a[j] = [-x for x in a[j]]
        for row in u:
            row[j] = -row[j]

    def add_col(src, dst, c):
        # col dst += c * col src, congruently (row dst += c * row src)
        if c == 0:
            return
        for row in a:
            row[dst] += c * row[src]
        for j in range(n):
            a[dst][j] += c * a[src][j]
        for row in u:
            row[dst] += c * row[src]

    divisors = []
    s = 0
    while s < n:
        while True:
            # minimal-|entry| pivot in the trailing block
            pivot = None
            for i in range(s, n):
                for j in range(i + 1, n):
                    if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                raise ValueError("degenerate form (det = 0) has no symplectic normal form")
            i0, j0 = pivot
            if i0 != s:
                swap(s, i0)
                if j0 == s:
                    j0 = i0
            swap(s + 1, j0)
            if a[s][s + 1] < 0:
                negate(s)
            p = a[s][s + 1]

            clean = True
            for k in range(s + 2, n):
                q, r = divmod(a[s][k], p)
                add_col(s + 1, k, -q)
                if r:
                    clean = False
                q, r = divmod(a[s + 1][k], p)
                add_col(s, k, q)
                if r:
                    clean = False
            if not clean:
                continue
            # pivot must divide the trailing block for the divisor chain
            dirty = next(
                ((i, j) for i in range(s + 2, n) for j in range(i + 1, n) if a[i][j] % p),
                None,
            )
            if dirty is None:
                divisors.append(p)
                s += 2
                break
            add_col(dirty[0], s, 1)

    return NormalForm(tuple(divisors), tuple(tuple(row) for row in u))


# ---------------------------------------------------------------------------
# orbits of SL(2, Z) on Z^2
# ---------------------------------------------------------------------------

def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) > 0 and a*x + b*y = g."""
    if a == 0 and b == 0:
        raise ValueError("gcd witness undefined for (0, 0)")
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def orbit_rep(n) -> tuple[Vec, Mat]:
    """Canonical orbit point (0, gcd) and an SL(2, Z) witness mapping n to it.

    Constructive: with n = g*(e1, e2), e1, e2 coprime, the matrix
    [[e2, -e1], [x, y]] with e1*x + e2*y = 1 has determinant 1 and kills
    the first coordinate.
    """
    n1, n2 = as_vector(n)
    if n1 == 0 and n2 == 0:
        return (0, 0), identity(2)
    g = _gcd(n1, n2)
    e1, e2 = n1 // g, n2 // g
    _, x, y = extended_gcd(e1, e2)
    theta = ((e2, -e1), (x, y))
    return (0, g), theta


def theta_j(m: int, n: int, j: int) -> Mat:
    """The family [[1 + (m/n)(n-1)j, (m/n)j], [n-1, 1]]; always in SL(2, Z).

    Requires n >= 1 and n | m.  Applied to (x, x) it gives (m*j*x + x, n*x),
    whose first component alone carries the j-dependence.
    """
    if n < 1 or m % n:
        raise ValueError(f"invalid family parameters: need n >= 1 and n | m, got m={m}, n={n}")
    q = m // n
    return ((1 + q * (n - 1) * j, q * j), (n - 1, 1))
