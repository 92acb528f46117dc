"""Topology of a quasi-smooth (w; d) read off its Milnor algebra, a second
route to what `selinks.topology` computes by the Milnor-Orlik sum.

The Milnor algebra of a quasi-smooth weighted homogeneous f has Poincaré
series P(t) = prod (1 - t^(d - w_i)) / (1 - t^(w_i)), a polynomial of
degree sum (d - 2 w_i).  A basis monomial of degree j carries the monodromy
eigenvalue exp(2 pi i (j + |w|) / d), and b_{m-2} of the link is the
multiplicity of the eigenvalue 1 (Milnor-Orlik, Topology 9 (1970); Milnor,
Singular points of complex hypersurfaces (1968), Thm 8.5).

The link is a rational homology sphere iff 1 is not an eigenvalue, and then
its middle homology has order |Delta(1)|, Delta the characteristic
polynomial of the monodromy.  The eigenvalues of order q come in whole
Galois orbits, so Delta is the product of Phi_q^(N_q / phi(q)) with N_q of
them of order q, and Phi_q(1) is p when q = p^r and 1 for any other q > 1.

The group itself, not only its order, is read off the monodromy h of a
Brieskorn-Pham polynomial z_1^(a_1) + ... + z_n^(a_n): the middle homology
of its link is the cokernel of h - I (Milnor 1968, section 8), and h is the
Kronecker product of the companion matrices of 1 + t + ... + t^(a_i - 1),
the monodromy of each z_i^(a_i) (Pham; Sebastiani-Thom).  The Smith normal
form of h - I gives the cokernel's invariant factors.
"""

import math
from collections import Counter


def poincare_series(weights, degree) -> list[int]:
    """The coefficients of P(t), from t^0 up to t^(sum (d - 2 w_i))."""
    series = [1]
    for w in weights:  # times 1 - t^(d - w)
        series = [a - b for a, b in zip(series + [0] * (degree - w), [0] * (degree - w) + series)]
    for w in weights:  # divided by 1 - t^w, as a power series
        for j in range(w, len(series)):
            series[j] += series[j - w]
    top = sum(degree - 2 * w for w in weights)
    assert not any(series[max(top + 1, 0):]), "the Milnor algebra is not finite"
    return series[: top + 1]


def eigenvalue_orders(weights, degree) -> Counter:
    """N_q: how many basis monomials carry a monodromy eigenvalue of order q."""
    norm = sum(weights)
    orders = Counter()
    for j, c in enumerate(poincare_series(weights, degree)):
        orders[degree // math.gcd(j + norm, degree)] += c
    return orders


def milnor_algebra_betti(weights, degree) -> int:
    """b_{m-2}: the coefficients of P(t) at the degrees j with d | j + |w|."""
    return eigenvalue_orders(weights, degree)[1]


def milnor_algebra_torsion(weights, degree) -> int:
    """|Delta(1)|: 0 when 1 is an eigenvalue, else the product of p^(N_q / phi(q))
    over the orders q = p^r."""
    orders = eigenvalue_orders(weights, degree)
    if orders.pop(1, 0):
        return 0
    order = 1
    for q, n in orders.items():
        p = next(p for p in range(2, q + 1) if q % p == 0)  # the least prime factor
        if pow(p, q.bit_length(), q) == 0:  # p^r = q for some r < bit_length
            phi = q - q // p
            assert n % phi == 0, f"{n} eigenvalues of order {q}, not whole Galois orbits"
            order *= p ** (n // phi)
    return order



def monodromy(exponents) -> list[dict[int, int]]:
    """h of z_1^(a_1) + ... + z_n^(a_n), prod (a_i - 1) square, as sparse rows
    {column: entry}: the Kronecker product of the companion matrices of
    1 + t + ... + t^(a_i - 1), each t acting on the basis 1, t, ..., t^(a_i - 2)
    of Z[t] / (1 + t + ... + t^(a_i - 1))."""
    h = [{0: 1}]
    for a in exponents:
        n = a - 1
        # column j < n - 1 is t^(j + 1); the last is t^n = -(1 + t + ... + t^(n - 1))
        companion = [{**({i - 1: 1} if i else {}), n - 1: -1} for i in range(n)]
        h = [
            {i * n + j: x * y for i, x in row.items() for j, y in block.items()}
            for row in h
            for block in companion
        ]
    return h


def _add(row: dict, other: dict, q: int) -> None:
    """row += q other, keeping only nonzero entries."""
    for col, value in other.items():
        x = row.get(col, 0) + q * value
        if x:
            row[col] = x
        else:
            del row[col]


def smith_invariants(matrix) -> list[int]:
    """The invariant factors d_1 | d_2 | ... of a square integer matrix given
    as sparse rows, zeros last.  Each step takes an entry of least absolute
    value (in the sparsest row) as pivot and reduces its column by row
    operations; when the column is clear, column operations reduce its row,
    and a pivot left alone that does not divide some row takes that row in.
    Each retry leaves a smaller least entry, so the loop ends."""
    rows = [{col: value for col, value in row.items() if value} for row in matrix]
    factors = []
    while rows:
        entries = (
            (abs(value), len(row), r, col)
            for r, row in enumerate(rows)
            for col, value in row.items()
        )
        best = min(entries, default=None)
        if best is None:  # what is left is zero
            return sorted(factors) + [0] * len(rows)
        _, _, r, c = best
        pivot = rows.pop(r)
        p = pivot[c]
        for row in rows:
            if c in row:
                _add(row, pivot, -(row[c] // p))
        if not any(c in row for row in rows):
            for col in [col for col in pivot if col != c]:
                _add(pivot, {col: pivot[col] // p * p}, -1)
            bad = next((row for row in rows if any(v % p for v in row.values())), None)
            if len(pivot) == 1 and bad is None:
                factors.append(abs(p))
                continue
            if len(pivot) == 1:
                _add(pivot, bad, 1)
        rows.append(pivot)
    return sorted(factors)


def torsion_group(exponents) -> list[int]:
    """The invariant factors other than 1 of the middle homology of the link of
    z_1^(a_1) + ... + z_n^(a_n): the Smith normal form of h - I."""
    h = monodromy(exponents)
    for i, row in enumerate(h):
        _add(row, {i: 1}, -1)
    return [d for d in smith_invariants(h) if d != 1]
