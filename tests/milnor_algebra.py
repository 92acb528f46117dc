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
