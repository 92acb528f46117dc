"""Topology of a quasi-smooth (w; d) read off its Milnor algebra, a second
route to what `selinks.topology` computes by the Milnor-Orlik sum.

The Milnor algebra of a quasi-smooth weighted homogeneous f has Poincaré
series P(t) = prod (1 - t^(d - w_i)) / (1 - t^(w_i)), a polynomial of
degree sum (d - 2 w_i).  A basis monomial of degree j carries the monodromy
eigenvalue exp(2 pi i (j + |w|) / d), and b_{m-2} of the link is the
multiplicity of the eigenvalue 1 (Milnor-Orlik, Topology 9 (1970); Milnor,
Singular points of complex hypersurfaces (1968), Thm 8.5).
"""


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


def milnor_algebra_betti(weights, degree) -> int:
    """b_{m-2}: the coefficients of P(t) at the degrees j with d | j + |w|."""
    norm = sum(weights)
    return sum(c for j, c in enumerate(poincare_series(weights, degree)) if (j + norm) % degree == 0)
