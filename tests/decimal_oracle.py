"""Reference values in 50-digit decimal arithmetic, for tests only.

Inputs are the package's floats, converted exactly (Decimal(float) is
exact), so the oracle gives the true value of each quantity at those
inputs; a float result can then be judged by its relative error.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from typing import NamedTuple

PRECISION = 50


class Thermal(NamedTuple):
    populations: tuple[Decimal, ...]
    partition_function: Decimal
    mean_energy: Decimal
    entropy: Decimal


def thermal(ladder, beta: float) -> Thermal:
    """Gibbs weights of one subsystem with levels `ladder` at inverse temperature beta.

    The entropy is beta <E> + ln Z, which equals -sum p ln p exactly; ln Z
    is taken as ln(1 + x) over the excited weights x, by its series where
    x is small, since 1 + x keeps no digit of an x below 1e-50.
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION
        b = Decimal(beta)
        weights = [(-b * Decimal(e)).exp() for e in ladder]
        z = sum(weights)
        pops = tuple(w / z for w in weights)
        mean = sum(p * Decimal(e) for p, e in zip(pops, ladder))
        return Thermal(pops, z, mean, b * mean + _log1p(sum(weights[1:])))


def _log1p(x: Decimal) -> Decimal:
    """ln(1 + x) for x >= 0 at the context's precision."""
    if x > Decimal("0.5"):
        return (1 + x).ln()
    total, term, k = Decimal(0), x, 1
    while term and abs(term) >= abs(total).scaleb(-PRECISION - 5):
        total += term / k
        term, k = -term * x, k + 1
    return total


def shell_family_entropy(n: int, shell: int, ground: float, top: float, gamma: float) -> Decimal:
    """Entropy of the diagonal family's state from its three weights.

    ground sits on |0...0>, top on |1...1> and gamma is spread evenly over
    the C(n, shell) states with shell excitations; at shell 0 that shell
    is |0...0> itself, so gamma adds to ground.
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION
        size = math.comb(n, shell)
        g, t, w = Decimal(ground), Decimal(top), Decimal(gamma)
        if shell == 0:
            g, w = g + w, Decimal(0)
        total = Decimal(0)
        for weight, count in ((g, 1), (t, 1), (w / size, size)):
            if weight > 0:
                total -= count * weight * weight.ln()
        return total
