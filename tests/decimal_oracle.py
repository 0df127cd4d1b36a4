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


def qubit_beta_for_entropy(entropy: Decimal, energy: float = 1.0) -> Decimal:
    """The beta' at which a qubit with gap `energy` has Gibbs entropy `entropy`, by bisection.

    S falls from ln 2 at beta' = 0 to 0, so hi doubles from 1 / energy
    until S(hi) <= entropy, and the bracket [hi / 2, hi] (or [0, 1 / energy])
    is halved until it is 1e-48 of hi wide.
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION
        ladder = (0.0, energy)
        lo, hi = Decimal(0), 1 / Decimal(energy)
        while thermal(ladder, hi).entropy > entropy:
            lo, hi = hi, 2 * hi
        while hi - lo > hi.scaleb(-PRECISION + 2):
            mid = (lo + hi) / 2
            if thermal(ladder, mid).entropy > entropy:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def figure1_ratios(beta_e: float, n: int) -> tuple[Decimal, Decimal, Decimal]:
    """The entangled, separable and entropy-bound work ratios of figure 1 at n qubits.

    Each is a work over n E_beta for a unit gap: 1, (n E_beta - p1) / (n E_beta)
    and 1 - E_beta' / E_beta, where beta' gives each qubit 1/n of S(tau_beta).
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION
        ladder = (0.0, 1.0)
        initial = thermal(ladder, beta_e)
        final = thermal(ladder, qubit_beta_for_entropy(initial.entropy / n))
        total = n * initial.mean_energy
        return (Decimal(1), (total - initial.populations[1]) / total,
                1 - final.mean_energy / initial.mean_energy)


def qubit_entropy_bound(beta_e: float, n: int, total_entropy: float) -> Decimal:
    """The entropy-constrained work bound n (E_beta - E_beta') of n unit-gap qubits.

    beta' gives each qubit 1/n of total_entropy, as the bound's product
    thermal state has.
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION
        ladder = (0.0, 1.0)
        final = thermal(ladder, qubit_beta_for_entropy(Decimal(total_entropy) / n))
        return n * (thermal(ladder, beta_e).mean_energy - final.mean_energy)
