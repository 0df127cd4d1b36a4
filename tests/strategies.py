"""Hypothesis strategies shared by the property tests."""

import itertools
import math

import numpy as np
from hypothesis import strategies as st

from ergokit import DensityMatrix, SystemSpec
from ergokit.core import _Parts

BETAS = st.sampled_from([0.0, 30.0]) | st.floats(0.0, 5.0)


@st.composite
def specs(draw, max_dim: int):
    """(n, d, ladder, beta) with dim <= max_dim; gaps of 0 give ladders like 0,0."""
    d = draw(st.sampled_from([2, 2, 3, 4]))
    n = draw(st.integers(1, int(math.log(max_dim, d) + 1e-9)))
    gaps = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0),
                         min_size=d - 1, max_size=d - 1))
    ladder = (0.0,) + tuple(itertools.accumulate(gaps))
    return SystemSpec(n=n, d=d, local_energies=ladder, beta=draw(BETAS))


# (n, d) with d**n <= 64
SHAPES = [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2),
          (1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (3, 4)]


@st.composite
def structured_states(draw):
    """A random state of free populations and disjoint blocks of sizes 1-4, with its spec.

    Blocks are random positive matrices, real or complex, on shuffled
    indices; the indices left over carry random populations.
    """
    n, d = draw(st.sampled_from(SHAPES))
    dim = d ** n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = rng.permutation(dim)
    blocks, used = [], 0
    for k in draw(st.lists(st.integers(1, 4), max_size=dim)):
        if used + k > dim:
            break
        blocks.append(np.sort(order[used:used + k]))
        used += k
    pops = np.zeros(dim)
    pops[order[used:]] = rng.uniform(0.0, 1.0, dim - used)
    groups = []
    for k in sorted({block.size for block in blocks}):
        index = np.array([block for block in blocks if block.size == k])
        g = rng.standard_normal((len(index), k, k)) + 1j * draw(st.sampled_from([0.0, 1.0])) \
            * rng.standard_normal((len(index), k, k))
        groups.append((index, g @ g.conj().transpose(0, 2, 1)))
    total = pops.sum() + sum(v.trace(axis1=1, axis2=2).real.sum() for _, v in groups)
    state = DensityMatrix(_Parts(pops / total, [(i, v / total) for i, v in groups]))
    spec = SystemSpec(n=n, d=d, local_energies=tuple(range(d)), beta=1.0)
    return state, spec
