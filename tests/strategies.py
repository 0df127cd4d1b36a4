"""Hypothesis strategies shared by the property tests."""

import itertools
import math

from hypothesis import strategies as st

from ergokit import SystemSpec

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
