"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from lossylab.fock import DensityOperator


@st.composite
def density_operators(draw, max_cutoff=6, min_cutoff=1):
    """Random density operators a a^dag / Tr of cutoff min_cutoff..max_cutoff
    and random rank."""
    cutoff = draw(st.integers(min_cutoff, max_cutoff))
    rank = draw(st.integers(1, cutoff))
    parts = [draw(st.floats(-1.0, 1.0)) for _ in range(2 * cutoff * rank)]
    a = np.reshape(parts[: cutoff * rank], (cutoff, rank)) + 1j * np.reshape(
        parts[cutoff * rank:], (cutoff, rank))
    a[0, 0] += 2.0  # |a[0, 0]| >= 1, so the trace is >= 1
    m = a @ a.conj().T
    m = 0.5 * (m + m.conj().T)
    return DensityOperator(m / np.trace(m).real, cutoff)
