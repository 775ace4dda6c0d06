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


# spellings float() reads, among them the ones argparse on its own takes
# for a flag when they follow the flag as a second word (exponent forms,
# -inf and -nan), huge finite values, and ones that overflow to inf
SPECIAL_FLOATS = ["0", "-0", "-0.0", "-.5", "+1", "1_0", "-1e-3", "-5e-1", "-1E-2", "nan",
                  "-nan", "NaN", "inf", "-inf", "-Infinity", "1e300", "-1e300",
                  "1.7976931348623157e308", "-1.7976931348623157e308", "1e400", "-1e400"]


def float_spellings():
    """A float as a flag may be given it: its repr (NaN, +-inf, signed zero,
    subnormal and huge values included), its exponent form in either case, a
    small integer, or one of SPECIAL_FLOATS."""
    return st.one_of(st.floats().map(repr), st.floats().map("{:e}".format),
                     st.floats().map("{:E}".format), st.integers(-9, 9).map(str),
                     st.sampled_from(SPECIAL_FLOATS))


def grid_spellings(max_steps=5):
    """START:STOP:STEPS with float spellings for both ends and at most
    max_steps steps; a few step counts are malformed (0, negative, not an
    integer), none is large."""
    steps = st.one_of(st.integers(-1, max_steps).map(str),
                      st.sampled_from(["", "2.0", "1e1", "x"]))
    return st.tuples(float_spellings(), float_spellings(), steps).map(":".join)


def huge_step_counts(floor):
    """Step counts above floor, up to far past what any memory holds, as
    integers and in exponent form."""
    counts = st.integers(floor + 1, 10 ** 30)
    return st.one_of(counts.map(str), counts.map("{:e}".format))
