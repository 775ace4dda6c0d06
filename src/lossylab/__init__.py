"""Numerical laboratory for states of light under linear loss.

Truncated-ladder states and the beam splitter's blocks live in ``fock``;
the binomial loss kernel in ``loss``; purity, entropies, and the dark-port
polynomial in ``purity``; the quadrature coherence scale in ``qcs``;
characteristic functions, quasiprobabilities, and quadratures in
``phasespace``; inequality verifiers in ``inequalities``; conjecture
scans and counterexample pairs in ``conjectures``; the batch front end in
``cli``. The package exports the names README documents.
"""

from .conjectures import (bell_like_pair, fair_pair, separable_01_pair,
                          twin_photon_pair)
from .fock import DensityOperator, PureState, make_fock, splitter_blocks
from .loss import apply_loss, loss_blocks, loss_path
from .phasespace import char_fn, laplace_purity, quasi_prob, wigner_from_parity
from .purity import (PurityPolynomial, pair_dark_populations, purities, purity,
                     purity_polynomial, von_neumann)
from .qcs import commutator_norms, qcs_commutator
from .reports import CheckReport, ScanResult

__all__ = [
    "bell_like_pair", "fair_pair", "separable_01_pair", "twin_photon_pair",
    "DensityOperator", "PureState", "make_fock", "splitter_blocks",
    "apply_loss", "loss_blocks", "loss_path",
    "char_fn", "laplace_purity", "quasi_prob", "wigner_from_parity",
    "PurityPolynomial", "pair_dark_populations", "purities", "purity",
    "purity_polynomial", "von_neumann",
    "commutator_norms", "qcs_commutator",
    "CheckReport", "ScanResult",
]
__version__ = "0.1.0"
