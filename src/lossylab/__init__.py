"""Numerical laboratory for states of light under linear loss.

Truncated-ladder states and operators live in ``fock``; the loss channel
and its algebra in ``loss``; purity, entropies, and the dark-port
polynomial in ``purity``; the quadrature coherence scale in ``qcs``;
characteristic functions, quasiprobabilities, and quadratures in
``phasespace``; inequality verifiers in ``inequalities``; conjecture
scans and counterexamples in ``conjectures``; the batch front end in
``cli``.
"""

from .conjectures import (bell_like_pair, dark_port_g2_scan,
                          ell_log_convexity_check, fair_pair, g2,
                          log_convexity_corpus, log_convexity_scan,
                          separable_01_pair, twin_photon_pair,
                          unfairness_witness)
from .fock import (DensityOperator, ModeOperatorSet, PureState,
                   beam_splitter_block, block_indices, displacement_matrix,
                   make_coherent, make_fock, make_squeezed_vacuum,
                   mode_operators, random_mixed, random_pure, thermal_state)
from .inequalities import (bernstein_check, cauchy_schwarz_ladder,
                           fock_hypergeometric_identity, husimi_pair_check,
                           isotropic_gaussian, ladder_loss_inequality,
                           number_purity_monotonicity,
                           order_pair_overlap_check, second_derivative_forms,
                           transpose_trick_identity)
from .loss import apply_loss, loss_generator, multiplicativity_check
from .phasespace import (GridSpec, Quadrature2D, QuasiProbGrid, char_fn,
                         default_grid, laplace_purity, purity_from_chi,
                         purity_lossy_from_chi, quasi_prob, quasi_prob_grid,
                         wigner_from_parity, write_grid_csv)
from .purity import (PurityPolynomial, fock_purity_closed_form, lossy_overlap,
                     min_purity_pure, mutual_information_bs,
                     overlap_polynomial, purity, purity_polynomial,
                     renyi_entropy, von_neumann)
from .qcs import (qcs_commutator, qcs_kernel_form, qcs_lindblad,
                  qcs_purity_rate, qcs_two_copy)
from .reports import CheckReport, ScanResult, write_check_csv, write_scan_csv

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
