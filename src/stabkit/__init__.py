"""stabkit: exact symplectic geometry for stabilizer states and design checks.

The package constructs stabilizer states from Lagrangian subspaces of
Z_d^{2n} (d prime), computes their frame potentials by independent exact and
numeric engines, and verifies the design thresholds against Welch bounds.
"""

from .combinatorics import (
    gaussian_binomial,
    is_prime,
    kappa,
    lagrangian_count,
    stabilizer_count,
    transversal_count,
    welch_bound,
)
from .errors import NonPrimeModulusError, ResourceCapError
from .potential import (
    FramePotentialReport,
    frame_potential_bruteforce,
    frame_potentials_bruteforce,
    frame_potential_combinatorial,
    frame_potential_fixed_state,
    frame_potentials_fixed_state,
    frame_potential_recursion,
    frame_potential_report,
)
from .stabilizer import (
    StabilizerState,
    enumerate_states,
    overlap_exact,
    realized_states,
    stabilizer_basis,
    state_blocks,
    state_deviations,
    state_vectors,
    state_vectors_of,
)
from .symplectic import (
    PhaseVector,
    Subspace,
    canonical_coset_representative,
    coset_representatives,
    enumerate_lagrangians,
    intersection_spectrum,
    intersection_spectrum_of,
    is_isotropic,
    is_lagrangian,
    symplectic_form,
)
from .weyl import (
    verify_commutation,
    verify_composition,
    verify_relations,
    weyl,
    weyl_representation,
    zx_monomials,
)

__version__ = "0.1.0"
