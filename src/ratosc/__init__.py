"""Coherent states and phase-space diagnostics for rational extensions of
the harmonic oscillator."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .specfun import NumericalError, SeriesResult, SignedLog
from .system import (
    StateLabel,
    algebra_residual,
    energy,
    hamiltonian_potential,
    ladder_element,
    linearized_element,
    lowest_weights,
    potential,
    q_polynomial,
    verify_hamiltonian,
    wavefunction,
)
from .coherent import (
    CoefficientVector,
    CoherentSpec,
    cat_coefficients,
    coefficients,
    count_local_maxima,
    count_wavepackets,
    density,
    density_profile,
    eigen_residual,
    evolve,
    fringe_wavelength,
    normalization_F,
    overlap,
    overlap_closed_form,
)
from .observables import (
    UncertaintyResult,
    WignerGrid,
    energy_expectation,
    mandel_q,
    number_moments,
    uncertainties,
    uncertainty,
    wigner_cross_term,
    wigner_grid,
)
from .beamsplitter import (
    EntropyResult,
    OutputState,
    TwoModeDistribution,
    linear_entropy,
    rank_one_residual,
    split,
    two_photon_distribution,
)

# the names imported above; the submodules bound beside them are not exports
__all__ = [name for name, value in sorted(globals().items())
           if not (name.startswith("_") or isinstance(value, _ModuleType))]
