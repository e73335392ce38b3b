"""The package namespace exports what the library computes with: no
submodule and no test oracle."""

import types

import ratosc
from ratosc import specfun

EXPORTS = {
    "CoefficientVector", "CoherentSpec", "EntropyResult", "NumericalError", "OutputState",
    "SeriesResult", "SignedLog", "StateLabel", "TwoModeDistribution", "UncertaintyResult",
    "WignerGrid", "algebra_residual", "cat_coefficients", "coefficients", "count_local_maxima",
    "count_wavepackets", "density", "density_profile", "eigen_residual", "energy",
    "energy_expectation", "evolve", "fringe_wavelength", "hamiltonian_potential",
    "ladder_element", "linear_entropy", "linearized_element", "lowest_weights", "mandel_q",
    "normalization_F", "number_moments", "overlap", "overlap_closed_form", "potential",
    "q_polynomial", "rank_one_residual", "split", "two_photon_distribution", "uncertainties",
    "uncertainty", "verify_hamiltonian", "wavefunction", "wigner_cross_term", "wigner_grid",
}
ORACLES = ("hermite", "hermite_phi", "mod_hermite")


def test_package_exports_are_the_library_names():
    assert len(ratosc.__all__) == len(EXPORTS) == 44
    assert set(ratosc.__all__) == EXPORTS
    for name in ratosc.__all__:
        assert not isinstance(getattr(ratosc, name), types.ModuleType), name


def test_oracles_live_in_specfun_only():
    assert set(specfun.__all__) == {"NumericalError", "SignedLog", "SeriesResult",
                                    "phi_rows", "signed_series"}
    for name in ORACLES + ("panel_nodes",):
        assert name not in ratosc.__all__ and name not in specfun.__all__, name
        assert callable(getattr(specfun, name)), name
