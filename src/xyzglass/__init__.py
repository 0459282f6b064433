"""Exact-diagonalization toolkit for the disordered quantum XYZ mixed p-spin
model: gauge-covariant disorder transforms, Nishimori-line reference models,
correlation-identity certification, and phase-region geometry."""

from .disorder import (
    CouplingParams,
    DisorderSample,
    NishimoriData,
    gauge_transform_couplings,
    gaussian_log_density,
    nishimori_beta,
    nishimori_transform,
    sample_disorder,
)
from .errors import CapacityError, ConfigError, EmptyFamilyError, UndersampledError
from .identities import (
    Block,
    DuhamelBlock,
    EstimatorResult,
    FieldStencilBlock,
    FreeEnergyBlock,
    MagnetizationBlock,
    ModelConfig,
    MonteCarlo,
    OnePointBlock,
    PairMatrixBlock,
    Plan,
    Quadrature,
    QuadratureSpec,
    SiteExpectationsBlock,
    SusceptibilityBlock,
    ThreePointBlock,
    TwoPointBlock,
    ValueTable,
    a1_sum,
    a2_nonlinear_susceptibility,
    duhamel_identity,
    finite_size_order_parameters,
    magnetization_bound_check,
    one_point_identity,
    quadrature_average,
    susceptibility_bound_check,
    three_point_identity,
    two_point_identities,
)
from .lattice import (
    BondFamily,
    InteractionShape,
    Lattice,
    build_lattice,
    generate_bonds,
    interaction_shape,
    merge_bond_families,
)
from .operators import AXES, PauliString, gauge_unitary, global_flip, pauli_product, pauli_site
from .phase_region import (
    Membership,
    RatioGrid,
    RegionQuery,
    beta2,
    in_subspace,
    region_membership,
    sample_region,
    write_region_csv,
)
from .quantum_gibbs import (
    HamiltonianBuilder,
    Spectrum,
    ThermalState,
    build_hamiltonian,
    derivative_identity_residual,
    duhamel,
    duhamel_time_integral,
    free_energy_density,
    gibbs_expectation,
    gibbs_expectation_expm,
    order_expectation,
    spectral_decompose,
    string_expectations,
    string_in_eigenbasis,
    thermal_state,
    truncated_duhamel,
    z2_commutator_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
