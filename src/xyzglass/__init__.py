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
from .operators import (
    AXES,
    PauliString,
    Sectors,
    gauge_unitary,
    global_flip,
    parity_sectors,
    pauli_product,
    pauli_site,
    whole_space,
)
from .phase_region import (
    Membership,
    RatioGrid,
    RegionQuery,
    region_membership,
    sample_region,
    write_region_csv,
)
from .quantum_gibbs import (
    HamiltonianBuilder,
    SectorStack,
    Spectrum,
    ThermalState,
    build_hamiltonian,
    derivative_identity_residual,
    duhamel,
    duhamel_kernel,
    duhamel_matrix,
    duhamel_time_integral,
    free_energy_density,
    gibbs_expectation,
    gibbs_expectation_expm,
    spectral_decompose,
    string_expectations,
    thermal_state,
    truncated_duhamel,
    z2_commutator_norm,
)
from .tolerances import Tolerances

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
