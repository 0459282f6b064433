"""Hamiltonian assembly, spectral decomposition, and thermal observables:
Gibbs expectations, Duhamel correlation functions, and the field-derivative
identity, all evaluated exactly in the eigenbasis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .disorder import DisorderSample, coupling_terms
from .errors import CapacityError
from .lattice import BondFamily, Lattice
from .operators import QUANTUM_SITE_CAP, PauliString, Sectors, global_flip, pauli_site, whole_space
from .tolerances import DUHAMEL_SERIES_SWITCH, HERMITIAN_TOL, IMAGINARY_TOL, SPECTRUM_TOL


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator that is block-diagonal in
    `sectors`, or of each operator of a stack: eigenvalues (..., S, d),
    ascending per sector, and eigenvectors (..., S, d, d), block s in the
    basis of `sectors.bases[s]`, with the stack's axes in front. A dense
    operator is the one-sector case, `whole_space`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sectors: Sectors


@dataclass(frozen=True)
class ThermalState:
    """A spectrum together with inverse temperature and shifted Boltzmann weights.

    Weights are exp(-beta (E_n - E_min)), with E_min the lowest level of all
    sectors, so the largest is 1 and log_Z = log(sum of weights) - beta E_min
    cannot overflow at large beta. The weights are laid out as the
    eigenvalues, (..., S, d). For a stack, log_z is an array over the
    stack's leading axes.
    """

    spectrum: Spectrum
    beta: float
    log_z: float | np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class SectorStack:
    """A stack of operators that are block-diagonal in `sectors`, held as
    their diagonal blocks (..., S, d, d)."""

    blocks: np.ndarray
    sectors: Sectors


class HamiltonianBuilder:
    """Assembles H = -sum_{p,X,w} J_{X,p}^w sigma_X^w for many samples.

    Every term is a Pauli string, and terms with the same flip mask fill the
    same entries H[j ^ flip, j]. A build sums the coupling-weighted phases
    per flip mask in one matmul per sample and scatters them into the stack
    in one assignment, into the diagonal blocks of a sector split (the whole
    space is the one-block split). Construction is O(terms); the dim-length
    tables are built on the first build, so a builder that never builds
    allocates nothing of size dim.
    """

    def __init__(self, lattice: Lattice, families: Mapping[int, BondFamily]):
        n = lattice.n_sites
        if n > QUANTUM_SITE_CAP:
            raise CapacityError(f"{n} sites exceeds the quantum cap {QUANTUM_SITE_CAP}")
        self.n_sites = n
        self.dim = 2**n
        self.terms = coupling_terms(families)
        self._tables: dict[Sectors, tuple[np.ndarray, ...]] = {}

    def _scatter_tables(self, sectors: Sectors) -> tuple[np.ndarray, ...]:
        """(flip-group indicator M x T, term phases T x dim, target (sector,
        row, column) of each group's entries, terms that leave the sectors).
        Those terms are in no group."""
        if sectors not in self._tables:
            strings = [PauliString(self.n_sites, bond, axis) for (_, axis, _, bond) in self.terms]
            kept = np.array([sectors.keeps(s.flip) for s in strings], dtype=bool)
            flips = sorted({s.flip for s, keep in zip(strings, kept) if keep})
            group = {f: m for m, f in enumerate(flips)}
            indicator = np.zeros((len(flips), len(strings)))
            for t, s in enumerate(strings):
                if kept[t]:
                    indicator[group[s.flip], t] = 1.0
            phases = np.array([s.phase for s in strings]).reshape(len(strings), self.dim)
            if sectors.dtype is float:
                phases = phases.real
            self._tables[sectors] = (indicator, phases, sectors.scatter_index(flips), ~kept)
        return self._tables[sectors]

    def build_rows(self, couplings: np.ndarray, sectors: Sectors) -> SectorStack:
        """The diagonal blocks in `sectors` of the Hamiltonians of coupling
        rows in term order (`disorder.coupling_terms`), (samples, S, d, d).
        Couplings of terms that leave the sectors must be zero."""
        indicator, phases, (sector, rows, cols), dropped = self._scatter_tables(sectors)
        couplings = np.asarray(couplings, dtype=float)
        if np.any(couplings[:, dropped]):
            raise ValueError("a coupling of a term that leaves the sectors is nonzero")
        d = sectors.size
        h = np.zeros((len(couplings), sectors.count, d, d), dtype=sectors.dtype)
        h[:, sector, rows, cols] = (indicator * -couplings[:, None, :]) @ phases
        return SectorStack(h, sectors)

    def build(self, sample: DisorderSample) -> np.ndarray:
        """One sample's dense (dim, dim) Hamiltonian."""
        return self.build_rows(sample.row[None], whole_space(self.n_sites)).blocks[0, 0]


def build_hamiltonian(
    lattice: Lattice, families: Mapping[int, BondFamily], sample: DisorderSample
) -> np.ndarray:
    """One-shot Hamiltonian assembly from a disorder sample."""
    return HamiltonianBuilder(lattice, families).build(sample)


def _matrix_max(a: np.ndarray) -> np.ndarray:
    """max |a| over each matrix of a stack."""
    return np.max(np.abs(a), axis=(-2, -1), initial=0.0)


def _check_stack(
    values: np.ndarray,
    bound: float | np.ndarray,
    labels: Sequence[int] | None,
    error: type[Exception],
    message: str,
) -> None:
    """Raise `error` when any value of the stack (..., S) is not <= its
    bound, NaN included, naming the first flagged matrix by the label of its
    entry on the stack's first axis."""
    bad = np.any(~(values <= bound), axis=-1)
    if np.any(bad):
        if bad.ndim:
            first = int(np.unravel_index(np.argmax(bad), bad.shape)[0])
            message += f" (sample {first if labels is None else labels[first]})"
        raise error(message)


def spectral_decompose(
    h: np.ndarray | SectorStack, labels: Sequence[int] | None = None
) -> Spectrum:
    """Eigendecompose the blocks of a `SectorStack`, verifying every result.
    A dense matrix, or a stack of them (..., dim, dim), is decomposed as the
    one-sector stack of `whole_space`.

    Rejects non-Hermitian input, and rejects non-finite entries or
    eigenvalues and decompositions whose reconstruction or orthonormality
    residual exceeds the tolerance budget rather than silently accepting
    them. Each block is checked against its own scale. An error on a stack
    names the failing entry of the first axis by its position, or by
    `labels` (such as disorder sample indices).
    """
    if not isinstance(h, SectorStack):
        h = np.asarray(h)
        sectors = whole_space(max(1, h.shape[-1].bit_length() - 1))
        if h.shape[-2:] != (sectors.dim, sectors.dim):
            raise ValueError(f"a dense operator must be 2^N x 2^N, got {h.shape[-2:]}")
        h = SectorStack(h[..., None, :, :], sectors)
    blocks = h.blocks
    largest = np.finfo(float).max
    scale = np.maximum(1.0, _matrix_max(blocks))
    _check_stack(scale, largest, labels, ArithmeticError, "matrix has non-finite entries")
    asymmetry = _matrix_max(blocks - blocks.conj().swapaxes(-1, -2))
    _check_stack(asymmetry, HERMITIAN_TOL * scale, labels, ValueError, "matrix is not Hermitian")
    evals, evecs = np.linalg.eigh(blocks)
    _check_stack(
        np.max(np.abs(evals), axis=-1), largest, labels,
        ArithmeticError, "eigenvalues are not finite",
    )
    # both residuals are formed in place, each product freed before the next
    vh = evecs.conj().swapaxes(-1, -2)
    residual = (evecs * evals[..., None, :]) @ vh
    residual -= blocks
    _check_stack(
        _matrix_max(residual), SPECTRUM_TOL * scale, labels,
        ArithmeticError, "eigendecomposition reconstruction residual too large",
    )
    del residual
    residual = vh @ evecs
    diagonal = np.arange(blocks.shape[-1])
    residual[..., diagonal, diagonal] -= 1
    _check_stack(
        _matrix_max(residual), SPECTRUM_TOL, labels,
        ArithmeticError, "eigenvectors are not orthonormal within tolerance",
    )
    return Spectrum(eigenvalues=evals, eigenvectors=evecs, sectors=h.sectors)


def thermal_state(spectrum: Spectrum, beta: float) -> ThermalState:
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    e = spectrum.eigenvalues
    e_min = np.min(e[..., 0], axis=-1)
    weights = np.exp(-beta * (e - e_min[..., None, None]))
    log_z = np.log(np.sum(np.sum(weights, axis=-1), axis=-1)) - beta * e_min
    return ThermalState(
        spectrum=spectrum, beta=beta, log_z=log_z if log_z.ndim else float(log_z), weights=weights
    )


def _partition_sum(state: ThermalState) -> np.ndarray:
    """The sum of the shifted weights over all sectors, per matrix."""
    return np.sum(np.sum(state.weights, axis=-1), axis=-1)


def _dense_block(state: ThermalState) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvectors (dim, dim), weights (dim,)) of one whole-space state,
    the one block that the dense oracles read."""
    if state.spectrum.eigenvectors.shape[:-2] != (1,):
        raise ValueError("the dense oracles read one state on the whole space")
    return state.spectrum.eigenvectors[0], state.weights[0]


def _to_eigenbasis(state: ThermalState, a: np.ndarray) -> np.ndarray:
    v, _ = _dense_block(state)
    if a.shape != v.shape:
        raise ValueError(f"operator shape {a.shape} does not match dim {len(v)}")
    return v.conj().T @ a @ v


def _real_part(value: complex, what: str) -> float:
    if abs(value.imag) > IMAGINARY_TOL * max(1.0, abs(value.real)):
        raise ValueError(f"{what} has non-negligible imaginary part {value.imag}")
    return float(value.real)


def gibbs_expectation(state: ThermalState, a: np.ndarray) -> float:
    """Thermal expectation (1/Z) Tr[A exp(-beta H)] in the eigenbasis."""
    v, weights = _dense_block(state)
    diag = np.einsum("ji,ji->i", v.conj(), a @ v)
    val = np.dot(diag, weights) / np.sum(weights)
    return _real_part(complex(val), "Gibbs expectation")


def string_expectations(state: ThermalState, strings: Sequence[PauliString]) -> np.ndarray:
    """Thermal expectations of Pauli strings, one O(dim^2) gather each, as an
    array (..., len(strings)) over the state's stack. Each string's value is
    reduced on its own, so it does not depend on the other strings. On
    sectors, a string that maps each sector onto another has no diagonal
    and its expectation is exactly 0."""
    v, sectors, weights = state.spectrum.eigenvectors, state.spectrum.sectors, state.weights
    v_conj = v.conj()
    diags = [
        np.einsum("...ri,...ri->...i", v_conj, op.apply(v, sectors)).real
        if sectors.keeps(op.flip)
        else np.zeros(weights.shape)
        for op in strings
    ]
    weighted = np.sum(np.sum(np.stack(diags, axis=-3) * weights[..., None, :, :], axis=-1), axis=-1)
    return weighted / _partition_sum(state)[..., None]


def _in_eigenbasis(
    state: ThermalState, op: PauliString
) -> tuple[slice | np.ndarray, np.ndarray]:
    """(image, blocks): block s of V^dagger op V, (..., S, d, d), maps sector
    s onto the sector that `image` (an index on the sector axis) picks at
    position s; a string that keeps every sector has the view slice(None)."""
    v, sectors = state.spectrum.eigenvectors, state.spectrum.sectors
    image = slice(None) if sectors.keeps(op.flip) else op.sector_map(sectors)[0]
    return image, v[..., image, :, :].conj().swapaxes(-1, -2) @ op.apply(v, sectors)


def duhamel_kernel(state: ThermalState) -> np.ndarray:
    """Matrix phi_mn such that the Duhamel bracket is sum A_mn B_nm phi_mn / Z,
    with the state's stack axes in front, as one block per sector pair
    (..., S, S, d, d), block [s, t] for m in sector s and n in sector t.

    phi_mn = (exp(-beta E_n) - exp(-beta E_m)) / (beta (E_m - E_n)), written
    as exp(-s) sinh(x)/x with s, x the scaled mean and half-difference of the
    shifted energies, evaluated as exp(|x| - s) (1 - exp(-2|x|)) / (2|x|):
    s >= |x|, so neither factor overflows and expm1 leaves no cancellation.
    Near degeneracy (and at beta = 0) the series exp(-s)(1 + x^2/6) takes
    over; its leading term is the midpoint form exp(-beta(E_m+E_n)/2). Each
    form is evaluated only on its own entries, so the series' x^2 cannot
    overflow on far-apart levels at large beta.
    """
    e = state.spectrum.eigenvalues
    a = state.beta * (e - np.min(e[..., 0], axis=-1)[..., None, None])
    a_m, a_n = a[..., :, None, :, None], a[..., None, :, None, :]
    s = 0.5 * (a_m + a_n)
    x = np.abs(0.5 * (a_m - a_n))
    small = x < DUHAMEL_SERIES_SWITCH
    direct = ~small
    phi = np.empty_like(x)
    xd = x[direct]
    phi[direct] = np.exp(xd - s[direct]) * -np.expm1(-2.0 * xd) / (2.0 * xd)
    xs = x[small]
    phi[small] = np.exp(-s[small]) * (1.0 + xs * xs / 6.0)
    return phi


def _kernel_blocks(
    state: ThermalState, kernel: np.ndarray, image: slice | np.ndarray
) -> np.ndarray:
    """The kernel blocks [image[s], s], (..., S, d, d), that pair each sector
    with its image under a string (`_in_eigenbasis`)."""
    if isinstance(image, slice):
        return np.moveaxis(np.diagonal(kernel, axis1=-4, axis2=-3), -1, -3)
    return kernel[..., image, np.arange(len(image)), :, :]


def _string_stack(
    state: ThermalState, ops: Sequence[PauliString]
) -> tuple[slice | np.ndarray, np.ndarray]:
    """(image, eigenbasis blocks (b, len(ops), S, d, d)) of strings that share
    one sector map."""
    sectors = state.spectrum.sectors
    if not all(sectors.keeps(op.flip ^ ops[0].flip) for op in ops):
        raise ValueError("the strings of one stack must share their sector map")
    pairs = [_in_eigenbasis(state, op) for op in ops]
    return pairs[0][0], np.stack([m for _, m in pairs], axis=1)


def duhamel_matrix(
    state: ThermalState,
    kernel: np.ndarray,
    ops_a: Sequence[PauliString],
    ops_b: Sequence[PauliString],
) -> np.ndarray:
    """The Duhamel brackets (A_i ; B_j) without truncation, sum_mn A_mn B_nm
    phi_mn / Z in the eigenbasis with `kernel` the state's `duhamel_kernel`,
    of a stack of states (b, ...) as (b, len(ops_a), len(ops_b)): one matmul
    per matrix over its sector pairs. The strings of each list must share one
    sector map, as single-site strings on one axis do; lists whose maps
    differ give exactly 0. `ops_b` may be `ops_a`."""
    image, at = _string_stack(state, ops_a)
    bt = at if ops_b is ops_a else _string_stack(state, ops_b)[1]
    b, n_a, n_b = len(at), len(ops_a), len(ops_b)
    if not state.spectrum.sectors.keeps(ops_a[0].flip ^ ops_b[0].flip):
        return np.zeros((b, n_a, n_b))
    phi = _kernel_blocks(state, kernel, image)
    z = _partition_sum(state)[:, None, None]
    # duh[:, i, j] = sum_smn at[:, i, s, m, n] bt[:, j, t, n, m] phi[:, t, s, m, n] with
    # t = image[s], one matmul a matrix
    bt_t = bt[:, :, image].swapaxes(-1, -2).reshape(b, n_b, -1).swapaxes(-1, -2)
    return np.real((at * phi[:, None]).reshape(b, n_a, -1) @ bt_t) / z


def duhamel(state: ThermalState, a: np.ndarray, b: np.ndarray) -> float:
    """Duhamel correlation: the t-average over [0,1] of
    < exp(t beta H) A exp(-t beta H) B >, evaluated spectrally."""
    at = _to_eigenbasis(state, a)
    bt = _to_eigenbasis(state, b)
    phi = duhamel_kernel(state)[0, 0]
    val = np.sum(at * bt.T * phi) / np.sum(_dense_block(state)[1])
    return _real_part(complex(val), "Duhamel bracket")


def truncated_duhamel(state: ThermalState, a: np.ndarray, b: np.ndarray) -> float:
    """Duhamel bracket minus the product of thermal expectations."""
    return duhamel(state, a, b) - gibbs_expectation(state, a) * gibbs_expectation(state, b)


def free_energy_density(state: ThermalState, volume: int) -> float:
    """log Z per site (overflow-safe through shifted weights)."""
    return state.log_z / volume


def z2_commutator_norm(h: np.ndarray, axis: str) -> float:
    """Max-norm of the commutator of H with the global axis flip."""
    n = h.shape[0].bit_length() - 1
    u = global_flip(n, axis)
    return float(np.max(np.abs(h @ u - u @ h)))


def derivative_identity_residual(
    lattice: Lattice,
    families: Mapping[int, BondFamily],
    sample: DisorderSample,
    beta: float,
    f: np.ndarray,
    axis: str,
    h: float,
) -> float:
    """Gap between the central-difference field derivative of <f> and the
    linear-response form beta |Lambda| (f ; o^axis).

    Shifting the uniform field mean by +-h shifts every single-site coupling
    on that axis, which is the rank-one perturbation -+ h sum_i sigma_i^axis.
    """
    if h <= 0:
        raise ValueError(f"step h must be > 0, got {h}")
    n = lattice.n_sites
    ham = build_hamiltonian(lattice, families, sample)
    field = np.zeros_like(ham)
    for i in range(n):
        field += pauli_site(n, i, axis)
    plus = gibbs_expectation(thermal_state(spectral_decompose(ham - h * field), beta), f)
    minus = gibbs_expectation(thermal_state(spectral_decompose(ham + h * field), beta), f)
    central = (plus - minus) / (2.0 * h)
    state = thermal_state(spectral_decompose(ham), beta)
    response = beta * n * truncated_duhamel(state, f, field / n)
    return abs(central - response)


def _gershgorin_shift(h: np.ndarray) -> np.ndarray:
    """Shift H by a lower spectral bound so exp(-beta H) cannot overflow."""
    lower = float(np.min(np.diag(h).real - (np.sum(np.abs(h), axis=1) - np.abs(np.diag(h)))))
    return h - lower * np.eye(h.shape[0])


def gibbs_expectation_expm(h: np.ndarray, beta: float, a: np.ndarray) -> float:
    """Cross-check path for Gibbs expectations via scaling-and-squaring expm,
    independent of the eigendecomposition route. Imports scipy on its first
    call; the production paths never load it."""
    from scipy.linalg import expm

    rho = expm(-beta * _gershgorin_shift(h))
    return float((np.trace(a @ rho) / np.trace(rho)).real)


def duhamel_time_integral(
    h: np.ndarray, beta: float, a: np.ndarray, b: np.ndarray, num_intervals: int = 200
) -> float:
    """Cross-check path for the Duhamel bracket: Simpson integration of the
    defining imaginary-time integral using expm only. Imports scipy on its
    first call, as `gibbs_expectation_expm` does."""
    from scipy.integrate import simpson
    from scipy.linalg import expm

    hs = _gershgorin_shift(h)
    rho = expm(-beta * hs)
    z = np.trace(rho)
    ts = np.linspace(0.0, 1.0, num_intervals + 1)
    vals = np.empty_like(ts)
    for k, t in enumerate(ts):
        grow = expm(t * beta * hs)
        shrink = expm(-t * beta * hs)
        vals[k] = (np.trace(grow @ a @ shrink @ b @ rho) / z).real
    return float(simpson(vals, x=ts))
