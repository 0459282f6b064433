"""Hamiltonian assembly, spectral decomposition, and thermal observables:
Gibbs expectations, Duhamel correlation functions, and the field-derivative
identity, all evaluated exactly in the eigenbasis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import expm

from .disorder import DisorderSample, coupling_row, coupling_terms
from .errors import CapacityError
from .lattice import BondFamily, Lattice
from .operators import QUANTUM_SITE_CAP, PauliString, global_flip, pauli_site

#: Relative tolerance budget for eigendecomposition self-checks.
SPECTRUM_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending.

    For a stack of operators the arrays carry the stack's leading axes:
    eigenvalues (..., dim) and eigenvectors (..., dim, dim).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dim: int


@dataclass(frozen=True)
class ThermalState:
    """A spectrum together with inverse temperature and shifted Boltzmann weights.

    Weights are exp(-beta (E_n - E_min)), so the largest is 1 and
    log_Z = log(sum of weights) - beta E_min cannot overflow at large beta.
    For a stack, log_z is an array over the stack's leading axes.
    """

    spectrum: Spectrum
    beta: float
    log_z: float | np.ndarray
    weights: np.ndarray


class HamiltonianBuilder:
    """Assembles H = -sum_{p,X,w} J_{X,p}^w sigma_X^w for many samples.

    Every term is a Pauli string, and terms with the same flip mask fill the
    same entries H[j ^ flip, j]. A build sums the coupling-weighted phases
    per flip mask in one matmul per sample and scatters them into the stack
    in one assignment. Construction is O(terms); the dim-length tables are
    built on the first build, so a builder that never builds allocates
    nothing of size dim.
    """

    def __init__(self, lattice: Lattice, families: Mapping[int, BondFamily]):
        n = lattice.n_sites
        if n > QUANTUM_SITE_CAP:
            raise CapacityError(
                f"{n} sites exceeds the quantum cap {QUANTUM_SITE_CAP}"
            )
        self.n_sites = n
        self.dim = 2**n
        self.terms = coupling_terms(families)
        self._tables: tuple[np.ndarray, ...] | None = None

    def _scatter_tables(self) -> tuple[np.ndarray, ...]:
        """(flip-group indicator M x T, term phases T x dim, target rows M x dim,
        target columns dim)."""
        if self._tables is None:
            strings = [PauliString(self.n_sites, bond, axis) for (_, axis, _, bond) in self.terms]
            flips = sorted({s.flip for s in strings})
            group = {f: m for m, f in enumerate(flips)}
            indicator = np.zeros((len(flips), len(strings)))
            for t, s in enumerate(strings):
                indicator[group[s.flip], t] = 1.0
            phases = np.array([s.phase for s in strings]).reshape(len(strings), self.dim)
            cols = np.arange(self.dim)
            rows = cols[None, :] ^ np.array(flips, dtype=cols.dtype)[:, None]
            self._tables = (indicator, phases, rows, cols)
        return self._tables

    def build_rows(self, couplings: np.ndarray) -> np.ndarray:
        """The (samples, dim, dim) stack of Hamiltonians for coupling rows in
        term order (`disorder.coupling_terms`)."""
        indicator, phases, rows, cols = self._scatter_tables()
        couplings = np.asarray(couplings, dtype=float)
        h = np.zeros((len(couplings), self.dim, self.dim), dtype=complex)
        h[:, rows, cols] = (indicator * -couplings[:, None, :]) @ phases
        return h

    def build(self, sample: DisorderSample) -> np.ndarray:
        return self.build_rows(coupling_row(sample)[None])[0]


def build_hamiltonian(
    lattice: Lattice, families: Mapping[int, BondFamily], sample: DisorderSample
) -> np.ndarray:
    """One-shot Hamiltonian assembly from a disorder sample."""
    return HamiltonianBuilder(lattice, families).build(sample)


def _matrix_max(a: np.ndarray) -> np.ndarray:
    """max |a| over each matrix of a stack."""
    return np.max(np.abs(a), axis=(-2, -1), initial=0.0)


def _check_stack(
    bad: np.ndarray, labels: Sequence[int] | None, error: type[Exception], message: str
) -> None:
    """Raise `error` when any matrix of the stack is flagged, naming the
    first flagged one by the label of its entry on the stack's first axis."""
    if np.any(bad):
        if bad.ndim:
            first = int(np.unravel_index(np.argmax(bad), bad.shape)[0])
            message += f" (sample {first if labels is None else labels[first]})"
        raise error(message)


def spectral_decompose(h: np.ndarray, labels: Sequence[int] | None = None) -> Spectrum:
    """Eigendecompose a Hermitian matrix, or each matrix of a stack
    (..., dim, dim), verifying every result.

    Rejects non-Hermitian input, and rejects decompositions whose
    reconstruction or orthonormality residual exceeds the tolerance budget
    rather than silently accepting them. Each matrix is checked against its
    own scale. An error on a stack names the failing entry of the first
    axis by its position, or by `labels` (such as disorder sample indices).
    """
    h = np.asarray(h)
    dim = h.shape[-1]
    scale = np.maximum(1.0, _matrix_max(h))
    asymmetry = _matrix_max(h - h.conj().swapaxes(-1, -2))
    _check_stack(asymmetry > 1e-12 * scale, labels, ValueError, "matrix is not Hermitian")
    evals, evecs = np.linalg.eigh(h)
    recon = (evecs * evals[..., None, :]) @ evecs.conj().swapaxes(-1, -2)
    _check_stack(
        _matrix_max(recon - h) > SPECTRUM_TOL * scale, labels,
        ArithmeticError, "eigendecomposition reconstruction residual too large",
    )
    gram = evecs.conj().swapaxes(-1, -2) @ evecs
    _check_stack(
        _matrix_max(gram - np.eye(dim)) > SPECTRUM_TOL, labels,
        ArithmeticError, "eigenvectors are not orthonormal within tolerance",
    )
    return Spectrum(eigenvalues=evals, eigenvectors=evecs, dim=dim)


def thermal_state(spectrum: Spectrum, beta: float) -> ThermalState:
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    e = spectrum.eigenvalues
    weights = np.exp(-beta * (e - e[..., :1]))
    log_z = np.log(np.sum(weights, axis=-1)) - beta * e[..., 0]
    return ThermalState(
        spectrum=spectrum, beta=beta, log_z=log_z if log_z.ndim else float(log_z), weights=weights
    )


def _to_eigenbasis(state: ThermalState, a: np.ndarray) -> np.ndarray:
    v = state.spectrum.eigenvectors
    if a.shape != (state.spectrum.dim, state.spectrum.dim):
        raise ValueError(f"operator shape {a.shape} does not match dim {state.spectrum.dim}")
    return v.conj().T @ a @ v


def _real_part(value: complex, what: str) -> float:
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ValueError(f"{what} has non-negligible imaginary part {value.imag}")
    return float(value.real)


def gibbs_expectation(state: ThermalState, a: np.ndarray) -> float:
    """Thermal expectation (1/Z) Tr[A exp(-beta H)] in the eigenbasis."""
    v = state.spectrum.eigenvectors
    diag = np.einsum("ji,ji->i", v.conj(), a @ v)
    val = np.dot(diag, state.weights) / np.sum(state.weights)
    return _real_part(complex(val), "Gibbs expectation")


def string_expectations(state: ThermalState, strings: Sequence[PauliString]) -> np.ndarray:
    """Thermal expectations of Pauli strings, one O(dim^2) gather each, as an
    array (..., len(strings)) over the state's stack. Each string's value is
    reduced on its own, so it does not depend on the other strings."""
    v = state.spectrum.eigenvectors
    v_conj = v.conj()
    diags = np.stack(
        [np.einsum("...ri,...ri->...i", v_conj, op.apply(v)) for op in strings], axis=-2
    )
    weighted = np.sum(diags.real * state.weights[..., None, :], axis=-1)
    return weighted / np.sum(state.weights, axis=-1)[..., None]


def string_in_eigenbasis(state: ThermalState, op: PauliString) -> np.ndarray:
    """V^dagger op V: one row gather and one matmul per matrix of the stack."""
    v = state.spectrum.eigenvectors
    return v.conj().swapaxes(-1, -2) @ op.apply(v)


def _duhamel_kernel(state: ThermalState) -> np.ndarray:
    """Matrix phi_mn such that the Duhamel bracket is sum A_mn B_nm phi_mn / Z,
    with the state's stack axes in front.

    phi_mn = (exp(-beta E_n) - exp(-beta E_m)) / (beta (E_m - E_n)), written
    as exp(-s) sinh(x)/x with s, x the scaled mean and half-difference of the
    shifted energies, evaluated as exp(|x| - s) (1 - exp(-2|x|)) / (2|x|):
    s >= |x|, so neither factor overflows and expm1 leaves no cancellation.
    Near degeneracy (and at beta = 0) the series exp(-s)(1 + x^2/6) takes
    over; its leading term is the midpoint form exp(-beta(E_m+E_n)/2).
    """
    e = state.spectrum.eigenvalues - state.spectrum.eigenvalues[..., :1]
    a = state.beta * e
    s = 0.5 * (a[..., :, None] + a[..., None, :])
    x = np.abs(0.5 * (a[..., :, None] - a[..., None, :]))
    small = x < 1e-4
    x_safe = np.where(small, 1.0, x)
    direct = np.exp(x - s) * -np.expm1(-2.0 * x_safe) / (2.0 * x_safe)
    series = np.exp(-s) * (1.0 + x * x / 6.0)
    return np.where(small, series, direct)


def duhamel(state: ThermalState, a: np.ndarray, b: np.ndarray) -> float:
    """Duhamel correlation: the t-average over [0,1] of
    < exp(t beta H) A exp(-t beta H) B >, evaluated spectrally."""
    at = _to_eigenbasis(state, a)
    bt = _to_eigenbasis(state, b)
    phi = _duhamel_kernel(state)
    val = np.sum(at * bt.T * phi) / np.sum(state.weights)
    return _real_part(complex(val), "Duhamel bracket")


def truncated_duhamel(state: ThermalState, a: np.ndarray, b: np.ndarray) -> float:
    """Duhamel bracket minus the product of thermal expectations."""
    return duhamel(state, a, b) - gibbs_expectation(state, a) * gibbs_expectation(state, b)


def free_energy_density(state: ThermalState, volume: int) -> float:
    """log Z per site (overflow-safe through shifted weights)."""
    return state.log_z / volume


def order_expectation(state: ThermalState, axis: str) -> float:
    """Expectation of the order operator: the site-averaged axis Pauli."""
    n = state.spectrum.dim.bit_length() - 1
    sites = [PauliString(n, (i,), axis) for i in range(n)]
    return float(np.mean(string_expectations(state, sites)))


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
    independent of the eigendecomposition route."""
    rho = expm(-beta * _gershgorin_shift(h))
    return float((np.trace(a @ rho) / np.trace(rho)).real)


def duhamel_time_integral(
    h: np.ndarray, beta: float, a: np.ndarray, b: np.ndarray, num_intervals: int = 200
) -> float:
    """Cross-check path for the Duhamel bracket: Simpson integration of the
    defining imaginary-time integral using expm only."""
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
