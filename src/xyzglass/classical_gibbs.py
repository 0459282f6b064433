"""Exact enumeration of the classical Ising model with per-order inverse
temperatures: the Nishimori-line reference model for the quantum checks."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .disorder import NishimoriData
from .errors import CapacityError
from .lattice import CLASSICAL_SITE_CAP, BondFamily

_CHUNK_BITS = 16


@dataclass(frozen=True)
class ClassicalModel:
    """Ising couplings K per bond with a p-dependent inverse temperature.

    The Boltzmann weight of a configuration is
    exp(sum_p beta_p sum_X K_{X,p} tau_X); betas enter only at weight time,
    so one coupling set serves several temperature vectors.
    """

    n_sites: int
    families: Mapping[int, BondFamily]
    couplings: Mapping[int, np.ndarray]
    betas: Mapping[int, float]

    def __post_init__(self):
        for p, family in self.families.items():
            if len(self.couplings[p]) != len(family.bonds):
                raise ValueError(f"coupling count mismatch for p={p}")
            if self.betas[p] < 0:
                raise ValueError(f"beta must be >= 0, got {self.betas[p]} for p={p}")


def classical_from_nishimori(
    nd: NishimoriData, families: Mapping[int, BondFamily], n_sites: int
) -> ClassicalModel:
    """The Nishimori-line classical model for a transformed disorder sample."""
    return ClassicalModel(
        n_sites=n_sites, families=dict(families), couplings=dict(nd.k), betas=dict(nd.betas)
    )


def _tau_block(start: int, count: int, n_sites: int) -> np.ndarray:
    """Spin values (+-1) for configuration indices [start, start+count).

    Site i reads bit (n_sites-1-i) of the index, bit 0 meaning spin +1; this
    matches the tensor-slot convention of the quantum operators.
    """
    idx = np.arange(start, start + count, dtype=np.int64)
    shifts = n_sites - 1 - np.arange(n_sites)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    return 1.0 - 2.0 * bits


def _pair_columns(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tau_i tau_j for every column pair i <= j, and the column of (i, j)
    and of (j, i)."""
    i, j = np.triu_indices(tau.shape[1])
    col = np.empty((tau.shape[1], tau.shape[1]), dtype=np.intp)
    col[i, j] = col[j, i] = np.arange(len(i))
    return tau[:, i] * tau[:, j], col


def _check_cap(n_sites: int) -> None:
    if n_sites > CLASSICAL_SITE_CAP:
        raise CapacityError(
            f"{n_sites} sites exceeds the classical enumeration cap {CLASSICAL_SITE_CAP}"
        )


def _term_arrays(model: ClassicalModel) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    coeffs = []
    bonds: list[tuple[int, ...]] = []
    for p in sorted(model.families):
        beta = model.betas[p]
        for b, bond in enumerate(model.families[p].bonds):
            coeffs.append(beta * float(model.couplings[p][b]))
            bonds.append(bond)
    return np.array(coeffs), bonds


def _log_weights(tau: np.ndarray, coeffs: np.ndarray, bonds: list[tuple[int, ...]]) -> np.ndarray:
    w = np.zeros(tau.shape[0])
    for c, bond in zip(coeffs, bonds):
        if c != 0.0:
            w += c * np.prod(tau[:, bond], axis=1)
    return w


def _weighted_chunks(model: ClassicalModel) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(tau, w) for every chunk of configurations in a fixed order, with w
    the Boltzmann weights shifted by the largest log weight, which a first
    pass over the chunks finds. Chunks hold 2^_CHUNK_BITS configurations,
    read when the enumeration starts."""
    _check_cap(model.n_sites)
    coeffs, bonds = _term_arrays(model)
    total = 1 << model.n_sites
    chunk = min(total, 1 << _CHUNK_BITS)
    starts = range(0, total, chunk)
    gmax = -np.inf
    for start in starts:
        tau = _tau_block(start, min(chunk, total - start), model.n_sites)
        gmax = max(gmax, float(np.max(_log_weights(tau, coeffs, bonds))))
    for start in starts:
        tau = _tau_block(start, min(chunk, total - start), model.n_sites)
        yield tau, np.exp(_log_weights(tau, coeffs, bonds) - gmax)


def product_expectations(
    model: ClassicalModel, site_sets: Sequence[Sequence[int]]
) -> np.ndarray:
    """Exact <prod_{i in S} tau_i> for each site set S, in one enumeration.

    Configurations are enumerated in fixed-size chunks in a fixed order, so
    results are bit-reproducible regardless of lattice size.
    """
    _check_cap(model.n_sites)
    sets = [tuple(int(i) for i in s) for s in site_sets]
    for s in sets:
        if s and not set(s) <= set(range(model.n_sites)):
            raise ValueError(f"site set {s} out of range")
    z = 0.0
    nums = np.zeros(len(sets))
    for tau, w in _weighted_chunks(model):
        z += float(np.sum(w))
        for k, s in enumerate(sets):
            if s:
                nums[k] += float(np.dot(np.prod(tau[:, s], axis=1), w))
            else:
                nums[k] += float(np.sum(w))
    return nums / z


def classical_energy(model: ClassicalModel, tau: Sequence[int]) -> float:
    """-sum_p sum_X K_{X,p} tau_X (inverse temperatures not applied here)."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (model.n_sites,):
        raise ValueError(f"tau must have {model.n_sites} entries")
    energy = 0.0
    for p in sorted(model.families):
        for b, bond in enumerate(model.families[p].bonds):
            energy -= float(model.couplings[p][b]) * float(np.prod(tau[list(bond)]))
    return energy


def classical_expectation(model: ClassicalModel, sites: Sequence[int]) -> float:
    """Exact expectation of the spin product over `sites`."""
    return float(product_expectations(model, [tuple(sites)])[0])


def classical_pair_expectation(
    model: ClassicalModel, x_sites: Sequence[int], y_sites: Sequence[int]
) -> float:
    """<tau_X tau_Y>, reduced to the product over the symmetric difference."""
    diff = tuple(sorted(set(x_sites) ^ set(y_sites)))
    return classical_expectation(model, diff)


def classical_correlation_matrix(model: ClassicalModel) -> np.ndarray:
    """All pair correlations <tau_i tau_j> from a single enumeration pass."""
    z = 0.0
    corr = np.zeros((model.n_sites, model.n_sites))
    for tau, w in _weighted_chunks(model):
        z += float(np.sum(w))
        corr += (tau * w[:, None]).T @ tau
    return corr / z


def correlation_matrix_to_csv(matrix: np.ndarray, path: str) -> None:
    """Write a correlation matrix as CSV with site-index headers."""
    n = matrix.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site"] + [str(j) for j in range(n)])
        for i in range(n):
            writer.writerow([str(i)] + [repr(float(v)) for v in matrix[i]])


class BondProductTable:
    """Precomputed configuration tables for fast repeated evaluation.

    Caches the full spin table, the per-bond sign columns for one family
    structure and the sign column of every site set it has evaluated, so
    that per-sample Nishimori expectations reduce to a matrix product plus a
    softmax. Limited to 16 sites; larger systems go through the chunked
    enumeration above.

    The pair matrix splits the configuration index into its high bits
    (sites 0..k-1, k = N // 2) and low bits (sites k..N-1), with one spin
    half-table for each: tau_A (2^k x k) and tau_B (2^(N-k) x (N-k)), and
    the products P_A, P_B of their column pairs i <= j.
    """

    def __init__(self, n_sites: int, families: Mapping[int, BondFamily]):
        if n_sites > 16:
            raise CapacityError("fast tables are limited to 16 sites")
        self.n_sites = n_sites
        self.families = dict(families)
        self.tau = _tau_block(0, 1 << n_sites, n_sites)
        k, nb = n_sites // 2, n_sites - n_sites // 2
        tau_a, tau_b = _tau_block(0, 1 << k, k), _tau_block(0, 1 << nb, nb)
        pairs_a, col_a = _pair_columns(tau_a)
        pairs_b, col_b = _pair_columns(tau_b)
        self._high = np.ascontiguousarray(np.hstack([tau_a, pairs_a]).T)
        self._low = np.hstack([tau_b, np.ones((1 << nb, 1))])
        self._ones_high = np.ones(1 << k)
        self._pairs_low = pairs_b
        # where pair_matrix_from finds (i, j) in [cross.ravel(), low]
        w = nb + 1
        self._pair_index = index = np.empty((n_sites, n_sites), dtype=np.intp)
        index[:k, k:] = np.arange(k)[:, None] * w + np.arange(nb)
        index[k:, :k] = index[:k, k:].T
        index[:k, :k] = (k + col_a) * w + nb
        index[k:, k:] = (k + pairs_a.shape[1]) * w + col_b
        cols = []
        self._slices: dict[int, slice] = {}
        pos = 0
        for p in sorted(families):
            bonds = families[p].bonds
            for bond in bonds:
                cols.append(np.prod(self.tau[:, bond], axis=1))
            self._slices[p] = slice(pos, pos + len(bonds))
            pos += len(bonds)
        self.term_signs = np.stack(cols, axis=1) if cols else np.zeros((1 << n_sites, 0))
        self._sign_columns: dict[tuple[int, ...], np.ndarray] = {}

    def probabilities(
        self, k_by_p: Mapping[int, np.ndarray], betas: Mapping[int, float]
    ) -> np.ndarray:
        coeff = np.empty(self.term_signs.shape[1])
        for p, sl in self._slices.items():
            coeff[sl] = betas[p] * np.asarray(k_by_p[p])
        logw = self.term_signs @ coeff
        w = np.exp(logw - np.max(logw))
        return w / np.sum(w)

    def expectations(
        self,
        k_by_p: Mapping[int, np.ndarray],
        betas: Mapping[int, float],
        site_sets: Sequence[Sequence[int]],
    ) -> np.ndarray:
        return self.expectations_from(self.probabilities(k_by_p, betas), site_sets)

    def expectations_from(
        self, prob: np.ndarray, site_sets: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """<prod_{i in S} tau_i> for each site set S under `probabilities`."""
        out = np.empty(len(site_sets))
        for k, s in enumerate(site_sets):
            s = tuple(s)
            out[k] = float(np.dot(self._sign_column(s), prob)) if s else 1.0
        return out

    def _sign_column(self, sites: tuple[int, ...]) -> np.ndarray:
        """prod_{i in sites} tau_i over every configuration, made once per
        site set."""
        if sites not in self._sign_columns:
            self._sign_columns[sites] = np.prod(self.tau[:, sites], axis=1)
        return self._sign_columns[sites]

    def pair_matrix(
        self, k_by_p: Mapping[int, np.ndarray], betas: Mapping[int, float]
    ) -> np.ndarray:
        """All <tau_i tau_j> for one sample."""
        return self.pair_matrix_from(self.probabilities(k_by_p, betas))

    def pair_matrix_from(self, prob: np.ndarray) -> np.ndarray:
        """All <tau_i tau_j> under `probabilities`, as a bilinear form: with
        M the probabilities reshaped to (high bits, low bits),
        C_AB = tau_A^T M tau_B, C_AA = tau_A^T diag(M 1) tau_A = P_A^T M 1
        and C_BB = tau_B^T diag(M^T 1) tau_B = P_B^T M^T 1. The first two
        come from one product [tau_A | P_A]^T M [tau_B | 1]."""
        m = prob.reshape(len(self._ones_high), -1)
        cross = self._high @ (m @ self._low)
        low = (self._ones_high @ m) @ self._pairs_low
        return np.concatenate((cross.ravel(), low))[self._pair_index]
