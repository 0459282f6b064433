"""Exact enumeration of the classical Ising model with per-order inverse
temperatures: the Nishimori-line reference model for the quantum checks."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .disorder import NishimoriData
from .errors import CapacityError
from .lattice import BondFamily

#: Largest lattice whose 2^N configurations are enumerated: the tables of
#: 2^16 rows hold a few MiB per column.
ENUMERATION_SITE_CAP = 16


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


def _index_mask(n_sites: int, sites: Sequence[int]) -> int:
    """The configuration-index bits of a site set, in `_tau_block`'s
    convention. A repeated site cancels, as tau_i^2 = 1 does in a product."""
    mask = 0
    for i in sites:
        mask ^= 1 << (n_sites - 1 - i)
    return mask


def _product_signs(count: int, masks: Sequence[int]) -> np.ndarray:
    """(count, len(masks)) spin products over configurations 0..count-1: the
    product over a site set is -1 exactly when an odd number of its index
    bits are set."""
    idx = np.arange(count, dtype=np.uint32)[:, None]
    odd = np.bitwise_count(idx & np.array(masks, dtype=np.uint32)) & 1
    return np.where(odd, -1.0, 1.0)


def _pair_columns(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tau_i tau_j for every column pair i <= j, and the column of (i, j)
    and of (j, i)."""
    i, j = np.triu_indices(tau.shape[1])
    col = np.empty((tau.shape[1], tau.shape[1]), dtype=np.intp)
    col[i, j] = col[j, i] = np.arange(len(i))
    return tau[:, i] * tau[:, j], col


def _check_cap(n_sites: int) -> None:
    if n_sites > ENUMERATION_SITE_CAP:
        raise CapacityError(
            f"{n_sites} sites exceeds the classical enumeration cap {ENUMERATION_SITE_CAP}"
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


def _weighted_configurations(model: ClassicalModel) -> tuple[np.ndarray, np.ndarray, float]:
    """(tau, w, z) over every configuration in index order: the spins, the
    Boltzmann weights shifted by the largest log weight, and their sum."""
    _check_cap(model.n_sites)
    coeffs, bonds = _term_arrays(model)
    tau = _tau_block(0, 1 << model.n_sites, model.n_sites)
    logw = _log_weights(tau, coeffs, bonds)
    w = np.exp(logw - float(np.max(logw)))
    return tau, w, float(np.sum(w))


def product_expectations(
    model: ClassicalModel, site_sets: Sequence[Sequence[int]]
) -> np.ndarray:
    """Exact <prod_{i in S} tau_i> for each site set S, in one enumeration,
    bond by bond: the reference that `BondProductTable` is tested against."""
    _check_cap(model.n_sites)
    sets = [tuple(int(i) for i in s) for s in site_sets]
    for s in sets:
        if s and not set(s) <= set(range(model.n_sites)):
            raise ValueError(f"site set {s} out of range")
    tau, w, z = _weighted_configurations(model)
    nums = np.array([float(np.dot(np.prod(tau[:, s], axis=1), w)) if s else z for s in sets])
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


def classical_correlation_matrix(model: ClassicalModel) -> np.ndarray:
    """All pair correlations <tau_i tau_j> from a single enumeration pass."""
    tau, w, z = _weighted_configurations(model)
    return (tau * w[:, None]).T @ tau / z


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

    Caches the per-bond sign columns for one family structure and the sign
    column of every site set it has evaluated, so that per-sample
    Nishimori expectations reduce to a matrix product plus a softmax. Every
    sign column is read off the configuration index's bits, so no spin
    table of 2^N rows is held. Limited to `ENUMERATION_SITE_CAP` sites, as
    the enumeration above is.

    `flip_invariant` is decided from the bonds' index masks, never from
    coupling values: when every mask holds an even number of bits (every
    bond holds an even number of distinct sites, counted with cancellation),
    each sign column reads the same on configuration i and on its global
    flip 2^N-1-i, and `term_signs` keeps only the first 2^(N-1) rows.

    The pair matrix splits the configuration index into its high bits
    (sites 0..k-1, k = N // 2) and low bits (sites k..N-1), with one spin
    half-table for each: tau_A (2^k x k) and tau_B (2^(N-k) x (N-k)), and
    the products P_A, P_B of their column pairs i <= j.
    """

    def __init__(self, n_sites: int, families: Mapping[int, BondFamily]):
        _check_cap(n_sites)
        self.n_sites = n_sites
        self.families = dict(families)
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
        masks = []
        self._slices: dict[int, slice] = {}
        for p in sorted(families):
            bonds = families[p].bonds
            self._slices[p] = slice(len(masks), len(masks) + len(bonds))
            masks += [_index_mask(n_sites, bond) for bond in bonds]
        # the global flip sets every index bit, so it turns a sign column
        # into its mirror times (-1)^(bits of its mask)
        self.flip_invariant = all(mask.bit_count() % 2 == 0 for mask in masks)
        rows = 1 << (n_sites - self.flip_invariant)
        self.term_signs = _product_signs(rows, masks)
        self._sign_columns: dict[tuple[int, ...], np.ndarray] = {}

    def probabilities(
        self, k_by_p: Mapping[int, np.ndarray], betas: Mapping[int, float]
    ) -> np.ndarray:
        """(B, 2^N) configuration probabilities for (B, bonds) couplings per
        p: one softmax per row, whose bits do not depend on B. The log
        weights are a per-row matmul, since a gemm across rows changes last
        bits, and the sum runs over the full mirrored row. A table without
        terms gives one uniform row. An overflow or an invalid value raises
        FloatingPointError; underflow stays silent."""
        n_rows = max((len(k) for k in k_by_p.values()), default=1)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            coeff = np.empty((n_rows, self.term_signs.shape[1]))
            for p, sl in self._slices.items():
                coeff[:, sl] = betas[p] * np.asarray(k_by_p[p])
            # in place where the arithmetic allows: the bits are the same
            w = (self.term_signs[None] @ coeff[:, :, None])[..., 0]
            w -= np.max(w, axis=1, keepdims=True)
            np.exp(w, out=w)
            if self.flip_invariant:
                w = np.concatenate((w, w[:, ::-1]), axis=1)
            w /= np.sum(w, axis=1, keepdims=True)
            return w

    def expectations(
        self,
        k_by_p: Mapping[int, np.ndarray],
        betas: Mapping[int, float],
        site_sets: Sequence[Sequence[int]],
    ) -> np.ndarray:
        return self.expectations_from(self._probabilities_of_one(k_by_p, betas), site_sets)

    def _probabilities_of_one(
        self, k_by_p: Mapping[int, np.ndarray], betas: Mapping[int, float]
    ) -> np.ndarray:
        return self.probabilities({p: np.asarray(k)[None] for p, k in k_by_p.items()}, betas)[0]

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
            mask = _index_mask(self.n_sites, sites)
            self._sign_columns[sites] = _product_signs(1 << self.n_sites, [mask])[:, 0]
        return self._sign_columns[sites]

    def pair_matrix(
        self, k_by_p: Mapping[int, np.ndarray], betas: Mapping[int, float]
    ) -> np.ndarray:
        """All <tau_i tau_j> for one sample."""
        return self.pair_matrix_from(self._probabilities_of_one(k_by_p, betas))

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
