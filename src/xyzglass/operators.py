"""Pauli operators on the 2^N spin-1/2 Hilbert space.

Tensor slots follow the lexicographic lattice site order: site 0 is the
leftmost Kronecker factor, so basis index b assigns site i the bit
(b >> (N-1-i)) & 1, with bit value 0 meaning sigma^z eigenvalue +1.

`PauliString` is the working representation: a same-axis product of Paulis
is a monomial matrix given by a bit-flip mask and a per-basis phase (the
binary-symplectic form). The dense Kronecker products (`pauli_product` and
its wrappers) are the public dense API and the oracle the strings are tested
against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import CapacityError

#: Hard cap on site count for dense operator construction (dim 2^14 = 16384).
QUANTUM_SITE_CAP = 14

AXES = ("x", "y", "z")

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

_ID2 = np.eye(2, dtype=complex)

#: i^k for k mod 4.
_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _check_sites(n_sites: int) -> None:
    if n_sites < 1:
        raise ValueError(f"need at least one site, got {n_sites}")
    if n_sites > QUANTUM_SITE_CAP:
        raise CapacityError(
            f"{n_sites} sites exceeds the dense-operator cap {QUANTUM_SITE_CAP}"
        )


def _check_axis(axis: str) -> None:
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")


def _site_set(n_sites: int, sites: Sequence[int], axis: str) -> set[int]:
    _check_sites(n_sites)
    _check_axis(axis)
    site_set = set(int(i) for i in sites)
    if site_set and not site_set <= set(range(n_sites)):
        raise IndexError(f"sites {sorted(site_set)} out of range for {n_sites} sites")
    return site_set


class PauliString:
    """Same-axis Pauli product over a site set, as a monomial matrix.

    It represents op[j ^ flip, j] = phase[j]: `flip` is the bitmask of the
    site set for axes x and y and 0 for z, and with s = popcount(j & mask)
    the phase is 1 (x), (-1)^s (z) or i^|S| (-1)^s (y). Repeated sites count
    once, as in `pauli_product`. `rows` is arange(dim) ^ flip.
    """

    def __init__(self, n_sites: int, sites: Sequence[int], axis: str):
        site_set = _site_set(n_sites, sites, axis)
        mask = 0
        for i in site_set:
            mask |= 1 << (n_sites - 1 - i)
        self.dim = 2**n_sites
        self.flip = 0 if axis == "z" else mask
        basis = np.arange(self.dim)
        self.rows = basis ^ self.flip
        if axis == "x":
            self.phase = np.ones(self.dim, dtype=complex)
        else:
            parity = np.zeros(self.dim, dtype=basis.dtype)
            for i in site_set:
                parity ^= (basis >> (n_sites - 1 - i)) & 1
            unit = _I_POWERS[len(site_set) % 4] if axis == "y" else 1.0 + 0.0j
            self.phase = unit * (1.0 - 2.0 * parity)
        # phase of output row r, which comes from column r ^ flip
        self._row_phase = self.phase[self.rows]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """op @ v for a vector, a matrix of column vectors or a stack of such
        matrices (..., dim, k): one row gather."""
        v = np.asarray(v)
        if v.ndim == 1:
            return self._row_phase * v[self.rows]
        return self._row_phase[:, None] * v[..., self.rows, :]

    def dense(self) -> np.ndarray:
        """The 2^N x 2^N matrix; equals `pauli_product` on the same sites."""
        op = np.zeros((self.dim, self.dim), dtype=complex)
        op[self.rows, np.arange(self.dim)] = self.phase
        return op


def pauli_site(n_sites: int, i: int, axis: str) -> np.ndarray:
    """Pauli operator on site i, identity elsewhere."""
    _check_sites(n_sites)
    _check_axis(axis)
    if not 0 <= i < n_sites:
        raise IndexError(f"site {i} out of range for {n_sites} sites")
    return pauli_product(n_sites, (i,), axis)


def pauli_product(n_sites: int, sites: Sequence[int], axis: str) -> np.ndarray:
    """Product of same-axis Pauli operators over a site set; empty set is identity."""
    site_set = _site_set(n_sites, sites, axis)
    op = np.ones((1, 1), dtype=complex)
    for j in range(n_sites):
        op = np.kron(op, PAULI[axis] if j in site_set else _ID2)
    return op


def gauge_unitary(n_sites: int, axis: str, tau: Sequence[int]) -> np.ndarray:
    """Unitary implementing the spin gauge transformation for configuration tau.

    Equals the product of the axis Pauli over every site where tau is -1;
    tau identically +1 gives the identity.
    """
    tau = np.asarray(tau)
    if tau.shape != (n_sites,):
        raise ValueError(f"tau must have one entry per site, got shape {tau.shape}")
    if not np.all(np.abs(tau) == 1):
        raise ValueError("tau entries must be +1 or -1")
    flipped = [i for i in range(n_sites) if tau[i] == -1]
    return pauli_product(n_sites, flipped, axis)


def global_flip(n_sites: int, axis: str) -> np.ndarray:
    """Product of the axis Pauli over every site; a Hermitian involution."""
    return pauli_product(n_sites, range(n_sites), axis)
