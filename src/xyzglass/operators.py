"""Pauli operators on the 2^N spin-1/2 Hilbert space.

Tensor slots follow the lexicographic lattice site order: site 0 is the
leftmost Kronecker factor, so basis index b assigns site i the bit
(b >> (N-1-i)) & 1, with bit value 0 meaning sigma^z eigenvalue +1.
`site_mask` writes that map once, and `product_signs` the sign
(-1)^popcount(b & mask) that a sigma^z product, or the classical spin
product over the same sites (`classical_gibbs`), takes on index b.

`PauliString` is the working representation: a same-axis product of Paulis
is a monomial matrix given by a bit-flip mask and a per-basis phase (the
binary-symplectic form). The dense Kronecker products (`pauli_product` and
its wrappers) are the public dense API and the oracle the strings are tested
against.

`Sectors` splits the basis into blocks that the operators at hand map onto
blocks: the whole space as one complex block, or the two real blocks of the
P_z parity (the popcount parity of the basis index).
"""

from __future__ import annotations

import functools
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
        raise CapacityError(f"{n_sites} sites exceeds the quantum cap {QUANTUM_SITE_CAP}")


def _check_axis(axis: str) -> None:
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")


def transformed_axes(u: str) -> tuple[str, str]:
    """The two axes, in `AXES` order, whose Paulis anticommute with sigma^u:
    a gauge flip about u changes the sign of their couplings, and the
    Nishimori temperature for u sums over them."""
    _check_axis(u)
    a, b = (axis for axis in AXES if axis != u)
    return a, b


def site_mask(n_sites: int, sites: Sequence[int]) -> int:
    """The basis-index bits of a site set: site i is bit N-1-i. A repeated
    site cancels, as sigma^z_i^2 = 1 and tau_i^2 = 1 do in a product."""
    mask = 0
    for i in sites:
        if not 0 <= i < n_sites:
            raise ValueError(f"site {i} is outside [0, {n_sites})")
        mask ^= 1 << (n_sites - 1 - i)
    return mask


def product_signs(count: int, masks: Sequence[int]) -> np.ndarray:
    """(count, len(masks)) signs (-1)^popcount(b & mask) for basis indices
    b = 0..count-1: the sigma^z product over each mask's site set, and the
    classical spin product tau over it."""
    idx = np.arange(count, dtype=np.uint32)[:, None]
    odd = np.bitwise_count(idx & np.array(masks, dtype=np.uint32)) & 1
    return np.where(odd, -1.0, 1.0)


def _site_set(n_sites: int, sites: Sequence[int], axis: str) -> tuple[set[int], int]:
    """The distinct sites and their `site_mask`, which checks their range."""
    _check_sites(n_sites)
    _check_axis(axis)
    site_set = set(int(i) for i in sites)
    return site_set, site_mask(n_sites, site_set)


class Sectors:
    """The basis split into S sectors of d = 2^N / S states each: sector s
    holds the basis indices `bases[s]`, ascending, and `position[b]` is
    index b's place in its sector. Operators that keep the split are stored
    as S diagonal blocks of dtype `dtype`. Make them with `whole_space` or
    `parity_sectors`, which return one shared instance per site count."""

    def __init__(self, n_sites: int, bases: np.ndarray, dtype: type):
        self.n_sites = n_sites
        self.dim = 2**n_sites
        self.bases = bases
        self.dtype = dtype
        self.count, self.size = bases.shape
        self.sector_of = np.empty(self.dim, dtype=np.intp)
        self.position = np.empty(self.dim, dtype=np.intp)
        for s, basis in enumerate(bases):
            self.sector_of[basis] = s
            self.position[basis] = np.arange(self.size)
        self._keeps: dict[int, bool] = {}

    def target(self, flip: int) -> np.ndarray:
        """The sector that each sector's states land in under the bit flip."""
        return self.sector_of[self.bases[:, 0] ^ flip]

    def keeps(self, flip: int) -> bool:
        """Whether the flip maps every sector onto itself. Two strings
        compose to a flip by the XOR of their masks."""
        if flip not in self._keeps:
            self._keeps[flip] = bool(np.all(self.target(flip) == np.arange(self.count)))
        return self._keeps[flip]

    def scatter_index(self, flips: Sequence[int]) -> tuple[np.ndarray, ...]:
        """(sector, row, column) of the block entry that holds dense entry
        [j ^ flip, j], for every flip (rows) and basis index j (columns);
        every flip must keep the sectors."""
        cols = np.arange(self.dim)
        rows = cols[None, :] ^ np.array(flips, dtype=cols.dtype)[:, None]
        return self.sector_of, self.position[rows], self.position[cols]


@functools.cache
def whole_space(n_sites: int) -> Sectors:
    """The whole 2^N basis as one complex sector."""
    _check_sites(n_sites)
    return Sectors(n_sites, np.arange(2**n_sites)[None, :], complex)


@functools.cache
def parity_sectors(n_sites: int) -> Sectors:
    """The P_z parity sectors: even popcount first, then odd, as real blocks.
    A term that flips an even number of spins and has a real phase keeps
    them."""
    _check_sites(n_sites)
    basis = np.arange(2**n_sites)
    odd = product_signs(len(basis), [len(basis) - 1])[:, 0] < 0
    return Sectors(n_sites, np.stack([basis[~odd], basis[odd]]), float)


class PauliString:
    """Same-axis Pauli product over a site set, as a monomial matrix.

    It represents op[j ^ flip, j] = phase[j]: `flip` is the bitmask of the
    site set for axes x and y and 0 for z, and with s = popcount(j & mask)
    the phase is 1 (x), (-1)^s (z) or i^|S| (-1)^s (y). Repeated sites count
    once, as in `pauli_product`. `rows` is arange(dim) ^ flip.
    """

    def __init__(self, n_sites: int, sites: Sequence[int], axis: str):
        site_set, mask = _site_set(n_sites, sites, axis)
        self.dim = 2**n_sites
        self.flip = 0 if axis == "z" else mask
        self.rows = np.arange(self.dim) ^ self.flip
        unit = _I_POWERS[len(site_set) % 4] if axis == "y" else 1.0 + 0.0j
        self.phase = unit * product_signs(self.dim, [0 if axis == "x" else mask])[:, 0]
        # phase of output row r, which comes from column r ^ flip
        self._row_phase = self.phase[self.rows]
        self._sector_maps: dict[Sectors, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def sector_map(self, sectors: Sectors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(target, rows, phases): the string maps sector s onto sector
        target[s]. Row r of the image of block s is phases[s d + r] times row
        rows[s d + r] of the blocks stacked as one (S d)-row matrix. The
        phases are real when the sectors are real and the string's phases
        are."""
        if sectors not in self._sector_maps:
            target = sectors.target(self.flip)
            image = sectors.bases[target]
            phases = self._row_phase[image].ravel()
            if sectors.dtype is float and not np.any(phases.imag):
                phases = phases.real
            offsets = np.arange(sectors.count)[:, None] * sectors.size
            rows = (offsets + sectors.position[image ^ self.flip]).ravel()
            self._sector_maps[sectors] = (target, rows, phases)
        return self._sector_maps[sectors]

    def apply(self, v: np.ndarray, sectors: Sectors) -> np.ndarray:
        """op @ v, one row gather, for matrices of column vectors held as one
        block per sector, (..., S, d, k): the result's block s is the image
        of block s, in the basis of sector `sector_map(sectors)[0][s]`. On
        `whole_space`, v is (..., 1, dim, k). A string without a flip (any z
        string) maps every row onto itself and gathers nothing."""
        v = np.asarray(v)
        _, rows, phases = self.sector_map(sectors)
        stacked = v.reshape(v.shape[:-3] + (-1, v.shape[-1]))
        if self.flip:
            stacked = stacked[..., rows, :]
        return (phases[:, None] * stacked).reshape(v.shape)

    def dense(self) -> np.ndarray:
        """The 2^N x 2^N matrix; equals `pauli_product` on the same sites."""
        op = np.zeros((self.dim, self.dim), dtype=complex)
        op[self.rows, np.arange(self.dim)] = self.phase
        return op


def pauli_site(n_sites: int, i: int, axis: str) -> np.ndarray:
    """Pauli operator on site i, identity elsewhere."""
    return pauli_product(n_sites, (i,), axis)


def pauli_product(n_sites: int, sites: Sequence[int], axis: str) -> np.ndarray:
    """Product of same-axis Pauli operators over a site set; empty set is identity."""
    site_set, _ = _site_set(n_sites, sites, axis)
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
