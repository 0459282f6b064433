"""Cubic lattices and translated interaction-shape bond families."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .errors import CapacityError, EmptyFamilyError

Boundary = Literal["open", "periodic"]

#: Hard cap on the site count of any lattice `build_lattice` makes. The
#: classical enumeration has its own, tighter cap
#: (`classical_gibbs.ENUMERATION_SITE_CAP`), and so has the quantum side.
CLASSICAL_SITE_CAP = 24


@dataclass(frozen=True)
class Lattice:
    """A d-dimensional cubic lattice of linear size L.

    Sites are integer coordinate vectors in [0, L-1]^d, stored in
    lexicographic order; a site's index is its position in that order.
    """

    d: int
    L: int
    sites: tuple[tuple[int, ...], ...]

    @property
    def n_sites(self) -> int:
        return len(self.sites)


@dataclass(frozen=True)
class InteractionShape:
    """A p-site interaction range: p distinct offsets containing the origin."""

    p: int
    offsets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BondFamily:
    """All distinct translates of interaction shapes, as sorted site-index sets.

    `bonds` is canonically ordered (each bond sorted ascending, the family
    sorted lexicographically), so regeneration is reproducible.
    """

    p: int
    bonds: tuple[tuple[int, ...], ...]
    boundary: Boundary


def build_lattice(d: int, L: int) -> Lattice:
    """Construct the cubic lattice with L^d sites in lexicographic order.

    Raises CapacityError when L^d exceeds `CLASSICAL_SITE_CAP` (quantum
    contexts enforce their own, tighter cap downstream), or when d or L
    does, before L^d is formed: a lattice within the cap has L <= cap, and
    past log2(cap) dimensions only L = 1 fits, whose extra axes add no site
    but lengthen every coordinate. The cap on d keeps L^d a small integer.
    """
    if d < 1 or L < 1:
        raise ValueError(f"need d >= 1 and L >= 1, got d={d}, L={L}")
    if max(d, L) > CLASSICAL_SITE_CAP:
        raise CapacityError(
            f"lattice d={d}, L={L}: d and L may not exceed the site cap {CLASSICAL_SITE_CAP}"
        )
    volume = L**d
    if volume > CLASSICAL_SITE_CAP:
        raise CapacityError(
            f"lattice volume {L}^{d} = {volume} exceeds the site cap {CLASSICAL_SITE_CAP}"
        )
    sites = tuple(itertools.product(range(L), repeat=d))
    return Lattice(d=d, L=L, sites=sites)


def interaction_shape(offsets: Iterable[Sequence[int]]) -> InteractionShape:
    """Validate and freeze a shape given as integer offset vectors."""
    offs = tuple(tuple(int(c) for c in o) for o in offsets)
    if not offs:
        raise ValueError("shape needs at least one offset")
    dims = {len(o) for o in offs}
    if len(dims) != 1:
        raise ValueError("all offsets must have the same dimension")
    if len(set(offs)) != len(offs):
        raise ValueError("shape offsets must be distinct")
    origin = (0,) * len(offs[0])
    if origin not in offs:
        raise ValueError("shape must contain the origin")
    return InteractionShape(p=len(offs), offsets=offs)


def generate_bonds(
    lattice: Lattice, shape: InteractionShape, boundary: Boundary = "open"
) -> BondFamily:
    """Translate `shape` to every lattice site and collect distinct bonds.

    Open boundary keeps only translates fully inside the lattice; periodic
    wraps coordinates modulo L. Translates that collapse onto fewer than p
    distinct sites (possible for wide shapes on tiny periodic lattices) are
    dropped. Raises EmptyFamilyError when nothing fits.
    """
    if any(len(o) != lattice.d for o in shape.offsets):
        raise ValueError("shape dimension does not match lattice dimension")
    index = {coord: i for i, coord in enumerate(lattice.sites)}
    L = lattice.L
    bonds = set()
    for base in lattice.sites:
        members = []
        ok = True
        for off in shape.offsets:
            coord = tuple(b + o for b, o in zip(base, off))
            if boundary == "periodic":
                coord = tuple(c % L for c in coord)
            elif not all(0 <= c < L for c in coord):
                ok = False
                break
            members.append(index[coord])
        if ok and len(set(members)) == shape.p:
            bonds.add(tuple(sorted(members)))
    if not bonds:
        raise EmptyFamilyError(
            f"no translate of the p={shape.p} shape fits a {lattice.d}-dim "
            f"lattice of size L={lattice.L} under {boundary} boundary"
        )
    return BondFamily(p=shape.p, bonds=tuple(sorted(bonds)), boundary=boundary)


def merge_bond_families(families: Iterable[BondFamily]) -> BondFamily:
    """Merge several families of the same p (multiple shapes), deduplicating."""
    fams = list(families)
    if not fams:
        raise ValueError("nothing to merge")
    p = fams[0].p
    boundary = fams[0].boundary
    if any(f.p != p or f.boundary != boundary for f in fams):
        raise ValueError("can only merge families with identical p and boundary")
    bonds = sorted({b for f in fams for b in f.bonds})
    return BondFamily(p=p, bonds=tuple(bonds), boundary=boundary)


def chain_pair_shape(d: int = 1) -> InteractionShape:
    """Nearest-neighbor pair shape {0, e_1} in d dimensions."""
    origin = (0,) * d
    step = (1,) + (0,) * (d - 1)
    return InteractionShape(p=2, offsets=(origin, step))


def single_site_shape(d: int = 1) -> InteractionShape:
    """The p=1 shape {0}; its bond family is the whole lattice."""
    return InteractionShape(p=1, offsets=((0,) * d,))
