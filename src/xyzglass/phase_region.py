"""Membership of coupling points in the zero-magnetization pyramids and
grid exports of their union for external 3-d rendering.

A point belongs to the axis-u subspace when both Nishimori temperatures of
the other two axes stay strictly below the reference triple-point value
beta_t; inside the union the gauge bounds force every spontaneous
magnetization component to vanish at any temperature.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CapacityError
from .operators import AXES

#: Guard on exported grid sizes.
_MAX_GRID_POINTS = 10**7

_OTHER = {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")}


@dataclass(frozen=True)
class RegionQuery:
    """A pair-coupling point (delta_x, delta_y, delta_z, mu_x, mu_y, mu_z)
    plus the externally supplied triple-point inverse temperature.

    beta_t has no default: the reference value comes from the
    nearest-neighbor spin glass literature and must be chosen by the caller.
    Membership depends on the six coordinates only through the three ratios
    mu/delta.
    """

    delta_x: float
    delta_y: float
    delta_z: float
    mu_x: float
    mu_y: float
    mu_z: float
    beta_t: float

    def __post_init__(self):
        for name in ("delta_x", "delta_y", "delta_z"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0 (ratios mu/delta must be finite)")
        if self.beta_t <= 0:
            raise ValueError("beta_t must be > 0")

    def ratios(self) -> dict[str, float]:
        return {
            "x": self.mu_x / self.delta_x,
            "y": self.mu_y / self.delta_y,
            "z": self.mu_z / self.delta_z,
        }


@dataclass(frozen=True)
class Membership:
    in_x: bool
    in_y: bool
    in_z: bool

    @property
    def in_union(self) -> bool:
        return self.in_x or self.in_y or self.in_z


@dataclass(frozen=True)
class RatioGrid:
    """Axis-aligned grid over the three coupling ratios."""

    x: tuple[float, float, int]
    y: tuple[float, float, int]
    z: tuple[float, float, int]

    def __post_init__(self):
        for name in ("x", "y", "z"):
            _, _, count = getattr(self, name)
            if count < 1:
                raise ValueError(f"grid count for {name} must be >= 1")
        if self.n_points > _MAX_GRID_POINTS:
            raise CapacityError(
                f"{self.n_points} grid points exceeds the guard {_MAX_GRID_POINTS}"
            )

    @property
    def n_points(self) -> int:
        return self.x[2] * self.y[2] * self.z[2]

    def axis_values(self, name: str) -> np.ndarray:
        start, stop, count = getattr(self, name)
        return np.linspace(start, stop, count) if count > 1 else np.array([start])


def beta2_from_ratios(rx, ry, rz, u: str):
    """Pair-coupling Nishimori temperature for gauge axis u, from ratios.

    Accepts scalars or arrays; combines the two ratios other than u.
    """
    r = {"x": rx, "y": ry, "z": rz}
    a, b = _OTHER[u]
    return np.hypot(r[a], r[b])


def membership_from_ratios(rx, ry, rz, beta_t: float):
    """Per-axis membership booleans (strict inequalities), vectorized."""
    out = {}
    for u in AXES:
        a, b = _OTHER[u]
        ba = beta2_from_ratios(rx, ry, rz, a)
        bb = beta2_from_ratios(rx, ry, rz, b)
        out[u] = (ba < beta_t) & (bb < beta_t)
    return out


def region_membership(query: RegionQuery) -> Membership:
    """Per-axis membership plus the union flag.

    When the union flag is set, the spontaneous magnetization vanishes on
    all three axes at every temperature.
    """
    r = query.ratios()
    flags = membership_from_ratios(r["x"], r["y"], r["z"], query.beta_t)
    return Membership(in_x=bool(flags["x"]), in_y=bool(flags["y"]), in_z=bool(flags["z"]))


def sample_region(
    grid: RatioGrid, beta_t: float
) -> Iterator[tuple[float, float, float, bool, bool, bool, bool]]:
    """Rows (ratio_x, ratio_y, ratio_z, in_Sx, in_Sy, in_Sz, in_union) over
    the grid, in lexicographic (x, y, z) order."""
    if beta_t <= 0:
        raise ValueError("beta_t must be > 0")
    xs = grid.axis_values("x")
    ys = grid.axis_values("y")
    zs = grid.axis_values("z")
    gy, gz = np.meshgrid(ys, zs, indexing="ij")
    for rx in xs:
        flags = membership_from_ratios(rx, gy, gz, beta_t)
        union = flags["x"] | flags["y"] | flags["z"]
        for iy in range(len(ys)):
            for iz in range(len(zs)):
                yield (
                    float(rx), float(ys[iy]), float(zs[iz]),
                    bool(flags["x"][iy, iz]), bool(flags["y"][iy, iz]),
                    bool(flags["z"][iy, iz]), bool(union[iy, iz]),
                )


def write_region_csv(grid: RatioGrid, beta_t: float, path: str) -> int:
    """Export the sampled region as CSV (header row mandatory); returns the
    number of data rows written."""
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ratio_x", "ratio_y", "ratio_z", "in_Sx", "in_Sy", "in_Sz", "in_union"])
        for row in sample_region(grid, beta_t):
            writer.writerow(
                [repr(row[0]), repr(row[1]), repr(row[2]),
                 int(row[3]), int(row[4]), int(row[5]), int(row[6])]
            )
            count += 1
    return count
