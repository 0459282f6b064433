"""Gaussian coupling disorder: parameters, sampling, densities, and the
Nishimori change of variables and gauge transformation of couplings."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

# numpy.random loads with this module, not inside the first draw of a run
from numpy.random import default_rng

from .lattice import BondFamily
from .operators import AXES

Entry = tuple[float, float]  # (mean, std-dev)


@dataclass(frozen=True)
class CouplingParams:
    """Mean and standard deviation of every Gaussian coupling component.

    `entries[p][axis] = (mu, delta)`; unspecified components default to
    (0, 0), which means the component is absent from the model entirely.
    """

    entries: Mapping[int, Mapping[str, Entry]] = field(default_factory=dict)

    def __post_init__(self):
        for p, per_axis in self.entries.items():
            if p < 1:
                raise ValueError(f"p must be a positive integer, got {p}")
            for axis, (mu, delta) in per_axis.items():
                if axis not in AXES:
                    raise ValueError(f"unknown axis {axis!r} for p={p}")
                if delta < 0:
                    raise ValueError(f"delta must be >= 0, got {delta} at (p={p}, {axis})")
                _ = float(mu)

    @property
    def p_values(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    def mu(self, p: int, axis: str) -> float:
        return float(self.entries.get(p, {}).get(axis, (0.0, 0.0))[0])

    def delta(self, p: int, axis: str) -> float:
        return float(self.entries.get(p, {}).get(axis, (0.0, 0.0))[1])

    def is_active(self, p: int, axis: str) -> bool:
        """A component exists iff its mean or std-dev is nonzero."""
        return self.mu(p, axis) != 0.0 or self.delta(p, axis) != 0.0

    def require_even_mixed(self) -> None:
        """Validate the mixed even p-spin declaration: all p > 1 must be even."""
        odd = [p for p in self.p_values if p > 1 and p % 2 == 1]
        if odd:
            raise ValueError(f"mixed even p-spin model requires even p > 1, got {odd}")


@dataclass(frozen=True)
class DisorderSample:
    """One realization of all couplings, reproducible from (seed, sample_index).

    `couplings[p][axis]` is a float array parallel to `families[p].bonds`.
    """

    couplings: Mapping[int, Mapping[str, np.ndarray]]
    families: Mapping[int, BondFamily]
    seed: int
    sample_index: int

    def value(self, p: int, axis: str, bond_index: int) -> float:
        return float(self.couplings[p][axis][bond_index])


@dataclass(frozen=True)
class NishimoriData:
    """Per-p Nishimori inverse temperatures and rotated coupling variables.

    For each p, `k[p]` is the Nishimori-line coupling array (one entry per
    bond) and `g[p]` the orthogonal complement, or None when only one of the
    two transformed axes carries disorder (the rotation is one-dimensional).
    """

    axis: str
    betas: Mapping[int, float]
    k: Mapping[int, np.ndarray]
    g: Mapping[int, np.ndarray | None]


Term = tuple[int, str, int, tuple[int, ...]]  # (p, axis, bond index, bond)


def coupling_terms(families: Mapping[int, BondFamily]) -> list[Term]:
    """Every coupling component of a model in the one term order: p
    ascending, then axis, then bond. Coupling rows, the Hamiltonian builder
    and the disorder stream all follow it."""
    return [
        (p, axis, b, bond)
        for p in sorted(families)
        for axis in AXES
        for b, bond in enumerate(families[p].bonds)
    ]


def term_slices(families: Mapping[int, BondFamily]) -> dict[tuple[int, str], slice]:
    """The columns of each (p, axis) component in a coupling row, read off
    `coupling_terms`."""
    slices: dict[tuple[int, str], slice] = {}
    for t, (p, axis, _, _) in enumerate(coupling_terms(families)):
        first = slices.get((p, axis), slice(t, t)).start
        slices[(p, axis)] = slice(first, t + 1)
    return slices


def coupling_law(
    params: CouplingParams, families: Mapping[int, BondFamily]
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std-dev of every coupling, in term order."""
    terms = coupling_terms(families)
    return (
        np.array([params.mu(p, axis) for p, axis, _, _ in terms]),
        np.array([params.delta(p, axis) for p, axis, _, _ in terms]),
    )


def draw_row(mu: np.ndarray, delta: np.ndarray, seed: int, sample_index: int) -> np.ndarray:
    """One sample's couplings J = mu + delta z in term order, from one
    standard-normal row of the stream keyed by (seed, sample_index).

    Distinct sample indices can be drawn concurrently in any order with
    identical results. A zero std-dev yields the constant mean exactly.
    """
    rng = default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, int(sample_index)])
    return mu + delta * rng.standard_normal(len(mu))


def coupling_row(sample: DisorderSample) -> np.ndarray:
    """A sample's couplings as one row in term order."""
    keys = term_slices(sample.families)  # (p, axis) in term order
    return np.concatenate([sample.couplings[p][axis] for p, axis in keys], dtype=float)


def row_sample(
    row: np.ndarray, families: Mapping[int, BondFamily], seed: int, sample_index: int
) -> DisorderSample:
    """The sample whose coupling row (term order) is `row`; its coupling
    arrays are views of the row."""
    couplings: dict[int, dict[str, np.ndarray]] = {p: {} for p in families}
    for (p, axis), sl in term_slices(families).items():
        couplings[p][axis] = row[sl]
    return DisorderSample(
        couplings=couplings, families=dict(families), seed=seed, sample_index=sample_index
    )


def sample_disorder(
    params: CouplingParams,
    families: Mapping[int, BondFamily],
    seed: int,
    sample_index: int = 0,
) -> DisorderSample:
    """Draw all couplings J ~ N(mu, delta^2) independently: the one-sample
    case of `draw_row`, keyed by (seed, sample_index)."""
    row = draw_row(*coupling_law(params, families), seed, sample_index)
    return row_sample(row, families, seed, sample_index)


def gaussian_log_density(j: float, mu: float, delta: float) -> float:
    """Log of the Gaussian coupling density at value j."""
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return -0.5 * math.log(2.0 * math.pi) - math.log(delta) - 0.5 * ((j - mu) / delta) ** 2


def nishimori_beta(params: CouplingParams, p: int, u: str) -> float:
    """Nishimori inverse temperature for gauge axis u at interaction order p.

    Sums (mu/delta)^2 over the two transformed axes. Components that are
    absent (mu = delta = 0) contribute nothing; a point mass (delta = 0 with
    mu != 0) on a transformed axis is rejected because the gauge flip would
    change its distribution.
    """
    if u not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {u!r}")
    total = 0.0
    for axis in AXES:
        if axis == u:
            continue
        mu, delta = params.mu(p, axis), params.delta(p, axis)
        if delta == 0.0:
            if mu != 0.0:
                raise ValueError(
                    f"component (p={p}, axis={axis}) has delta = 0 with mu != 0; "
                    f"transformed axes for gauge axis {u} need delta > 0 or mu = delta = 0"
                )
            continue
        total += (mu / delta) ** 2
    return math.sqrt(total)


class NishimoriRotation:
    """The rotation of the two transformed coupling components of coupling
    rows into (K, G) variables for gauge axis u, with its per-model
    constants made once: each p's Nishimori beta (`betas`), and the
    coupling-row columns, mean and std-dev of its active transformed
    components. Calling it on (rows x terms) coupling rows gives, per p,
    (rows x bonds) arrays K and G.

    K has mean beta_p and unit variance; G is the orthogonal unit-variance
    complement, uncorrelated with K, or None when at most one transformed
    component is active. When beta_p = 0 (all transformed means vanish) the
    rotation is degenerate and the standardized couplings are returned
    directly, which preserves those moment contracts. The formula is
    elementwise, so each row's values do not depend on the other rows.
    """

    def __init__(self, params: CouplingParams, families: Mapping[int, BondFamily], u: str):
        if u not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {u!r}")
        slices = term_slices(families)
        self.betas = {p: nishimori_beta(params, p, u) for p in sorted(families)}
        self._components = {
            p: (
                len(families[p].bonds),
                [
                    (slices[(p, a)], params.mu(p, a), params.delta(p, a))
                    for a in AXES
                    if a != u and params.is_active(p, a)
                ],
            )
            for p in sorted(families)
        }

    def __call__(
        self, rows: np.ndarray
    ) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray | None]]:
        rows = np.asarray(rows)
        k: dict[int, np.ndarray] = {}
        g: dict[int, np.ndarray | None] = {}
        for p, (n_bonds, active) in self._components.items():
            beta = self.betas[p]
            g[p] = None
            if not active:
                k[p] = np.zeros((rows.shape[0], n_bonds))
            elif len(active) == 1:
                ((sl, mu, delta),) = active
                j = rows[:, sl]
                k[p] = (mu / delta**2) * j / beta if beta > 0.0 else j / delta
            else:
                (sv, mv, dv), (sw, mw, dw) = active
                jv, jw = rows[:, sv], rows[:, sw]
                if beta > 0.0:
                    k[p] = ((mv / dv**2) * jv + (mw / dw**2) * jw) / beta
                    g[p] = (mw * jv - mv * jw) / (beta * dv * dw)
                else:
                    k[p] = jv / dv
                    g[p] = jw / dw
        return k, g


def nishimori_transform(sample: DisorderSample, params: CouplingParams, u: str) -> NishimoriData:
    """The one-sample case of `NishimoriRotation`."""
    rotation = NishimoriRotation(params, sample.families, u)
    k, g = rotation(coupling_row(sample)[None])
    return NishimoriData(
        axis=u,
        betas=rotation.betas,
        k={p: rows[0] for p, rows in k.items()},
        g={p: None if rows is None else rows[0] for p, rows in g.items()},
    )


def bond_sign(tau: Sequence[int], bond: Sequence[int]) -> int:
    """Product of tau entries over a bond's sites (1 for the empty bond)."""
    sign = 1
    for i in bond:
        sign *= int(tau[i])
    return sign


def gauge_transform_couplings(sample: DisorderSample, tau: Sequence[int], u: str) -> DisorderSample:
    """Multiply every coupling on the two axes other than u by the bond sign.

    The u-axis couplings are untouched; applying the same tau twice restores
    the original sample.
    """
    if u not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {u!r}")
    tau = np.asarray(tau)
    if not np.all(np.abs(tau) == 1):
        raise ValueError("tau entries must be +1 or -1")
    couplings: dict[int, dict[str, np.ndarray]] = {}
    for p, family in sample.families.items():
        signs = np.array([bond_sign(tau, bond) for bond in family.bonds], dtype=float)
        per_axis = {}
        for axis in AXES:
            j = sample.couplings[p][axis]
            per_axis[axis] = j.copy() if axis == u else j * signs
        couplings[p] = per_axis
    return DisorderSample(
        couplings=couplings,
        families=sample.families,
        seed=sample.seed,
        sample_index=sample.sample_index,
    )


def dump_csv(sample: DisorderSample, path: str) -> None:
    """Write the sample as CSV rows (p, bond, axis, value) for audit."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "bond", "axis", "value"])
        for p in sorted(sample.families):
            for b, bond in enumerate(sample.families[p].bonds):
                for axis in AXES:
                    writer.writerow(
                        [p, "-".join(str(i) for i in bond), axis, repr(sample.value(p, axis, b))]
                    )
