"""Disorder-averaged certification: correlation identities that pair each
quantum expectation with its Nishimori-line classical counterpart computed
from the same coupling sample, plus the magnetization and susceptibility
bound chains and the finite-size diagnostics.

Every check is a block of per-sample columns. A `Plan` evaluates any set of
blocks in one disorder pass into a `ValueTable`, and each block reduces its
columns to its result. The pass runs over batches of consecutive samples: per
batch, one stack of coupling rows, one stacked Hamiltonian build, spectral
decomposition and thermal state, and one Nishimori transform and one
stacked Nishimori-line softmax. A model that conserves the P_z parity is
built and decomposed as two real parity blocks per sample, not one complex
matrix. Every check runs this way: a caller builds one plan of the blocks it
wants, evaluates it, and reads each block's result from the table."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Mapping, Protocol, Sequence

import numpy as np

from .classical_gibbs import BondProductTable
from .disorder import (
    CouplingParams,
    NishimoriRotation,
    coupling_law,
    draw_rows,
)
from .errors import CapacityError, UndersampledError
from .lattice import BondFamily, Lattice, generate_bonds, single_site_shape
from .operators import AXES, PauliString, Sectors, parity_sectors, whole_space
from .quantum_gibbs import (
    HamiltonianBuilder,
    SectorStack,
    ThermalState,
    duhamel_kernel,
    duhamel_matrix,
    free_energy_density,
    spectral_decompose,
    string_expectations,
    thermal_state,
)
from .tolerances import EXACT_TOL, Tolerances

#: Guard on the total tensor-grid size.
_MAX_QUAD_NODES = 10**8

#: Guard on the nodes of one grid dimension, checked before the rule is
#: built: numpy's `hermgauss` makes a dense n x n companion matrix, and its
#: rule breaks down past 370 nodes (numpy 2.4: at 371 every weight
#: underflows to 0, from 372 on they are NaN). An n-node rule is exact to
#: polynomial degree 2n - 1; the shipped quadrature config uses 16.
_MAX_NODES_PER_DIM = 256


@dataclass(frozen=True)
class ModelConfig:
    """A complete disordered model: geometry, couplings, and temperature."""

    lattice: Lattice
    families: Mapping[int, BondFamily]
    params: CouplingParams
    beta: float


@dataclass(frozen=True)
class MonteCarlo:
    """Paired Monte Carlo over disorder samples keyed by (seed, index)."""

    n_samples: int
    seed: int
    threads: int = 1


@dataclass(frozen=True)
class Quadrature:
    """Deterministic tensor-grid Gaussian quadrature over the disorder."""

    nodes_per_dim: int


Method = MonteCarlo | Quadrature


@dataclass(frozen=True)
class EstimatorResult:
    """A disorder-averaged quantity with its sampling uncertainty.

    std_error is zero exactly when the method is quadrature; z_score is
    mean/std_error and NaN when the error vanishes (and, for the order
    parameters, when every per-sample value is float dust).
    """

    mean: float
    std_error: float
    n_samples: int
    method: str
    z_score: float
    clip_count: int = 0
    clip_fraction: float = 0.0


@dataclass(frozen=True, eq=False)
class QuadratureSpec:
    """Tensor-grid layout over a coupling law (`coupling_law`: the mean and
    std-dev of every coupling, in term order). Each term column with a
    positive std-dev is one grid dimension, in term order, mapped as J = mu
    + delta * x over standardized Gaussian nodes x; the other columns stay
    at their means.
    """

    mu: np.ndarray
    delta: np.ndarray
    nodes_per_dim: int

    def __post_init__(self) -> None:
        if self.nodes_per_dim < 2:
            raise ValueError("need at least 2 quadrature nodes per dimension")
        if self.nodes_per_dim > _MAX_NODES_PER_DIM:
            raise CapacityError(
                f"{self.nodes_per_dim} quadrature nodes per dimension exceeds the guard "
                f"{_MAX_NODES_PER_DIM}"
            )
        if self.node_count > _MAX_QUAD_NODES:
            raise CapacityError(
                f"{self.node_count} quadrature nodes exceeds the guard {_MAX_QUAD_NODES}"
            )

    @classmethod
    def from_model(
        cls, families: Mapping[int, BondFamily], params: CouplingParams, nodes_per_dim: int
    ) -> "QuadratureSpec":
        return cls(*coupling_law(params, families), nodes_per_dim)

    @property
    def random_terms(self) -> np.ndarray:
        """The term columns integrated over, one grid dimension each."""
        return np.flatnonzero(self.delta > 0.0)

    @property
    def node_count(self) -> int:
        return self.nodes_per_dim ** len(self.random_terms)

    @functools.cached_property
    def rule(self) -> tuple[np.ndarray, np.ndarray]:
        """The standardized Gauss-Hermite nodes and their probabilities, built
        once for every row stack and for `probabilities`."""
        # imported here, so that only quadrature runs load numpy.polynomial
        from numpy.polynomial.hermite import hermgauss

        nodes, weights = hermgauss(self.nodes_per_dim)
        return math.sqrt(2.0) * nodes, weights / math.sqrt(math.pi)

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Coupling rows (term order) of grid nodes start..stop-1. Node k's
        grid index is k in base `nodes_per_dim`, the last random dimension
        fastest, as `itertools.product` orders it; random term t sits at
        mu[t] + delta[t] * (its standardized node)."""
        std_nodes, _ = self.rule
        nodes = np.arange(start, stop)
        rows = np.repeat(self.mu[None, :], len(nodes), axis=0)
        n_dims = len(self.random_terms)
        for d, t in enumerate(self.random_terms):
            digit = nodes // self.nodes_per_dim ** (n_dims - 1 - d) % self.nodes_per_dim
            rows[:, t] += self.delta[t] * std_nodes[digit]
        return rows

    def probabilities(self) -> np.ndarray:
        """Every node's probability: the product of its per-dimension
        weights, multiplied left to right as `math.prod` does."""
        _, node_probs = self.rule
        probs = np.ones(1)
        for _ in self.random_terms:
            probs = np.multiply.outer(probs, node_probs).ravel()
        return probs


def _check_identity_axes(w: str, u: str | None) -> None:
    if w not in AXES or u not in AXES:
        raise ValueError(f"axes must be among {AXES}, got w={w!r}, u={u!r}")
    if w == u:
        raise ValueError("the observable axis must differ from the gauge axis")


# ---------------------------------------------------------------------------
# Plans and value tables
# ---------------------------------------------------------------------------


#: Byte budget of a batch's largest stack: every stack of a plan holds
#: max(1, budget // item bytes) items (`Plan.stack_size`), and an item's
#: charge depends only on the kind of plan. A plan that reads the quantum
#: state charges a sample 64 dim^2 bytes, four complex dim x dim matrices
#: (the Hamiltonian, its eigenvectors, their conjugate transpose that both
#: spectral self-checks share, and the one self-check residual held at a
#: time): 32 samples at dim 16, 8 at dim 32, 2 at dim 64 and 1 from dim
#: 128 on; past about 16 at dim 16 a bigger batch saves no time and costs
#: peak memory. The susceptibility stacks N string matrices per sample for
#: the whole batch (under 1 MiB up to 6 sites; from 7 sites on the batch is
#: one sample). The a2 stencil charges each of its four field means four
#: copies of the batch's Hamiltonians in the plan's sectors: all four means
#: in one stack on parity blocks up to 6 sites, two at 7 and one from 8 on
#: or on the whole space. A plan that reads only the Nishimori line charges
#: a sample its 8 2^N bytes of float64 probabilities: 4 samples at 14 sites,
#: 16 at 12 and 64 at 10. On a 2-core Xeon (2 MiB L2 a core, one BLAS
#: thread) the 14-site a1 run took a median 0.205, 0.159, 0.132, 0.117 and
#: 0.189 s at B = 1, 2, 4, 8 and 16 (25 runs each, in process). At B = 16
#: the stack alone fills a core's L2; 512 KiB keeps a margin below that,
#: with half the peak memory of B = 8.
_BATCH_BYTES = 512 * 1024


class _Batch:
    """Consecutive disorder samples' shared quantities as stacked arrays, one
    row per sample, each made on first use: the Hamiltonians, their thermal
    states, the Duhamel kernels and string expectations on the quantum side;
    the Nishimori-line couplings, configuration probabilities, the plan's
    spin products and the pair matrices on the classical side. A block that
    never asks for the state costs no diagonalization. A block may stack
    more rows a sample of its own, as the a2 stencil stacks its field means,
    and labels them by the sample's index.

    Every stacked operation treats the rows independently, so a sample's
    values do not depend on the batch it falls in. The classical side makes
    one stacked softmax per batch; its spin products and pair matrices are
    reduced sample by sample, since their stacked forms change last bits."""

    def __init__(self, plan: "Plan", indices: range, rows: np.ndarray):
        self.plan = plan
        self.indices = indices
        self.rows = rows
        self._expectations: dict[PauliString, np.ndarray] = {}

    @contextlib.contextmanager
    def guard(self, stage: str) -> Iterator[None]:
        """Run a stage of the batch with overflow, invalid values and division
        by zero raised, and re-raise them, and the stage's failed spectral
        self-checks, as an ArithmeticError naming the stage and the batch's
        first sample; underflow stays silent. A stage makes the stages it
        reads before it enters its own guard. numpy's error state is per
        thread, so it is entered where the work runs, in each `--threads`
        worker too."""
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                yield
        except ArithmeticError as exc:
            raise ArithmeticError(
                f"{stage} of the batch from sample {self.indices[0]}: {exc}"
            ) from exc

    @functools.cached_property
    def hamiltonians(self) -> SectorStack:
        with self.guard("Hamiltonian build"):
            return self.plan.builder.build_rows(self.rows, self.plan.sectors)

    @functools.cached_property
    def state(self) -> ThermalState:
        hamiltonians = self.hamiltonians
        with self.guard("thermal state"):
            spectrum = spectral_decompose(hamiltonians, self.indices)
            return thermal_state(spectrum, self.plan.config.beta)

    @functools.cached_property
    def duhamel_kernel(self) -> np.ndarray:
        state = self.state
        with self.guard("Duhamel kernel"):
            return duhamel_kernel(state)

    def expectations(self, ops: Sequence[PauliString]) -> np.ndarray:
        """(samples, len(ops)) thermal expectations, each string made once."""
        missing = [op for op in dict.fromkeys(ops) if op not in self._expectations]
        if missing:
            values = string_expectations(self.state, missing)
            for j, op in enumerate(missing):
                self._expectations[op] = values[:, j]
        return np.stack([self._expectations[op] for op in ops], axis=1)

    @functools.cached_property
    def probabilities(self) -> np.ndarray:
        """(samples, 2^N) Nishimori-line configuration probabilities: one
        stacked softmax per batch, shared by the spin products and the pair
        matrix."""
        plan = self.plan
        k = plan.nishimori(self.rows)
        with self.guard("Nishimori-line softmax"):
            prob = plan.classical_table.probabilities(k, plan.nishimori.betas)
        # a model without couplings has one uniform row for every sample
        return np.broadcast_to(prob, (len(self.rows), prob.shape[1]))

    @functools.cached_property
    def products(self) -> np.ndarray:
        """<tau_S>_N for every site set the plan registered, in order."""
        table, site_sets = self.plan.classical_table, self.plan.site_sets
        return np.array([table.expectations_from(prob, site_sets) for prob in self.probabilities])

    @functools.cached_property
    def pair_matrix(self) -> np.ndarray:
        table = self.plan.classical_table
        return np.array([table.pair_matrix_from(prob) for prob in self.probabilities])


Evaluator = Callable[[_Batch], np.ndarray]


class Block(Protocol):
    """A named group of per-sample columns.

    `bind` validates the block against a plan, registers the Pauli strings,
    spin products and stacked matrices it needs, and returns its column
    count and its evaluator, which maps a batch of samples to a (samples,
    columns) array. Blocks are frozen dataclasses, so equal blocks share one
    set of columns. A block whose operators break the P_z parity sets
    `keeps_parity` to False, and its plan then runs on the whole space. A
    block that reads only the Nishimori line sets `reads_state` to False.
    """

    def bind(self, plan: "Plan") -> tuple[int, Evaluator]: ...


class Plan:
    """A run's blocks over one model, evaluated in one disorder pass.

    Construction binds every block in order, before any sample is drawn,
    so a run's input errors surface in the order its checks are listed.
    `u` is the gauge axis; blocks with a classical side need it. The
    quantum builder is made on first use, so classical-only plans never
    make it. Samples are evaluated in batches of `batch_size` consecutive
    indices; threads split batches, not samples.

    `reads_state` is decided here from the blocks, as `conserves_parity`
    is: a block reads the quantum state unless it sets `reads_state` to
    False, as `PairMatrixBlock` does, and an empty plan reads none. Every
    batch size comes from `stack_size`, with a sample charged as
    `_BATCH_BYTES` says. A plan that reads the state makes its `sectors`
    here, so a lattice over the quantum cap fails before any draw; one that
    does not never builds a Hamiltonian and has no sectors.

    `conserves_parity` is decided here from the couplings' declaration and
    the blocks, never from drawn values: an active component whose terms
    flip an odd number of spins (x or y on an odd site set) breaks the P_z
    parity, and so does a block with `keeps_parity` False. Without either,
    the quantum side runs on the two real parity sectors.
    """

    def __init__(self, config: ModelConfig, blocks: Sequence[Block], u: str | None = None):
        self.config = config
        self.u = u
        self.n_sites = config.lattice.n_sites
        self.classical_table: BondProductTable | None = None
        self.nishimori: NishimoriRotation | None = None
        self.site_sets: list[tuple[int, ...]] = []
        self._set_index: dict[tuple[int, ...], int] = {}
        self._strings: dict[tuple[tuple[int, ...], str], PauliString] = {}
        self.blocks: tuple[Block, ...] = tuple(dict.fromkeys(blocks))
        self.conserves_parity = all(
            getattr(block, "keeps_parity", True) for block in self.blocks
        ) and not any(
            config.params.is_active(p, axis) and any(len(set(bond)) % 2 for bond in family.bonds)
            for p, family in config.families.items()
            for axis in ("x", "y")
        )
        self.reads_state = any(getattr(block, "reads_state", True) for block in self.blocks)
        self.sectors: Sectors | None = None
        if self.reads_state:
            self.sectors = (parity_sectors if self.conserves_parity else whole_space)(self.n_sites)
            self.batch_size = self.stack_size(64 * 4**self.n_sites)
        else:
            self.batch_size = self.stack_size(8 * 2**self.n_sites)
        bound = [block.bind(self) for block in self.blocks]
        self.widths = tuple(width for width, _ in bound)
        self._evaluators = tuple(evaluate for _, evaluate in bound)

    @functools.cached_property
    def builder(self) -> HamiltonianBuilder:
        return HamiltonianBuilder(self.config.lattice, self.config.families)

    @staticmethod
    def stack_size(item_bytes: int) -> int:
        """How many items of `item_bytes` one stack holds: the budget's
        share, at least one."""
        return max(1, _BATCH_BYTES // item_bytes)

    def _check_sites(self, sites: tuple[int, ...]) -> None:
        if not set(sites) <= set(range(self.n_sites)):
            raise ValueError(f"sites {list(sites)} out of range for {self.n_sites} sites")

    def string(self, sites: tuple[int, ...], axis: str) -> PauliString:
        """The plan's one PauliString for (sites, axis)."""
        key = (sites, axis)
        if key not in self._strings:
            self._check_sites(sites)
            self._strings[key] = PauliString(self.n_sites, sites, axis)
        return self._strings[key]

    def require_classical(self) -> None:
        """Validate the gauge axis and make the Nishimori rotation, whose
        betas and coupling columns every batch reuses, and the Nishimori-line
        enumerator."""
        if self.classical_table is None:
            if self.u is None:
                raise ValueError("a block with a classical side needs a gauge axis")
            self.nishimori = NishimoriRotation(self.config.params, self.config.families, self.u)
            self.classical_table = BondProductTable(self.n_sites, self.config.families)

    def products(self, site_sets: Sequence[tuple[int, ...]]) -> list[int]:
        """Register spin products <tau_S>_N; their columns in `_Batch.products`."""
        self.require_classical()
        for s in site_sets:
            if s not in self._set_index:
                self._check_sites(s)
                self._set_index[s] = len(self.site_sets)
                self.site_sets.append(s)
        return [self._set_index[s] for s in site_sets]

    @functools.cached_property
    def law(self) -> tuple[np.ndarray, np.ndarray]:
        """The coupling law both row sources read: `coupling_law`."""
        return coupling_law(self.config.params, self.config.families)

    def _columns(
        self, rows: Callable[[int, int], np.ndarray], start: int, stop: int, threads: int = 1
    ) -> list[np.ndarray]:
        """Evaluate sample indices start..stop-1 batch by batch, where
        `rows(first, last)` gives the coupling rows of samples first..last-1:
        a Monte Carlo draw or a quadrature grid. The rows are read in the
        calling thread one stack at a time, the most whole batches whose rows
        `stack_size` holds (a row charged 8 bytes a term, at least 8), at
        least one batch; a stack's batches are then evaluated in turn or by
        `threads` workers. A plan that reads no quantum state runs on the
        calling thread: two workers slowed the 14-site a1 run to 0.73x."""
        columns = [np.empty((stop - start, width)) for width in self.widths]

        def work(batch: _Batch) -> None:
            at = slice(batch.indices.start - start, batch.indices.stop - start)
            for column, values in zip(columns, self._evaluators):
                column[at] = values(batch)

        size = self.batch_size
        span = size * max(1, self.stack_size(8 * max(len(self.law[0]), 1)) // size)
        workers = min(threads if self.reads_state else 1, -(-(stop - start) // size))
        pool = None
        if workers > 1:
            # imported here, so that a run on one thread loads no thread pool
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(workers)
        with pool or contextlib.nullcontext():
            for first in range(start, stop, span):
                last = min(first + span, stop)
                stack = rows(first, last)
                # made as they are taken, so a finished batch's state is freed
                batches = (
                    _Batch(self, range(b, min(b + size, last)), stack[b - first : b - first + size])
                    for b in range(first, last, size)
                )
                for _ in (pool.map if pool else map)(work, batches):
                    pass
        return columns

    def evaluate(self, method: Method) -> "ValueTable":
        if isinstance(method, MonteCarlo):
            rows = functools.partial(draw_rows, *self.law, method.seed)
            columns = self._columns(rows, 0, method.n_samples, method.threads)
            return ValueTable(self, method, columns, None)
        spec = QuadratureSpec(*self.law, method.nodes_per_dim)
        probs = spec.probabilities()
        return ValueTable(self, method, self._columns(spec.rows, 0, len(probs)), probs)


class ValueTable:
    """Per-sample values of a plan's blocks, one C-contiguous array per block.

    Monte Carlo row k holds sample (seed, k); a quadrature table holds the
    whole grid, with the node probabilities in `probs` (None for Monte
    Carlo).
    """

    def __init__(
        self, plan: Plan, method: Method, columns: list[np.ndarray], probs: np.ndarray | None
    ):
        self.plan = plan
        self.method = method
        self.probs = probs
        self.n_samples = method.n_samples if probs is None else len(probs)
        self._columns = dict(zip(plan.blocks, columns))

    @property
    def is_mc(self) -> bool:
        return self.probs is None

    @property
    def method_name(self) -> str:
        return "mc" if self.is_mc else "quadrature"

    @property
    def seed(self) -> int | None:
        """The Monte Carlo seed; a quadrature table has none."""
        return self.method.seed if self.is_mc else None

    def values(self, block: Block) -> np.ndarray:
        try:
            return self._columns[block]
        except KeyError:
            raise ValueError(f"{block} is not in this table's plan") from None

    def mean(self, values: np.ndarray) -> np.ndarray:
        """The disorder average of per-sample rows."""
        return values.mean(axis=0) if self.is_mc else self.probs @ values

    def se(self, values: np.ndarray) -> np.ndarray:
        """The standard error of each column's mean: std(ddof=1) / sqrt(n)
        for Monte Carlo (0 when n < 2); a quadrature mean has none. Values
        whose squared spread overflows, as log Z / N does near beta 1e300,
        raise an ArithmeticError rather than report an infinite error."""
        n = values.shape[0]
        if not self.is_mc or n < 2:
            return np.zeros(values.shape[1:])
        try:
            with np.errstate(over="raise"):
                return values.std(axis=0, ddof=1) / math.sqrt(n)
        except FloatingPointError as exc:
            raise ArithmeticError(f"the standard error of a disorder mean overflows: {exc}") from exc

    def jackknife_se(self, values: np.ndarray, statistic: Callable[[np.ndarray], float]) -> float:
        """The leave-one-out standard error of a statistic of the column
        means; 0 for quadrature."""
        n = values.shape[0]
        if not self.is_mc or n < 2:
            return 0.0
        loo = (values.sum(axis=0)[None, :] - values) / (n - 1)
        vals = np.array([statistic(loo[k]) for k in range(n)])
        return float(math.sqrt((n - 1) / n * np.sum((vals - vals.mean()) ** 2)))

    def tolerance(self, se: float | np.ndarray, tol: Tolerances, quadrature: float) -> np.ndarray:
        """The acceptance bound of a statistic with standard error `se`:
        max(z_max se, EXACT_TOL) for Monte Carlo, `quadrature` on a grid."""
        if self.is_mc:
            return np.maximum(tol.z_max * se, EXACT_TOL)
        return np.full(np.shape(se), quadrature)

    def estimate(
        self, mean: float, se: float, zero_se: float = math.nan, **clips: float
    ) -> EstimatorResult:
        """The result of a disorder mean with standard error `se`: z = mean /
        se, and where se is 0, `zero_se` for Monte Carlo and NaN for
        quadrature."""
        z = mean / se if se > 0 else (zero_se if self.is_mc else math.nan)
        return EstimatorResult(
            mean=float(mean), std_error=float(se), n_samples=self.n_samples,
            method=self.method_name, z_score=float(z), **clips,
        )

    def extend(self, n_samples: int) -> "ValueTable":
        """The same plan at n_samples Monte Carlo rows. Rows 0..n-1 are this
        table's; only the new sample indices are drawn and evaluated."""
        if not self.is_mc:
            raise ValueError("only Monte Carlo tables can be extended")
        if n_samples < self.n_samples:
            raise ValueError(f"cannot shrink {self.n_samples} rows to {n_samples}")
        rows = functools.partial(draw_rows, *self.plan.law, self.method.seed)
        new = self.plan._columns(rows, self.n_samples, n_samples, self.method.threads)
        columns = [
            np.concatenate([self._columns[block], added])
            for block, added in zip(self.plan.blocks, new)
        ]
        method = dataclasses.replace(self.method, n_samples=n_samples)
        return ValueTable(self.plan, method, columns, None)


# ---------------------------------------------------------------------------
# Correlation identities
# ---------------------------------------------------------------------------


class _IdentityBlock:
    """Gauge-identity residual columns, one per report name in `names`.

    Every identity pairs a product Q of quantum expectations of w strings
    with the Nishimori-line product over D, the symmetric difference of the
    block's site sets (its `*_sites` fields, in field order):
    E[Q] = E[Q <tau_D>_N]. Binding checks the axes and registers the product
    over D and the strings of the site sets and of D, in that order; a
    block's `factors(batch, strings)` gives its Q columns, and each residual
    is Q (1 - <tau_D>_N). `result` gives one EstimatorResult a residual."""

    names: ClassVar[tuple[str, ...]]

    def __post_init__(self) -> None:
        for name in self._site_fields():
            object.__setattr__(self, name, tuple(sorted({int(i) for i in getattr(self, name)})))

    def _site_fields(self) -> list[str]:
        return [f.name for f in dataclasses.fields(self) if f.name.endswith("_sites")]

    def bind(self, plan: Plan) -> tuple[int, Evaluator]:
        _check_identity_axes(self.w, plan.u)
        sets = [getattr(self, name) for name in self._site_fields()]
        diff = tuple(sorted(functools.reduce(set.symmetric_difference, map(set, sets))))
        (c,) = plan.products([diff])
        ops = [plan.string(s, self.w) for s in (*sets, diff)]

        def evaluate(s: _Batch) -> np.ndarray:
            return self.factors(s, ops) * (1.0 - s.products[:, c])[:, None]

        return len(self.names), evaluate

    def result(self, table: ValueTable) -> tuple[EstimatorResult, ...]:
        """A Monte Carlo residual with no spread has z 0 when its mean is 0
        and infinite otherwise."""
        values = table.values(self)
        return tuple(
            table.estimate(mean, se, 0.0 if mean == 0.0 else math.inf)
            for mean, se in zip(table.mean(values), table.se(values))
        )


@dataclass(frozen=True)
class OnePointBlock(_IdentityBlock):
    """Residual of E<sigma_X^w> = E[<sigma_X^w> <tau_X>_N], paired per sample."""

    x_sites: tuple[int, ...]
    w: str
    names = ("one-point identity",)

    def factors(self, s: _Batch, ops: list[PauliString]) -> np.ndarray:
        return s.expectations(ops[:1])


@dataclass(frozen=True)
class TwoPointBlock(_IdentityBlock):
    """Residuals of the product-of-expectations and joint-expectation
    two-point identities. sigma_X^w sigma_Y^w is exactly the string on the
    symmetric difference, so the joint form reads that string."""

    x_sites: tuple[int, ...]
    y_sites: tuple[int, ...]
    w: str
    names = ("two-point identity (product form)", "two-point identity (joint form)")

    def factors(self, s: _Batch, ops: list[PauliString]) -> np.ndarray:
        qx, qy, qxy = s.expectations(ops).T
        return np.stack([qx * qy, qxy], axis=1)


@dataclass(frozen=True)
class DuhamelBlock(_IdentityBlock):
    """Residuals of the Duhamel and truncated-Duhamel identities."""

    x_sites: tuple[int, ...]
    y_sites: tuple[int, ...]
    w: str
    names = ("Duhamel identity", "truncated Duhamel identity")

    def factors(self, s: _Batch, ops: list[PauliString]) -> np.ndarray:
        op_x, op_y, _ = ops
        dval = duhamel_matrix(s.state, s.duhamel_kernel, [op_x], [op_y])[:, 0, 0]
        qx, qy = s.expectations([op_x, op_y]).T
        return np.stack([dval, dval - qx * qy], axis=1)


@dataclass(frozen=True)
class ThreePointBlock(_IdentityBlock):
    """One representative extension to three factors:
    E prod <sigma>  =  E prod <sigma> <tau_X tau_Y tau_Z>_N.

    Opt-in; the default verification suites do not run it."""

    x_sites: tuple[int, ...]
    y_sites: tuple[int, ...]
    z_sites: tuple[int, ...]
    w: str
    names = ("three-point identity (extension)",)

    def factors(self, s: _Batch, ops: list[PauliString]) -> np.ndarray:
        q1, q2, q3 = s.expectations(ops[:3]).T
        return (q1 * q2 * q3)[:, None]


# ---------------------------------------------------------------------------
# Bound chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    """One link of an inequality chain: lhs <= rhs within tolerance, or an
    identity asserted as |lhs - rhs| <= tolerance."""

    name: str
    kind: str  # "inequality" | "identity"
    lhs: float
    rhs: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class BoundCheckReport:
    name: str
    lhs: float
    rhs: float
    steps: tuple[ChainStep, ...]
    n_samples: int
    method: str
    clip_count: int
    clip_fraction: float
    passed: bool


def _link(name: str, kind: str, lhs: float, rhs: float, tol: float) -> ChainStep:
    """A chain link's verdict; none is made on a number that is not finite."""
    lhs, rhs, tol = float(lhs), float(rhs), float(tol)
    if not all(math.isfinite(x) for x in (lhs, rhs, tol)):
        raise ArithmeticError(f"{name}: lhs {lhs}, rhs {rhs} or tolerance {tol} is not finite")
    passed = lhs <= rhs + tol if kind == "inequality" else abs(lhs - rhs) <= tol
    return ChainStep(name=name, kind=kind, lhs=lhs, rhs=rhs, tolerance=tol, passed=passed)


def _inequality(name: str, lhs: float, rhs: float, tol: float) -> ChainStep:
    return _link(name, "inequality", lhs, rhs, tol)


def _identity_step(name: str, lhs: float, rhs: float, tol: float) -> ChainStep:
    return _link(name, "identity", lhs, rhs, tol)


def _worst_identity(name: str, lhs: np.ndarray, rhs: np.ndarray, tol: np.ndarray) -> ChainStep:
    """The identity link of the entry that misses by the most tolerances."""
    worst = int(np.argmax(np.abs(lhs - rhs) / tol))
    return _identity_step(name, lhs[worst], rhs[worst], tol[worst])


def _nishimori_identity(
    table: ValueTable, cs: np.ndarray, tol: Tolerances, entry: str
) -> ChainStep:
    """The classical Nishimori identity E[<tau>_N^2] = E<tau>_N at the worst
    `entry` (site or pair) of the per-sample columns `cs`."""
    nid_tol = table.tolerance(table.se(cs * cs - cs), tol, tol.quadrature_abs)
    return _worst_identity(
        f"classical Nishimori identity (worst {entry})",
        table.mean(cs * cs), table.mean(cs), nid_tol,
    )


def _clipped(values: np.ndarray, tol: Tolerances, what: str) -> tuple[np.ndarray, int, float]:
    """Square-root arguments clipped at zero, with the clip count and
    fraction. Only genuine Monte Carlo negatives count: exact-zero float dust
    is not an undersampling signal. Past `clip_fraction_max` the check is
    undersampled."""
    if not np.all(np.isfinite(values)):
        raise ArithmeticError(f"{what}: square-root arguments are not finite")
    clipped = int(np.count_nonzero(values < -EXACT_TOL))
    fraction = clipped / values.size
    if fraction > tol.clip_fraction_max:
        raise UndersampledError(
            f"{what}: {clipped}/{values.size} square-root arguments clipped at zero "
            f"(fraction {fraction:.3f} > {tol.clip_fraction_max}); increase the sample count"
        )
    return np.maximum(values, 0.0), clipped, fraction


def _chain_report(
    name: str, table: ValueTable, steps: list[ChainStep], clip_count: int, clip_fraction: float
) -> BoundCheckReport:
    """A chain's report; its last link is the bound it certifies."""
    return BoundCheckReport(
        name=name, lhs=steps[-1].lhs, rhs=steps[-1].rhs, steps=tuple(steps),
        n_samples=table.n_samples, method=table.method_name,
        clip_count=clip_count, clip_fraction=clip_fraction,
        passed=all(s.passed for s in steps),
    )


def _single_sites(n: int) -> list[tuple[int, ...]]:
    return [(i,) for i in range(n)]


@dataclass(frozen=True)
class MagnetizationBlock:
    """Per sample, <sigma_i^w> for every site (N columns) and then
    <tau_i>_N (N columns): the magnetization bound chain."""

    w: str

    def bind(self, plan: Plan) -> tuple[int, Evaluator]:
        _check_identity_axes(self.w, plan.u)
        singles = _single_sites(plan.n_sites)
        cols = plan.products(singles)
        ops = [plan.string(s, self.w) for s in singles]

        def evaluate(s: _Batch) -> np.ndarray:
            return np.concatenate([s.expectations(ops), s.products[:, cols]], axis=1)

        return 2 * plan.n_sites, evaluate

    def result(self, table: ValueTable, tol: Tolerances) -> BoundCheckReport:
        """Certify the magnetization bound chain:

        E<o^w>  <=  (1/N) sum_i sqrt(E<tau_i>_N)  <=  sqrt((1/N) sum_i E<tau_i>_N),

        asserting each intermediate link (one-point identity, triangle
        inequality, |<sigma>| <= 1, the empirical Cauchy-Schwarz step, and the
        classical Nishimori identity) with matched disorder samples throughout.
        """
        n = table.plan.n_sites
        values = table.values(self)
        qs, cs = values[:, :n], values[:, n:]
        mean = table.mean

        eq = mean(qs)
        eqc = mean(qs * cs)
        eabs_qc = mean(np.abs(qs * cs))
        eabs_c = mean(np.abs(cs))
        ec_pos, clipped, clip_fraction = _clipped(mean(cs), tol, "magnetization bound")

        id_tol = table.tolerance(table.se(qs - qs * cs), tol, tol.quadrature_abs)
        lhs = float(np.mean(eq))
        rhs = math.sqrt(float(np.mean(ec_pos)))
        se_lhs = float(table.se(qs.mean(axis=1, keepdims=True))[0])
        se_arg = float(table.se(cs.mean(axis=1, keepdims=True))[0])
        se_rhs = se_arg / (2.0 * rhs) if rhs > 0 else 0.0
        bound_tol = table.tolerance(math.hypot(se_lhs, se_rhs), tol, tol.quadrature_abs)
        steps = [
            _worst_identity("one-point identity (worst site)", eq, eqc, id_tol),
            _inequality(
                "triangle inequality", float(np.mean(np.abs(eqc))),
                float(np.mean(eabs_qc)), EXACT_TOL,
            ),
            _inequality(
                "thermal average bounded by one", float(np.mean(eabs_qc)),
                float(np.mean(eabs_c)), EXACT_TOL,
            ),
            _inequality(
                "Cauchy-Schwarz over samples", float(np.mean(eabs_c)),
                float(np.mean(np.sqrt(np.maximum(mean(cs * cs), 0.0)))), EXACT_TOL,
            ),
            _nishimori_identity(table, cs, tol, "site"),
            _inequality(
                "site-average concavity", float(np.mean(np.sqrt(ec_pos))), rhs, EXACT_TOL
            ),
            _inequality("magnetization bound", lhs, rhs, bound_tol),
        ]
        return _chain_report(
            f"magnetization bound (w={self.w}, u={table.plan.u})", table, steps,
            clipped, clip_fraction,
        )


@dataclass(frozen=True)
class PairMatrixBlock:
    """The Nishimori-line pair matrix <tau_i tau_j>_N per sample (N^2
    columns), shared by the correlation sum and the correlation export. It
    reads no quantum state."""

    reads_state = False

    def bind(self, plan: Plan) -> tuple[int, Evaluator]:
        plan.require_classical()
        return plan.n_sites**2, lambda s: s.pair_matrix.reshape(len(s.rows), -1)

    def result(self, table: ValueTable) -> np.ndarray:
        """Disorder-averaged pair correlation matrix E<tau_i tau_j>."""
        n = table.plan.n_sites
        return table.mean(table.values(self)).reshape(n, n)

    def correlation_sum(self, table: ValueTable, tol: Tolerances) -> EstimatorResult:
        """The diagnostic a1 = (1/N) sum_ij sqrt(E<tau_i tau_j>_N); reported,
        not asserted.

        Negative Monte Carlo estimates under the square root are clipped at
        zero and counted; exceeding the clip budget raises UndersampledError.
        """
        n = table.plan.n_sites
        values = table.values(self)
        ec_pos, clipped, fraction = _clipped(table.mean(values), tol, "correlation sum")
        total = float(np.sqrt(ec_pos).sum()) / n
        se = table.jackknife_se(values, lambda m: float(np.sqrt(np.maximum(m, 0.0)).sum()) / n)
        return table.estimate(total, se, clip_count=clipped, clip_fraction=fraction)


@dataclass(frozen=True)
class SusceptibilityBlock:
    """Per sample, the truncated Duhamel matrix (sigma_i^w ; sigma_j^v) (N^2
    columns) and then the Nishimori-line pair matrix <tau_i tau_j>_N (N^2
    columns, the batch's cached one): the susceptibility bound chain."""

    v: str
    w: str

    def bind(self, plan: Plan) -> tuple[int, Evaluator]:
        v, w = self.v, self.w
        for axis in (v, w):
            _check_identity_axes(axis, plan.u)
        params = plan.config.params
        params.require_even_mixed()
        if any(params.is_active(1, a) for a in AXES):
            raise ValueError("susceptibility bound requires zero single-site couplings")
        plan.require_classical()
        n = plan.n_sites
        ops_w = [plan.string(s, w) for s in _single_sites(n)]
        ops_v = ops_w if v == w else [plan.string(s, v) for s in _single_sites(n)]

        def evaluate(s: _Batch) -> np.ndarray:
            duh = duhamel_matrix(s.state, s.duhamel_kernel, ops_w, ops_v)
            qw, qv = s.expectations(ops_w), s.expectations(ops_v)
            truncated = (duh - qw[:, :, None] * qv[:, None, :]).reshape(-1, n * n)
            return np.concatenate([truncated, s.pair_matrix.reshape(len(s.rows), -1)], axis=1)

        return 2 * n * n, evaluate

    def result(self, table: ValueTable, tol: Tolerances) -> BoundCheckReport:
        """Certify the susceptibility bound chain at zero symmetry-breaking
        field:

        (beta/N) |sum_ij E(sigma_i^w ; sigma_j^v)|
            <= (2 beta/N) sum_ij sqrt(E<tau_i tau_j>_N),

        including the deterministic per-pair |(sigma;sigma)| <= 2 step. The
        block binds only to a mixed even p-spin configuration (no single-site
        couplings) and a gauge axis distinct from both observable axes.
        """
        n = table.plan.n_sites
        beta = table.plan.config.beta
        values = table.values(self)
        ts, cs = values[:, : n * n], values[:, n * n :]
        mean = table.mean

        et = mean(ts)
        etc = mean(ts * cs)
        scale = beta / n
        id_se = float(table.se((ts - ts * cs).sum(axis=1, keepdims=True))[0])
        id_tol = table.tolerance(id_se, tol, tol.quadrature_abs * n * n)
        ec_pos, clipped, clip_fraction = _clipped(mean(cs), tol, "susceptibility bound")
        chi = scale * abs(float(et.sum()))
        bound = 2.0 * scale * float(np.sqrt(ec_pos).sum())
        se_chi = scale * float(table.se(ts.sum(axis=1, keepdims=True))[0])
        bound_stat = lambda m: 2.0 * scale * float(np.sqrt(np.maximum(m, 0.0)).sum())
        se_bound = table.jackknife_se(cs, bound_stat)
        bound_tol = table.tolerance(math.hypot(se_chi, se_bound), tol, tol.quadrature_abs)
        steps = [
            _inequality("per-pair Duhamel magnitude", float(np.max(np.abs(ts))), 2.0, EXACT_TOL),
            _identity_step(
                "truncated-Duhamel identity (summed)",
                scale * float(et.sum()), scale * float(etc.sum()), scale * id_tol,
            ),
            _inequality(
                "triangle inequality", scale * abs(float(etc.sum())),
                scale * float(mean(np.abs(ts * cs)).sum()), EXACT_TOL,
            ),
            _inequality(
                "Duhamel magnitude bound", scale * float(mean(np.abs(ts * cs)).sum()),
                2.0 * scale * float(mean(np.abs(cs)).sum()), EXACT_TOL,
            ),
            _inequality(
                "Cauchy-Schwarz over samples", 2.0 * scale * float(mean(np.abs(cs)).sum()),
                2.0 * scale * float(np.sqrt(np.maximum(mean(cs * cs), 0.0)).sum()), EXACT_TOL,
            ),
            _nishimori_identity(table, cs, tol, "pair"),
            _inequality("susceptibility bound", chi, bound, bound_tol),
        ]
        return _chain_report(
            f"susceptibility bound (v={self.v}, w={self.w}, u={table.plan.u})", table, steps,
            clipped, clip_fraction,
        )


@dataclass(frozen=True)
class FieldStencilBlock:
    """Third and second central differences of the magnetization in the
    symmetry-breaking field mean, at zero field, with common disorder (2
    columns). The zero-field point is the sample's own state, so the
    shifted Hamiltonians use the plan's sectors: a z field keeps the P_z
    parity, and an x or y field breaks it and keeps its plan on the whole
    space. The four shifted means of a batch go through one stacked
    decomposition, thermal state and string expectation when the batch
    byte budget holds them (`Plan.stack_size`), else through two or four,
    as the plan decides when it binds the block."""

    v: str
    w: str
    h: float

    @property
    def keeps_parity(self) -> bool:
        return self.v == "z"

    def bind(self, plan: Plan) -> tuple[int, Evaluator]:
        h = self.h
        # the stencil divides by h**3 and h**2; a subnormal or overflowing
        # power would turn the differences into inf or NaN
        try:
            normal = h > 0 and all(sys.float_info.min <= float(h) ** k < math.inf for k in (2, 3))
        except OverflowError:
            normal = False
        if not normal:
            raise ValueError(f"a2_step h must be > 0 with h**2 and h**3 normal floats, got {h}")
        params = plan.config.params
        params.require_even_mixed()
        if any(params.is_active(1, a) for a in AXES):
            raise ValueError("nonlinear susceptibility probe requires zero base field")
        n = plan.n_sites
        sectors = plan.sectors
        # the field F = -sum_i sigma_i^v in the plan's sectors; its entries
        # are sums of +-1 and +-i, exact, so H + mean F rounds only where F
        # is nonzero
        lattice = plan.config.lattice
        singles = {1: generate_bonds(lattice, single_site_shape(lattice.d), "open")}
        builder = HamiltonianBuilder(lattice, singles)
        row = np.array([[float(axis == self.v) for _, axis, _, _ in builder.terms]])
        field = builder.build_rows(row, sectors).blocks
        order = [plan.string(s, self.w) for s in _single_sites(n)]
        beta = plan.config.beta
        # the four nonzero field means; the zero-field point is the base state
        mus = np.array([-2 * h, -h, h, 2 * h], dtype=float)
        # a mean costs four copies of the batch's Hamiltonians, each the
        # size of one field
        per_stack = plan.stack_size(4 * plan.batch_size * field.nbytes)

        def evaluate(s: _Batch) -> np.ndarray:
            base = s.hamiltonians.blocks
            m = []
            for first in range(0, len(mus), per_stack):
                means = mus[first : first + per_stack]
                # row k B + b is sample b at means[k]
                labels = list(s.indices) * len(means)
                with s.guard("field-shifted thermal state"):
                    shifted = base + means[:, None, None, None, None] * field
                    stack = SectorStack(shifted.reshape((-1,) + base.shape[1:]), sectors)
                    state = thermal_state(spectral_decompose(stack, labels), beta)
                values = np.sum(string_expectations(state, order), axis=-1) / n
                m.extend(values.reshape(len(means), -1))
            m_minus2, m_minus1, m_plus1, m_plus2 = m
            m_zero = np.sum(s.expectations(order), axis=-1) / n
            third = (m_plus2 - 2 * m_plus1 + 2 * m_minus1 - m_minus2) / (2 * h**3)
            second = (m_plus1 - 2 * m_zero + m_minus1) / h**2
            return np.stack([third, second], axis=1)

        return 2, evaluate

    def result(self, table: ValueTable) -> tuple[float, float]:
        """Disorder means of (third difference, second difference). The
        third is the finite-size nonlinear susceptibility probe a2. The second
        vanishes at a flip-symmetric point; `tolerances.flip_symmetric` of it
        is the probe's verdict, which a configuration without the required
        flip symmetry fails."""
        means = table.mean(table.values(self))
        return float(means[0]), float(means[1])


@dataclass(frozen=True)
class SiteExpectationsBlock:
    """<sigma_i^a> for every axis a and site i, axis-major (3N columns):
    the finite-size order parameters."""

    def bind(self, plan: Plan) -> tuple[int, Evaluator]:
        ops = [plan.string(s, a) for a in AXES for s in _single_sites(plan.n_sites)]
        return len(ops), lambda s: s.expectations(ops)

    def result(self, table: ValueTable) -> dict[str, dict[str, EstimatorResult]]:
        """Per axis, the ferromagnetic m and spin-glass q order parameters.

        q averages the squared per-sample thermal magnetization, so each
        sample contributes exactly one Gibbs evaluation and no replica bias
        enters.

        z_score is NaN when every per-sample value is within `EXACT_TOL` of
        zero: the mean and its error are then float dust, and their ratio
        measures nothing."""
        n = table.plan.n_sites
        values = table.values(self)
        out: dict[str, dict[str, EstimatorResult]] = {}
        for a_idx, axis in enumerate(AXES):
            sites = values[:, a_idx * n : (a_idx + 1) * n]
            m_rows = sites.mean(axis=1, keepdims=True)
            q_rows = (sites * sites).mean(axis=1, keepdims=True)
            res = {}
            for name, rows in (("m", m_rows), ("q", q_rows)):
                est = table.estimate(float(table.mean(rows)[0]), float(table.se(rows)[0]))
                dust = bool(np.all(np.abs(rows) <= EXACT_TOL))
                res[name] = dataclasses.replace(est, z_score=math.nan) if dust else est
            out[axis] = res
        return out


@dataclass(frozen=True)
class FreeEnergyBlock:
    """log Z / N per sample (1 column), read from the sample's thermal state."""

    def bind(self, plan: Plan) -> tuple[int, Evaluator]:
        n = plan.n_sites
        return 1, lambda s: free_energy_density(s.state, n)[:, None]

    def result(self, table: ValueTable) -> EstimatorResult:
        """Disorder mean of log Z / N with its standard error."""
        values = table.values(self)
        return table.estimate(float(table.mean(values)[0]), float(table.se(values)[0]))


# ---------------------------------------------------------------------------
# Single-block entry points kept for the benchmark's trace
# ---------------------------------------------------------------------------
#
# No run and no test calls these: each is one block evaluated by a plan of
# its own, `block.result(Plan(config, [block], u).evaluate(method))`. They
# stay, unexported, because bench/spans.py still names them as trace targets
# and bench/test_bench.py asserts that every target resolves. Delete them
# with those targets.


def one_point_identity(
    config: ModelConfig, x_sites: Sequence[int], w: str, u: str, method: Method
) -> EstimatorResult:
    block = OnePointBlock(x_sites, w)
    (res,) = block.result(Plan(config, [block], u).evaluate(method))
    return res


def two_point_identities(
    config: ModelConfig, x_sites: Sequence[int], y_sites: Sequence[int], w: str, u: str,
    method: Method,
) -> tuple[EstimatorResult, EstimatorResult]:
    block = TwoPointBlock(x_sites, y_sites, w)
    prod, joint = block.result(Plan(config, [block], u).evaluate(method))
    return prod, joint


def duhamel_identity(
    config: ModelConfig, x_sites: Sequence[int], y_sites: Sequence[int], w: str, u: str,
    method: Method,
) -> tuple[EstimatorResult, EstimatorResult]:
    block = DuhamelBlock(x_sites, y_sites, w)
    duh, trunc = block.result(Plan(config, [block], u).evaluate(method))
    return duh, trunc


def three_point_identity(
    config: ModelConfig, x_sites: Sequence[int], y_sites: Sequence[int],
    z_sites: Sequence[int], w: str, u: str, method: Method,
) -> EstimatorResult:
    block = ThreePointBlock(x_sites, y_sites, z_sites, w)
    (res,) = block.result(Plan(config, [block], u).evaluate(method))
    return res


def magnetization_bound_check(
    config: ModelConfig, w: str, u: str, method: Method, tol: Tolerances = Tolerances()
) -> BoundCheckReport:
    block = MagnetizationBlock(w)
    return block.result(Plan(config, [block], u).evaluate(method), tol)


def susceptibility_bound_check(
    config: ModelConfig, v: str, w: str, u: str, method: Method, tol: Tolerances = Tolerances()
) -> BoundCheckReport:
    block = SusceptibilityBlock(v, w)
    return block.result(Plan(config, [block], u).evaluate(method), tol)


def a1_sum(
    config: ModelConfig, u: str, method: Method, tol: Tolerances = Tolerances()
) -> EstimatorResult:
    block = PairMatrixBlock()
    return block.correlation_sum(Plan(config, [block], u).evaluate(method), tol)


def mean_pair_correlation(config: ModelConfig, u: str, method: Method) -> np.ndarray:
    block = PairMatrixBlock()
    return block.result(Plan(config, [block], u).evaluate(method))


def _a2_differences(
    config: ModelConfig, v: str, w: str, h: float, method: Method
) -> tuple[float, float]:
    block = FieldStencilBlock(v, w, h)
    return block.result(Plan(config, [block]).evaluate(method))


def finite_size_order_parameters(
    config: ModelConfig, method: Method
) -> dict[str, dict[str, EstimatorResult]]:
    block = SiteExpectationsBlock()
    return block.result(Plan(config, [block]).evaluate(method))
