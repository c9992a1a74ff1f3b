"""Modified Nodal Analysis (MNA) stamping.

Every linear analysis in this package — DC, AC, transient, exact poles, and
the AWE moment recursion — starts from the same first-order descriptor
system assembled here:

.. math::

    G x(t) + C \\dot x(t) = B u(t)

where the unknown vector ``x`` stacks the non-ground node voltages followed
by one branch current per element that needs one (voltage sources,
inductors, VCVS, CCVS), and ``u`` stacks the independent source values.

The paper works from state equations ``ẋ = Ax + Bu`` (its eq. 4) with
``A⁻¹`` given by the hybrid port characterisation (its eq. 32).  The MNA
descriptor form is algebraically equivalent — applying ``A⁻¹`` to a state
vector is one solve with the (LU-factored) ``G`` matrix followed by a
multiplication with ``C`` — and is the formulation actual AWE
implementations (and SPICE itself) use, because ``G`` and ``C`` come
straight from element stamps.

Floating capacitive nodes
-------------------------
When a node connects to the rest of the circuit only through capacitors
(paper Sec. III: its steady state "must be determined by the charge
conservation equation"), ``G`` is singular.  :class:`MnaSystem` detects the
conductively-isolated node groups and exposes a *charge-augmented* matrix
``G_aug`` in which, per group, one redundant KCL row is replaced by the
group's total-charge row (the sum of the corresponding ``C`` rows).  The
DC, particular-solution and moment solves in the rest of the package then
supply the appropriate conserved-charge right-hand sides for those rows.
"""

from __future__ import annotations

import dataclasses
import functools
from operator import attrgetter

import numpy as np
import scipy.linalg
import scipy.sparse

from repro.circuit.elements import (
    CCCS,
    CCVS,
    GROUND,
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Inductor,
    MutualInductance,
    Resistor,
    VoltageSource,
)
from repro.circuit.graph import DisjointSets
from repro.circuit.netlist import Circuit
from repro.errors import CircuitError, SingularCircuitError
from repro.instrumentation import SolverStats
from repro.trace import NULL_TRACER


@dataclasses.dataclass(frozen=True)
class MnaIndexing:
    """Index maps for the MNA unknown and source vectors.

    ``node_names[i]`` is the node whose voltage occupies position ``i``;
    ``current_elements[j]`` is the element whose branch current occupies
    position ``node_count + j``; ``source_names[k]`` names the independent
    source driving column ``k`` of ``B``.
    """

    node_names: tuple[str, ...]
    current_elements: tuple[str, ...]
    source_names: tuple[str, ...]

    @property
    def node_count(self) -> int:
        return len(self.node_names)

    @property
    def dimension(self) -> int:
        return len(self.node_names) + len(self.current_elements)

    @property
    def source_count(self) -> int:
        return len(self.source_names)

    # Hash maps beat tuple.index() scans by ~n; they dominate stamping
    # cost on 1000-node nets.  functools.cached_property writes straight
    # into __dict__, which frozen dataclasses permit.

    @functools.cached_property
    def _node_map(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.node_names)}

    @functools.cached_property
    def _current_map(self) -> dict[str, int]:
        offset = self.node_count
        return {name: offset + i for i, name in enumerate(self.current_elements)}

    @functools.cached_property
    def _source_map(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.source_names)}

    def node(self, name: str) -> int:
        """Unknown-vector index of a node voltage."""
        try:
            return self._node_map[name]
        except KeyError:
            raise CircuitError(f"unknown node {name!r}") from None

    def current(self, element_name: str) -> int:
        """Unknown-vector index of an element's branch current."""
        try:
            return self._current_map[element_name]
        except KeyError:
            raise CircuitError(
                f"element {element_name!r} carries no branch-current unknown"
            ) from None

    def source(self, name: str) -> int:
        """Column of ``B`` for an independent source."""
        try:
            return self._source_map[name]
        except KeyError:
            raise CircuitError(f"unknown independent source {name!r}") from None


#: Systems at or above this dimension factor through SuperLU (sparse) by
#: default; below it, dense LAPACK wins on call overhead.
_SPARSE_THRESHOLD = 192


class MnaSystem:
    """The assembled descriptor system ``G x + C ẋ = B u`` for a circuit.

    Attributes
    ----------
    G, C:
        ``(dim, dim)`` conductance and storage matrices — dense ndarrays
        on the dense backend, ``scipy.sparse`` CSR on the sparse backend
        (see :attr:`use_sparse`).  Matrix-vector products (``G @ x``) and
        row/column slicing work identically; code that needs a plain
        ndarray should go through :attr:`G_dense` / :attr:`C_dense`.
    B:
        ``(dim, n_sources)`` input incidence matrix, same backend as
        ``G``/``C``; :meth:`b_column` yields a dense column either way.
    index:
        The :class:`MnaIndexing` describing the vector layouts.
    floating_groups:
        Tuple of node-index groups that are conductively isolated from
        ground; empty for ordinary circuits.
    charge_rows:
        For each floating group, the row of ``G_aug`` that was replaced by
        the group's total-charge equation.

    Parameters
    ----------
    sparse:
        ``True``/``False`` forces the assembly *and* factorisation
        backend; ``None`` (default) picks sparse SuperLU for systems of
        dimension ≥ 192 (extracted nets are >99 % structurally sparse,
        and the moment recursion is nothing but repeated solves with this
        one factorisation — paper Sec. 3.2).  The backend is decided
        before stamping, so a sparse system never materialises a dense
        ``(dim, dim)`` array at any point.  Forcing ``sparse=False`` at
        or above the threshold is allowed but records a ``warning`` field
        on the ``backend_selected`` trace event, because dense assembly
        is O(n²) memory.
    tracer:
        A :class:`~repro.trace.Tracer` to record the ``mna_assembly`` /
        ``lu`` spans and the ``backend_selected`` event into; defaults to
        the no-op :data:`~repro.trace.NULL_TRACER`.
    """

    def __init__(
        self,
        circuit: Circuit,
        sparse: bool | None = None,
        tracer=None,
    ):
        self.circuit = circuit
        self.stats = SolverStats()
        self.tracer = NULL_TRACER if tracer is None else tracer
        with self.tracer.span("mna_assembly", elements=len(circuit)):
            self.index = _build_indexing(circuit)
            self.use_sparse = (
                sparse
                if sparse is not None
                else self.index.dimension >= _SPARSE_THRESHOLD
            )
            self.G, self.C, self.B = _stamp(
                circuit, self.index, sparse=self.use_sparse
            )
            self.floating_groups = find_floating_groups(circuit)
            self.charge_rows = tuple(group[0] for group in self.floating_groups)
            self.G_aug = self._augment_for_charge()
        event = {
            "backend": "sparse" if self.use_sparse else "dense",
            "dimension": self.index.dimension,
            "forced": sparse is not None,
        }
        if sparse is False and self.index.dimension >= _SPARSE_THRESHOLD:
            event["warning"] = (
                f"forced dense backend at dimension {self.index.dimension} "
                f">= sparse threshold {_SPARSE_THRESHOLD}: assembly and "
                f"factorisation are O(n²) memory; drop sparse=False to let "
                f"the auto-selection pick SuperLU"
            )
        self.tracer.event("backend_selected", **event)
        self._lu = None
        self._t0_lu = None

    # -- assembly ------------------------------------------------------

    def _charge_row(self, group: tuple[int, ...]) -> np.ndarray:
        """Dense total-charge row for a floating group (sum of ``C`` rows)."""
        rows = self.C[list(group), :].sum(axis=0)
        return np.asarray(rows, dtype=float).ravel()

    def _augment_for_charge(self):
        """``G`` with, per floating group, one KCL row replaced by the sum
        of the group's ``C`` rows (total-charge conservation).

        Sparse backend: rebuilt as CSC straight from the COO entries (the
        format SuperLU wants) without a dense detour."""
        if not self.floating_groups:
            return self.G.tocsc() if self.use_sparse else self.G
        if not self.use_sparse:
            G_aug = self.G.copy()
            for group, row in zip(self.floating_groups, self.charge_rows):
                G_aug[row, :] = self._charge_row(group)
            return G_aug
        coo = self.G.tocoo()
        keep = ~np.isin(coo.row, np.asarray(self.charge_rows))
        rows = [coo.row[keep]]
        cols = [coo.col[keep]]
        vals = [coo.data[keep]]
        for group, row in zip(self.floating_groups, self.charge_rows):
            charge = self._charge_row(group)
            nonzero = np.nonzero(charge)[0]
            rows.append(np.full(nonzero.size, row, dtype=coo.row.dtype))
            cols.append(nonzero.astype(coo.col.dtype))
            vals.append(charge[nonzero])
        return scipy.sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=self.G.shape,
        ).tocsc()

    # -- dense views ---------------------------------------------------
    #
    # The exact-reference analyses (QZ poles, bordered zeros, brute-force
    # frequency response) are inherently dense; they go through these so
    # the core stays backend-agnostic.

    @property
    def G_dense(self) -> np.ndarray:
        """``G`` as a dense ndarray (copy-free on the dense backend)."""
        return self.G.toarray() if self.use_sparse else self.G

    @property
    def C_dense(self) -> np.ndarray:
        """``C`` as a dense ndarray (copy-free on the dense backend)."""
        return self.C.toarray() if self.use_sparse else self.C

    @property
    def B_dense(self) -> np.ndarray:
        """``B`` as a dense ndarray (copy-free on the dense backend)."""
        return self.B.toarray() if self.use_sparse else self.B

    @property
    def G_aug_dense(self) -> np.ndarray:
        """``G_aug`` as a dense ndarray (copy-free on the dense backend)."""
        return self.G_aug.toarray() if self.use_sparse else self.G_aug

    def b_column(self, column: int) -> np.ndarray:
        """Dense copy of one column of ``B`` (works on both backends)."""
        if self.use_sparse:
            return self.B[:, [column]].toarray().ravel()
        return self.B[:, column].copy()

    # -- solving -------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.index.dimension

    def lu(self):
        """Factorisation of the charge-augmented ``G`` (computed once,
        reused by every DC solve and every moment — paper Sec. 3.2).

        Returns the dense LAPACK (lu, piv) pair or a SuperLU object,
        depending on :attr:`use_sparse`; callers should prefer
        :meth:`solve_augmented`, which dispatches."""
        if self._lu is None:
            self._lu = self._factor(self.G_aug, "lu", "lu_factorizations", "DC")
        return self._lu

    def _factor(self, matrix, span: str, counter: str, what: str):
        """Factor ``matrix`` under a trace span, counting it in ``counter``."""
        with self.tracer.span(span, stats=self.stats, dimension=matrix.shape[0]):
            with self.stats.timer("factor_time_s"):
                factor = self._factorise(matrix, what)
            self.stats.add(counter, 1)
        return factor

    def _factorise(self, matrix, what: str):
        import warnings

        if scipy.sparse.issparse(matrix):
            from scipy.sparse.linalg import splu

            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    factor = splu(matrix)
            except RuntimeError as exc:  # SuperLU raises RuntimeError
                raise SingularCircuitError(
                    f"circuit {self.circuit.title!r} has no unique {what} "
                    f"solution: {exc}"
                ) from exc
            self._check_diagonal(np.abs(factor.U.diagonal()), what)
            return factor

        try:
            with warnings.catch_warnings():
                # Singularity is detected and reported below with a
                # circuit-level message; the LAPACK warning is noise.
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                factor = scipy.linalg.lu_factor(matrix)
        except scipy.linalg.LinAlgError as exc:
            raise SingularCircuitError(
                f"circuit {self.circuit.title!r} has no unique {what} "
                f"solution: {exc}"
            ) from exc
        if not np.all(np.isfinite(factor[0])):
            raise SingularCircuitError(
                f"circuit {self.circuit.title!r} has no unique {what} solution"
            )
        self._check_diagonal(np.abs(np.diag(factor[0])), what)
        return factor

    def _check_diagonal(self, diag: np.ndarray, what: str) -> None:
        scale = max(diag.max(initial=0.0), 1.0)
        if not np.all(np.isfinite(diag)) or diag.min(initial=np.inf) <= scale * 1e-14:
            raise SingularCircuitError(
                f"circuit {self.circuit.title!r} has a (near-)singular {what} "
                "system; check for floating nodes, voltage-source loops, or "
                "current-source cutsets"
            )

    def _solve(self, factor, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """One counted forward/back substitution on ``factor`` for a
        vector or a matrix of column right-hand sides.  A dense factor goes
        straight to LAPACK's ``getrs``, which is what ``lu_solve`` calls
        behind its wrapper; the right-hand side must be finite, as
        ``lu_solve`` requires (``ValueError`` otherwise)."""
        self.stats.add("triangular_solves", 1)
        self.stats.add("solve_columns", 1 if rhs.ndim == 1 else rhs.shape[1])
        with self.stats.timer("solve_time_s"):
            if isinstance(factor, tuple):  # LAPACK (lu, piv)
                solution, _ = scipy.linalg.lapack.dgetrs(
                    *factor, np.asarray_chkfinite(rhs), trans=int(transpose))
                return solution
            return factor.solve(rhs, trans="T" if transpose else "N")

    def solve_augmented(
        self,
        rhs: np.ndarray,
        charge_values: np.ndarray | None = None,
        transpose: bool = False,
    ) -> np.ndarray:
        """Solve ``G_aug y = rhs`` with the charge rows of ``rhs`` replaced
        by ``charge_values`` (default zero).

        ``rhs`` may be a single vector of shape ``(dim,)`` or a matrix of
        shape ``(dim, k)`` stacking ``k`` independent right-hand sides as
        columns.  The matrix form performs **one** forward/back
        substitution call for all ``k`` systems against the shared LU
        factors — this is what lets the batched moment recursion advance
        every subproblem's chain at the cost of a single solve per order.
        For a matrix ``rhs``, ``charge_values`` may be ``(n_groups,)``
        (applied to every column) or ``(n_groups, k)`` (per column).

        ``transpose=True`` solves the adjoint system ``G_augᵀ y = rhs``
        on the *same* factors (no second factorisation) and uses ``rhs``
        as given: the charge-row substitution belongs to forward solves
        only, so ``charge_values`` must then be omitted.  Both directions
        count in :attr:`stats` alike.
        """
        if transpose and charge_values is not None:
            raise CircuitError(
                "charge_values apply to forward solves only, not transpose=True"
            )
        if scipy.sparse.issparse(rhs):
            rhs = rhs.toarray()
        rhs = np.array(rhs, dtype=float, copy=True)
        if rhs.ndim not in (1, 2):
            raise CircuitError(
                f"solve_augmented expects a vector or a matrix of column "
                f"right-hand sides, got ndim={rhs.ndim}"
            )
        if self.charge_rows and not transpose:
            if charge_values is None:
                charge_values = np.zeros(len(self.charge_rows))
            charge_values = np.asarray(charge_values, dtype=float)
            if rhs.ndim == 2 and charge_values.ndim == 1:
                charge_values = charge_values[:, np.newaxis]
            rhs[list(self.charge_rows)] = charge_values
        return self._solve(self.lu(), rhs, transpose)

    # -- the t = 0⁺ system ---------------------------------------------

    @functools.cached_property
    def capacitor_forest(self) -> tuple[tuple[Capacitor, ...], tuple[Capacitor, ...]]:
        """``(forest, links)``: a spanning forest of the capacitive graph,
        in circuit order, and the capacitors that close its loops.

        Capacitors with an explicit initial condition are claimed into
        the forest first, so a user-specified IC is honoured directly
        whenever possible."""
        forest = DisjointSets(self.index.node_count + 1)  # ground last, as -1
        capacitors = self.circuit.capacitors
        links = []
        for cap in sorted(capacitors, key=lambda cap: cap.initial_voltage is None):
            ends = (-1 if node == GROUND else self.index.node(node) for node in cap.nodes)
            if not forest.union(*ends):
                links.append(cap)
        link_names = {cap.name for cap in links}
        forest = tuple(cap for cap in capacitors if cap.name not in link_names)
        return forest, tuple(links)

    def _t0_matrix(self):
        """``G`` with each inductor's branch row replaced by ``i_L = i_L(0)``,
        bordered by the incidence of the forest capacitors, whose currents
        become unknowns.  Inductor-controlled CCCS/CCVS stamps read the
        inductor-current column that the replaced row pins.  Dense only on
        the dense backend below the sparse threshold, since the border can
        double the dimension."""
        forest, _ = self.capacitor_forest
        dim = self.dimension
        size = dim + len(forest)
        pinned = [self.index.current(ind.name) for ind in self.circuit.inductors]
        rows, cols, vals = list(pinned), list(pinned), [1.0] * len(pinned)
        for column, cap in enumerate(forest, start=dim):
            for name, sign in ((cap.positive, 1.0), (cap.negative, -1.0)):
                if name != GROUND:
                    row = self.index.node(name)
                    rows += (row, column)
                    cols += (column, row)
                    vals += (sign, sign)
        if not self.use_sparse and size < _SPARSE_THRESHOLD:
            matrix = np.zeros((size, size))
            matrix[:dim, :dim] = self.G
            matrix[pinned] = 0.0
            matrix[rows, cols] = vals
            return matrix
        G = scipy.sparse.coo_matrix(self.G)
        keep = ~np.isin(G.row, pinned)
        return scipy.sparse.csc_matrix((
            np.concatenate([G.data[keep], vals]),
            (np.concatenate([G.row[keep], rows]), np.concatenate([G.col[keep], cols])),
        ), shape=(size, size))

    def solve_t0(
        self,
        source_values: dict[str, float] | np.ndarray,
        capacitor_voltages: dict[str, float],
        inductor_currents: dict[str, float],
    ) -> tuple[np.ndarray, np.ndarray]:
        """``x(0⁺)`` and the forest capacitors' currents from one solve
        of the t = 0⁺ system.  Its matrix depends on the circuit alone, not
        on the initial state or the sources, so it is factored once, on
        first use, under a ``t0_lu`` span and counted in
        ``t0_factorizations``."""
        if self._t0_lu is None:
            self._t0_lu = self._factor(
                self._t0_matrix(), "t0_lu", "t0_factorizations", "t = 0⁺")
        forest, _ = self.capacitor_forest
        rhs = np.concatenate([
            self.B @ self.source_vector(source_values),
            [capacitor_voltages[cap.name] for cap in forest],
        ])
        for ind in self.circuit.inductors:
            rhs[self.index.current(ind.name)] = inductor_currents[ind.name]
        solution = self._solve(self._t0_lu, rhs)
        return solution[:self.dimension], solution[self.dimension:]

    def source_vector(self, values: dict[str, float] | np.ndarray) -> np.ndarray:
        """Build ``u`` from a name->value mapping (missing sources are 0)
        or pass a correctly-sized array through."""
        if isinstance(values, np.ndarray):
            if values.shape != (self.index.source_count,):
                raise CircuitError(
                    f"source vector must have shape ({self.index.source_count},)"
                )
            return values
        u = np.zeros(self.index.source_count)
        for name, value in values.items():
            u[self.index.source(name)] = value
        return u

    def group_charge(self, x: np.ndarray) -> np.ndarray:
        """Total charge of each floating group for the MNA vector ``x``."""
        return np.array(
            [self._charge_row(group) @ x for group in self.floating_groups]
        )

    def group_injection(self, u: np.ndarray) -> np.ndarray:
        """Net source current injected into each floating group (must be
        zero for a steady state to exist)."""
        bu = np.asarray(self.B @ u).ravel()
        return np.array([bu[list(group)].sum() for group in self.floating_groups])


def _build_indexing(circuit: Circuit) -> MnaIndexing:
    return MnaIndexing(
        tuple(circuit.nodes),
        tuple(e.name for e in circuit.current_variable_elements()),
        tuple(e.name for e in circuit.elements_of_type(VoltageSource, CurrentSource)),
    )


_G, _C, _B = 0, 1, 2

#: The stamped element kinds: per entry of one element, in stamping
#: order, the matrix and the row and column fields, over the element's
#: terminal fields ``(p, n, …)`` that :func:`_stamp` lists.  A
#: two-terminal element with value ``v`` stamps ``v`` at (p, p) and
#: (n, n) and ``-v`` at (p, n) and (n, p); an element with branch current
#: ``j`` stamps its KCL column (p, j) = 1, (n, j) = -1 and its branch row
#: (j, p) = 1, (j, n) = -1.
_BRANCH = ((_G, 0, 2), (_G, 1, 2), (_G, 2, 0), (_G, 2, 1))
_ENTRIES = {
    Resistor: ((_G, 0, 0), (_G, 0, 1), (_G, 1, 1), (_G, 1, 0)),      # (p, n)
    Capacitor: ((_C, 0, 0), (_C, 0, 1), (_C, 1, 1), (_C, 1, 0)),     # (p, n)
    Inductor: _BRANCH + ((_C, 2, 2),),                               # (p, n, j)
    VoltageSource: _BRANCH + ((_B, 2, 3),),                          # (p, n, j, k)
    CurrentSource: ((_B, 0, 2), (_B, 1, 2)),                         # (p, n, k)
    VCCS: ((_G, 0, 2), (_G, 0, 3), (_G, 1, 2), (_G, 1, 3)),          # (p, n, cp, cn)
    VCVS: _BRANCH + ((_G, 2, 3), (_G, 2, 4)),                        # (p, n, j, cp, cn)
    CCCS: ((_G, 0, 2), (_G, 1, 2)),                                  # (p, n, jc)
    CCVS: _BRANCH + ((_G, 2, 3),),                                   # (p, n, j, jc)
    MutualInductance: ((_C, 0, 1), (_C, 1, 0)),                      # (j_a, j_b)
}
_PAIR_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])

#: Per kind with fixed entry values: those values, with 0.0 where
#: :func:`_stamp` writes an entry that scales with the element's value.
_FIXED = {family: np.array([values]) for family, values in (
    (Inductor, [1.0, -1.0, 1.0, -1.0, 0.0]),
    (VoltageSource, [1.0, -1.0, 1.0, -1.0, 1.0]),
    (CurrentSource, [-1.0, 1.0]),
    (VCVS, [1.0, -1.0, 1.0, -1.0, 0.0, 0.0]),
    (CCVS, [1.0, -1.0, 1.0, -1.0, 0.0]),
)}
_BRANCH_KINDS = (Inductor, VoltageSource, VCVS, CCVS)
_UNCONTROLLED = frozenset((Resistor, Capacitor, Inductor, VoltageSource, CurrentSource))


@functools.cache
def _family(kind: type) -> type | None:
    """The stamped kind an element type is (a subclass of), or ``None``."""
    return next((base for base in _ENTRIES if issubclass(kind, base)), None)


@functools.lru_cache(maxsize=512)
def _layout(family: type, width: int) -> tuple[np.ndarray, frozenset]:
    """``(M, matrices)``: ``fields @ M`` is the padded position (see
    :class:`_Triplets`) of each entry of :data:`_ENTRIES` ``[family]``
    when ``fields`` ends in a column of ones, and ``matrices`` the
    matrices the entries reach."""
    entries = _ENTRIES[family]
    M = np.zeros((2 + max(max(row, col) for _, row, col in entries), len(entries)),
                 dtype=np.int64)
    for slot, (matrix, row, col) in enumerate(entries):
        M[row, slot] += 3 * width
        M[col, slot] += 1
        M[-1, slot] = 3 * width + 1 + matrix * width
    return M, frozenset(matrix for matrix, _, _ in entries)


class _Triplets:
    """COO triplets of ``G``, ``C`` and ``B``: the single assembly path for
    both backends.

    An entry ``(i, j)`` of matrix ``m`` is addressed by its position in
    one zero-padded array that holds the three matrices side by side,
    ``(i + 1) · 3w + (j + 1) + m · w`` with ``w = max(dim, sources) + 1``:
    the padding row and column of each matrix take the ground entries
    (index -1).  Each element kind adds one block of positions and values,
    one row per element and one column per entry in the element's
    stamping order.  When the blocks that reach one matrix hold elements
    that interleave in circuit order, :meth:`build` restores element
    order with a stable sort on the ordinal; so every matrix receives its
    triplets exactly as an element-by-element stamp emits them.
    Duplicate entries then accumulate in that order on the dense path
    (``np.bincount`` adds its weights sequentially, as ``np.add.at``
    does), and the sparse path hands the same triplets to
    ``scipy.sparse.coo_matrix``, which sums duplicates on conversion.
    """

    __slots__ = ("dim", "sources", "width", "blocks")

    def __init__(self, dim: int, sources: int):
        self.dim, self.sources = dim, sources
        self.width = max(dim, sources) + 1
        self.blocks: list[tuple] = []

    def add(self, family: type, ordinal: list[int], fields: list, vals: np.ndarray) -> None:
        """One kind's entries: ``fields`` lists the index columns of
        :data:`_ENTRIES` ``[family]``, ``vals`` holds the ``(elements,
        entries)`` values."""
        M, matrices = _layout(family, self.width)
        fields = np.array(fields + [[1] * len(ordinal)], dtype=np.int64)
        self.blocks.append((matrices, ordinal, fields.T @ M, vals))

    def build(self, sparse: bool):
        """``(G, C, B)``: dense ndarrays, or CSR matrices when ``sparse``."""
        blocks = self.blocks
        if not blocks:
            blocks = [((), [0], np.zeros(0, dtype=np.int64), np.zeros(0))]
        flat = np.concatenate([block[2].ravel() for block in blocks])
        vals = np.concatenate([block[3].ravel() for block in blocks])
        last = [-1, -1, -1]  # per matrix, the last ordinal reached so far
        for matrices, ordinal, _, _ in blocks:
            if any(ordinal[0] < last[matrix] for matrix in matrices):
                order = np.argsort(np.concatenate([
                    np.repeat(ordinal, positions.shape[1])
                    for _, ordinal, positions, _ in blocks]), kind="stable")
                flat, vals = flat[order], vals[order]
                break
            for matrix in matrices:
                last[matrix] = ordinal[-1]
        dim, width = self.dim, self.width
        shapes = ((dim, dim), (dim, dim), (dim, self.sources))
        if sparse:
            rows, column = np.divmod(flat, 3 * width)
            matrix, cols = np.divmod(column, width)
            rows, cols = rows - 1, cols - 1
            keep = (rows >= 0) & (cols >= 0)
            return tuple(
                scipy.sparse.coo_matrix(
                    (vals[chosen], (rows[chosen], cols[chosen])), shape=shape, dtype=float
                ).tocsr()
                for number, shape in enumerate(shapes)
                for chosen in [keep & (matrix == number)])
        padded = np.bincount(flat, weights=vals, minlength=(dim + 1) * 3 * width)
        padded = padded.reshape(dim + 1, 3, width)
        return tuple(padded[1:, number, 1:shape[1] + 1].copy()
                     for number, shape in enumerate(shapes))


def _positions(columns: list, column, start: int):
    """``start`` plus the position of each element of ``column`` among all
    elements of ``columns``, in insertion order."""
    if len(columns) == 1:
        return range(start, start + len(column))
    ordinals = np.sort(np.concatenate([other.ordinal for other in columns]))
    return start + np.searchsorted(ordinals, column.ordinal)


def _stamp(circuit: Circuit, index: MnaIndexing, sparse: bool = False):
    """Assemble ``G``, ``C``, ``B`` as COO triplets from the circuit's
    element columns, one vectorized block per element kind, then build
    either dense ndarrays or CSR matrices — the sparse path never
    allocates a dense ``(dim, dim)`` array."""
    triplets = _Triplets(index.dimension, index.source_count)
    columns = circuit.columns()
    families = [_family(column.kind) for column in columns]
    if not _UNCONTROLLED.issuperset(families):
        _check_stampable(circuit, index)

    for column, family in zip(columns, families):
        fields = [column.positive, column.negative]
        if family in _BRANCH_KINDS:
            fields.append(_positions(
                circuit.columns(*_BRANCH_KINDS), column, index.node_count))
        if family is VoltageSource or family is CurrentSource:
            fields.append(_positions(
                circuit.columns(VoltageSource, CurrentSource), column, 0))
        if family is VCCS or family is VCVS:
            fields += [[-1 if node == GROUND else index.node(node)
                        for node in map(attrgetter(port), column.elements)]
                       for port in ("ctrl_positive", "ctrl_negative")]
        elif family is CCCS or family is CCVS:
            fields.append([index.current(element.control_element)
                           for element in column.elements])
        if family is Resistor:  # the conductance, 1 / R
            vals = np.divide.outer(_PAIR_SIGNS, np.array(column.value)).T
        elif family is Capacitor:
            vals = np.multiply.outer(np.array(column.value), _PAIR_SIGNS)
        elif family is VCCS:
            vals = np.multiply.outer(np.array(column.value), [1.0, -1.0, -1.0, 1.0])
        elif family is CCCS:
            vals = np.multiply.outer(np.array(column.value), [1.0, -1.0])
        else:
            vals = _FIXED[family].repeat(len(column), axis=0)
            if family is Inductor or family is CCVS:
                vals[:, 4] = -np.array(column.value)
            elif family is VCVS:
                vals[:, 4:] = np.multiply.outer(np.array(column.value), [-1.0, 1.0])
        triplets.add(family, column.ordinal, fields, vals)

    # Magnetic couplings: off-diagonal inductance-matrix terms on the
    # coupled inductors' branch rows (v₁ = L₁i₁' + M i₂', and symmetric),
    # after every element.
    for number, coupling in enumerate(circuit.mutual_inductances, start=len(circuit)):
        inductor_a = circuit[coupling.inductor_a]
        inductor_b = circuit[coupling.inductor_b]
        j1 = index.current(coupling.inductor_a)
        j2 = index.current(coupling.inductor_b)
        mutual = coupling.mutual(inductor_a.inductance, inductor_b.inductance)
        triplets.add(MutualInductance, [number], [[j1], [j2]],
                     np.array([[-mutual, -mutual]]))

    return triplets.build(sparse)


def _check_stampable(circuit: Circuit, index: MnaIndexing) -> None:
    """Raise, for the first element in circuit order that has one, a
    kind with no stamp or a controlling element that carries no branch
    current."""
    unknown = [column.kind for column in circuit.columns() if _family(column.kind) is None]
    for element in circuit.elements_of_type(CCCS, CCVS, *unknown):
        if not isinstance(element, (CCCS, CCVS)):
            raise CircuitError(f"no MNA stamp for element type {type(element).__name__}")
        if element.control_element not in circuit:
            raise CircuitError(
                f"controlling element {element.control_element!r} does not exist")
        index.current(element.control_element)


def find_floating_groups(circuit: Circuit) -> tuple[tuple[int, ...], ...]:
    """Node-index groups with no conductive path to ground.

    The conductive graph joins nodes through resistors, inductors, voltage
    sources and the output/control ports of VCVS/CCVS (whose branch
    equations pin their output voltage).  Capacitors and current sources do
    not conduct at DC.  Any connected component that does not contain
    ground is a floating group whose DC state is fixed only by charge
    conservation (paper Sec. III).  The indices are the circuit's own
    node indices, which are also the MNA rows of the node voltages.
    Computed once per :attr:`~repro.circuit.netlist.Circuit.version`.
    """
    return circuit.cached("floating_groups", _floating_groups)


def _floating_groups(circuit: Circuit) -> tuple[tuple[int, ...], ...]:
    # Ground is the last item, which the columns' -1 names.
    forest = DisjointSets(circuit.node_count + 1)
    joined = sum(forest.union_all(column.positive, column.negative)
                 for column in circuit.columns(Resistor, Inductor, VoltageSource, VCVS, CCVS))
    if joined == circuit.node_count:  # one set: every node reaches ground
        return ()
    return forest.groups(without=-1)
