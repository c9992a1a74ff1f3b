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

import numpy as np
import scipy.linalg
import scipy.sparse

import networkx as nx

from repro.circuit.elements import (
    CCCS,
    CCVS,
    GROUND,
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
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
        parent: dict[str, str] = {}

        def find(node: str) -> str:
            while parent.get(node, node) != node:
                parent[node] = parent.get(parent[node], parent[node])
                node = parent[node]
            return node

        capacitors = self.circuit.capacitors
        links = []
        for cap in sorted(capacitors, key=lambda cap: cap.initial_voltage is None):
            root_p, root_n = find(cap.positive), find(cap.negative)
            if root_p == root_n:
                links.append(cap)
            else:
                parent[root_p] = root_n
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
    node_names = tuple(circuit.nodes)
    current_elements = tuple(e.name for e in circuit.current_variable_elements())
    source_names = tuple(
        e.name for e in circuit if isinstance(e, (VoltageSource, CurrentSource))
    )
    return MnaIndexing(node_names, current_elements, source_names)


class _Triplets:
    """COO triplet accumulator: the single assembly path for both backends.

    Duplicate ``(i, j)`` entries accumulate in insertion order on the
    dense path (``np.add.at`` applies repeated indices sequentially), so
    dense matrices stay bit-identical to element-by-element ``+=``
    stamping; the sparse path hands the same triplets to
    ``scipy.sparse.coo_matrix``, which sums duplicates on conversion.
    """

    __slots__ = ("rows", "cols", "vals")

    def __init__(self):
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []

    def add(self, i: int, j: int, value: float) -> None:
        self.rows.append(i)
        self.cols.append(j)
        self.vals.append(value)

    def build(self, shape: tuple[int, int], sparse: bool):
        if sparse:
            return scipy.sparse.coo_matrix(
                (self.vals, (self.rows, self.cols)), shape=shape, dtype=float
            ).tocsr()
        matrix = np.zeros(shape)
        if self.rows:
            np.add.at(
                matrix,
                (np.asarray(self.rows), np.asarray(self.cols)),
                np.asarray(self.vals, dtype=float),
            )
        return matrix


def _stamp(circuit: Circuit, index: MnaIndexing, sparse: bool = False):
    """Assemble ``G``, ``C``, ``B`` as COO triplets, then build either
    dense ndarrays or CSR matrices — the sparse path never allocates a
    dense ``(dim, dim)`` array."""
    dim = index.dimension
    G = _Triplets()
    C = _Triplets()
    B = _Triplets()

    def node(name: str) -> int | None:
        return None if name == GROUND else index.node(name)

    def stamp_pair(M: _Triplets, i: int | None, j: int | None, value: float) -> None:
        """Add ``value`` at (i, i)/(j, j) and ``-value`` at (i, j)/(j, i)."""
        if i is not None:
            M.add(i, i, value)
            if j is not None:
                M.add(i, j, -value)
        if j is not None:
            M.add(j, j, value)
            if i is not None:
                M.add(j, i, -value)

    def stamp_branch_kcl(row_p: int | None, row_n: int | None, col: int) -> None:
        """Branch current ``col`` leaves the positive node, enters the negative."""
        if row_p is not None:
            G.add(row_p, col, 1.0)
        if row_n is not None:
            G.add(row_n, col, -1.0)

    def stamp_branch_voltage(row: int, p: int | None, n: int | None) -> None:
        """Row asserting V(p) - V(n) on the left-hand side."""
        if p is not None:
            G.add(row, p, 1.0)
        if n is not None:
            G.add(row, n, -1.0)

    def control_current_index(name: str) -> int:
        if name not in circuit:
            raise CircuitError(f"controlling element {name!r} does not exist")
        return index.current(name)

    for element in circuit:
        p, n = node(element.positive), node(element.negative)
        if isinstance(element, Resistor):
            stamp_pair(G, p, n, element.conductance)
        elif isinstance(element, Capacitor):
            stamp_pair(C, p, n, element.capacitance)
        elif isinstance(element, Inductor):
            j = index.current(element.name)
            stamp_branch_kcl(p, n, j)
            stamp_branch_voltage(j, p, n)
            C.add(j, j, -element.inductance)
        elif isinstance(element, VoltageSource):
            j = index.current(element.name)
            stamp_branch_kcl(p, n, j)
            stamp_branch_voltage(j, p, n)
            B.add(j, index.source(element.name), 1.0)
        elif isinstance(element, CurrentSource):
            k = index.source(element.name)
            if p is not None:
                B.add(p, k, -1.0)
            if n is not None:
                B.add(n, k, 1.0)
        elif isinstance(element, VCCS):
            cp, cn = node(element.ctrl_positive), node(element.ctrl_negative)
            for row, sign_row in ((p, +1.0), (n, -1.0)):
                if row is None:
                    continue
                if cp is not None:
                    G.add(row, cp, sign_row * element.gain)
                if cn is not None:
                    G.add(row, cn, -sign_row * element.gain)
        elif isinstance(element, VCVS):
            j = index.current(element.name)
            stamp_branch_kcl(p, n, j)
            stamp_branch_voltage(j, p, n)
            cp, cn = node(element.ctrl_positive), node(element.ctrl_negative)
            if cp is not None:
                G.add(j, cp, -element.gain)
            if cn is not None:
                G.add(j, cn, element.gain)
        elif isinstance(element, CCCS):
            jc = control_current_index(element.control_element)
            if p is not None:
                G.add(p, jc, element.gain)
            if n is not None:
                G.add(n, jc, -element.gain)
        elif isinstance(element, CCVS):
            j = index.current(element.name)
            jc = control_current_index(element.control_element)
            stamp_branch_kcl(p, n, j)
            stamp_branch_voltage(j, p, n)
            G.add(j, jc, -element.gain)
        else:  # pragma: no cover - new element types must be stamped here
            raise CircuitError(f"no MNA stamp for element type {type(element).__name__}")

    # Magnetic couplings: off-diagonal inductance-matrix terms on the
    # coupled inductors' branch rows (v₁ = L₁i₁' + M i₂', and symmetric).
    for coupling in circuit.mutual_inductances:
        inductor_a = circuit[coupling.inductor_a]
        inductor_b = circuit[coupling.inductor_b]
        j1 = index.current(coupling.inductor_a)
        j2 = index.current(coupling.inductor_b)
        mutual = coupling.mutual(inductor_a.inductance, inductor_b.inductance)
        C.add(j1, j2, -mutual)
        C.add(j2, j1, -mutual)

    return (
        G.build((dim, dim), sparse),
        C.build((dim, dim), sparse),
        B.build((dim, index.source_count), sparse),
    )


def find_floating_groups(circuit: Circuit) -> tuple[tuple[int, ...], ...]:
    """Node-index groups with no conductive path to ground.

    The conductive graph joins nodes through resistors, inductors, voltage
    sources and the output/control ports of VCVS/CCVS (whose branch
    equations pin their output voltage).  Capacitors and current sources do
    not conduct at DC.  Any connected component that does not contain
    ground is a floating group whose DC state is fixed only by charge
    conservation (paper Sec. III).  The indices are the circuit's own
    node indices, which are also the MNA rows of the node voltages.
    """
    graph = nx.Graph()
    graph.add_node(GROUND)
    graph.add_nodes_from(circuit.nodes)
    for element in circuit:
        if isinstance(element, (Resistor, Inductor, VoltageSource, VCVS, CCVS)):
            graph.add_edge(element.positive, element.negative)
    groups = []
    for component in nx.connected_components(graph):
        if GROUND in component:
            continue
        groups.append(tuple(sorted(circuit.node_index(name) for name in component)))
    return tuple(sorted(groups))
