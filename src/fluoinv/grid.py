"""Uniform grids on the unit interval/square and their discrete operators.

Everything downstream is built on three sparse matrices assembled here: a
negative Laplacian with the Robin condition ``beta * du/dn + u = b``
eliminated through boundary control volumes, a diagonal (lumped) mass
matrix, and a natural-boundary stiffness matrix used by the H1 inner
product.  The Laplacian is kept in a symmetrized scaling in which interior
rows reproduce the classic 3-point / 5-point stencils divided by h^2 while
the matrix stays a symmetric M-matrix; dividing rows by the control-volume
weights recovers the pointwise (ghost-node) form exactly.

Only the Laplacian reads the Robin parameter: it and the solves built on it
belong to ``Grid.operators(beta)``, everything else to the ``Grid``.  Every
solve in the package goes through a sparse LU factorization built here.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "Grid",
    "GridFunction",
    "ConvergenceError",
]


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance.

    Raised by the self-consistent weight loop of :mod:`fluoinv.fit`, it
    carries in ``trace`` the weights of the passes made before it (a
    ``LambdaTrace``, which ``fluoinv.cli.main`` writes to lambda_trace.csv);
    raised by the fixed-point iteration of :mod:`fluoinv.inverse`, the
    steps it made (an ``IterationTrace``, written to iteration_trace.csv);
    elsewhere ``trace`` is None.
    """

    trace = None


def _per_node(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    return d if v.ndim == 1 else d[:, None]    # scales a vector, or each column


def _tri_flux(m: int) -> sp.spmatrix:
    # dimensionless 1D flux stencil: rows [1,-1], [-1,2,-1], ..., [-1,1]
    n = m + 1
    main = np.full(n, 2.0)
    main[0] = main[-1] = 1.0
    off = np.full(n - 1, -1.0)
    return sp.diags([off, main, off], [-1, 0, 1])


class Grid:
    """Uniform rectilinear grid on (0,1)^dim with nodes at every cell corner.

    It holds what does not read the Robin parameter: the control-volume
    fractions W (``weights``: 1 inside, 1/2 on a face, 1/4 at a corner), the
    lumped mass M = h^dim W (``mass_diag``, summing to 1), the natural
    stiffness A (``stiffness_natural``; ``u^T A u`` approximates the squared
    gradient seminorm), the Gram matrices R_0 = M, R_1 = M + A of the
    penalties and norms, whose one H1 factor ``lu_h1`` is cached, and the
    ordering of every map step factor (``step_order``), read off R_1's
    pattern.

    The cached factors, ``lu_h1`` and each ``operators(beta)``'s Laplacian
    factor, serve the self-consistent fit, the dual-H1 errors and the
    Poisson solves, not the marches or the fixed-point map.  The Laplacian
    and R_1 share one pattern, so both factor in SuperLU's minimum-degree
    ordering of it, the step ordering: 386,976 entries in L and U at grid
    100 against 659,092 under the default COLAMD.  The given-weight CG of
    :mod:`fluoinv.fit` alone reads its own pair in COLAMD (``cg_lu``).
    All of them live until ``release_factors`` drops them, and each is
    rebuilt lazily, with the same bits, on its next use; the library never
    releases them, a command does (``p2`` once its fit has returned, so the
    fixed point runs beside its own step factor only).

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    cells_per_side : int
        Number of cells along each axis; must be >= 4.  The spacing is
        exactly ``1 / cells_per_side`` and there are ``cells_per_side + 1``
        nodes per axis (boundary nodes included).
    """

    def __init__(self, dim: int, cells_per_side: int):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        if cells_per_side < 4:
            raise ValueError(f"cells_per_side must be >= 4, got {cells_per_side}")
        self.dim = dim
        self.cells_per_side = int(cells_per_side)
        self.h = 1.0 / self.cells_per_side

        m = self.cells_per_side
        n = m + 1
        if dim == 1:
            self.coords = (np.arange(n) * self.h)[:, None]
        else:
            idx = np.arange(n * n)
            i = idx % n
            j = idx // n
            self.coords = np.column_stack([i * self.h, j * self.h])
        self.node_count = self.coords.shape[0]

        on_face_lo = self.coords <= 0.0 + 1e-15
        on_face_hi = self.coords >= 1.0 - 1e-15
        self.boundary_mask = (on_face_lo | on_face_hi).any(axis=1)
        self.boundary_indices = np.flatnonzero(self.boundary_mask)
        self.interior_indices = np.flatnonzero(~self.boundary_mask)

        w1 = np.ones(n)
        w1[0] = w1[-1] = 0.5
        self.weights = w1 if dim == 1 else np.kron(w1, w1)
        self.mass_diag = self.weights * self.h ** dim
        T, Wd = _tri_flux(m), sp.diags(w1)
        A = T / self.h if dim == 1 else sp.kron(Wd, T) + sp.kron(T, Wd)
        self.stiffness_natural = A.tocsr()

        self._op_cache: dict[float, "_GridOperators"] = {}
        self._lu_h1 = None
        self._step_order = None
        self._cg_factors: dict[float | None, object] = {}

    # x (and y) coordinate views, handy for building coefficient fields
    @property
    def x(self) -> np.ndarray:
        return self.coords[:, 0]

    @property
    def y(self) -> np.ndarray:
        if self.dim < 2:
            raise AttributeError("1D grid has no y coordinate")
        return self.coords[:, 1]

    def function(self, values) -> "GridFunction":
        """Wrap nodal values (array or callable of coords) as a GridFunction."""
        if callable(values):
            values = values(*(self.coords[:, d] for d in range(self.dim)))
        return GridFunction(self, values)

    def zeros(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.node_count))

    def lu_h1(self):
        """Cached factorization of the H1 Gram matrix M + A, in the step
        ordering (``step_order``, which it also fixes)."""
        if self._lu_h1 is None:
            self._lu_h1 = self._factor_h1()
        return self._lu_h1

    def _factor_h1(self):
        """A new factor of R_1 in the step ordering, which it fixes if unset."""
        lu = spla.splu(self._gram_h1(), permc_spec="MMD_AT_PLUS_A")
        if self._step_order is None:
            self._step_order = np.argsort(lu.perm_c)
        return lu

    def cg_lu(self, beta: float | None):
        """SuperLU's default COLAMD factor of the Robin Laplacian at ``beta``,
        or of R_1 for None: the pair of the given-weight CG
        (``fluoinv.fit.solve_data_fit``) and nothing else.  The benchmark
        reference values of rates-source were recorded on its bits, which
        that CG amplifies; ROADMAP item 1 deletes the pair with the CG.
        Cached until ``release_factors``.
        """
        key = None if beta is None else float(beta)
        if key not in self._cg_factors:
            A = self._gram_h1() if key is None else self.operators(key).laplacian.tocsc()
            self._cg_factors[key] = spla.splu(A, permc_spec="COLAMD")
        return self._cg_factors[key]

    def _gram_h1(self) -> sp.csc_matrix:
        return (sp.diags(self.mass_diag) + self.stiffness_natural).tocsc()

    def gram_apply(self, s: int, v: np.ndarray) -> np.ndarray:
        """R_s v: M v for s = 0, (M + A) v for s = 1."""
        if s == 0:
            return self.mass_diag * v
        return self.mass_diag * v + self.stiffness_natural @ v

    def gram_solve(self, s: int, v: np.ndarray) -> np.ndarray:
        """R_s^-1 v, for a vector or for the columns of an array."""
        if s == 0:
            return v / _per_node(self.mass_diag, v)
        return self.lu_h1().solve(v)

    def step_order(self) -> np.ndarray:
        """The minimum-degree ordering of the step pattern, the permutation
        ``order`` of ``_GridOperators.ordered_step_lu`` at every beta.

        SuperLU's ``MMD_AT_PLUS_A`` ordering, postordered by its elimination
        tree, reads only the pattern of A + A'.  Every step matrix
        W/tau + L + W diag(r) has the pattern of the H1 Gram matrix M + A,
        the natural stiffness's with its diagonal, so that matrix's factor
        gives the ordering, kept for the grid's lifetime: ``lu_h1``'s,
        whenever it is built, else a factor made for it alone and dropped.
        SuperLU applies its ``perm_c`` to columns
        (A Pc = A[:, argsort(perm_c)]), whence the argsort.  Taking
        ``perm_c`` itself instead puts 5.9M entries in L and U at grid 100
        in place of 386,976.
        """
        if self._step_order is None:
            self._factor_h1()
        return self._step_order

    def release_factors(self) -> None:
        """Drop the cached H1 factor, the Laplacian factor of every cached
        ``operators(beta)`` and the CG's pair (``cg_lu``); each is rebuilt on
        its next use.  SuperLU gives the same factor for the same matrix, so
        no result changes."""
        self._lu_h1 = None
        self._cg_factors.clear()
        for ops in self._op_cache.values():
            ops._lu_laplacian = None

    def operators(self, beta: float) -> "_GridOperators":
        """Cached Robin Laplacian and its solves for a given Robin parameter."""
        key = float(beta)
        ops = self._op_cache.get(key)
        if ops is None:
            ops = _GridOperators(self, key)
            self._op_cache[key] = ops
        return ops

    def __repr__(self):
        return f"Grid(dim={self.dim}, cells_per_side={self.cells_per_side})"


class GridFunction:
    """Nodal values of a scalar field on a Grid.

    Subtraction is only defined between functions living on the same grid;
    instances are treated as immutable after construction.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.node_count,):
            raise ValueError(
                f"expected {grid.node_count} nodal values, got shape {values.shape}"
            )
        self.grid = grid
        self.values = values

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        if other.grid is not self.grid:
            raise ValueError("grid mismatch between operands")
        return GridFunction(self.grid, self.values - other.values)

    def min(self) -> float:
        return float(self.values.min())

    def __repr__(self):
        return f"GridFunction({self.grid!r}, n={len(self.values)})"


class _GridOperators:
    """The Robin Laplacian at one beta and every solve built on it.

    - ``laplacian``: negative Laplacian with the Robin condition eliminated,
      a symmetric M-matrix, weakly diagonally dominant and strictly so on
      boundary rows (Robin term ``1/(beta*h)``); interior rows are the 3-point
      (1D) or 5-point (2D) stencil over h^2.  Applied to a constant c it gives
      exactly the load ``load_weights * c`` of boundary data b = c, with
      ``load_weights`` ``1/(beta*h)`` on boundary nodes and zero inside.
    - ``smooth``: the Poisson solve S = L^-1 W; ``smooth_adjoint``: its
      transpose S' = W L^-1, L being symmetric.

    The Laplacian factor, in the grid's ``step_order`` (the Laplacian has
    the pattern of R_1), is built lazily and cached until
    ``Grid.release_factors`` drops it; a backward-Euler step factor depends
    on the absorption field, so ``step_lu`` (the march's, in grid
    coordinates) and ``ordered_step_lu`` (the map's, in the grid's
    ``step_order``) build a fresh one, and callers keep what they reuse.
    They reach their grid by a weak reference, so a dropped grid frees its
    cached factors at once, not at the next cyclic garbage collection.
    """

    def __init__(self, grid: Grid, beta: float):
        if beta <= 0:
            raise ValueError(f"Robin parameter beta must be positive, got {beta}")
        self.grid = weakref.proxy(grid)  # the grid caches its operators
        self.beta = beta
        h = grid.h
        robin = np.zeros(grid.node_count)
        robin[grid.boundary_mask] = h ** (grid.dim - 1) / beta
        self.laplacian = ((grid.stiffness_natural + sp.diags(robin)) / h ** grid.dim).tocsr()
        self.load_weights = np.zeros(grid.node_count)
        self.load_weights[grid.boundary_mask] = 1.0 / (beta * h)
        self._lu_laplacian = None

    def lu_laplacian(self):
        if self._lu_laplacian is None:
            self._lu_laplacian = spla.splu(self.laplacian.tocsc(), permc_spec="MMD_AT_PLUS_A")
        return self._lu_laplacian

    def smooth(self, v: np.ndarray) -> np.ndarray:
        """S v = L^-1 W v: the Robin Poisson solve with source v."""
        return self.lu_laplacian().solve(self.grid.weights * v)

    def smooth_adjoint(self, v: np.ndarray) -> np.ndarray:
        """S' v = W L^-1 v, for a vector or for the columns of an array."""
        return _per_node(self.grid.weights, v) * self.lu_laplacian().solve(v)

    def step_matrix(self, tau: float, absorption: np.ndarray) -> sp.csc_matrix:
        """One backward-Euler step, W/tau + L + W diag(absorption): a symmetric
        M-matrix with the pattern of L for every tau and absorption."""
        w = self.grid.weights
        return (sp.diags(w / tau) + self.laplacian + sp.diags(w * absorption)).tocsc()

    def step_lu(self, tau: float, absorption: np.ndarray):
        """Factorization of one backward-Euler step, W/tau + L + W diag(absorption),
        in grid coordinates: the reference march's.  Not cached: the
        absorption changes with the source being solved for.
        """
        # SuperLU's default COLAMD, unlike every cached factor but the CG's
        # pair: the benchmark reference values of rates-source were recorded
        # on the truth it marches (the given-weight CG amplifies a roundoff
        # change of the truth); ROADMAP item 2 moves the march to the step
        # ordering when item 1 regenerates that reference
        return spla.splu(self.step_matrix(tau, absorption), permc_spec="COLAMD")

    def ordered_step_lu(self, tau: float, absorption: np.ndarray):
        """The same step matrix A factored in the step ordering: ``(lu, order)``.

        lu factors B = A[order][:, order] with ``order = grid.step_order()`` in
        natural order, so it works in permuted coordinates: A x = b is
        B x[order] = b[order], and a caller permutes its loads by ``order``
        and scatters its results back, ``x[order] = y``.  386,976 entries in
        L and U at grid 100, against 659,092 under COLAMD on A; the panel of
        2 columns is the fastest measured for this ordering.  Not cached.
        """
        order = self.grid.step_order()
        B = self.step_matrix(tau, absorption)[order][:, order]
        return spla.splu(B, permc_spec="NATURAL", panel_size=2), order

    def pointwise_laplacian(self, values: np.ndarray) -> np.ndarray:
        """Apply the negative Laplacian nodewise: -Delta_h u = W^-1 (L u).

        Valid for fields satisfying the homogeneous Robin condition; the
        boundary rows use the same elimination as the assembled operator.
        """
        return (self.laplacian @ values) / self.grid.weights
