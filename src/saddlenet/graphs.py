"""Undirected connected communication graphs and Laplacian spectral bounds.

The distributed algorithms never materialize the Kronecker product
``L (x) I_m``; every Laplacian product is assembled from per-agent
neighbor sums. The pass that `NetworkGraph.pass_workspace` returns is
the one place that performs that assembly. It sums in a fixed order
(ascending neighbor index, onto zeros) and leaves the padded ranks of
lower-degree vertices at exact zeros, so that the vectorized stacked
computation and a literal per-agent message-passing loop produce
identical floating-point results. It gathers its operands from a flat
buffer, one point or a stack, through a plan of absolute indices from
`NetworkGraph.gather_plan`, which `pass_workspace` checks against that
buffer and binds to it and to work buffers; each pass writes into the
output it is given. There is one layout: per-vertex rows, vertex by
vertex. `lap_apply` takes rows ``(..., n, c)`` as their flat buffer
``(..., n * c)`` and builds and binds a plan of `c` columns per vertex
on each call. The stacked consensus and allocation operators build
theirs with the operator, over their flat iterates, and bind it once
per workspace; every row bound to the workspace passes its own output,
so that their passes allocate nothing.

The step sizes of both networked problems rest on `lambda_max`, an upper
bound by construction: `core.spectral_norm` of the dense Laplacian.
"""

import collections
import functools

import numpy as np

from .core import spectral_norm

__all__ = ["NetworkGraph", "ring", "random_connected", "lambda_max"]


class NetworkGraph(object):
    """Undirected connected graph on `n` vertices.

    Parameters
    ----------
    n : int
        Vertex count, at least 1.
    edges : iterable of pairs
        Unordered pairs `(i, j)` with ``i != j``; duplicates collapse.

    Raises
    ------
    ValueError
        On out-of-range vertices, self-loops, or a disconnected graph
        (checked by breadth-first search, linear in the edge count).
    """

    def __init__(self, n, edges):
        n = int(n)
        if n < 1:
            raise ValueError("need at least one vertex")
        canon = set()
        for (i, j) in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError("self-loop at vertex {}".format(i))
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("edge ({}, {}) out of range".format(i, j))
            canon.add((min(i, j), max(i, j)))
        self.n = n
        self.edges = sorted(canon)
        self.neighbors = [[] for _ in range(n)]
        for (i, j) in self.edges:
            self.neighbors[i].append(j)
            self.neighbors[j].append(i)
        for lst in self.neighbors:
            lst.sort()
        self.degrees = np.array([len(lst) for lst in self.neighbors])
        self.max_degree = int(self.degrees.max(initial=0))
        # padded neighbor index table by rank: row k holds the k-th sorted
        # neighbor of every vertex, padded with the vertex itself; on an
        # irregular graph `_real` marks the entries that are neighbors, and
        # a pass leaves the padded differences at zero (u_i - u_i
        # would be NaN for an infinite u_i)
        self._nbr = np.empty((self.max_degree, n), dtype=int)
        for i in range(n):
            pad = [i] * (self.max_degree - len(self.neighbors[i]))
            self._nbr[:, i] = self.neighbors[i] + pad
        self._real = None
        if self.degrees.min() < self.max_degree:
            self._real = np.arange(self.max_degree)[:, None] < self.degrees
        if not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self):
        """Breadth-first search from vertex 0 over `neighbors`."""
        seen = {0}
        queue = collections.deque([0])
        while queue:
            for j in self.neighbors[queue.popleft()]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        return len(seen) == self.n

    def laplacian(self):
        """Return the dense Laplacian L = D - A as an `(n, n)` array."""
        L = np.zeros((self.n, self.n))
        for (i, j) in self.edges:
            L[i, j] -= 1.0
            L[j, i] -= 1.0
            L[i, i] += 1.0
            L[j, j] += 1.0
        return L

    def gather_plan(self, starts, width):
        """Plan of one Laplacian pass over column blocks of a flat buffer.

        Parameters
        ----------
        starts : sequence of int
            Offsets of the blocks in the buffer. Each block holds `width`
            values per vertex, vertex by vertex (``n * width`` entries).
        width : int
            Values per vertex in each block.

        Returns
        -------
        (index, real)
            `index` ``(2, max degree, cols)`` with ``cols = len(starts)
            * n * width``. Row k of ``index[1]`` holds each column's
            entry at its vertex's k-th neighbor in ascending order,
            padded with the vertex itself; every row of ``index[0]``
            holds the column's own entry, so that both halves of the
            gather have one shape. `real` ``(max degree, cols)`` marks
            the ranks that are neighbors; None on a regular graph,
            where every rank is.
        """
        ranks = self._nbr.shape
        verts = np.stack([np.broadcast_to(np.arange(self.n), ranks),
                          self._nbr])[..., None, :, None]
        index = (np.asarray(starts, dtype=int)[:, None, None]
                 + verts * width + np.arange(width))
        cols = len(starts) * self.n * width
        real = None
        if self._real is not None:
            real = np.broadcast_to(self._real[:, None, :, None],
                                   index.shape[1:]).reshape(ranks[0], cols)
        return index.reshape(2, ranks[0], cols), real

    def pass_workspace(self, plan, flat):
        """The Laplacian pass of `plan` over `flat`, bound to fixed buffers.

        Parameters
        ----------
        plan : tuple
            ``(index, real)`` from `gather_plan`.
        flat : array of shape (..., size)
            The buffer every pass reads, one buffer or a stack of them;
            leading axes are independent.

        Returns
        -------
        callable
            ``lap_pass(out)``, the pass over the current values of
            `flat` into `out`, an array ``(..., cols)`` with `flat`'s
            leading axes: column c of `out` gets ``sum over neighbors j
            of (u_c - u_(c at j))``, accumulated onto zeros in ascending
            neighbor order, as a per-vertex loop sums, and `out` is
            returned. Padded ranks add exact zeros (``u - u`` would be
            NaN for an infinite ``u``). The gather and difference
            buffers are fixed here, so that a pass allocates nothing and
            unpacks no plan, and one pass serves every output. This is
            the only form a pass takes: the fused operators bind theirs
            once per workspace, `lap_apply` once per call.

        Raises
        ------
        IndexError
            When the plan reaches past the end of `flat`; checked here
            once, not on each pass.
        """
        index, real = plan
        if index.size and index.max() >= flat.shape[-1]:
            raise IndexError("plan reaches past a buffer of {} entries"
                             .format(flat.shape[-1]))
        lead = flat.shape[:-1]
        taken = np.empty(lead + index.shape)
        own, nbrs = taken[..., 0, :, :], taken[..., 1, :, :]
        # padded ranks are never written, so they keep these zeros
        fill = np.empty if real is None else np.zeros
        diffs = fill(lead + index.shape[1:])
        # a regular graph has no padded ranks, and an unmasked difference
        # dispatches faster
        where = {} if real is None else {"where": real}
        difference = functools.partial(np.subtract, own, nbrs, diffs, **where)
        take, total = flat.take, np.add.reduce

        def lap_pass(out):
            # one gather for the own entries and all ranks; binding
            # checked the plan against the buffer, so clipping changes no
            # index, and spares the copy a checked gather makes
            take(index, -1, taken, "clip")
            difference()
            # rank by rank onto zeros: the rank axis lies outside the
            # columns, so the reduction adds whole rows in order, as a
            # loop would (an innermost reduction sums pairwise from 8
            # terms up); axis, dtype, out, keepdims and initial go
            # positionally, which dispatches faster
            return total(diffs, -2, None, out, False, 0.0)

        return lap_pass

    def lap_apply(self, u):
        """Apply the Laplacian through neighbor sums.

        Parameters
        ----------
        u : array of shape (n,) or (..., n, c)
            One value per vertex, or per-vertex rows of `c` values;
            leading axes, such as a stack of points, are independent.

        Returns
        -------
        array of the same shape
            Row i holds ``sum over neighbors j of (u_i - u_j)``, from
            one pass over the flat vertex-major buffer of `u`
            through a plan of `c` columns per vertex, the layout the
            fused operators pass. Columns are independent, so stacking
            several vectors as columns or as points of one call gives
            the same values as one call per vector. The result is
            C-ordered, as sums over it assume.
        """
        u = np.asarray(u, dtype=float)
        if u.shape[-2:-1] != (self.n,) and u.shape != (self.n,):
            raise ValueError("u has shape {}, expected ({},) or (..., {}, c)"
                             .format(u.shape, self.n, self.n))
        width = u.shape[-1] if u.ndim > 1 else 1
        flat = u.reshape(u.shape[:-2] + (self.n * width,))
        lap_pass = self.pass_workspace(self.gather_plan((0,), width), flat)
        return lap_pass(np.empty(flat.shape)).reshape(u.shape)

    def __repr__(self):
        return "NetworkGraph(n={}, edges={})".format(self.n, len(self.edges))


def ring(n):
    """Cycle graph on `n >= 3` vertices."""
    if n < 3:
        raise ValueError("a ring needs at least 3 vertices")
    return NetworkGraph(n, [(i, (i + 1) % n) for i in range(n)])


def random_connected(n, edge_prob, seed):
    """Erdos-Renyi draw forced connected by a random spanning tree.

    Each vertex beyond the first attaches to a uniformly chosen earlier
    vertex (after a random relabeling), then every remaining pair is
    added independently with probability `edge_prob`. The same seed
    reproduces the same edge set.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if not (0 < edge_prob <= 1):
        raise ValueError("edge_prob must be in (0, 1]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges = set()
    for k in range(1, n):
        attach = order[rng.integers(0, k)]
        edges.add((min(order[k], attach), max(order[k], attach)))
    # one draw per pair (i, j > i), row by row: the same stream as one
    # scalar `rng.random()` per pair, in O(n) memory
    for i in range(n - 1):
        hit = np.flatnonzero(rng.random(n - 1 - i) < edge_prob) + (i + 1)
        edges.update((i, j) for j in hit.tolist())
    return NetworkGraph(n, edges)


def lambda_max(graph):
    """Certified upper bound on the largest Laplacian eigenvalue.

    The Laplacian is symmetric positive semidefinite, so its top
    eigenvalue is its spectral norm: `core.spectral_norm` of the dense
    Laplacian, which rounds LAPACK's value up by its backward-error
    margin. The result is capped at ``2 * max degree``, an exact upper
    bound (Anderson and Morley), so even rings give exactly 4.
    """
    return min(spectral_norm(graph.laplacian()), 2.0 * graph.max_degree)
