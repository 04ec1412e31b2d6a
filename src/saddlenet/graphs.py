"""Undirected connected communication graphs and Laplacian spectral bounds.

The distributed algorithms never materialize the Kronecker product
``L (x) I_m``; every Laplacian product is assembled from per-agent
neighbor sums. `NetworkGraph.lap_apply` performs that assembly with a
fixed accumulation order (ascending neighbor index) so that the
vectorized stacked computation and a literal per-agent message-passing
loop produce identical floating-point results.
"""

import collections

import numpy as np

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
        # `lap_apply` leaves the padded differences at zero (u_i - u_i
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

    def fiedler_value(self):
        """Second-smallest Laplacian eigenvalue; positive iff connected."""
        vals = np.linalg.eigvalsh(self.laplacian())
        return float(vals[1]) if self.n > 1 else 0.0

    def lap_apply(self, u):
        """Apply the Laplacian through neighbor sums.

        Parameters
        ----------
        u : array of shape (n,) or (n, m)
            One value (or m-vector) per vertex.

        Returns
        -------
        array of the same shape
            Row i holds ``sum over neighbors j of (u_i - u_j)``,
            accumulated onto zeros in ascending neighbor order. Columns
            are independent, so stacking several vectors as columns of
            one call gives the same values as one call per vector.
        """
        u = np.asarray(u, dtype=float)
        # one gather for all ranks; block k holds u_i - u_(k-th neighbor of i)
        taken = u.take(self._nbr, axis=0)
        if self._real is None:
            diffs = u - taken
        else:
            diffs = np.zeros(taken.shape)
            real = self._real.reshape(self._real.shape + (1,) * (u.ndim - 1))
            np.subtract(u, taken, out=diffs, where=real)
        out = np.zeros(u.shape)
        for block in diffs:
            out += block
        return out

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
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.add((i, j))
    return NetworkGraph(n, edges)


def lambda_max(graph, tol=1e-10, max_iters=10000):
    """Largest Laplacian eigenvalue by power iteration.

    Starts from the all-ones vector perturbed at index 0 so runs are
    reproducible, and stops when the Rayleigh quotient settles within
    `tol`. The result is checked against the Gershgorin bound
    ``2 * max degree``.

    Raises
    ------
    RuntimeError
        When the iteration has not settled after `max_iters` steps.
    """
    L = graph.laplacian()
    if graph.n == 1:
        return 0.0
    v = np.ones(graph.n)
    v[0] += 1.0
    v /= np.linalg.norm(v)
    prev = np.inf
    for _ in range(max_iters):
        w = L @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        eig = float(v @ (L @ v))
        if abs(eig - prev) <= tol * max(1.0, abs(eig)):
            bound = 2.0 * graph.max_degree
            if eig > bound + 1e-9:
                raise RuntimeError("eigenvalue exceeds the Gershgorin bound")
            return min(eig, bound)
        prev = eig
    raise RuntimeError("power iteration did not converge")
