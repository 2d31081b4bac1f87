"""Directed-graph Cuntz-Krieger data and directional graph wavelets.

A finite directed graph with no sinks has an E x E edge matrix

    A[e, e'] = 1  iff  r(e) = s(e'),

the adjacency of the edge shift.  Its Perron vector p over edges plays the
role the cylinder weights play on the line: a base vertex v0 plus a base edge
e0 pointing at it seed a family of path wavelets

    Psi^{l_1..l_k}(e_1..e_k) = c^{l_1,e0}_{e_1} c^{l_2,e_1}_{e_2} ... c^{l_k,e_{k-1}}_{e_k},

where c^{l,e} are the weighted-complement coefficient vectors: the weighted
Gram-Schmidt with weights p on the successor set of e, the edges leaving r(e).
So they are per vertex, one solve shared by the edges into it, made by the
helper that gives the line's mother wavelets their vectors, on the edge
matrix's Perron data, so both constructions share one routine and its bits.
Each position m admits levels l_m = 1..d_{e_{m-1}} - 1;
edges with a single successor contribute no levels at all.  Zero-mean and
Gram-orthonormality are path-space statements — sums over edge tuples
weighted by p_{e_1}...p_{e_k} — and path_integrals measures them directly.

The length-k paths from v0 grow from e0 one edge at a time: each path of
length m - 1 is followed by the edge-shift successors of its last edge, in
order (at m = 1 those of e0, the edges leaving v0), so they come out
lexicographic and no table of a whole edge-shift level is built.  Psi on all
of them grows alongside, from each path's prefix q:

    Psi^{t.l}(q.e) = Psi^t(q) c^{l, last q}_e,  valid iff t is valid on q and l < d_{last q}.

Since last q ends where e starts, c^{l, last q}_e is entry (l - 1, e) of one
levels x E table, built once from the distinct vector sets.  Depth m costs
O(paths x tuples) time and memory (the Gram matrix: tuples^2), which
core.budget counts before allocating, and counts the paths alone where no
tuple is left; the Gram sums take O(tuples^2 x paths).
path_integrals returns that whole table, paths and level tuples included, with
the two residuals; Psi on one path is read off it, with no scalar evaluator here.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import core, spectral, wavelets
from .core import validate_matrix
from .errors import BaseEdgeMismatch, IndexOutOfRange, LevelOutOfRange, SinkFound


@dataclass(frozen=True)
class DirectedGraph:
    """Vertices 0..V-1; edges[id] = (source, range)."""

    vertex_count: int
    edges: tuple

    @cached_property
    def out_edges(self):
        """Edge ids leaving each vertex, ascending."""
        out = [[] for _ in range(self.vertex_count)]
        for eid, (s, _) in enumerate(self.edges):
            out[s].append(eid)
        return tuple(tuple(e) for e in out)

    def range(self, e):
        return self.edges[e][1]


def directed_graph(vertex_count, edges):
    """Validate and freeze a graph; every vertex needs an outgoing edge."""
    edges = tuple((int(s), int(r)) for s, r in edges)
    if vertex_count < 1 or not edges:
        raise SinkFound("graph needs at least one vertex and one edge")
    for s, r in edges:
        if not (0 <= s < vertex_count and 0 <= r < vertex_count):
            raise IndexOutOfRange("edge (%d, %d) out of vertex range" % (s, r))
    g = DirectedGraph(vertex_count=vertex_count, edges=edges)
    for v in range(vertex_count):
        if not g.out_edges[v]:
            raise SinkFound("vertex %d has no outgoing edge" % v)
    return g


def edge_matrix(g):
    """The E x E edge-shift matrix: A[e, e'] = 1 iff r(e) = s(e')."""
    s, r = np.array(g.edges).T
    return validate_matrix((r[:, None] == s[None, :]).tolist(), strict=False)


def graph_perron(g, tol=spectral.DEFAULT_TOL):
    """PerronData of the edge matrix (checks irreducibility itself)."""
    return spectral.perron_data(edge_matrix(g), tol=tol)


@dataclass(frozen=True)
class GraphWaveletSet:
    """Coefficient vectors c^{l,e} for every edge, plus the spectral data.

    c[e] holds d_e - 1 vectors (l is 1-based), one tuple shared by every edge
    into r(e); d[e] is the successor count of e (= out-degree of r(e)).
    """

    graph: DirectedGraph
    v0: int
    e0: int
    pd: spectral.PerronData
    c: tuple
    d: tuple


def build_graph_wavelets(g, v0, e0, tol=spectral.DEFAULT_TOL):
    """Run the weighted complement construction over the edge shift."""
    if not 0 <= v0 < g.vertex_count:
        raise IndexOutOfRange("vertex %r out of range" % (v0,))
    if not 0 <= e0 < len(g.edges):
        raise IndexOutOfRange("edge %r out of range" % (e0,))
    if g.range(e0) != v0:
        raise BaseEdgeMismatch(
            "base edge %d points at vertex %d, not the base vertex %d"
            % (e0, g.range(e0), v0))
    pd = graph_perron(g, tol=tol)
    return GraphWaveletSet(graph=g, v0=v0, e0=e0, pd=pd, c=wavelets._complement_vectors(pd),
                           d=pd.matrix.row_sums)


@dataclass(frozen=True)
class PathIntegralReport:
    """Residuals of the zero-mean and Gram-identity path sums at depth k.

    n_tuples counts the level tuples actually summed over; 0 means the
    statements were vacuous at this depth (e.g. the base edge has a single
    successor), which the residuals alone would not reveal.  The table summed
    comes along: the level tuples and the paths (rows, lexicographic) index
    valid and psi (tuples x paths, psi 0 where invalid).
    """

    depth: int
    n_paths: int
    n_tuples: int
    max_mean_residual: float
    max_gram_residual: float
    tuples: np.ndarray = field(default=None, repr=False, compare=False)
    paths: np.ndarray = field(default=None, repr=False, compare=False)
    valid: np.ndarray = field(default=None, repr=False, compare=False)
    psi: np.ndarray = field(default=None, repr=False, compare=False)


def _psi_levels(gw, k):
    """The level tuples and paths (rows, lexicographic), valid and psi (tuples x paths,
    psi 0 where invalid) and the path weights at depth k, built one edge per level."""
    if k < 1:
        raise LevelOutOfRange("depth must be >= 1")
    d = np.array(gw.d)
    coef = np.zeros((max(d.max() - 1, 1), len(d)))   # coef[l - 1, e'] = c^{l,e}_{e'}, any e -> e'
    for row, vecs in dict(zip(gw.pd.matrix.successors, gw.c)).items():
        coef[:len(vecs), row] = np.reshape(vecs, (len(vecs), len(d)))[:, row]
    succ = gw.pd.matrix.array.astype(bool)   # succ[e]: the edges that may follow e
    last, steps = np.array([gw.e0]), []
    valid, psi, weights = np.ones((1, 1), dtype=bool), np.ones((1, 1)), np.ones(1)
    for _ in range(k):   # each path grows by the successors of its last edge, in order
        # t.l is valid below the paths q on which t is valid, for l < d[last q]
        top = np.max(np.where(valid, d[last] - 1, 0), axis=1)
        tparent = np.repeat(np.arange(len(top)), top)
        level = np.arange(1, len(tparent) + 1) - np.repeat(np.cumsum(top) - top, top)
        # psi's entries, the Gram matrix's where the tuples outnumber the paths, or with no
        # tuples the paths
        core._check_budget(lambda cap: max(len(tparent), 1) * max(d[last].sum(), len(tparent)),
                           "paths of length %d are over the cap of %d", k)
        parent, edge = np.nonzero(succ[last])   # through a paths x E mask, a byte each
        pairs = np.ix_(tparent, parent)
        valid = valid[pairs] & (level[:, None] < d[last][parent])
        psi = np.where(valid, psi[pairs] * coef[level[:, None] - 1, edge], 0.0)
        steps.append((tparent, level, parent, edge))
        weights, last = weights[parent] * gw.pd.p[edge], edge
    tuples, paths = np.empty((len(psi), k), dtype=int), np.empty((len(last), k), dtype=np.intp)
    trow, prow = np.arange(len(tuples)), np.arange(len(paths))
    for m in range(k - 1, -1, -1):   # each row's entries, read back through its parents
        tparent, level, parent, edge = steps[m]
        tuples[:, m], paths[:, m], trow, prow = level[trow], edge[prow], tparent[trow], parent[prow]
    return tuples, paths, valid, psi, weights


def path_integrals(gw, k):
    """Brute-force the zero-mean and orthonormality sums over all depth-k paths.

    Level tuples invalid on a particular path contribute zero there (the
    wavelet family simply has no member with that index on that branch);
    the Gram matrix is computed over the union of tuples valid somewhere.
    """
    tuples, paths, valid, psi, weights = _psi_levels(gw, k)
    z = psi.astype(np.complex128)
    means = z @ weights
    gram = (np.conj(z) * weights[None, :]) @ z.T
    dev = gram - np.eye(len(z))
    return PathIntegralReport(   # no tuples: both sums are empty, and read 0
        depth=k, n_paths=len(paths), n_tuples=len(tuples),
        max_mean_residual=float(np.max(np.abs(means), initial=0.0)),
        max_gram_residual=float(np.max(np.abs(dev), initial=0.0)),
        tuples=tuples, paths=paths, valid=valid, psi=psi)

