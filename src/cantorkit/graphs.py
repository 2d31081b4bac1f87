"""Directed-graph Cuntz-Krieger data and directional graph wavelets.

A finite directed graph with no sinks has an E x E edge matrix

    A[e, e'] = 1  iff  r(e) = s(e'),

the adjacency of the edge shift.  Its Perron vector p over edges plays the
role the cylinder weights play on the line: a base vertex v0 plus a base edge
e0 pointing at it seed a family of path wavelets

    Psi^{l_1..l_k}(e_1..e_k) = c^{l_1,e0}_{e_1} c^{l_2,e_1}_{e_2} ... c^{l_k,e_{k-1}}_{e_k},

where c^{l,e} are the weighted-complement coefficient vectors (the *same*
Gram-Schmidt routine as the line wavelets, run with weights p on the
successor set of e).  Each position m admits levels l_m = 1..d_{e_{m-1}} - 1;
edges with a single successor contribute no levels at all.  Zero-mean and
Gram-orthonormality are path-space statements — sums over edge tuples
weighted by p_{e_1}...p_{e_k} — and path_integrals measures them directly,
counting the level tuples it actually summed so that an empty index set
(possible when d_{e0} = 1) is visible rather than silently passing.
"""

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import core, spectral, wavelets
from .core import DEFAULT_CAP, validate_matrix
from .errors import (
    BaseEdgeMismatch,
    CapExceeded,
    IndexOutOfRange,
    LevelOutOfRange,
    MultiplePaths,
    NotComposable,
    SinkFound,
)


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

    def source(self, e):
        return self.edges[e][0]

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
    rows = [[1 if g.range(e) == g.source(e2) else 0
             for e2 in range(len(g.edges))]
            for e in range(len(g.edges))]
    return validate_matrix(rows, strict=False)


def graph_perron(g, tol=spectral.DEFAULT_TOL, max_iter=spectral.DEFAULT_MAX_ITER):
    """PerronData of the edge matrix (checks irreducibility itself)."""
    return spectral.perron_data(edge_matrix(g), tol=tol, max_iter=max_iter)


def vertex_measure(g, v0, p):
    """mu(v) = product of p over the BFS-shortest path v0 -> v, ties lex-min.

    The base vertex gets 0 by convention; unreachable vertices get 0 with a
    warning.  Deterministic: out-edges are scanned in ascending id order and
    the FIFO queue makes the first path found the lexicographically smallest
    among the shortest.  Not normalized — report of the total is the caller's.
    """
    p = np.asarray(p, dtype=float)
    best = {v0: ()}
    queue = [v0]
    while queue:
        nxt = []
        for u in queue:
            for e in g.out_edges[u]:
                v = g.range(e)
                if v not in best:
                    best[v] = best[u] + (e,)
                    nxt.append(v)
        queue = nxt
    out = {}
    for v in range(g.vertex_count):
        if v == v0:
            out[v] = 0.0
        elif v in best:
            val = 1.0
            for e in best[v]:
                val *= float(p[e])
            out[v] = val
        else:
            warnings.warn("vertex %d unreachable from %d; measure 0" % (v, v0))
            out[v] = 0.0
    return out


@dataclass(frozen=True)
class GraphWaveletSet:
    """Coefficient vectors c^{l,e} for every edge, plus the spectral data.

    c[e] holds d_e - 1 vectors (l is 1-based); d[e] is the successor count
    of edge e in the edge shift (= out-degree of r(e)).
    """

    graph: DirectedGraph
    v0: int
    e0: int
    pd: spectral.PerronData
    c: tuple
    d: tuple


def build_graph_wavelets(g, v0, e0, tol=spectral.DEFAULT_TOL,
                         max_iter=spectral.DEFAULT_MAX_ITER):
    """Run the weighted complement construction over the edge shift."""
    if not 0 <= v0 < g.vertex_count:
        raise IndexOutOfRange("vertex %r out of range" % (v0,))
    if not 0 <= e0 < len(g.edges):
        raise IndexOutOfRange("edge %r out of range" % (e0,))
    if g.range(e0) != v0:
        raise BaseEdgeMismatch(
            "base edge %d points at vertex %d, not the base vertex %d"
            % (e0, g.range(e0), v0))
    em = edge_matrix(g)
    pd = spectral.perron_data(em, tol=tol, max_iter=max_iter)
    c = tuple(
        tuple(wavelets.weighted_complement_basis(pd.p, em.successors[e]))
        for e in range(len(g.edges)))
    return GraphWaveletSet(graph=g, v0=v0, e0=e0, pd=pd, c=c, d=em.row_sums)


def _count_paths(gw, k, bound=float("inf")):
    """min(bound + 1, length-k paths leaving v0): edge-shift words from its out-edges."""
    return core.bounded_word_count(gw.pd.matrix, max(k, 0), bound,
                                   first=gw.graph.out_edges[gw.v0])


def paths_from(gw, k, cap=DEFAULT_CAP):
    """All length-k edge paths leaving the base vertex, lexicographic."""
    g = gw.graph
    if cap is not None and _count_paths(gw, k, cap) > cap:
        raise CapExceeded("paths of length %d are over the cap of %d" % (k, cap))
    paths = [()]
    for _ in range(k):
        paths = [pth + (e,)
                 for pth in paths
                 for e in g.out_edges[g.range(pth[-1]) if pth else gw.v0]]
    return paths


def psi_path(gw, path, levels):
    """The wavelet value on one path: the product of complement coefficients.

    Position m draws its vector from the *previous* edge (the base edge at
    m = 1), so each l_m must fit in 1..d_{e_{m-1}} - 1.
    """
    path = tuple(int(e) for e in path)
    levels = tuple(int(l) for l in levels)
    if len(path) != len(levels) or not path:
        raise LevelOutOfRange("need one level per path edge (and k >= 1)")
    g = gw.graph
    for e in path:
        if not 0 <= e < len(g.edges):
            raise IndexOutOfRange("edge %r out of range" % (e,))
    if g.source(path[0]) != gw.v0:
        raise NotComposable(
            "path starts at vertex %d, not the base vertex %d"
            % (g.source(path[0]), gw.v0))
    for m in range(len(path) - 1):
        if g.range(path[m]) != g.source(path[m + 1]):
            raise NotComposable(
                "edges %d and %d do not compose" % (path[m], path[m + 1]))
    value = 1.0
    prev = gw.e0
    for e, l in zip(path, levels):
        if not 1 <= l <= gw.d[prev] - 1:
            raise LevelOutOfRange(
                "level %d invalid after edge %d (d = %d)" % (l, prev, gw.d[prev]))
        value *= float(gw.c[prev][l - 1][e])
        prev = e
    return complex(value)


def valid_level_tuples(gw, path):
    """Level tuples usable on this path; empty when any position has d = 1."""
    ranges = []
    prev = gw.e0
    for e in path:
        if gw.d[prev] < 2:
            return []
        ranges.append(range(1, gw.d[prev]))
        prev = e
    return [tuple(t) for t in itertools.product(*ranges)]


@dataclass(frozen=True)
class PathIntegralReport:
    """Residuals of the zero-mean and Gram-identity path sums at depth k.

    n_tuples counts the level tuples actually summed over; 0 means the
    statements were vacuous at this depth (e.g. the base edge has a single
    successor), which the residuals alone would not reveal.
    """

    depth: int
    n_paths: int
    n_tuples: int
    max_mean_residual: float
    max_gram_residual: float


def path_integrals(gw, k, cap=DEFAULT_CAP):
    """Brute-force the zero-mean and orthonormality sums over all depth-k paths.

    Level tuples invalid on a particular path contribute zero there (the
    wavelet family simply has no member with that index on that branch);
    the Gram matrix is computed over the union of tuples valid somewhere.
    """
    if k < 1:
        raise LevelOutOfRange("depth must be >= 1")
    paths = paths_from(gw, k, cap=cap)
    p = gw.pd.p
    tuple_set = sorted({t for pth in paths for t in valid_level_tuples(gw, pth)})
    if not tuple_set:
        return PathIntegralReport(
            depth=k, n_paths=len(paths), n_tuples=0,
            max_mean_residual=0.0, max_gram_residual=0.0)
    tix = {t: i for i, t in enumerate(tuple_set)}
    psi = np.zeros((len(tuple_set), len(paths)), dtype=np.complex128)
    weights = np.ones(len(paths))
    for j, pth in enumerate(paths):
        for e in pth:
            weights[j] *= p[e]
        for t in valid_level_tuples(gw, pth):
            psi[tix[t], j] = psi_path(gw, pth, t)
    means = psi @ weights
    gram = (np.conj(psi) * weights[None, :]) @ psi.T
    dev = gram - np.eye(len(tuple_set))
    return PathIntegralReport(
        depth=k, n_paths=len(paths), n_tuples=len(tuple_set),
        max_mean_residual=float(np.max(np.abs(means))),
        max_gram_residual=float(np.max(np.abs(dev))))


def psi_on_vertices(gw, levels):
    """Vertex-indexed wavelet values Psi(v) at depth k = len(levels).

    Defined only when each vertex reached at depth k is reached by a single
    path; several paths would assign conflicting values, in which case
    MultiplePaths reports the offending vertex.
    """
    k = len(levels)
    ends = {}
    for pth in paths_from(gw, k):
        v = gw.graph.range(pth[-1])
        if v in ends:
            raise MultiplePaths(
                "vertex %d is reached by several depth-%d paths" % (v, k))
        ends[v] = pth
    return {v: psi_path(gw, pth, levels) for v, pth in sorted(ends.items())}
