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
weighted by p_{e_1}...p_{e_k} — and path_integrals measures them directly.

The length-k paths from v0 are the level-k edge-shift words whose first edge
leaves v0, and Psi on all of them is built one level at a time from each
path's prefix q (core.prefix_index_array):

    Psi^{t.l}(q.e) = Psi^t(q) c^{l, last q}_e,  valid iff t is valid on q and l < d_{last q}.

Depth m costs O(paths x tuples) time and memory (the Gram matrix: tuples^2),
which core.budget counts before allocating; the Gram sums take O(tuples^2 x paths).
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import core, spectral, wavelets
from .core import validate_matrix
from .errors import (
    BaseEdgeMismatch,
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


def graph_perron(g, tol=spectral.DEFAULT_TOL):
    """PerronData of the edge matrix (checks irreducibility itself)."""
    return spectral.perron_data(edge_matrix(g), tol=tol)


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
    em = edge_matrix(g)
    pd = spectral.perron_data(em, tol=tol)
    c = tuple(
        tuple(wavelets.weighted_complement_basis(pd.p, em.successors[e]))
        for e in range(len(g.edges)))
    return GraphWaveletSet(graph=g, v0=v0, e0=e0, pd=pd, c=c, d=em.row_sums)


def paths_from(gw, k):
    """All length-k edge paths leaving the base vertex, lexicographic: the blocks of
    level-k edge-shift words whose first edge leaves v0."""
    words = core.enumerate_words(gw.pd.matrix, k)
    if k == 0:
        return list(words)
    first = core.first_digit_array(gw.pd.matrix, k)
    return [w for e in gw.graph.out_edges[gw.v0]
            for w in words[np.searchsorted(first, e):np.searchsorted(first, e, "right")]]


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
    em, d, starts = gw.pd.matrix, np.array(gw.d), gw.graph.out_edges[gw.v0]
    coef = np.zeros((len(d), max(d.max() - 1, 1), len(d)))   # coef[e, l - 1] = c^{l,e}
    for e, vecs in enumerate(gw.c):
        coef[e, :len(vecs)] = np.reshape(vecs, (len(vecs), len(d)))
    here, last, tuples = np.zeros(1, dtype=np.intp), np.array([gw.e0]), np.zeros((1, 0), int)
    valid, psi, weights, steps = np.ones((1, 1), dtype=bool), np.ones((1, 1)), np.ones(1), []
    for m in range(1, k + 1):   # here: the positions in W_m of the paths from v0
        above, here = here, np.flatnonzero(np.isin(core.first_digit_array(em, m), starts))
        parent = np.searchsorted(above, core.prefix_index_array(em, m, m - 1)[here])
        edge, prev = core.last_digit_array(em, m)[here], last[parent]
        # t.l is valid below the paths q on which t is valid, for l < d[last q]
        top = np.max(np.where(valid, d[last] - 1, 0), axis=1)
        tparent = np.repeat(np.arange(len(top)), top)
        level = np.arange(1, len(tparent) + 1) - np.repeat(np.cumsum(top) - top, top)
        # psi's entries, or the Gram matrix's where the tuples outnumber the paths
        core._check_budget(lambda cap: len(tparent) * max(len(here), len(tparent)),
                           "paths of length %d are over the cap of %d", k)
        pairs = np.ix_(tparent, parent)
        valid = valid[pairs] & (level[:, None] < d[prev])
        psi = np.where(valid, psi[pairs] * coef[prev, level[:, None] - 1, edge], 0.0)
        tuples = np.column_stack((tuples[tparent], level))
        weights, last = weights[parent] * gw.pd.p[edge], edge
        steps.append((parent, edge))
    paths, at = np.empty((len(last), k), dtype=np.intp), np.arange(len(last))
    for m in range(k - 1, -1, -1):   # each path's edges, read back through its prefixes
        parent, edge = steps[m]
        paths[:, m], at = edge[at], parent[at]
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


def psi_on_vertices(gw, levels):
    """Vertex-indexed wavelet values Psi(v) at depth k = len(levels).

    Defined only when each vertex reached at depth k is reached by a single
    path; several paths would assign conflicting values, in which case
    MultiplePaths reports the offending vertex.
    """
    k = len(levels)
    if k < 1:
        raise LevelOutOfRange("need one level per path edge (and k >= 1)")
    ends = {}
    for pth in paths_from(gw, k):
        v = gw.graph.range(pth[-1])
        if v in ends:
            raise MultiplePaths(
                "vertex %d is reached by several depth-%d paths" % (v, k))
        ends[v] = pth
    return {v: psi_path(gw, pth, levels) for v, pth in sorted(ends.items())}
