"""Scalar and per-word reference forms that the package itself does not need.

Each function here was once part of the package's public surface.  No verb,
kernel, benchmark workload or acceptance check calls any of them, so they live
with the tests, which compare the array kernels against them bit for bit and
keep their own behaviour pinned.  The code is as the package had it, with the
package's names reached through its modules.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from cantorkit import core, operators, ruelle, spectral
from cantorkit.core import CylinderFunction, validate_matrix
from cantorkit.errors import (
    DataError,
    EmptyWord,
    IndexOutOfRange,
    LevelOutOfRange,
    NotComposable,
    NotInDomain,
)


class MultiplePaths(DataError):
    """A vertex-indexed wavelet value is ambiguous: several paths reach the vertex."""


# --- words and cylinder functions (core) -----------------------------------------


def shift(word):
    """Drop the leading digit:  sigma(a_1 a_2 ... a_k) = a_2 ... a_k."""
    if len(word) == 0:
        raise EmptyWord("cannot shift the empty word")
    return tuple(word[1:])


def prepend(i, word, matrix):
    """Attach digit i in front of word; requires A[i, word_1] = 1."""
    i = int(i)
    if not 0 <= i < matrix.n:
        raise NotInDomain("digit %d out of range for N = %d" % (i, matrix.n))
    if word and not matrix.rows[i][word[0]]:
        raise NotInDomain(
            "prepend %d to word starting with %d: A[%d, %d] = 0"
            % (i, word[0], i, word[0]))
    return (i,) + tuple(word)


def multiply(f, g):
    """Pointwise product of two cylinder functions."""
    f2, g2, m = f._common(g)
    return CylinderFunction(f.matrix, m, core._frozen(f2.coeffs * g2.coeffs))


def compose_shift(f):
    """f o sigma, one level finer:  (f o sigma)(x) = f(shift of x)."""
    k = f.level + 1
    return CylinderFunction(
        f.matrix, k, core._frozen(f.coeffs[core.shift_index_array(f.matrix, k)]))


def coeff(f, word):
    """The value f takes on the cylinder of `word`, an admissible word of f's level."""
    word = tuple(word)
    if len(word) != f.level:
        raise LevelOutOfRange("word %r is not of level %d" % (word, f.level))
    return complex(f.coeffs[core.rank(f.matrix, word)])


# --- the spectral measure on cylinder unions (operators) --------------------------


@dataclass(frozen=True)
class BorelSet:
    """A finite disjoint union of level-`level` cylinders, listed by word."""

    level: int
    words: tuple


def borel_set(matrix, level, words):
    """Validate, deduplicate, and sort a cylinder union into a BorelSet."""
    seen = set()
    out = []
    for w in words:
        w = core.check_word(matrix, w)
        if len(w) != level:
            raise LevelOutOfRange(
                "word %r has length %d, set has level %d" % (w, len(w), level))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return BorelSet(level=level, words=tuple(sorted(out)))


def measure_mu_f(f, borel, pd):
    """The spectral measure mu_f(B) = <f, E(B) f> on a cylinder union B.

    E(Lambda(a)) is the range projection S_a S_a*, i.e. multiplication by
    chi_{Lambda(a)}, so mu_f(B) is just the |f|^2-mass of B under mu.
    Intended for unit vectors (then mu_f is a probability measure); warns
    when ||f|| strays from 1 by more than 1e-9.
    """
    operators._check(f, pd)
    nrm = spectral.norm(f, pd)
    if abs(nrm - 1.0) > 1e-9:
        warnings.warn("measure_mu_f: ||f|| = %.12g, not a unit vector" % nrm)
    masses = operators._cylinder_masses(f, borel.level, pd)
    return float(masses[[core.rank(pd.matrix, w) for w in borel.words]].sum())


# --- the truncated harmonic series (ruelle) ---------------------------------------


def harmonic_truncated(x, potential, matrix, kmax):
    """Partial sum of the layer masses, depths 1..kmax, from one walk."""
    if kmax < 1:
        raise LevelOutOfRange("kmax must be >= 1")
    return ruelle._sum_in_order(ruelle._sum_in_order(layer.tolist())
                                for layer in ruelle.walk_layers(x, potential, matrix, kmax)[1:])


def potential_at(potential, digits, value):
    """W at one point named by its digits and value, through PointwisePotential.values."""
    d = tuple(digits)[:2] + (0, 0)
    return float(potential.values(np.array([d[0]]), np.array([d[1]]),
                                  np.array([float(value)]))[0])


# --- planar cells (sierpinski) ----------------------------------------------------


def sierpinski_cuntz_rep(spec):
    """The all-ones D x D matrix: the full shift on pair letters.

    Every subdivision map of the planar fractal is everywhere defined, so the
    operator calculus on it is the D-letter full-shift one; feed this matrix
    to the spectral/operator modules (radius D, uniform weights 1/D).
    """
    d = spec.D
    return validate_matrix([[1] * d for _ in range(d)], strict=True)


def sierpinski_cells(spec, depth):
    """The depth-k cells as (xword, yword) pairs of tuples, lexicographic by pair letter:
    the product enumeration sierpinski.cells ran before cells were full-shift words."""
    return [(tuple(p[0] for p in combo), tuple(p[1] for p in combo))
            for combo in itertools.product(spec.letter_map, repeat=depth)]


def pair_index(spec):
    """Map each digit pair (i, j) of a planar fractal to its pair letter."""
    return {pair: t for t, pair in enumerate(spec.letter_map)}


# --- vertices and single paths (graphs) -------------------------------------------


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


# --- graph files (fileio) ----------------------------------------------------------


def format_graph(g):
    """The graph file of `g`, as fileio.parse_graph reads it; no verb writes one."""
    lines = ["%d %d" % (g.vertex_count, len(g.edges))]
    for s, r in g.edges:
        lines.append("%d %d" % (s, r))
    return "\n".join(lines) + "\n"
