"""Scalar and per-word reference forms that the package itself does not need.

Each function here was once part of the package's public surface.  No verb,
kernel or benchmark workload calls any of them, so they live with the tests,
which compare the array kernels against them bit for bit and keep their own
behaviour pinned.  Some are also the references of the acceptance checks: the
one-vector-at-a-time wavelet basis, the walk's per-word measure and layer mass,
the N-adic point of a word, the Fourier tail bound and the plane embedding.
The code is as the package had it, with the package's names reached through
its modules.
"""

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from cantorkit import core, operators, ruelle, spectral, wavelets
from cantorkit.core import CylinderFunction, validate_matrix
from cantorkit.errors import (
    DataError,
    EmptyWord,
    IndexOutOfRange,
    LevelOutOfRange,
)


class MultiplePaths(DataError):
    """A vertex-indexed wavelet value is ambiguous: several paths reach the vertex."""


class NotComposable(DataError):
    """Operators or path edges do not compose (range/source mismatch)."""


class NotInDomain(DataError):
    """A prepend i.w was requested with i out of range or A[i, w_1] = 0."""


class WordTooShort(DataError):
    """A word is too short to embed."""


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


@core._table()
def suffix_index_array(matrix, k, k0):
    """For each level-k word w, the position of its level-k0 suffix sigma^(k-k0) w in W_k0."""
    core.check_level(k0)
    if k0 > k:
        raise LevelOutOfRange("level %d has no level-%d suffixes" % (k, k0))
    idx = np.arange(core.word_count(matrix, k0), dtype=np.intp)
    for j in range(k0 + 1, k + 1):   # the level-j suffixes, one gather of |W_j| each
        idx = idx[core.shift_index_array(matrix, j)]
    return core._frozen(idx)


@dataclass(frozen=True)
class Point:
    """A point of the Cantor set with the digit word that produced it."""

    word: tuple
    value: float


def nadic_value(word, n):
    """The point x(a) = sum_m a_m n^-m addressed by a digit word."""
    v = 0.0
    for d in reversed(word):
        v = (v + d) / n
    return Point(word=tuple(word), value=v)


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


# --- the spectral measure on cylinder unions and the Fourier tail (operators) ------


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


def fourier_tail_bound(t, k, n):
    """Bound on |fourier_approx(f,t,k) - fourier_approx(f,t,k+m)| for unit f.

    Each level of refinement moves every sample point x(a) by at most n^-k,
    so the level-k transform sits within |t| n^-k of the limit and two
    truncations differ by at most twice that.
    """
    return 2.0 * abs(t) * float(n) ** (-k)


# --- one basis vector at a time (wavelets) -----------------------------------------


def mother(mw, r, l):
    """The level-2 mother f^{l,r}: row l - 1 of F_r on the words r.j, zero elsewhere."""
    mat = mw.matrix
    if not (0 <= r < mat.n and 1 <= l < mw.d[r]):
        raise IndexOutOfRange("no mother wavelet with letter %r, index %r" % (r, l))
    start = sum(mat.row_sums[:r])   # the words r.j are contiguous in W_2
    coeffs = np.zeros(core.word_count(mat, 2), dtype=np.complex128)
    coeffs[start:start + mw.d[r]] = mw.fmat[r][l - 1]
    return CylinderFunction(mat, 2, coeffs)


def wavelet(a, l, r, mw):
    """The translate psi^{l,r}_a = S_a f^{l,r}; the empty word returns the mother.

    Unit norm at level |a| + 2.  Requires A[a_last, r] = 1: S_{a_last} kills
    anything supported outside D_{a_last}, so an incomposable pair would be
    the zero function, not a basis vector.
    """
    a = core.check_word(mw.matrix, a)
    f = mother(mw, r, l)
    if a and not mw.matrix.rows[a[-1]][r]:
        raise NotComposable(
            "wavelet letter %d does not follow word ending in %d" % (r, a[-1]))
    return operators.apply_S_word(a, f, mw.pd)


def basis_labels(mw, K):
    """Canonical labels of the orthonormal basis of level-K functions.

    ("S", i) scaling, ("D", a, l, r) the wavelet S_a f^{l,r}.
    """
    return ([("S", i) for i in range(mw.matrix.n)]
            + [("D", a, l, r) for (a, l, r) in wavelets.detail_keys(mw, K)])


def basis_function(mw, label):
    """The basis function of a label: mu(R_i)^{-1/2} chi_{R_i} for ("S", i), at level 1,
    and the wavelet S_a f^{l,r} for ("D", a, l, r)."""
    if label[0] == "S":
        i = label[1]
        return CylinderFunction.indicator(mw.matrix, (i,)) * (1.0 / math.sqrt(mw.pd.p[i]))
    if label[0] == "D":
        return wavelet(label[1], label[2], label[3], mw)
    raise IndexOutOfRange("unknown basis label %r" % (label,))


# --- the walk, word by word, and the truncated harmonic series (ruelle) ------------


def _sum_in_order(values):
    """0.0 + v_1 + v_2 + ... left to right; sum() of floats compensates from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0)


def walk_measure(x, potential, a, matrix):
    """P_x(Lambda_{k,A^t}(a)): the W-weight of walking x upward along a.

    Multiplies W along the forward orbit x -> sigma_{a_1} x -> ..., with the
    gate A[a_1, x_1] zeroing walks whose first step cannot sit in front of x.
    """
    if len(x.word) == 0:
        raise EmptyWord("walk needs a starting point with at least one digit")
    core.check_word(matrix, x.word)
    a = core.check_word(matrix.transpose, a)
    if len(a) == 0:
        return 1.0
    if not matrix.rows[a[0]][x.word[0]]:
        return 0.0
    points = [x.value]
    for d in a:
        points.append((points[-1] + d) / matrix.n)
    return math.prod(potential.values(np.array(a), np.array((x.word[0],) + a[:-1]),
                                      np.array(points[1:])).tolist())


def walk_layer_mass(x, potential, matrix, k):
    """Total P_x-mass of depth-k cylinders (equals 1 for Keane potentials)."""
    return _sum_in_order(ruelle.walk_layers(x.word, potential, matrix, k)[-1].tolist())


def harmonic_truncated(x, potential, matrix, kmax):
    """Partial sum of the layer masses, depths 1..kmax, from one walk."""
    if kmax < 1:
        raise LevelOutOfRange("kmax must be >= 1")
    return _sum_in_order(_sum_in_order(layer.tolist())
                         for layer in ruelle.walk_layers(x.word, potential, matrix, kmax)[1:])


def potential_at(potential, digits, value):
    """W at one point named by its digits and value, through PointwisePotential.values."""
    d = tuple(digits)[:2] + (0, 0)
    return float(potential.values(np.array([d[0]]), np.array([d[1]]),
                                  np.array([float(value)]))[0])


# --- one-expression forms of the transfer kernels (ruelle, spectral) ----------------
#
# Each kernel below once was the expression kept here, which allocates a fresh array
# for every operation; the package now writes the same operations into its output
# and at most one scratch array.  The differential fuzz compares the two bit for bit.


def trig_evaluator(matrix):
    """The cosine potential's evaluator as one expression, with integer column sums."""
    col = np.array(matrix.col_sums, dtype=np.intp)

    def evaluator(first, second, value):
        n1 = col[second]
        return (1.0 - np.cos(2.0 * math.pi * matrix.n * value / n1)) / n1

    return evaluator


def trig_coefficients(pd, k):
    """trig_potential's level-k cylinder sampling: the float samples, copied to complex."""
    pointwise = ruelle.PointwisePotential(trig_evaluator(pd.matrix))
    return ruelle._endpoint_values(pointwise, pd.matrix, k).astype(np.complex128)


def preimage_keane_residual(potential, pd, level):
    level = max(level, 1)
    w = ruelle._endpoint_values(potential, pd.matrix, level + 1)
    return float(np.max(np.abs(core.preimage_sum(pd.matrix, level, w) - 1.0)))


def inner_product(f, g, pd):
    m = max(f.level, g.level)
    fc = core.refine(f, m).coeffs
    gc = core.refine(g, m).coeffs
    return complex(np.sum(np.conj(fc) * gc * spectral.measure_array(pd, m)))


def self_similarity_residual(pd, k):
    r = pd.radius
    if k == 1:
        pulled = pd.matrix.array.astype(float) @ pd.p
        return float(np.max(np.abs(pd.p - pulled / r)))
    mu_k = spectral.measure_array(pd, k)
    mu_prev = spectral.measure_array(pd, k - 1)
    pulled = mu_prev[core.shift_index_array(pd.matrix, k)]
    return float(np.max(np.abs(mu_k - pulled / r)))


# --- planar cells (sierpinski) ----------------------------------------------------


def cell_is_valid(spec, cell):
    """The membership test of an (xword, yword) pair: A[x_m, y_m] = 1 at every position."""
    xword, yword = cell
    return (len(xword) == len(yword)
            and all(spec.matrix.rows[i][j] for i, j in zip(xword, yword)))


def embed_xi(word):
    """The diagonal embedding of a line word: (w minus last, shift of w).

    For admissible w the image is always a valid cell, since consecutive
    digits of w are exactly the (x_m, y_m) pairs.
    """
    word = tuple(word)
    if len(word) < 2:
        raise WordTooShort("embedding needs a word of length >= 2")
    return word[:-1], word[1:]


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


def stacked_psi_levels(gw, k):
    """graphs._psi_levels as it first grew the tables: each level stacks a copy of every
    prefix and level tuple beside the new column, O(rows x k) per level."""
    if k < 1:
        raise LevelOutOfRange("depth must be >= 1")
    d = np.array(gw.d)
    coef = np.zeros((len(d), max(d.max() - 1, 1), len(d)))   # coef[e, l - 1] = c^{l,e}
    for e, vecs in enumerate(gw.c):
        coef[e, :len(vecs)] = np.reshape(vecs, (len(vecs), len(d)))
    succ = gw.pd.matrix.array.astype(bool)
    paths, tuples, last = np.zeros((1, 0), dtype=np.intp), np.zeros((1, 0), int), np.array([gw.e0])
    valid, psi, weights = np.ones((1, 1), dtype=bool), np.ones((1, 1)), np.ones(1)
    for _ in range(k):
        top = np.max(np.where(valid, d[last] - 1, 0), axis=1)
        tparent = np.repeat(np.arange(len(top)), top)
        level = np.arange(1, len(tparent) + 1) - np.repeat(np.cumsum(top) - top, top)
        parent, edge = np.nonzero(succ[last])
        prev = last[parent]
        pairs = np.ix_(tparent, parent)
        valid = valid[pairs] & (level[:, None] < d[prev])
        psi = np.where(valid, psi[pairs] * coef[prev, level[:, None] - 1, edge], 0.0)
        tuples = np.column_stack((tuples[tparent], level))
        paths = np.column_stack((paths[parent], edge))
        weights, last = weights[parent] * gw.pd.p[edge], edge
    return tuples, paths, valid, psi, weights


# --- graph files (fileio) ----------------------------------------------------------


def format_graph(g):
    """The graph file of `g`, as fileio.parse_graph reads it; no verb writes one."""
    lines = ["%d %d" % (g.vertex_count, len(g.edges))]
    for s, r in g.edges:
        lines.append("%d %d" % (s, r))
    return "\n".join(lines) + "\n"
