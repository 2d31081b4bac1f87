"""Haar-type wavelet bases on Lambda_A, built by weighted Gram-Schmidt.

For each letter k the row support {j : A[k,j] = 1} (size d_k) carries the
weighted inner product <v, w>_k = sum_j A[k,j] conj(v_j) w_j p_j.  The
orthogonal complement of the constant vector u = (1,...,1) in that product
supplies d_k - 1 coefficient vectors c^{l,k}; each becomes a *mother wavelet*

    f^{l,k} = sum_j A[k,j] c^{l,k}_j chi_{Lambda(k j)},

a mean-zero level-2 function supported in R_k, renormalized here to unit
L2(mu) norm.  Moving mothers around with the generators, psi = S_a f^{l,r}
(needs A[a_last, r] = 1), fills in finer and finer detail; a mother is the
translate with a = ().  The scaling family mu(R_i)^{-1/2} chi_{R_i} and the
wavelets with |a| <= K-2 together form an orthonormal basis of the level-K
cylinder functions, with dimensions telescoping to |W_K| exactly.  On the full
2x2 shift this is the classical Haar basis of [0,1].

One key (a, l, r) names S_a f^{l,r} everywhere: in `detail_keys`, in the
`detail` dict of WaveletCoefficients, in basis labels ("D", a, l, r), and in
coefficient files, which write a = () as an `M` line.  The keys of every
level come from one table kept in the matrix's memo, which analyze,
synthesize and the coefficient files read; it also holds each key as a
coefficient file spells it.

S_a f^{l,r} is supported on the single cylinder Lambda(a r), where it takes
the values r(A)^{|a|/2} f^{l,r}(r s) on the children a r s.  The basis is
therefore a local change of basis on the children of each word, and analyze /
synthesize run as Mallat's pyramid on the tree of admissible words: analyze
sums the masses f*mu up the tree one level at a time and pairs each word's
children with the fixed (d_r - 1) x d_r matrix F_r of mother values;
synthesize copies values down the tree and adds the same matrix products back.
Each costs O(|W_K| * max d_k) time and O(|W_K|) memory.  The positions of
each level's child blocks and coefficients depend on A alone and are kept in
the matrix's memo, so a call only gathers and multiplies.  basis_function and
wavelet build single basis vectors at full level; the tests use them as the
quadratic reference.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import core, operators, spectral
from .core import CylinderFunction
from .errors import (
    IndexOutOfRange,
    LevelTooLow,
    MatrixMismatch,
    NonPositiveWeight,
    NotComposable,
)


def weighted_complement_basis(weights, support):
    """Orthonormal basis of the complement of u=(1,..,1) on a digit support.

    Modified Gram-Schmidt over [u, e_j1, e_j2, ...] with the support digits
    ascending, in the inner product sum_{j in support} conj(v_j) w_j weights_j.
    The first d-1 standard vectors already complete the span (u has full
    support), so exactly d-1 vectors come back, None of them thresholded —
    the construction is deterministic.  Vectors have full length
    max(support)+1 <= len(weights), zero off the support.
    """
    weights = np.asarray(weights, dtype=float)
    sup = sorted(set(int(j) for j in support))
    if not sup:
        raise NonPositiveWeight("empty support")
    for j in sup:
        if not (0 <= j < len(weights)) or weights[j] <= 0:
            raise NonPositiveWeight(
                "weight at digit %d must be positive on the support" % j)
    n = len(weights)
    mask = np.zeros(n, dtype=bool)
    mask[sup] = True
    w_on = np.where(mask, weights, 0.0)

    def wip(v, x):
        return float(np.sum(v * x * w_on))

    u = mask.astype(float)
    u = u / math.sqrt(wip(u, u))
    basis = [u]
    out = []
    for j in sup[:-1]:
        v = np.zeros(n)
        v[j] = 1.0
        for b in basis:
            v = v - wip(b, v) * b
        nrm = math.sqrt(wip(v, v))
        assert nrm > 0.0, "positive weights keep e_j independent of the span"
        v = v / nrm
        v.setflags(write=False)
        basis.append(v)
        out.append(v)
    return out


@dataclass(frozen=True)
class MotherWaveletSet:
    """Everything needed to span the detail spaces: per-letter coefficient
    vectors c^{l,k}, unit-norm level-2 mother functions f^{l,k}, and their
    values on the children of each letter.

    `c[k]` is the tuple of vectors for letter k (length d_k - 1, l = 1-based
    when indexing `funcs[(k, l)]`); `d[k]` is the row sum; `fmat[k]` is the
    (d_k - 1) x d_k matrix F_k with F_k[l-1, j] = f^{l,k} on the word
    (k, s_j), s_j the j-th successor of k.
    """

    pd: spectral.PerronData
    d: tuple
    c: tuple
    funcs: dict
    fmat: tuple

    @property
    def matrix(self):
        return self.pd.matrix


def build_mother_wavelets(pd):
    """Run the weighted complement construction for every letter of A."""
    mat = pd.matrix
    c_all, funcs, fmat = [], {}, []
    for k in range(mat.n):
        succ = list(mat.successors[k])
        start = sum(mat.row_sums[:k])   # the words k.j are contiguous in W_2
        cols = slice(start, start + len(succ))
        vecs = weighted_complement_basis(pd.p, succ)
        c_all.append(tuple(vecs))
        for l, v in enumerate(vecs, start=1):
            coeffs = np.zeros(core.word_count(mat, 2), dtype=np.complex128)
            coeffs[cols] = v[succ]
            f = CylinderFunction(mat, 2, core._frozen(coeffs))
            funcs[(k, l)] = f * (1.0 / spectral.norm(f, pd))
        fmat.append(np.array([funcs[(k, l)].coeffs[cols] for l in range(1, len(succ))],
                             dtype=np.complex128).reshape(len(succ) - 1, len(succ)))
    return MotherWaveletSet(pd=pd, d=mat.row_sums, c=tuple(c_all), funcs=funcs,
                            fmat=tuple(fmat))


def scaling_function(pd, i):
    """The normalized cylinder bump mu(R_i)^{-1/2} chi_{R_i}."""
    f = CylinderFunction.indicator(pd.matrix, (i,))
    return f * (1.0 / math.sqrt(pd.p[i]))


def wavelet(a, l, r, mw):
    """The translate psi^{l,r}_a = S_a f^{l,r}; the empty word returns the mother.

    Unit norm at level |a| + 2.  Requires A[a_last, r] = 1: S_{a_last} kills
    anything supported outside D_{a_last}, so an incomposable pair would be
    the zero function, not a basis vector.
    """
    a = core.check_word(mw.matrix, a)
    if (r, l) not in mw.funcs:
        raise IndexOutOfRange("no mother wavelet with letter %r, index %r" % (r, l))
    if a and not mw.matrix.rows[a[-1]][r]:
        raise NotComposable(
            "wavelet letter %d does not follow word ending in %d" % (r, a[-1]))
    return operators.apply_S_word(a, mw.funcs[(r, l)], mw.pd)


class _KeyTable:
    """The detail keys of one matrix, up to the finest level asked for so far.

    The keys of level K are a prefix of the keys of level K + 1, so one list,
    one key -> slot map and one file column serve every level; asking for a
    finer level extends the lists and drops the map until it is used again.
    `column` is "S i" for each letter, then keys[s] as files spell it at n + s.
    """

    def __init__(self, n):
        self.keys, self.ends = [], [0, 0]   # ends[K] = number of level-K keys
        self.column = ["S %d" % i for i in range(n)]
        self.words = []   # the words of the last |a| > 0 keyed, spelled as files do

    def at(self, mat, K):
        """The level-K keys of matrix `mat`, growing the table to level K first."""
        if K >= len(self.ends):
            n, d, sep = mat.n, mat.row_sums, "" if mat.n <= 10 else "."
            pairs = [[(l, r) for r in s for l in range(1, d[r])] for s in mat.successors]
            tails = [[" %d %d" % lr for lr in p] for p in pairs]
            for j in range(len(self.ends) - 2, K - 1):   # the keys with |a| = j
                if j == 0:   # the mothers: any letter r
                    self.keys += [((), l, r) for r in range(n) for l in range(1, d[r])]
                    self.column += ["M %d %d" % (r, l) for r in range(n) for l in range(1, d[r])]
                else:   # the level-j words: each level-(j-1) word, then a successor
                    self.words = [w + sep + str(s) for w, a in zip(
                        self.words, core.enumerate_words(mat, j - 1))
                        for s in mat.successors[a[-1]]] if j > 1 else list(map(str, range(n)))
                    words = core.enumerate_words(mat, j)
                    self.keys += [(a, l, r) for a in words for l, r in pairs[a[-1]]]
                    self.column += ["D " + w + tail for w, a in zip(self.words, words)
                                    for tail in tails[a[-1]]]
                self.ends.append(len(self.keys))
            self.__dict__.pop("slot", None)
        return self.keys[:self.ends[max(K, 0)]]

    @cached_property
    def slot(self):
        """key -> position in `keys`, built on first use: analyze's layout is
        read without it."""
        return dict(zip(self.keys, range(len(self.keys))))


def _key_table(matrix):   # kept in the matrix's memo
    return matrix._memo.get(_KeyTable) or matrix._memo.setdefault(_KeyTable, _KeyTable(matrix.n))


def detail_keys(mw, K):
    """(a, l, r) triples of the wavelets S_a f^{l,r} with |a| = 0 .. K-2.

    Order: |a| ascending, then a lexicographic, then r ascending over the
    digits following a_last (any letter when a = ()), then l ascending.  The
    mothers a = () come first; this is the pyramid's flat order.  Read from
    one table per matrix that serves every level.
    """
    return _key_table(mw.matrix).at(mw.matrix, K)


def basis_labels(mw, K):
    """Canonical labels of the orthonormal basis of level-K functions.

    ("S", i) scaling, ("D", a, l, r) the wavelet S_a f^{l,r}.
    """
    return ([("S", i) for i in range(mw.matrix.n)]
            + [("D", a, l, r) for (a, l, r) in detail_keys(mw, K)])


def basis_function(mw, label):
    if label[0] == "S":
        return scaling_function(mw.pd, label[1])
    if label[0] == "D":
        return wavelet(label[1], label[2], label[3], mw)
    raise IndexOutOfRange("unknown basis label %r" % (label,))


@dataclass(frozen=True)
class WaveletCoefficients:
    """Transform output: scaling[i] pairs with mu(R_i)^{-1/2} chi_{R_i},
    detail[(a, l, r)] with S_a f^{l,r} (the mother f^{l,r} when a = ())."""

    scaling: np.ndarray
    detail: dict

    def energy(self):
        """Sum of |coefficient|^2 over both layers (Parseval mass)."""
        e = float(np.sum(np.abs(self.scaling) ** 2))
        e += sum(abs(v) ** 2 for v in self.detail.values())
        return e


@core._table(least=1, above=1)
def _pyramid_layout(matrix, m):
    """Positions of the level-m step of the pyramid, kept in the matrix's memo.

    The children v.s of a level-m word v are contiguous in W_{m+1}, d_{last(v)}
    of them, and v anchors d_{last(v)} - 1 consecutive coefficients of its
    level.  Returns the child counts, the child block starts, the number of
    coefficients, and per letter r the pair (child positions, coefficient
    positions) with one row per level-m word ending in r, which pairs with F_r.
    """
    last = core.last_digit_array(matrix, m)
    sizes = core._frozen(np.asarray(matrix.row_sums, dtype=np.intp)[last])
    starts = core._frozen(np.cumsum(sizes) - sizes)
    offsets = np.cumsum(sizes - 1) - (sizes - 1)
    blocks = []
    for r, d in enumerate(matrix.row_sums):
        rows = np.flatnonzero(last == r)
        blocks.append((core._frozen(starts[rows, None] + np.arange(d)),
                       core._frozen(offsets[rows, None] + np.arange(d - 1))))
    return sizes, starts, int(np.sum(sizes - 1)), tuple(blocks)


def analyze(f, mw):
    """Expand f over the wavelet basis of its own level (at least 1).

    Coefficient = <basis function, f> in L2(mu), so synthesize recovers f.
    Computed as a pyramid: the masses f*mu are summed level by level up the
    word tree, and at each word v ending in r the wavelets S_a f^{l,r}
    (v = a r) pair with the masses of v's children through F_r.
    """
    if f.matrix != mw.matrix:
        raise MatrixMismatch("signal and wavelets use different matrices")
    K = max(f.level, 1)
    pd = mw.pd
    mass = core.refine(f, K).coeffs * spectral.measure_array(pd, K)
    layers = []
    for m in range(K - 1, 0, -1):
        _, starts, ncoef, blocks = _pyramid_layout(mw.matrix, m)
        out = np.zeros(ncoef, dtype=np.complex128)
        for f_r, (kids, slots) in zip(mw.fmat, blocks):
            out[slots] = mass[kids] @ np.conj(f_r).T
        layers.append(pd.radius ** ((m - 1) / 2.0) * out)
        mass = np.add.reduceat(mass, starts)
    scaling = mass / np.sqrt(pd.p)
    scaling.setflags(write=False)
    flat = np.concatenate(layers[::-1]).tolist() if layers else []
    return WaveletCoefficients(scaling=scaling, detail=dict(zip(detail_keys(mw, K), flat)))


def _flat_layers(coeffs, mw, K):
    """The scaling layer and the level-K detail layer of coeffs, as arrays.

    The detail array is in detail_keys order, zero where coeffs has no key.
    Raises IndexOutOfRange for a scaling layer of the wrong length or a key
    that is not a level-K wavelet.
    """
    n = mw.matrix.n
    if len(coeffs.scaling) != n:
        raise IndexOutOfRange(
            "scaling layer has %d entries, need %d" % (len(coeffs.scaling), n))
    table = _key_table(mw.matrix)
    keys = table.at(mw.matrix, K)
    count = len(keys)
    if list(coeffs.detail) == keys:   # the layout analyze writes
        flat = np.array(list(coeffs.detail.values()), dtype=np.complex128)
    else:
        flat = np.zeros(count, dtype=np.complex128)
        for key, alpha in coeffs.detail.items():
            slot = table.slot.get(key, count)
            if slot >= count:
                raise IndexOutOfRange("detail key %r invalid at level %d" % (key, K))
            flat[slot] = alpha
    return np.asarray(coeffs.scaling, dtype=np.complex128), flat


def synthesize(coeffs, mw, K):
    """Rebuild the level-K function with the given wavelet coefficients.

    Every coefficient key must denote a basis element of the level-K system:
    words a no longer than K-2, letters/indices in range.  The pyramid runs
    top down: each level's values are copied onto the children and the
    wavelets anchored at that level add alpha @ F_r on each child block.
    """
    mat, pd = mw.matrix, mw.pd
    if K < 1:
        raise LevelTooLow("synthesis needs level K >= 1, got %d" % K)
    core.check_cap(mat, K)
    scaling, rest = _flat_layers(coeffs, mw, K)
    h = scaling / np.sqrt(pd.p)
    for m in range(1, K):
        sizes, _, ncoef, blocks = _pyramid_layout(mat, m)
        layer, rest = np.split(rest, [ncoef])
        layer = pd.radius ** ((m - 1) / 2.0) * layer
        h = np.repeat(h, sizes)
        for f_r, (kids, slots) in zip(mw.fmat, blocks):
            h[kids] += layer[slots] @ f_r
    return CylinderFunction(mat, K, core._frozen(h))
