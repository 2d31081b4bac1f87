"""Symbolic dynamics groundwork: admissibility matrices, words, cylinder functions.

An N x N matrix A of zeros and ones cuts a Cantor set out of [0,1]:

    Lambda_A = { x = sum_m a_m N^-m : A[a_m, a_{m+1}] = 1 for all m },

the set of points whose N-adic digit strings walk along the 1-entries of A.
A *word* is a finite admissible digit string, written here as a plain tuple of
ints; the level-k words index the cylinder sets Lambda(a) = {x : x starts with a}.
Everything downstream (measures, operators, wavelets) is expressed in the basis
of cylinder indicators, so a function that is constant on level-k cylinders is
stored as one complex coefficient per level-k word, in lexicographic word order.

All objects here are immutable.  The tables of a matrix (word lists, index
maps, level counts) live in that matrix object's memo and are freed with it;
level counts carry on from the highest level counted, never from level 1.
`rank` reads one word's position off level counts it carries itself, adding
nothing to the memo; `_digit_table` lists a level's words as rows of digits.

The index arrays (first and last digits, shift, prefix and prepend positions,
N-adic values) are built level by level from the arrays of the level below,
with numpy gathers over the lexicographic block structure of W_k: the words
starting with digit i are the words of W_{k-1} starting with a successor of
i, in order.  Building the level-k tables costs O(|W_k|) time and memory and
never touches the word tuples of `enumerate_words`, which stay the public
tuple API.  That block structure is `branch_runs`: a few contiguous runs of
W_{k-1} per digit.  The shift and prepend arrays are built from it, and S_i,
S_i* and the preimage sum are slice copies over it, with no index array at
all.  `split_layout` cuts each word into a prefix and a suffix half and
groups W_k by the prefix's last letter, for the Fourier sweep.

`with core.budget(cap):` makes any table of more than `cap` words raise
CapExceeded: each table builder checks its level on every call, hit or miss,
as do the kernels that allocate |W_k|-sized arrays before they touch a table.
`_check_budget` is the one check: graph wavelets, Sierpinski cells and
renders and the CLI's t grid count what they build against the same cap.
Outside a budget there is no limit.
"""

import contextlib
import contextvars
from dataclasses import dataclass
from functools import cached_property, partial, wraps
from types import SimpleNamespace

import numpy as np

from .errors import (
    CapExceeded,
    DeadRow,
    InadmissibleWord,
    IndexOutOfRange,
    LevelOutOfRange,
    LevelTooLow,
    MatrixMismatch,
    MissingDiagonal,
    NonBinaryEntry,
    Reducible,
)


@dataclass(frozen=True)
class AdmissibilityMatrix:
    """A validated 0-1 matrix. `strict` means unit diagonal + irreducible.

    Strict matrices define the geometric Cantor sets; non-strict ones arise
    internally (edge matrices of graphs, induced matrices of fractal pair
    shifts) where the diagonal condition has no reason to hold.
    """

    rows: tuple
    strict: bool = True

    @cached_property
    def _memo(self):   # this matrix's tables and level counts; none refers back to it
        return {"counts": {0: ((0,) * self.n, 1), 1: ((1,) * self.n, self.n)}, "top": 1}

    @property
    def n(self):
        return len(self.rows)

    @cached_property
    def array(self):
        a = np.array(self.rows, dtype=np.int64)
        a.setflags(write=False)
        return a

    @cached_property
    def successors(self):
        """successors[i] = sorted digits j with A[i, j] = 1."""
        return tuple(tuple(j for j, v in enumerate(r) if v) for r in self.rows)

    @cached_property
    def row_sums(self):
        return tuple(sum(r) for r in self.rows)

    @cached_property
    def col_sums(self):
        return self.transpose.row_sums

    @cached_property
    def transpose(self):
        """A^t; it keeps a unit diagonal and irreducibility, so needs no validation."""
        return AdmissibilityMatrix(rows=tuple(zip(*self.rows)), strict=self.strict)

    def __repr__(self):
        return "AdmissibilityMatrix(n=%d, strict=%s)" % (self.n, self.strict)


def _is_irreducible(rows):
    """Every state reaches every state along 1-entries: (I + A)^(n-1) > 0, by
    squaring the 0-1 reachability matrix until it covers n - 1 steps."""
    reach = np.array(rows, dtype=float) + np.eye(len(rows))
    for _ in range(max(len(rows) - 1, 1).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    return bool(reach.all())


def validate_matrix(rows, strict=True):
    """Check a raw 0-1 grid and wrap it as an AdmissibilityMatrix.

    Strict matrices must be square with N >= 2, have every diagonal entry
    equal to 1, and be irreducible.  Non-strict matrices only need to be
    square 0-1 with no zero row (a zero row would strand a digit with no
    continuation, making infinite digit strings through it impossible).
    """
    grid = [list(r) for r in rows]
    n = len(grid)
    if n == 0 or any(len(r) != n for r in grid):
        raise NonBinaryEntry("matrix must be square and nonempty")
    for i, r in enumerate(grid):
        for j, v in enumerate(r):
            if v not in (0, 1):
                raise NonBinaryEntry(
                    "entry (%d, %d) is %r, expected 0 or 1" % (i, j, v))
    for i, r in enumerate(grid):
        if not any(r):
            raise DeadRow("row %d is identically zero" % i)
    if strict:
        if n < 2:
            raise NonBinaryEntry("a strict admissibility matrix needs N >= 2")
        for i in range(n):
            if grid[i][i] != 1:
                raise MissingDiagonal("diagonal entry (%d, %d) is 0" % (i, i))
        if not _is_irreducible(grid):
            raise Reducible("matrix is reducible")
    frozen = tuple(tuple(int(v) for v in r) for r in grid)
    return AdmissibilityMatrix(rows=frozen, strict=strict)


DEFAULT_CAP = 200000  # the CLI's --cap: the budget a command runs under unless told otherwise


# --- words --------------------------------------------------------------------


def is_admissible(matrix, word):
    """True when every digit is in range and every transition is allowed."""
    n = matrix.n
    for d in word:
        if not 0 <= d < n:
            return False
    return all(matrix.rows[word[m]][word[m + 1]] for m in range(len(word) - 1))


def check_word(matrix, word):
    word = tuple(int(d) for d in word)
    if not is_admissible(matrix, word):
        raise InadmissibleWord("word %r is not admissible" % (word,))
    return word


def check_level(k):
    """Raise LevelOutOfRange unless k is a word level, i.e. k >= 0."""
    if k < 0:
        raise LevelOutOfRange("level %d is negative" % k)


def _next_counts(matrix, counts):
    """One level step: the first-digit counts of level k + 1 from those of level k."""
    return tuple(sum(counts[j] for j in s) for s in matrix.successors)


def _first_digit_counts(matrix, k, bound=None):
    """(counts, |W_k|), where counts[i] = number of level-k words starting with i.  Counted
    on from the nearest level counted below k, up to k or to the first level whose total
    passes `bound`; only that level is kept, not all below."""
    check_level(k)
    memo, known = matrix._memo, matrix._memo["counts"]
    if k in known:   # the budget asks again on every table call
        return known[k]
    j = min(k, memo["top"])
    while j not in known:
        j -= 1
    counts, total = known[j]
    while j < k and (bound is None or total <= bound):
        counts = _next_counts(matrix, counts)
        total, j = sum(counts), j + 1
    known[j], memo["top"] = (counts, total), max(memo["top"], j)
    return counts, total


def word_count(matrix, k):
    """|W_k|, the number of admissible level-k words, as an exact Python int."""
    return _first_digit_counts(matrix, k)[1]


def bounded_word_count(matrix, k, bound):
    """min(|W_k|, bound + 1), counted only until the count passes `bound`: no
    level has fewer words than the one before, as every digit has a successor."""
    return min(_first_digit_counts(matrix, k, bound)[1], bound + 1)


_BUDGET = contextvars.ContextVar("cantorkit_budget", default=None)


@contextlib.contextmanager
def budget(cap):
    """Within the block, a table of more than `cap` words raises CapExceeded; None lifts it."""
    token = _BUDGET.set(cap)
    try:
        yield
    finally:
        _BUDGET.reset(token)


def _check_budget(count, refusal, *args):
    """Raise CapExceeded(refusal % (*args, cap)) if a budget is set and count(cap) > cap.

    count(cap) sizes what the caller is about to build, and may stop once past cap."""
    cap = _BUDGET.get()
    if cap is not None and count(cap) > cap:
        raise CapExceeded(refusal % (args + (cap,)))


def check_cap(matrix, k):
    """Raise CapExceeded when a budget is set and |W_k| is over it."""
    _check_budget(partial(bounded_word_count, matrix, k),
                  "level %d is over the cap of %d words", k)


def _table(least=0, above=0, levelled=False):
    """Memoise build(matrix, k, ...) in the matrix's memo; each call, hit or miss, checks
    k >= least and |W_{k+above}|.  A levelled build(matrix, k, below) makes level k from
    level k - 1 (None at `least`), upward from the highest level kept, which the check at k
    covers: no level has more words than the next.  cache_info().misses counts builds."""
    def memoise(build):
        info = SimpleNamespace(misses=0)

        @wraps(build)
        def table(matrix, k, *args):
            check_level(k)
            if k < least:
                raise LevelOutOfRange("level %d has no digits to index" % k)
            check_cap(matrix, k + above)
            memo, key = matrix._memo, (build, k) + args
            if key not in memo:
                j = k
                while levelled and j > least and (build, j - 1) not in memo:
                    j -= 1
                for j in range(j, k + 1):   # a table that is not levelled: j = k only
                    below = (memo.get((build, j - 1)),) if levelled else ()
                    memo[(build, j) + args] = build(matrix, j, *args, *below)
                    info.misses += 1
            return memo[key]
        table.cache_info = lambda: info
        return table
    return memoise


@_table()
def _enumerate_words_cached(matrix, k):
    if k == 0:
        return ((),)
    words = [(i,) for i in range(matrix.n)]
    for _ in range(k - 1):
        words = [w + (j,) for w in words for j in matrix.successors[w[-1]]]
    return tuple(words)


def enumerate_words(matrix, k):
    """All admissible level-k words in lexicographic order, as a tuple."""
    return _enumerate_words_cached(matrix, k)


@_table()
def word_index(matrix, k):
    """Map word -> position in the lexicographic enumeration of W_k."""
    return {w: m for m, w in enumerate(enumerate_words(matrix, k))}


def rank(matrix, word):
    """Position of an admissible word in the lexicographic enumeration of its level: for
    each m, the words that agree up to a_{m-1} and then take a smaller successor j of
    a_{m-1} (any smaller letter when m = 1) come first, c_{k-m+1}(j) of them, c_n(j) the
    level-n words starting with j.  Letters are read from the last, against the counts of
    levels 1, 2, ..., each counted here from the one below; the memo is left alone."""
    word = check_word(matrix, word)
    pos, counts = 0, (1,) * matrix.n
    for i in range(len(word) - 1, -1, -1):
        before = matrix.successors[word[i - 1]] if i else range(matrix.n)
        pos += sum(counts[j] for j in before if j < word[i])
        counts = _next_counts(matrix, counts) if i else counts
    return pos


def _frozen(a):
    a.setflags(write=False)
    return a


@_table(least=1)
def first_digit_array(matrix, k):
    """w_1 for every level-k word w (k >= 1): digit i repeated |{w : w_1 = i}| times."""
    return _frozen(np.repeat(np.arange(matrix.n, dtype=np.intp),
                             _first_digit_counts(matrix, k)[0]))


@_table(least=1, levelled=True)
def last_digit_array(matrix, k, below):
    """w_k for every level-k word w (k >= 1); the last digit of shift(w) for k >= 2."""
    if k == 1:
        return _frozen(np.arange(matrix.n, dtype=np.intp))
    return _frozen(below[shift_index_array(matrix, k)])


def _digit_table(matrix, k):
    """The digits of each level-k word, a row each, lexicographic: uint8, or uint16 past
    256 letters.  Column j is read off the level-(j + 1) prefixes, whose positions come
    up a level at a time: the d_{last(v)} children of a word v are contiguous."""
    lasts = [last_digit_array(matrix, j) for j in range(1, k + 1)]   # checks the budget
    out = np.empty((word_count(matrix, k), k), dtype=np.uint8 if matrix.n <= 256 else np.uint16)
    at, sizes = np.arange(len(out)), np.asarray(matrix.row_sums, dtype=np.intp)
    for j in range(k - 1, -1, -1):
        out[:, j] = lasts[j][at]
        if j and len(lasts[j - 1]) < len(lasts[j]):
            at = np.repeat(np.arange(len(lasts[j - 1])), sizes[lasts[j - 1]])[at]
    return out


@_table()
def prefix_index_array(matrix, k, k0):
    """For each level-k word, the position of its level-k0 prefix in W_k0.

    The extensions of a level-k0 word v to level k are contiguous in W_k and
    number as many as the level-(k - k0 + 1) words starting with v's last digit.
    """
    check_level(k0)
    if k0 > k:
        raise LevelOutOfRange("level %d has no level-%d prefixes" % (k, k0))
    if k0 == 0:
        return _frozen(np.zeros(word_count(matrix, k), dtype=np.intp))
    extensions = np.array(_first_digit_counts(matrix, k - k0 + 1)[0], dtype=np.intp)
    return _frozen(np.repeat(np.arange(word_count(matrix, k0), dtype=np.intp),
                             extensions[last_digit_array(matrix, k0)]))


@_table(above=1)
def branch_runs(matrix, k):
    """For each digit i, the runs (b, a, z) of the branch w -> i.w from W_k to W_{k+1}:
    the words W_k[a:z] start with successors of i, consecutive successors merged, and
    i.w for them are W_{k+1}[b:b + z - a].  In order, the runs cover the words from i."""
    if k == 0:
        return tuple(((i, 0, 1),) for i in range(matrix.n))
    starts = np.cumsum((0,) + _first_digit_counts(matrix, k)[0]).tolist()
    out, b = [], 0
    for succ in matrix.successors:
        runs = []
        for j in succ:
            if runs and runs[-1][2] == starts[j]:
                runs[-1] = runs[-1][:2] + (starts[j + 1],)
            else:
                runs.append((b, starts[j], starts[j + 1]))
            b += starts[j + 1] - starts[j]
        out.append(tuple(runs))
    return tuple(out)


@_table(least=1)
def shift_index_array(matrix, k):
    """For each level-k word w (k >= 1), the position of shift(w) in W_{k-1}.

    The words starting with i shift onto the runs of the branch of i, in order.
    """
    return _frozen(np.concatenate([np.arange(a, z, dtype=np.intp)
                                   for branch in branch_runs(matrix, k - 1)
                                   for _, a, z in branch]))


@_table()
def split_layout(matrix, k):
    """The level-k words a = p.s, |s| = k // 2, grouped by the last letter j of p.

    The words after a prefix ending in j are one run of W_k, c_j long: p.s for the
    shifts s of the block of W_{k//2+1} that starts with j, in order.  Returns the
    positions in W_k letter by letter, prefix by prefix; the values x(p) in that
    grouping, then N^-|p| x(s) block by block; the number of prefixes; and per letter
    with prefixes the slices (of the positions, of the prefixes, of the values x(s))
    and the shape (n_j, c_j) of its block of positions.
    """
    k0, ks = k - k // 2, k // 2   # the empty prefix of W_0 counts as ending in 0
    last = last_digit_array(matrix, k0) if k0 else np.zeros(1, dtype=np.intp)
    c = np.array(_first_digit_counts(matrix, ks + 1)[0], dtype=np.intp)
    rows = np.argsort(last, kind="stable")   # the prefixes, letter by letter
    run, n, p = c[last[rows]], np.bincount(last, minlength=matrix.n), len(last)
    # each prefix's first position in W_k, less the place its run takes in the grouping
    starts = (np.cumsum(c[last]) - c[last])[rows] - (np.cumsum(run) - run)
    order = np.repeat(starts, run) + np.arange(run.sum())
    ends = [np.cumsum(v).tolist() for v in (n * c, n, c)]
    letters = tuple((slice(m - a * b, m), slice(r - a, r), slice(p + s - b, p + s), (a, b))
                    for a, b, m, r, s in zip(n.tolist(), c.tolist(), *ends) if a)
    xs = value_array(matrix, ks)[shift_index_array(matrix, ks + 1)] * float(matrix.n) ** -k0
    x = np.concatenate((value_array(matrix, k0)[rows], xs))
    return _frozen(order), _frozen(x), p, letters


@_table(above=1)
def prepend_index_array(matrix, k, i):
    """Positions of i.w in W_{k+1} for each w in W_k; -1 where A[i, w_1] = 0.

    The inverse of the shift on the block of W_{k+1} that starts with i.
    """
    if not 0 <= i < matrix.n:
        raise IndexOutOfRange("digit %d out of range for N = %d" % (i, matrix.n))
    out = np.full(word_count(matrix, k), -1, dtype=np.intp)
    for b, a, z in branch_runs(matrix, k)[i]:
        out[a:z] = np.arange(b, b + z - a)
    return _frozen(out)


def preimage_sum(matrix, k, values, operand=None, ufunc=np.multiply):
    """sum_{i: A[i, b_1] = 1} values[i.b] for every level-k word b; values is level k+1.

    Digit by digit in ascending order, each run of a branch adds one slice of values, or
    of ufunc(values, operand) formed in one scratch array (operand: a scalar or like values)."""
    runs = branch_runs(matrix, k)   # the budget check comes before the allocation
    out = np.zeros(word_count(matrix, k), values.dtype if operand is None
                   else np.result_type(values, operand))
    scratch = None if operand is None else np.empty_like(out)
    for branch in runs:
        for b, a, z in branch:
            term = values[b:b + z - a]
            if scratch is not None:
                other = operand[b:b + z - a] if np.ndim(operand) else operand
                term = ufunc(term, other, out=scratch[a:z])
            out[a:z] += term
    return out


@_table(levelled=True)
def value_array(matrix, k, below):
    """x(a) for every level-k word a, in lexicographic order.

    x(a) = (a_1 + x(shift a)) / N: the float operations of the loop v = (v + a_m) / N
    over the digits from the last, which ruelle.walk_layers runs on its start word.
    """
    if k == 0:
        return _frozen(np.zeros(1))
    return _frozen((first_digit_array(matrix, k) + below[shift_index_array(matrix, k)])
                   / matrix.n)


# --- cylinder functions ---------------------------------------------------------


class CylinderFunction:
    """A complex function on Lambda_A that is constant on level-k cylinders.

    Stored as one coefficient per level-k word, lexicographic order.  Instances
    are immutable; arithmetic returns new objects, refining to a common level
    when needed.  A read-only complex128 array that owns its memory is kept as
    it is, so a kernel passes its fresh result through _frozen; any other input
    is copied and frozen.  `_masses` holds operators.fourier_sweep's last binning of f.
    """

    __slots__ = ("matrix", "level", "coeffs", "_masses")

    def __init__(self, matrix, level, coeffs):
        c = np.asarray(coeffs, dtype=np.complex128)
        if c is not coeffs or c.base is not None or c.flags.writeable:
            c = _frozen(c.copy())
        expected = word_count(matrix, level)
        if c.shape != (expected,):
            raise LevelTooLow(
                "level %d needs %d coefficients, got %r"
                % (level, expected, c.shape))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, *a):
        raise AttributeError("CylinderFunction is immutable")

    @classmethod
    def constant(cls, matrix, value):
        return cls(matrix, 0, np.array([value], dtype=np.complex128))

    @classmethod
    def indicator(cls, matrix, word):
        """chi of the cylinder Lambda(word), at level len(word)."""
        word = check_word(matrix, word)
        c = np.zeros(word_count(matrix, len(word)), dtype=np.complex128)
        c[rank(matrix, word)] = 1.0
        return cls(matrix, len(word), _frozen(c))

    def __repr__(self):
        return "CylinderFunction(level=%d, n_coeffs=%d)" % (self.level, len(self.coeffs))

    # -- arithmetic (refining to a common level) --

    def _common(self, other):
        if self.matrix != other.matrix:
            raise MatrixMismatch("functions live over different matrices")
        m = max(self.level, other.level)
        return refine(self, m), refine(other, m), m

    def __add__(self, other):
        f, g, m = self._common(other)
        return CylinderFunction(self.matrix, m, _frozen(f.coeffs + g.coeffs))

    def __sub__(self, other):
        f, g, m = self._common(other)
        return CylinderFunction(self.matrix, m, _frozen(f.coeffs - g.coeffs))

    def __mul__(self, scalar):
        return CylinderFunction(self.matrix, self.level, _frozen(self.coeffs * scalar))

    __rmul__ = __mul__


def refine(f, k):
    """Rewrite f at a finer level k >= f.level (coefficients copy to children)."""
    if k < f.level:
        raise LevelTooLow("cannot refine level %d down to %d" % (f.level, k))
    if k == f.level:
        return f
    return CylinderFunction(
        f.matrix, k, _frozen(f.coeffs[prefix_index_array(f.matrix, k, f.level)]))

