"""Symbolic dynamics groundwork: admissibility matrices, words, cylinder functions.

An N x N matrix A of zeros and ones cuts a Cantor set out of [0,1]:

    Lambda_A = { x = sum_m a_m N^-m : A[a_m, a_{m+1}] = 1 for all m },

the set of points whose N-adic digit strings walk along the 1-entries of A.
A *word* is a finite admissible digit string, written here as a plain tuple of
ints; the level-k words index the cylinder sets Lambda(a) = {x : x starts with a}.
Everything downstream (measures, operators, wavelets) is expressed in the basis
of cylinder indicators, so a function that is constant on level-k cylinders is
stored as one complex coefficient per level-k word, in lexicographic word order.

All objects here are immutable; per-matrix combinatorial tables (word lists,
index maps) are memoised on the matrix value.

The index arrays (first and last digits, shift, prefix, suffix and prepend
positions, N-adic values) are built level by level from the arrays of the
level below, with numpy gathers over the lexicographic block structure of
W_k: the words starting with digit i are the words of W_{k-1} starting with a
successor of i, in order.  Building the level-k tables costs O(|W_k|) time
and memory and never touches the word tuples of `enumerate_words`, which stay
the public tuple API.

`with core.budget(cap):` makes any table of more than `cap` words raise
CapExceeded: each table builder checks its level on every call, hit or miss,
as do the kernels that allocate |W_k|-sized arrays before they touch a table.
Outside a budget there is no limit.
"""

import contextlib
import contextvars
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps

import numpy as np

from .errors import (
    CapExceeded,
    DeadRow,
    EmptyWord,
    InadmissibleWord,
    LevelOutOfRange,
    LevelTooLow,
    MatrixMismatch,
    MissingDiagonal,
    NonBinaryEntry,
    NotInDomain,
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
    def predecessors(self):
        """predecessors[j] = sorted digits i with A[i, j] = 1 (column support)."""
        n = self.n
        return tuple(tuple(i for i in range(n) if self.rows[i][j]) for j in range(n))

    @cached_property
    def row_sums(self):
        return tuple(sum(r) for r in self.rows)

    @cached_property
    def col_sums(self):
        return tuple(len(p) for p in self.predecessors)

    @cached_property
    def transpose(self):
        """A^t; it keeps a unit diagonal and irreducibility, so needs no validation."""
        return AdmissibilityMatrix(rows=tuple(zip(*self.rows)), strict=self.strict)

    def __repr__(self):
        return "AdmissibilityMatrix(n=%d, strict=%s)" % (self.n, self.strict)


def _is_irreducible(rows):
    """Every state reaches every state along 1-entries."""
    n = len(rows)
    a = np.array(rows, dtype=bool)
    reach = np.eye(n, dtype=bool)
    for _ in range(n):
        new = reach | (reach @ a)
        if new.all():
            return True
        if (new == reach).all():
            break
        reach = new
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


DEFAULT_CAP = 200000  # words, cells or paths a command builds unless told otherwise


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


def check_level(k):
    """Raise LevelOutOfRange unless k is a word level, i.e. k >= 0."""
    if k < 0:
        raise LevelOutOfRange("level %d is negative" % k)


def _count_levels(matrix):
    """The counts of level-k words by first digit, for k = 1, 2, ... in turn."""
    counts = (1,) * matrix.n
    while True:
        yield counts
        counts = tuple(sum(counts[j] for j in s) for s in matrix.successors)


@lru_cache(maxsize=None)
def _first_digit_counts(matrix, k):
    """counts[i] = number of level-k words (k >= 1) that start with digit i."""
    return next(itertools.islice(_count_levels(matrix), k - 1, None))


def word_count(matrix, k):
    """|W_k|, the number of admissible level-k words, as an exact Python int."""
    check_level(k)
    return sum(_first_digit_counts(matrix, k)) if k else 1


def bounded_word_count(matrix, k, bound, first=None):
    """min(|W_k|, bound + 1), or the same for the words starting in `first`.

    Counted level by level only until the count passes `bound`: no level has
    fewer words than the one before, as every digit has a successor.
    """
    check_level(k)
    total = 1   # the empty word
    for _, counts in zip(range(k), _count_levels(matrix)):
        total = sum(counts) if first is None else sum(counts[i] for i in first)
        if total > bound:
            break
    return min(total, bound + 1)


_BUDGET = contextvars.ContextVar("cantorkit_budget", default=None)


@contextlib.contextmanager
def budget(cap):
    """Within the block, a table of more than `cap` words raises CapExceeded; None lifts it."""
    token = _BUDGET.set(cap)
    try:
        yield
    finally:
        _BUDGET.reset(token)


def check_cap(matrix, k):
    """Raise CapExceeded when a budget is set and |W_k| is over it."""
    cap = _BUDGET.get()
    if cap is not None and bounded_word_count(matrix, k, cap) > cap:
        raise CapExceeded("level %d is over the cap of %d words" % (k, cap))


def _table(least=0, above=0):
    """Memoise f(matrix, k, ...); each call, hit or miss, checks k >= least and |W_{k+above}|."""
    def memoise(build):
        cached = lru_cache(maxsize=None)(build)

        @wraps(build)
        def table(matrix, k, *args):
            check_level(k)
            if k < least:
                raise LevelOutOfRange("level %d has no digits to index" % k)
            check_cap(matrix, k + above)
            return cached(matrix, k, *args)
        table.cache_info, table.cache_clear = cached.cache_info, cached.cache_clear
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


def _frozen(a):
    a.setflags(write=False)
    return a


@_table(least=1)
def first_digit_array(matrix, k):
    """w_1 for every level-k word w (k >= 1): digit i repeated |{w : w_1 = i}| times."""
    return _frozen(np.repeat(np.arange(matrix.n, dtype=np.intp),
                             _first_digit_counts(matrix, k)))


@_table(least=1)
def last_digit_array(matrix, k):
    """w_k for every level-k word w (k >= 1); the last digit of shift(w) for k >= 2."""
    if k == 1:
        return _frozen(np.arange(matrix.n, dtype=np.intp))
    return _frozen(last_digit_array(matrix, k - 1)[shift_index_array(matrix, k)])


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
    extensions = np.array(_first_digit_counts(matrix, k - k0 + 1), dtype=np.intp)
    return _frozen(np.repeat(np.arange(word_count(matrix, k0), dtype=np.intp),
                             extensions[last_digit_array(matrix, k0)]))


@_table(least=1)
def shift_index_array(matrix, k):
    """For each level-k word w (k >= 1), the position of shift(w) in W_{k-1}.

    The words starting with i shift onto the blocks of W_{k-1} that start with
    a successor of i, taken in order.
    """
    if k == 1:
        return _frozen(np.zeros(matrix.n, dtype=np.intp))
    counts = _first_digit_counts(matrix, k - 1)
    starts = np.cumsum((0,) + counts)
    return _frozen(np.concatenate([
        np.arange(starts[j], starts[j + 1], dtype=np.intp)
        for i in range(matrix.n) for j in matrix.successors[i]]))


@_table()
def suffix_index_array(matrix, k, k0):
    """For each level-k word w, the position of its level-k0 suffix sigma^(k-k0) w in W_k0."""
    check_level(k0)
    if k0 > k:
        raise LevelOutOfRange("level %d has no level-%d suffixes" % (k, k0))
    idx = np.arange(word_count(matrix, k0), dtype=np.intp)
    for j in range(k0 + 1, k + 1):   # the level-j suffixes, one gather of |W_j| each
        idx = idx[shift_index_array(matrix, j)]
    return _frozen(idx)


@_table(above=1)
def prepend_index_array(matrix, k, i):
    """Positions of i.w in W_{k+1} for each w in W_k; -1 where A[i, w_1] = 0.

    The inverse of the shift on the block of W_{k+1} that starts with i.
    """
    if not 0 <= i < matrix.n:
        raise NotInDomain("digit %d out of range for N = %d" % (i, matrix.n))
    counts = _first_digit_counts(matrix, k + 1)
    start = sum(counts[:i])
    block = np.arange(start, start + counts[i], dtype=np.intp)
    out = np.full(word_count(matrix, k), -1, dtype=np.intp)
    out[shift_index_array(matrix, k + 1)[block]] = block
    return _frozen(out)


def preimage_sum(matrix, k, values):
    """sum_{i: A[i, b_1] = 1} values[i.b] for every level-k word b; values is level k+1."""
    out = np.zeros(word_count(matrix, k), dtype=values.dtype)
    for i in range(matrix.n):
        pia = prepend_index_array(matrix, k, i)
        valid = pia >= 0
        out[valid] += values[pia[valid]]
    return out


@_table()
def value_array(matrix, k):
    """x(a) for every level-k word a, in lexicographic order.

    x(a) = (a_1 + x(shift a)) / N, the same float operations as nadic_value.
    """
    if k == 0:
        return _frozen(np.zeros(1))
    return _frozen((first_digit_array(matrix, k)
                    + value_array(matrix, k - 1)[shift_index_array(matrix, k)])
                   / matrix.n)


# --- cylinder functions ---------------------------------------------------------


class CylinderFunction:
    """A complex function on Lambda_A that is constant on level-k cylinders.

    Stored as one coefficient per level-k word, lexicographic order.  Instances
    are immutable; arithmetic returns new objects, refining to a common level
    when needed.
    """

    __slots__ = ("matrix", "level", "coeffs")

    def __init__(self, matrix, level, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        expected = word_count(matrix, level)
        if coeffs.shape != (expected,):
            raise LevelTooLow(
                "level %d needs %d coefficients, got %r"
                % (level, expected, coeffs.shape))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "level", level)
        c = coeffs.copy()
        c.setflags(write=False)
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
        k = len(word)
        c = np.zeros(word_count(matrix, k), dtype=np.complex128)
        c[word_index(matrix, k)[word]] = 1.0
        return cls(matrix, k, c)

    def coeff(self, word):
        """The value taken on the cylinder of `word` (word must be level-level)."""
        return complex(self.coeffs[word_index(self.matrix, self.level)[tuple(word)]])

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
        return CylinderFunction(self.matrix, m, f.coeffs + g.coeffs)

    def __sub__(self, other):
        f, g, m = self._common(other)
        return CylinderFunction(self.matrix, m, f.coeffs - g.coeffs)

    def __mul__(self, scalar):
        return CylinderFunction(self.matrix, self.level, self.coeffs * scalar)

    __rmul__ = __mul__


def refine(f, k):
    """Rewrite f at a finer level k >= f.level (coefficients copy to children)."""
    if k < f.level:
        raise LevelTooLow("cannot refine level %d down to %d" % (f.level, k))
    if k == f.level:
        return f
    return CylinderFunction(
        f.matrix, k, f.coeffs[prefix_index_array(f.matrix, k, f.level)])


def multiply(f, g):
    """Pointwise product of two cylinder functions."""
    f2, g2, m = f._common(g)
    return CylinderFunction(f.matrix, m, f2.coeffs * g2.coeffs)


def compose_shift(f):
    """f o sigma, one level finer:  (f o sigma)(x) = f(shift of x)."""
    k = f.level + 1
    return CylinderFunction(
        f.matrix, k, f.coeffs[shift_index_array(f.matrix, k)])
