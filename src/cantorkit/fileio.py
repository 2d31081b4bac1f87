"""Text file formats: matrices, signals, wavelet coefficients, graphs, PGM.

All formats are line-oriented ASCII; blank lines and `#` comments are ignored
on input.  Floats are written with repr() so files round-trip exactly.

matrix:        line 1: N; then N rows of space-separated 0/1.
signal:        line 1: "N k"; then one line per level-k word, "word re im",
               lexicographic; the empty word is written "-".  The line
               count is checked against |W_k| before any word table is built.
coefficients:  line 1: "N K"; then "S i re im" (scaling) and one line per
               wavelet key (a, l, r) in detail_keys order: "M r l re im" for
               a mother (a = (), written only when K >= 2), "D word l r re im"
               otherwise.  Both kinds parse into the one detail dict.  Only
               level-K keys are written: a scaling layer of the wrong length
               or a key of another level raises IndexOutOfRange.
graph:         line 1: "V E"; then E lines "source range" (0-based).
word syntax:   digits concatenated ("0121") when N <= 10; dot-separated
               ("11.3.0") when N > 10 (pair alphabets can exceed 10 letters),
               where a token without a dot is one letter ("10").  Dotted
               words parse for any N.
PGM:           P2 with header "P2\\nW H\\n255", one raster row per line.

Signal and coefficient files are written from arrays: the word column comes
from core's last-digit arrays, level by level, the key column from the
matrix's wavelet key table, which spells each key as it grows, and each value
goes through repr().  Reading tries three ways, cheapest first.  A file with
exactly one data line per word or key has each line split once: if its keys
are the canonical column in the order written, the values are taken in turn;
if they spell that column in another order, each line is placed through a
key -> slot map.  Any other file (other spellings, extra whitespace inside a
key, repeated or stray keys, a sparse coefficient file) goes through the
per-line parser, which accepts lines in any order and names the line at
fault.  Values are read with float(); nan, inf and overflowing values such as
1e400 are refused.
"""

import math

import numpy as np

from . import core, wavelets
from .core import CylinderFunction
from .errors import FileFormatError


def _data_lines(text):
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    return [line for line in map(str.strip, lines) if line]


def _float(tok, where):
    try:
        value = float(tok)
    except ValueError:
        raise FileFormatError("bad number %r in %s" % (tok, where))
    if not math.isfinite(value):
        raise FileFormatError("non-finite number %r in %s" % (tok, where))
    return value


def _int(tok, where):
    try:
        return int(tok)
    except ValueError:
        raise FileFormatError("bad integer %r in %s" % (tok, where))


# --- words ---------------------------------------------------------------------


def format_word(word, n):
    if len(word) == 0:
        return "-"
    if n <= 10:
        return "".join(str(d) for d in word)
    return ".".join(str(d) for d in word)


def parse_word(s, n):
    s = s.strip()
    if s in ("", "-"):
        return ()
    if "." in s:
        digits = tuple(_int(t, "word %r" % s) for t in s.split("."))
    elif n > 10:  # format_word writes a lone letter without a dot
        digits = (_int(s, "word %r" % s),)
    else:
        digits = tuple(_int(ch, "word %r" % s) for ch in s)
    for d in digits:
        if not 0 <= d < n:
            raise FileFormatError("digit %d out of range for N = %d" % (d, n))
    return digits


# --- matrix ---------------------------------------------------------------------


def format_matrix(matrix):
    lines = [str(matrix.n)]
    for row in matrix.rows:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix_rows(text):
    """Raw 0-1 grid from matrix-format text (validation is the caller's)."""
    lines = _data_lines(text)
    if not lines:
        raise FileFormatError("empty matrix file")
    n = _int(lines[0], "matrix header")
    if len(lines) != n + 1:
        raise FileFormatError("expected %d matrix rows, found %d" % (n, len(lines) - 1))
    rows = []
    for line in lines[1:]:
        row = [_int(t, "matrix row") for t in line.split()]
        if len(row) != n:
            raise FileFormatError("matrix row %r has %d entries, expected %d"
                                  % (line, len(row), n))
        rows.append(row)
    return rows


# --- signal ----------------------------------------------------------------------


def _word_columns(matrix, k):
    """(word strings, last digits) of W_1 .. W_k in turn, as format_word spells them.

    The children w.s of a word w are contiguous in the next level, s running
    over the successors of w's last digit, so each level's strings come from
    the level above and core's last-digit array; no word tuple is made.
    """
    sep = "" if matrix.n <= 10 else "."
    ext = [[sep + str(s) for s in matrix.successors[t]] for t in range(matrix.n)]
    words = [str(i) for i in range(matrix.n)]
    for j in range(1, k + 1):
        last = core.last_digit_array(matrix, j).tolist()
        yield words, last
        if j < k:
            words = [w + e for w, t in zip(words, last) for e in ext[t]]


def word_column(matrix, k):
    """format_word of every level-k word, lexicographic."""
    column = ["-"]
    for column, _ in _word_columns(matrix, k):
        pass
    return column


def _value_lines(head, column, values):
    """The text "head" then one "key re im" line per column entry."""
    re, im = map(repr, values.real.tolist()), map(repr, values.imag.tolist())
    return "\n".join([head] + list(map(" ".join, zip(column, re, im)))) + "\n"


def _slots(keys, column):
    """The position in `column` of each key; KeyError for a key outside it."""
    pos = dict(zip(column, range(len(column))))
    return [pos[key] for key in keys]


def _parse_column(lines, column):
    """Values of data lines "key re im" whose keys spell `column` in any order.

    Each line is split once.  Lines in column order are read in turn; others
    are placed through a key -> slot map.  Returns None when a line is not of
    that form, has a key outside the column, or a value that float() refuses
    or that is not finite; the per-line parser then reports the fault.  A slot
    that no line fills stays NaN, so a missing or repeated key falls back too.
    """
    try:
        keys, re, im = zip(*[line.rsplit(None, 2) for line in lines])
        values = np.empty(len(lines), dtype=np.complex128)
        values.real, values.imag = list(map(float, re)), list(map(float, im))
        if list(keys) != column:
            placed = np.full(len(column), math.nan, dtype=np.complex128)
            placed[_slots(keys, column)] = values
            values = placed
    except (KeyError, ValueError):
        return None
    return values if np.isfinite(values).all() else None


def format_signal(f):
    return _value_lines("%d %d" % (f.matrix.n, f.level),
                        word_column(f.matrix, f.level), f.coeffs)


def parse_signal(text, matrix):
    lines = _data_lines(text)
    if not lines:
        raise FileFormatError("empty signal file")
    head = lines[0].split()
    if len(head) != 2:
        raise FileFormatError("signal header must be 'N k'")
    n, k = _int(head[0], "signal header"), _int(head[1], "signal header")
    if n != matrix.n:
        raise FileFormatError(
            "signal is over N = %d, matrix has N = %d" % (n, matrix.n))
    nlines = len(lines) - 1
    nwords = core.bounded_word_count(matrix, k, nlines)
    if nwords > nlines:
        total = core.bounded_word_count(matrix, k, 10 ** 15)   # more than a file holds
        raise FileFormatError("signal lists %d of the %s level-%d words" % (
            nlines, total if total <= 10 ** 15 else "over 10^15", k))
    coeffs = None
    if nwords == nlines:
        coeffs = _parse_column(lines[1:], word_column(matrix, k))
    if coeffs is None:
        coeffs = _parse_signal_lines(lines[1:], matrix, k)
    return CylinderFunction(matrix, k, core._frozen(coeffs))


def _parse_signal_lines(lines, matrix, k):
    """Per-line parse of at least |W_k| data lines, in any order and spelling."""
    # with at least one line per word, a missing word forces a repeat or a misspelling
    idx = core.word_index(matrix, k)
    coeffs = np.zeros(len(idx), dtype=np.complex128)
    seen = set()
    for line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise FileFormatError("signal line %r needs 'word re im'" % line)
        w = parse_word(parts[0], matrix.n)
        if w not in idx:
            raise FileFormatError("word %r is not admissible at level %d" % (parts[0], k))
        if w in seen:
            raise FileFormatError("word %r listed twice" % (parts[0],))
        seen.add(w)
        coeffs[idx[w]] = complex(_float(parts[1], line), _float(parts[2], line))
    return coeffs


# --- wavelet coefficients ---------------------------------------------------------


def _key_column(matrix, K):
    """The keys of a level-K coefficient file as written: "S i" for each letter,
    then each wavelet key in detail_keys order, read from the matrix's key table."""
    table = wavelets._key_table(matrix)
    return table.column[:matrix.n + len(table.at(matrix, K))]


def format_coefficients(wc, mw, level):
    """Serialize analyze() output (canonical order) for a level-`level` system.

    Raises IndexOutOfRange when wc holds a key that is not a level-`level`
    wavelet or a scaling layer of the wrong length, as synthesize does.
    """
    scaling, detail = wavelets._flat_layers(wc, mw, level)
    return _value_lines("%d %d" % (mw.matrix.n, level), _key_column(mw.matrix, level),
                        np.concatenate([scaling, detail]))


def parse_coefficients(text, matrix):
    """Read a coefficient file; returns (WaveletCoefficients, level)."""
    lines = _data_lines(text)
    if not lines:
        raise FileFormatError("empty coefficient file")
    head = lines[0].split()
    if len(head) != 2:
        raise FileFormatError("coefficient header must be 'N K'")
    n, level = _int(head[0], "header"), _int(head[1], "header")
    if n != matrix.n:
        raise FileFormatError(
            "coefficients are over N = %d, matrix has N = %d" % (n, matrix.n))
    values, nlines = None, len(lines) - 1
    # the scaling letters and the level-K wavelets number |W_K| together
    if level >= 1 and core.bounded_word_count(matrix, level, nlines) == nlines:
        values = _parse_column(lines[1:], _key_column(matrix, level))
    if values is None:
        scaling, detail = _parse_coefficient_lines(lines[1:], n)
    else:
        scaling = values[:n].copy()
        detail = dict(zip(wavelets._key_table(matrix).at(matrix, level), values[n:].tolist()))
    scaling.setflags(write=False)
    return wavelets.WaveletCoefficients(scaling=scaling, detail=detail), level


def _parse_coefficient_lines(lines, n):
    """Per-line parse of coefficient lines, in any order and spelling."""
    scaling = {}
    detail = {}
    for line in lines:
        parts = line.split()
        kind = parts[0]
        if kind == "S" and len(parts) == 4:
            i = _int(parts[1], line)
            if not 0 <= i < n:
                raise FileFormatError("scaling letter %d out of range" % i)
            layer, key = scaling, i
        elif kind == "M" and len(parts) == 5:
            layer, key = detail, ((), _int(parts[2], line), _int(parts[1], line))
        elif kind == "D" and len(parts) == 6:
            layer, key = detail, (parse_word(parts[1], n), _int(parts[2], line),
                                  _int(parts[3], line))
        else:
            raise FileFormatError("bad coefficient line %r" % line)
        if key in layer:
            raise FileFormatError("%s key %r listed twice" % (kind, key))
        layer[key] = complex(_float(parts[-2], line), _float(parts[-1], line))
    return np.array([scaling.get(i, 0j) for i in range(n)], dtype=np.complex128), detail


# --- graph -------------------------------------------------------------------------


def format_graph(g):
    lines = ["%d %d" % (g.vertex_count, len(g.edges))]
    for s, r in g.edges:
        lines.append("%d %d" % (s, r))
    return "\n".join(lines) + "\n"


def parse_graph(text):
    lines = _data_lines(text)
    if not lines:
        raise FileFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise FileFormatError("graph header must be 'V E'")
    v, e = _int(head[0], "header"), _int(head[1], "header")
    if len(lines) != e + 1:
        raise FileFormatError("expected %d edge lines, found %d" % (e, len(lines) - 1))
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FileFormatError("edge line %r needs 'source range'" % line)
        edges.append((_int(parts[0], line), _int(parts[1], line)))
    from . import graphs
    return graphs.directed_graph(v, edges)


# --- PGM ----------------------------------------------------------------------------


def format_pgm(img):
    img = np.asarray(img)
    h, w = img.shape
    lines = ["P2", "%d %d" % (w, h), "255"]
    for row in img:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"
