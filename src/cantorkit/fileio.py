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
               otherwise.  Both kinds parse into the one detail dict.
graph:         line 1: "V E"; then E lines "source range" (0-based).
word syntax:   digits concatenated ("0121") when N <= 10; dot-separated
               ("11.3.0") when N > 10 (pair alphabets can exceed 10 letters);
               parsing accepts either form.
PGM:           P2 with header "P2\\nW H\\n255", one raster row per line.
"""

import numpy as np

from . import core, wavelets
from .core import CylinderFunction
from .errors import FileFormatError


def _data_lines(text):
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _float(tok, where):
    try:
        return float(tok)
    except ValueError:
        raise FileFormatError("bad number %r in %s" % (tok, where))


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


def format_signal(f):
    n = f.matrix.n
    words = core.enumerate_words(f.matrix, f.level)
    lines = ["%d %d" % (n, f.level)]
    for w, c in zip(words, f.coeffs):
        lines.append("%s %s %s"
                     % (format_word(w, n), repr(float(c.real)), repr(float(c.imag))))
    return "\n".join(lines) + "\n"


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
    nwords = core.word_count(matrix, k)
    if len(lines) - 1 < nwords:
        raise FileFormatError("signal lists %d of the %d level-%d words"
                              % (len(lines) - 1, nwords, k))
    # with at least one line per word, a missing word forces a repeat or a misspelling
    idx = core.word_index(matrix, k)
    coeffs = np.zeros(len(idx), dtype=np.complex128)
    seen = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise FileFormatError("signal line %r needs 'word re im'" % line)
        w = parse_word(parts[0], n)
        if w not in idx:
            raise FileFormatError("word %r is not admissible at level %d" % (parts[0], k))
        if w in seen:
            raise FileFormatError("word %r listed twice" % (parts[0],))
        seen.add(w)
        coeffs[idx[w]] = complex(_float(parts[1], line), _float(parts[2], line))
    return CylinderFunction(matrix, k, coeffs)


# --- wavelet coefficients ---------------------------------------------------------


def format_coefficients(wc, mw, level):
    """Serialize analyze() output (canonical order) for a level-`level` system."""
    n = mw.matrix.n
    lines = ["%d %d" % (n, level)]
    for i in range(n):
        c = complex(wc.scaling[i])
        lines.append("S %d %s %s" % (i, repr(c.real), repr(c.imag)))
    for (a, l, r) in wavelets.detail_keys(mw, level):
        c = complex(wc.detail.get((a, l, r), 0j))
        key = "D %s %d %d" % (format_word(a, n), l, r) if a else "M %d %d" % (r, l)
        lines.append("%s %s %s" % (key, repr(c.real), repr(c.imag)))
    return "\n".join(lines) + "\n"


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
    scaling = {}
    detail = {}
    for line in lines[1:]:
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
    scaling = np.array([scaling.get(i, 0j) for i in range(n)], dtype=np.complex128)
    scaling.setflags(write=False)
    return wavelets.WaveletCoefficients(scaling=scaling, detail=detail), level


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
