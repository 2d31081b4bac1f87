"""Derandomized fuzzing of the command table.

Every row of VERBS is driven with drawn flags on the bundled strict matrices
and graphs: levels and depths from -3 to 100,000, `--tcount` and `--res` up
to 10^12, a `--cap` from -1 to the default (so no example builds a huge
table for real), a `--tol` from 1e-300 (no convergence) to 0 and nan (usage
errors), and small signal and coefficient files with mutated lines.
Whatever the input, `run` returns a documented exit code and no exception
escapes.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cantorkit import core, fileio, spectral, wavelets
from cantorkit.cli import VERBS, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MATRICES = [os.path.join(ROOT, "inputs", name)
            for name in ("full2.txt", "tri3.txt", "schottky4.txt")]
GRAPHS = [os.path.join(ROOT, "inputs", name) for name in ("graph3.txt", "loops3.txt")]
EXIT_CODES = {0, 64, 65, 66, 70}

_texts = {}


def _base_texts(path, level):
    """A valid (signal, coefficient) text pair over the matrix at `path`."""
    if (path, level) not in _texts:
        with open(path) as fh:
            matrix = core.validate_matrix(fileio.parse_matrix_rows(fh.read()))
        f = core.CylinderFunction(matrix, level, 1.0 + core.value_array(matrix, level))
        mw = wavelets.build_mother_wavelets(spectral.perron_data(matrix))
        _texts[path, level] = (fileio.format_signal(f), fileio.format_coefficients(
            wavelets.analyze(f, mw), mw, max(level, 1)))
    return _texts[path, level]


NUMBERS = st.sampled_from(["-1", "0", "0.5", "2", "1e400", "nan", "x"])


@st.composite
def mutated(draw, text):
    """text with up to three of its lines dropped, repeated, swapped or garbled."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "swap", "token", "level", "cut"]))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(NUMBERS)
            lines[i] = " ".join(tokens)
        elif op == "level":
            lines[0] = "%s %d" % (lines[0].split()[0], draw(st.integers(-3, 100000)))
        else:
            lines = lines[:i]
        if not lines:
            break
    return "\n".join(lines) + "\n"


def _flag_value(draw, flag, matrix, tmp):
    """A drawn value for one of a verb's own flags."""
    if flag in ("--level", "--depth"):
        return str(draw(st.integers(-3, 100000)))
    if flag in ("--i", "--letter", "--v0", "--e0"):
        return str(draw(st.integers(-1, 4)))
    if flag in ("--word", "--a", "--b", "--x"):
        return draw(st.text("0123.-", max_size=4))
    if flag in ("--tmin", "--tmax", "--constant"):
        return draw(NUMBERS)
    if flag in ("--tcount", "--res"):
        return str(draw(st.integers(-1, 40) | st.sampled_from((10 ** 6, 10 ** 9, 10 ** 12))))
    if flag == "--out":
        return str(tmp / "out.txt")
    signal, coeffs = _base_texts(matrix, draw(st.integers(0, 3)))
    text = draw(mutated(coeffs if flag == "--coeffs" else signal))
    path = tmp / ("%s.txt" % flag.strip("-"))
    path.write_text(text)
    return str(path)


@st.composite
def commands(draw, tmp):
    verb = draw(st.sampled_from(VERBS))
    argv = list(verb.path)
    if verb.reads == "graph":
        matrix = MATRICES[0]
        argv.append("--graph=" + draw(st.sampled_from(GRAPHS)))
    else:
        matrix = draw(st.sampled_from(MATRICES))
        argv.append("--matrix=" + matrix)
        if verb.reads == "lax" and draw(st.booleans()):
            argv.append("--lax")
    if verb.spectral and draw(st.integers(0, 9)) == 0:
        argv.append("--tol=" + draw(st.sampled_from(["1e-300", "1e-12", "0", "nan"])))
    cap = draw(st.none() | st.just(-1) | st.integers(0, core.DEFAULT_CAP))
    if verb.cap and cap is not None:
        argv.append("--cap=%d" % cap)
    for flag, kw in verb.flags:
        # required flags are mostly given, optional ones half the time
        if not draw(st.integers(0, 9) if kw.get("required") else st.booleans()):
            continue
        if kw.get("action") == "store_true":
            argv.append(flag)
        else:
            argv.append("%s=%s" % (flag, _flag_value(draw, flag, matrix, tmp)))
    return argv


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_ends_in_a_documented_exit_code(tmp_path, capsys, data):
    argv = data.draw(commands(tmp_path))
    code = run(argv)
    capsys.readouterr()
    assert code in EXIT_CODES, argv
