"""README's `Library` code block runs as written."""

import os
import re

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _library_block():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_round_trips_its_indicator(capsys):
    namespace = {}
    exec(compile(_library_block(), "README.md (Library)", "exec"), namespace)
    f, back = namespace["f"], namespace["back"]
    assert back.level == f.level == 2
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12
    assert capsys.readouterr().out.strip()   # the block prints a measure and delta
