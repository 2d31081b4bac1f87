import functools

import numpy as np
import pytest

from cantorkit import core, spectral
from cantorkit.errors import CantorError

FULL2 = ((1, 1), (1, 1))
TRI3 = ((1, 1, 0), (1, 1, 1), (0, 1, 1))
SCHOTTKY4 = ((1, 1, 0, 1), (1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1))


def seeded_strict_matrix(n, seed):
    rng = np.random.default_rng(seed)
    while True:
        rows = (rng.random((n, n)) < 0.4) | np.eye(n, dtype=bool)
        try:
            return core.validate_matrix(rows.astype(int).tolist())
        except CantorError:
            continue


def tables_in(memo):
    """The keys of what a matrix's memo holds beyond its level counts."""
    return {key for key in memo if key not in ("counts", "top")}


@pytest.fixture
def new_memos(monkeypatch):
    """The memo of every matrix that first reaches for it while the test runs,
    such as the matrices the CLI reads, their transposes and edge matrices."""
    memos, fresh = [], core.AdmissibilityMatrix._memo.func

    def memo(matrix):
        memos.append(fresh(matrix))
        return memos[-1]

    prop = functools.cached_property(memo)
    prop.__set_name__(core.AdmissibilityMatrix, "_memo")
    monkeypatch.setattr(core.AdmissibilityMatrix, "_memo", prop)
    return memos


@pytest.fixture(scope="session")
def full2():
    return core.validate_matrix(FULL2)


@pytest.fixture(scope="session")
def tri3():
    return core.validate_matrix(TRI3)


@pytest.fixture(scope="session")
def schottky4():
    return core.validate_matrix(SCHOTTKY4)


@pytest.fixture(scope="session")
def strict5():
    return seeded_strict_matrix(5, 2026)


@pytest.fixture(scope="session")
def strict12():
    """More than ten letters, so words are written with dots."""
    return seeded_strict_matrix(12, 2026)


@pytest.fixture(scope="session")
def full2_pd(full2):
    return spectral.perron_data(full2)


@pytest.fixture(scope="session")
def tri3_pd(tri3):
    return spectral.perron_data(tri3)


@pytest.fixture(scope="session")
def schottky4_pd(schottky4):
    return spectral.perron_data(schottky4)


@pytest.fixture(scope="session")
def strict5_pd(strict5):
    return spectral.perron_data(strict5)
