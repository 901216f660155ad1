from __future__ import annotations

from pathlib import Path

import pytest

from degenkit import intmat
from degenkit.schema import parse_document, parse_json_bytes

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "degenkit" / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.json"


def load_document(path: Path):
    """The datum or graph of a JSON document on disk."""
    return parse_document(parse_json_bytes(path.read_bytes(), str(path)), where=str(path))


def load_fixture(name: str):
    return load_document(fixture_path(name))


@pytest.fixture
def example_3_4():
    return load_fixture("example_3_4")


@pytest.fixture
def tate_u1u2():
    return load_fixture("tate_u1u2")


@pytest.fixture
def product_tate():
    return load_fixture("product_tate")


@pytest.fixture
def genus2_graph():
    return load_fixture("genus2_graph")


SMITH_FORMS = ("invariant_factors",)
COUNTED = SMITH_FORMS + ("rank", "hnf_columns", "matmul")


class IntmatCalls(dict):
    """Calls of the counted ``intmat`` routines, by name: one argument tuple
    per call, with every matrix frozen to a tuple of row tuples.  Every Smith
    elimination, whichever routine reached it, is also under ``eliminations``:
    the calls of ``_diagonalize``; and every fraction-free (Bareiss) pass under
    ``bareiss``: the calls of ``_bareiss`` (rank, determinant, independent
    rows, the Hermite modulus) and of ``_gauss_jordan`` (solve, adjugate),
    whose first argument is the matrix.  The ``_gauss_jordan`` passes alone
    are also under ``gauss_jordan``."""

    def smith_forms(self) -> list[tuple]:
        """The Smith eliminations behind the invariant factors."""
        return [args for name in SMITH_FORMS for args in self[name]]

    def clear_all(self) -> None:
        for calls in self.values():
            calls.clear()


@pytest.fixture
def intmat_calls(monkeypatch):
    calls = IntmatCalls({name: [] for name in
                         COUNTED + ("eliminations", "bareiss", "gauss_jordan")})

    def counting(original, *names):
        def wrapper(*args, **kwargs):
            frozen = tuple(tuple(map(tuple, a)) if isinstance(a, list) else a for a in args)
            for name in names:
                calls[name].append(frozen)
            return original(*args, **kwargs)
        return wrapper

    for name in COUNTED:
        monkeypatch.setattr(intmat, name, counting(getattr(intmat, name), name))
    monkeypatch.setattr(intmat, "_diagonalize", counting(intmat._diagonalize, "eliminations"))
    monkeypatch.setattr(intmat, "_bareiss", counting(intmat._bareiss, "bareiss"))
    monkeypatch.setattr(intmat, "_gauss_jordan",
                        counting(intmat._gauss_jordan, "bareiss", "gauss_jordan"))
    return calls
