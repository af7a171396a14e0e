"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.alphabet import PROTEIN
from repro.scoring import BLOSUM62, GapModel, SubstitutionMatrix, paper_gap_model

#: The 20 standard residues (no ambiguity codes) for random sequences.
STANDARD_RESIDUES = "ARNDCQEGHILKMFPSTWYV"


def random_protein(rng: np.random.Generator, length: int) -> str:
    """A random protein string over the 20 standard residues."""
    return "".join(STANDARD_RESIDUES[i] for i in rng.integers(0, 20, length))


def random_codes(rng: np.random.Generator, length: int) -> np.ndarray:
    """Random residue codes (standard residues only)."""
    return rng.integers(0, 20, length).astype(np.uint8)


def hot3000_matrix() -> SubstitutionMatrix:
    """Match 3000, mismatch -2: forces the numpy kernel's int64 redo.

    The reward does not fit a byte, so the kernel starts at int16, whose
    clamp is 32767 - 3000 = 29767; twelve identical residues score
    36000, past it.
    """
    n = PROTEIN.size
    data = np.full((n, n), -2, dtype=np.int32)
    np.fill_diagonal(data, 3000)
    return SubstitutionMatrix("HOT3000", PROTEIN, data)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def blosum62():
    """The paper's substitution matrix."""
    return BLOSUM62


@pytest.fixture
def gaps() -> GapModel:
    """The paper's gap model (10/2)."""
    return paper_gap_model()


@pytest.fixture
def alphabet():
    """The canonical protein alphabet."""
    return PROTEIN
