from __future__ import annotations

from functools import lru_cache

import pytest

from genocchi import enumerate_model
from genocchi.models import (
    DellacConfiguration,
    DumontPermutation,
    FeiginChain,
    HetyeiTuple,
    SetTuple,
)

DATA_ATTRIBUTES = {
    DumontPermutation: "word",
    DellacConfiguration: "row_columns",
    FeiginChain: "subsets",
    SetTuple: "sets",
    HetyeiTuple: "pairs",
}


@lru_cache(maxsize=None)
def cached_objects(model: str, n: int) -> tuple:
    """Enumerate once per (model, n) for the whole test session."""
    return tuple(enumerate_model(model, n))


def rebuilt(obj):
    """obj built again through its family's public, validating constructor."""
    return type(obj)(obj.n, getattr(obj, DATA_ATTRIBUTES[type(obj)]))


@pytest.fixture(scope="session")
def objects():
    return cached_objects
