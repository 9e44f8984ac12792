from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

import pytest

import genocchi
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


def package_env() -> dict:
    """The environment of a fresh interpreter that imports the genocchi
    under test."""
    src = str(Path(genocchi.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def rebuilt(obj):
    """obj built again through its family's public, validating constructor."""
    return type(obj)(obj.n, getattr(obj, DATA_ATTRIBUTES[type(obj)]))


@pytest.fixture(scope="session")
def objects():
    return cached_objects
