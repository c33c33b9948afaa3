"""Shared fixtures: catalog relations are built once per session."""

from __future__ import annotations

from functools import lru_cache

import pytest

from lagrel import catalog


@lru_cache(maxsize=None)
def built_relation(name: str, m: int, n: int):
    return catalog(name, m, n).build_relation()


@pytest.fixture(scope="session")
def gl11():
    return built_relation("gl", 1, 1)


@pytest.fixture(scope="session")
def gl21():
    return built_relation("gl", 2, 1)


@pytest.fixture(scope="session")
def gl22():
    return built_relation("gl", 2, 2)
