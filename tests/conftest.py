import pytest

from hdx import catalog


@pytest.fixture(autouse=True)
def cold_catalog(monkeypatch):
    """Each test reads its own copies of the named complexes, as one CLI
    process does: work a complex keeps in its cache (Smith profiles,
    subgroup arrays, link maps) is never carried over from another test."""
    monkeypatch.setattr(catalog, "_cache", {})
