import random
import sys
from itertools import combinations, product

import numpy as np
import pytest

import hdx.cochains as cochains_mod
from hdx import cosets, verify
from hdx.catalog import named_complex
from hdx.verify import CHECKS, run_verify

LEMMAS = ("minimal-implies-locally-minimal", "minimal-closed-under-inclusion")


def test_run_verify_seed_zero_passes_every_check():
    results = run_verify(seed=0)
    assert len(results) == len(CHECKS) == 35
    assert [(r.name, r.detail) for r in results if not r.ok] == []


def table_instances():
    """Every (complex, ring, k) a minimality table is read for, plus Z/6 up to 6^m = 4096."""
    seen = {}
    for name, X, ring, k in [*verify._local_minimality_instances(),
                             *verify._inclusion_instances()]:
        seen[name, str(ring), k] = (X, ring, k)
    for name in verify.MEDIUM:
        X = named_complex(name)
        for k in range(0, X.dim + 1):
            if 6 ** len(X.faces(k)) <= 4096:
                seen[name, "Z/6", k] = (X, verify.Z6, k)
    return seen


TABLE_INSTANCES = table_instances()


@pytest.mark.parametrize("key", sorted(TABLE_INSTANCES), ids=lambda key: "-".join(map(str, key)))
def test_minimal_table_matches_is_minimal_on_every_row(key):
    X, ring, k = TABLE_INSTANCES[key]
    F, mask = verify._minimal_table(X, ring, k)
    m = len(X.faces(k))
    assert F.tolist() == [list(v) for v in product(range(ring.size), repeat=m)]
    want = [cochains_mod.is_minimal(cochains_mod.vector_cochain(X, ring, k, row))
            for row in F.tolist()]
    assert mask.tolist() == want


def restriction_closed(mask, n, m):
    """Whether every restriction of every marked vector is marked, by enumeration."""
    index = {v: i for i, v in enumerate(product(range(n), repeat=m))}
    for v, i in index.items():
        if not mask[i]:
            continue
        supp = [j for j in range(m) if v[j]]
        for r in range(len(supp)):
            for keep in combinations(supp, r):
                sub = tuple(v[j] if j in keep else 0 for j in range(m))
                if not mask[index[sub]]:
                    return False
    return True


def test_closed_under_zeroing_matches_restriction_enumeration():
    rng = random.Random(5)
    outcomes = set()
    for _ in range(300):
        # up to 3^6 rows: digit times place value then passes 255, F's uint8 range
        n = rng.choice([2, 3, 4])
        m = rng.randint(1, 4 if n == 4 else 6)
        F = cosets.lex_digits(0, n ** m, n, range(m), m)
        # the restrictions of a few random rows, then maybe one stray row
        mask = np.zeros(n ** m, dtype=bool)
        for _ in range(rng.randint(0, 3)):
            mask |= (F[rng.randrange(n ** m)] * (F != 0) == F).all(axis=1)
        if rng.random() < 0.5:
            mask[rng.randrange(n ** m)] = True
        want = restriction_closed(mask.tolist(), n, m)
        assert verify._closed_under_zeroing(F, mask, n) == want
        outcomes.add(want)
    assert outcomes == {True, False}


@pytest.mark.parametrize("answer", [True, False])
def test_constant_is_minimal_fails_both_lemma_checks(monkeypatch, answer):
    # the lemma checks read local minimality off locally_minimal_rows, which
    # never calls is_minimal, so only the sampled cross-check against the
    # table can catch these mutations
    monkeypatch.setattr(cochains_mod, "is_minimal", lambda f, *a, **kw: answer)
    results = run_verify(seed=0, names_filter=set(LEMMAS))
    assert [r.name for r in results] == list(LEMMAS)
    assert not any(r.ok for r in results)
    assert all("table disagrees with is_minimal" in r.detail for r in results)


def test_lemma_checks_call_is_minimal_only_on_the_sample(monkeypatch):
    real = cochains_mod.is_minimal
    calls = {"n": 0}

    def counted(f, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "hdx.verify":
            calls["n"] += 1
        return real(f, *args, **kwargs)

    monkeypatch.setattr(cochains_mod, "is_minimal", counted)
    instances = {
        "minimal-implies-locally-minimal": verify._local_minimality_instances,
        "minimal-closed-under-inclusion": verify._inclusion_instances,
    }
    for name in LEMMAS:
        calls["n"] = 0
        (result,) = run_verify(seed=0, names_filter={name})
        assert result.ok
        assert 0 < calls["n"] <= verify.SAMPLE * len(list(instances[name]()))
