from hdx.verify import CHECKS, run_verify


def test_run_verify_seed_zero_passes_every_check():
    results = run_verify(seed=0)
    assert len(results) == len(CHECKS) == 35
    assert [(r.name, r.detail) for r in results if not r.ok] == []
