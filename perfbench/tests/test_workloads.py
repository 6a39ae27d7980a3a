import json

import pytest

from trispec import lambda_of, phi_lower_bound_family
from workloads import REFERENCES, WORKLOADS, shuffled_family


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_seeded_relabelling_leaves_lambda_unchanged(seed):
    family = phi_lower_bound_family(100).family
    shuffled = shuffled_family(family, seed)
    assert shuffled_family(family, seed) == shuffled
    assert len(shuffled) == len(family)
    assert shuffled.vertices() == family.vertices()
    assert lambda_of(shuffled) == pytest.approx(lambda_of(family), abs=1e-8)


def test_relabelling_depends_on_the_seed():
    family = phi_lower_bound_family(100).family
    assert len({shuffled_family(family, seed) for seed in range(4)}) > 1


def _lambda_report(lam):
    ref = REFERENCES["spectral_large"]
    return json.dumps({"lambda": lam, "tau": ref["tau"], "dims": ref["dims"]})


def test_spectral_check_uses_a_tolerance():
    check = WORKLOADS["spectral_large"].check
    assert all(ok for _, ok in check(0, _lambda_report(10.000000000000304)))
    assert not all(ok for _, ok in check(0, _lambda_report(10.001)))
    assert not all(ok for _, ok in check(3, ""))


def test_phi_check_ignores_the_exhaustive_flag():
    ref = REFERENCES["phi_search"]
    check = WORKLOADS["phi_search"].check
    for exhaustive in (False, True):
        out = json.dumps({**ref, "exhaustive": exhaustive, "t": 7})
        assert all(ok for _, ok in check(0, out))
    short = json.dumps({**ref, "connected_max": ref["connected_max"][:-1]})
    assert not all(ok for _, ok in check(0, short))


def test_verify_check_needs_every_suite_clean_and_complete():
    want = REFERENCES["verify_audit"]["checks"]
    check = WORKLOADS["verify_audit"].check
    lines = [f"suite={name} checks={n} failures=0" for name, n in want.items()]
    assert all(ok for _, ok in check(0, "\n".join(lines)))
    assert not all(ok for _, ok in check(0, "\n".join(lines[:-1])))
    failing = lines[:-1] + [lines[-1].replace("failures=0", "failures=2")]
    assert sum(not ok for _, ok in check(1, "\n".join(failing))) == 2
