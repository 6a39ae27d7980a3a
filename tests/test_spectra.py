import itertools
import json
import math
import random
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trispec import (
    GcbSpec,
    TriangleFamily,
    build_delta0,
    build_delta1,
    build_laplacian,
    complete_family,
    delta1_rank,
    disjoint_union,
    eigenvalues_symmetric,
    exact_rank,
    gcb_family,
    lambda_of,
    phi_lower_bound_family,
    random_families,
    relabel,
    spectra,
    spectral_report,
    spectral_reports,
    support_graph,
    verify_min_gap,
)
from trispec.cli import _grid_families
from trispec.spectra import SpectralError, _blocks, _check_bands


def test_eigenvalues_symmetric_solves_an_integer_matrix_with_a_double_eigenvalue():
    # A graph Laplacian with spectrum 0, 2, 4, 5, 5.
    m = np.array(
        [
            [4, -1, -1, -1, -1],
            [-1, 3, 0, -1, -1],
            [-1, 0, 2, 0, -1],
            [-1, -1, 0, 3, -1],
            [-1, -1, -1, -1, 4],
        ],
        dtype=float,
    )
    eigs = eigenvalues_symmetric(m)
    assert np.max(np.abs(eigs - np.array([0.0, 2.0, 4.0, 5.0, 5.0]))) < 1e-9


def test_eigenvalues_symmetric_rejects_an_asymmetric_matrix():
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_a_stack_solves_each_slice_as_it_would_alone():
    # Gram matrices of random 0/+-1 matrices: the shapes the phi sweep stacks.
    rng = np.random.default_rng(5)
    for n in (1, 4, 9):
        d = rng.integers(-1, 2, size=(6, n, 2 * n)).astype(float)
        stack = d @ np.swapaxes(d, -1, -2)
        eigs = eigenvalues_symmetric(stack)
        assert eigs.shape == (6, n)
        for slice_, got in zip(stack, eigs):
            assert np.array_equal(got, eigenvalues_symmetric(slice_))


def test_a_stack_with_one_bad_slice_is_rejected():
    stack = np.stack([np.eye(3)] * 4)
    stack[2, 0, 1] = 1.0  # one asymmetric slice
    with pytest.raises(ValueError, match="not symmetric"):
        eigenvalues_symmetric(stack)
    with pytest.raises(ValueError, match="square"):
        eigenvalues_symmetric(np.zeros((4, 3, 2)))  # non-square slices
    with pytest.raises(ValueError, match="square"):
        eigenvalues_symmetric(np.zeros(3))


def test_intro_table():
    fams = {
        3.0: TriangleFamily(((1, 2, 3),)),
        2.0: TriangleFamily(((1, 2, 3), (1, 2, 4))),
        1.0: TriangleFamily(((1, 2, 3), (1, 2, 4), (1, 3, 4))),
        4.0: complete_family(4),
    }
    for want, fam in fams.items():
        assert abs(lambda_of(fam) - want) < 1e-8


def test_report_spectrum_of_three_triangle_family():
    fam = TriangleFamily(((1, 2, 3), (1, 2, 4), (1, 3, 4)))
    report = spectral_report(fam)
    assert np.allclose(report.spectrum, [1.0, 4.0, 4.0], atol=1e-8)
    assert report.nullity == 0
    assert abs(report.tau - 4.0) < 1e-8


def test_tau_absent_when_up_rank_is_one():
    report = spectral_report(TriangleFamily(((1, 2, 3),)))
    assert report.tau is None
    assert abs(report.lam - 3.0) < 1e-8


def test_nullity_is_exact_not_thresholded():
    # K4 has one dependent triangle: nullity 1 in the triangle-indexed matrix.
    report = spectral_report(complete_family(4))
    assert report.nullity == 1
    assert abs(report.lam - 4.0) < 1e-8
    fam = complete_family(5)
    r = spectral_report(fam)
    d1 = build_delta1(fam)
    assert r.nullity == len(fam) - exact_rank(d1)


def test_report_json_keys_are_stable():
    data = json.loads(spectral_report(complete_family(4)).to_json())
    assert set(data) == {
        "lambda",
        "tau",
        "nullity",
        "spectrum",
        "lambda_min_plus_L0",
        "lambda_min_plus_L1_total",
        "dims",
    }
    assert data["dims"]["triangles"] == 4


def test_lambda_invariant_under_relabeling():
    rng = random.Random(77)
    for fam in random_families(20, 78):
        lam = lambda_of(fam)
        verts = list(fam.vertices())
        images = rng.sample(range(1, 60), len(verts))
        assert abs(lambda_of(relabel(fam, dict(zip(verts, images)))) - lam) < 1e-9


def test_lambda_of_disjoint_union_is_minimum():
    for fam_a, fam_b in zip(random_families(10, 5), random_families(10, 6)):
        union = disjoint_union(fam_a, fam_b)
        want = min(lambda_of(fam_a), lambda_of(fam_b))
        assert abs(lambda_of(union) - want) < 1e-9


def test_spectral_report_splits_a_disconnected_family_once(monkeypatch):
    # The union-find runs once, on the family; its parts already know they
    # are connected, so neither _blocks nor delta1_rank splits them again.
    split = TriangleFamily.__dict__["_parts"].func
    calls = []

    def counted(fam):
        calls.append(fam)
        return split(fam)

    prop = cached_property(counted)
    prop.__set_name__(TriangleFamily, "_parts")
    monkeypatch.setattr(TriangleFamily, "_parts", prop)
    fam = disjoint_union(disjoint_union(complete_family(4), complete_family(5)), complete_family(3))
    report = spectral_report(fam)
    assert calls == [fam]
    assert abs(report.lam - 3.0) < 1e-9


def test_min_gap_identity_on_random_families():
    for fam in random_families(50, 42):
        check = verify_min_gap(spectral_report(fam))
        assert check.ok, (fam.triangles, check)


def test_min_gap_identity_on_constructions():
    for n in range(3, 8):
        assert verify_min_gap(spectral_report(complete_family(n))).ok


def test_lambda_min_plus_on_known_graph():
    # Path 1-2-3 from one triangle fan: L0 there is the triangle's graph
    # Laplacian, smallest positive eigenvalue 3 (complete graph K3).
    fam = TriangleFamily(((1, 2, 3),))
    report = spectral_report(fam)
    assert abs(report.lambda_min_plus_l0 - 3.0) < 1e-8
    assert abs(report.lambda_min_plus_l1_total - 3.0) < 1e-7


def test_lambda_min_plus_rejects_negative_definite_part():
    # Every Gram spectrum behind a smallest positive eigenvalue passes
    # through _check_bands, which refuses a negative eigenvalue.
    eigs = eigenvalues_symmetric(np.array([[-1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(SpectralError, match="negative eigenvalue"):
        _check_bands(eigs, 0, "L2_down")


def test_check_bands_refuses_a_kernel_eigenvalue_above_the_zero_band():
    # The exact nullity says one eigenvalue is zero, but the smallest is 0.5.
    with pytest.raises(SpectralError, match="inside the exact kernel exceeds the zero band"):
        _check_bands([0.5, 1.0, 2.0], 1, "L2_down")


_TRIANGLES = list(itertools.combinations(range(1, 9), 3))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_TRIANGLES), min_size=1, max_size=14))
def test_block_rank0_is_vertices_minus_one(tris):
    # Each block is one connected component, so rank(d0) = |V| - 1 holds
    # without elimination; check it against the exact rank.
    for block in _blocks(TriangleFamily(tuple(tris))):
        vertices = len(block.graph.vertices)
        assert exact_rank(build_delta0(block.graph)) == vertices - 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_TRIANGLES), min_size=1, max_size=14))
@example([(1, 2, 3), (4, 5, 6)])
@example([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (5, 6, 7), (5, 6, 8)])
def test_block_gram_matrices_equal_the_integer_products(tris):
    # Connected and disconnected families on labels 1..8: each block's
    # scattered L1_up and its L2_down product are the int64 products of its
    # component's delta1, entry for entry.
    fam = TriangleFamily(tuple(tris))
    blocks = _blocks(fam)
    assert len(blocks) == len(fam.components)
    for block, part in zip(blocks, fam.components):
        assert block.l1_up.dtype == np.float64
        assert np.array_equal(block.l1_up, build_laplacian("L1_up", part))
        assert np.array_equal(block.l2_down(), build_laplacian("L2_down", part))


def _dense_report_json(family: TriangleFamily) -> str:
    """spectral_report(family).to_json() as dense products give it: each
    component's delta1 built dense in float64, L1_up = d1^T d1 and
    L2_down = d1 d1^T by matrix products, L1_total = d0 d0^T + d1^T d1."""
    parts = family.components
    d1s = [build_delta1(part).astype(float) for part in parts]
    ranks = [delta1_rank(part) for part in parts]
    edges = sum(d1.shape[1] for d1 in d1s)
    source = "L2_down" if len(family) <= edges else "L1_up"
    merged, nullity = [], 0
    for d1, rank1 in zip(d1s, ranks):
        gram = d1 @ d1.T if source == "L2_down" else d1.T @ d1
        merged += np.linalg.eigvalsh(gram).tolist()
        nullity += gram.shape[0] - rank1
    merged.sort()
    l0_min = l1_min = math.inf
    for part, d1, rank1 in zip(parts, d1s, ranks):
        d0 = build_delta0(part.support).astype(float)
        l0_min = min(l0_min, np.linalg.eigvalsh(d0.T @ d0).tolist()[1])
        null1 = d0.shape[0] - (d0.shape[1] - 1) - rank1
        l1_min = min(l1_min, np.linalg.eigvalsh(d0 @ d0.T + d1.T @ d1).tolist()[null1])
    data = {
        "lambda": merged[nullity],
        "tau": merged[nullity + 1] if sum(ranks) > 1 else None,
        "nullity": nullity,
        "spectrum": merged,
        "lambda_min_plus_L0": l0_min,
        "lambda_min_plus_L1_total": l1_min,
        "dims": {
            "vertices": sum(len(part.support.vertices) for part in parts),
            "edges": edges,
            "triangles": len(family),
            "spectrum_source": source,
        },
    }
    return json.dumps(data, sort_keys=True, indent=2)


def test_spectral_report_is_byte_equal_to_the_dense_products():
    fams = [complete_family(n) for n in range(3, 9)]
    fams += [gcb_family(GcbSpec(c, b)) for c in range(3, 6) for b in range(1, 4)]
    fams += random_families(200, 24)
    fams += [disjoint_union(a, b) for a, b in zip(random_families(20, 25), random_families(20, 26))]
    fams.append(disjoint_union(disjoint_union(complete_family(7), complete_family(6)), complete_family(5)))
    big = phi_lower_bound_family(3000).family
    labels = list(big.vertices())
    fams.append(relabel(big, dict(zip(labels, random.Random(3).sample(labels, len(labels))))))
    sources = set()
    for fam in fams:
        want = _dense_report_json(fam)
        assert spectral_report(fam).to_json() == want, fam.triangles
        sources.add(json.loads(want)["dims"]["spectrum_source"])
    assert sources == {"L1_up", "L2_down"}


def test_batched_reports_equal_reports_solved_one_matrix_at_a_time(monkeypatch):
    # One batch solves each (kind, size) group as one stack; a report made
    # with every Gram matrix solved alone is the same, exactly.
    fams = [fam for _, fam in _grid_families()] + random_families(200, 7)
    k5_gcb_k4 = disjoint_union(complete_family(5), gcb_family(GcbSpec(4, 2)))
    fams.append(disjoint_union(k5_gcb_k4, complete_family(4)))
    # Blocks of equal size within one family and across two.
    fams.append(disjoint_union(complete_family(4), complete_family(4)))
    fams.append(disjoint_union(complete_family(4), complete_family(5)))
    solve = spectra.eigenvalues_symmetric
    stacked = []

    def counted(stack):
        stacked.append(len(stack))
        return solve(stack)

    monkeypatch.setattr(spectra, "eigenvalues_symmetric", counted)
    batched = [report.to_dict() for report in spectral_reports(fams)]
    assert max(stacked) > 1

    def alone(stack):
        return np.array([solve(matrix) for matrix in stack])

    monkeypatch.setattr(spectra, "eigenvalues_symmetric", alone)
    assert batched == [spectral_report(fam).to_dict() for fam in fams]


def test_a_batch_raises_the_first_failing_familys_own_error(monkeypatch):
    # With the zero band at half of 1 + lambda_max, K_4 passes and the other
    # three each fail with their own message; the batch raises the message
    # the first of them raises alone, not a later family's.
    monkeypatch.setattr(spectra, "ZERO_BAND_COEFF", 0.5)
    ok = complete_family(4)
    first = TriangleFamily(((1, 2, 3), (1, 2, 4)))
    later = [gcb_family(GcbSpec(3, 2)), TriangleFamily(((1, 2, 3), (2, 3, 4), (3, 4, 5)))]
    spectral_report(ok)
    messages = []
    for fam in [first] + later:
        with pytest.raises(SpectralError) as alone:
            spectral_report(fam)
        messages.append(str(alone.value))
    assert len(set(messages)) == 3
    with pytest.raises(SpectralError) as batch:
        spectral_reports([ok, first] + later)
    assert str(batch.value) == messages[0]
