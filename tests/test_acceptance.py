"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import json
import math

import numpy as np
import pytest

from support import (
    eig2_oracle,
    pattern_C,
    pattern_P,
    random_broken_block,
    random_unbroken_block,
    random_unbroken_spec,
    scalar_cfrac_oracle,
    sort_eigs,
)

from ptsym import (
    HamiltonianSpec,
    Phase,
    PTBlock,
    RealLevel,
    SingularMatrixError,
    antilinear_commutator_norm,
    assemble,
    build_C,
    build_P,
    c_expectations,
    ccs_inner,
    cfrac_F,
    classify,
    commutator_norm,
    completeness,
    eigen_block,
    eigen_broken,
    frob_norm,
    full_spectrum,
    max_abs,
    parity_matrix,
    reconstruct,
    verify_cpt,
)
from ptsym.cli import main


def report(number, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} ({name}) failed{tail}"


def all_pairs(spectra):
    return [p for bs in spectra for p in bs.pairs]


def test_criterion_01_eigenvalue_formula_vs_charpoly_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        block = random_unbroken_block(rng)  # r in [0,3], |r sin theta|/s <= 0.95
        h = assemble(HamiltonianSpec([block]))
        expected = eig2_oracle(h)
        got = sort_eigs(eigen_block(block).values)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, expected)))
    report(1, "closed-form eigenvalues", worst < 1e-12, f"max dev {worst:.2e}")


def test_criterion_02_orthonormality_and_completeness():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        spec = random_unbroken_spec(rng, max_pt=10, max_levels=5)
        spectra = full_spectrum(spec)
        n = spec.dimension
        vecs = [p.embedded(n) for p in all_pairs(spectra)]
        gram = np.array([[ccs_inner(u, v) for v in vecs] for u in vecs])
        worst = max(worst, max_abs(gram - np.eye(len(vecs))))
        worst = max(worst, max_abs(completeness(spectra) - np.eye(n)))
    report(2, "bilinear orthonormality + completeness", worst < 1e-12, f"max dev {worst:.2e}")


def test_criterion_03_spectral_reconstruction():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        spec = random_unbroken_spec(rng, max_pt=10, max_levels=5)
        worst = max(worst, max_abs(reconstruct(full_spectrum(spec)) - assemble(spec)))
    report(3, "spectral reconstruction", worst < 1e-12, f"max dev {worst:.2e}")


def test_criterion_04_c_operator():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        spec = random_unbroken_spec(rng, max_pt=10, max_levels=5)
        spectra = full_spectrum(spec)
        c = build_C(spectra)
        n = spec.dimension
        worst = max(worst, max_abs(c - pattern_C(spec)))
        worst = max(worst, max_abs(c @ c - np.eye(n)))
        for (_, value), pair in zip(c_expectations(spectra, c), all_pairs(spectra)):
            worst = max(worst, abs(value - pair.sign_index))
    report(4, "C operator pattern, involution, expectations", worst < 1e-12, f"max dev {worst:.2e}")


def test_criterion_05_p_operator():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        spec = random_unbroken_spec(rng, max_pt=10, max_levels=5)
        spectra = full_spectrum(spec)
        p = build_P(spectra, build_C(spectra))
        n = spec.dimension
        worst = max(worst, max_abs(p - pattern_P(spec)))
        worst = max(worst, float(np.max(np.abs(p.imag))))
        worst = max(worst, max_abs(p @ p - np.eye(n)))
    report(5, "P operator pattern, realness, involution", worst < 1e-12, f"max dev {worst:.2e}")


def test_criterion_06_symmetry_residuals():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(100):
        spec = random_unbroken_spec(rng, max_pt=8, max_levels=4)
        h = assemble(spec)
        spectra = full_spectrum(spec)
        c = build_C(spectra)
        p = build_P(spectra, c)
        worst = max(worst, commutator_norm(h, c))
        worst = max(worst, antilinear_commutator_norm(h, p))
        worst = max(worst, verify_cpt(h, c, p))
    # the antilinear parity check must hold for broken-phase systems too
    for _ in range(100):
        blocks = [random_broken_block(rng), random_unbroken_block(rng)]
        rng.shuffle(blocks)
        spec = HamiltonianSpec(blocks)
        h = assemble(spec)
        worst = max(worst, antilinear_commutator_norm(h, parity_matrix(spec)))
    report(6, "[H,C], antilinear PT (both phases), CPT", worst < 1e-12, f"max dev {worst:.2e}")


def test_criterion_07_broken_phase_and_boundary_sweep():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(1000):
        block = random_broken_block(rng)
        h = assemble(HamiltonianSpec([block]))
        got = sort_eigs(eigen_broken(block))
        expected = eig2_oracle(h)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, expected)))
        upper, lower = eigen_broken(block)
        assert upper == lower.conjugate()
    ok = worst < 1e-10

    # sweep the coupling across |r sin theta|: phases must flip
    # unbroken -> exceptional -> broken exactly once each
    r, theta = 1.4, 1.1
    x = r * math.sin(theta)
    deltas = np.concatenate(
        [np.logspace(-3, -10, 30), [0.0], -np.logspace(-10, -3, 30)]
    )
    phases = [classify(PTBlock(r=r, theta=theta, s=x * (1 + d))) for d in deltas]
    order = {Phase.UNBROKEN: 0, Phase.EXCEPTIONAL: 1, Phase.BROKEN: 2}
    ranks = [order[p] for p in phases]
    ok = ok and ranks == sorted(ranks) and set(ranks) == {0, 1, 2}
    report(7, "broken-phase oracle + monotone boundary sweep", ok, f"max dev {worst:.2e}")


def test_criterion_08_traces_count_levels():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(200):
        n_levels = int(rng.integers(0, 6))
        blocks = [random_unbroken_block(rng) for _ in range(int(rng.integers(1, 6)))]
        blocks += [RealLevel(a=float(rng.uniform(-3, 3))) for _ in range(n_levels)]
        rng.shuffle(blocks)
        spectra = full_spectrum(HamiltonianSpec(blocks))
        c = build_C(spectra)
        worst = max(worst, abs(np.trace(c) - n_levels))
        worst = max(worst, abs(np.trace(build_P(spectra, c)) - n_levels))
    report(8, "trace(C) = trace(P) = #levels", worst < 1e-12, f"max dev {worst:.2e}")


def test_criterion_09_continued_fraction_family():
    rng = np.random.default_rng(109)
    spec = random_unbroken_spec(rng, max_pt=3, max_levels=2, min_pt=2)
    h = assemble(spec)
    spectra = full_spectrum(spec)
    c = build_C(spectra)
    worst = 0.0
    for depth in range(1, 12):
        f = cfrac_F(c, 2.0, depth)
        worst = max(worst, commutator_norm(h, f))
        worst = max(worst, commutator_norm(c, f))
        for pair in all_pairs(spectra):
            expected = scalar_cfrac_oracle(float(pair.sign_index), 2.0, depth)
            vec = pair.embedded(spec.dimension)
            residual = f @ vec - expected * vec
            worst = max(worst, float(np.max(np.abs(residual))))
    with pytest.raises(SingularMatrixError):
        cfrac_F(c, 1.0, 1)
    report(9, "continued-fraction symmetry + pole detection", worst < 1e-10, f"max dev {worst:.2e}")


# CLI golden layouts: block+level, two blocks, two blocks+level, five blocks
GOLDEN_DOCS = {
    "n3": {"blocks": [{"kind": "pt2", "r": 1.0, "theta": 0.4, "s": 1.2}, {"kind": "level", "a": 0.5}]},
    "n4": {
        "blocks": [
            {"kind": "pt2", "r": 1.0, "theta": 0.4, "s": 1.2},
            {"kind": "pt2", "r": 2.0, "theta": -0.6, "s": 2.4},
        ]
    },
    "n5": {
        "blocks": [
            {"kind": "pt2", "r": 1.0, "theta": 0.4, "s": 1.2},
            {"kind": "pt2", "r": 2.0, "theta": -0.6, "s": 2.4},
            {"kind": "level", "a": -1.25},
        ]
    },
    "n10": {
        "blocks": [
            {"kind": "pt2", "r": 1.0, "theta": 0.2, "s": 1.0},
            {"kind": "pt2", "r": 0.5, "theta": -0.7, "s": 1.5},
            {"kind": "pt2", "r": 2.0, "theta": 0.4, "s": 2.2},
            {"kind": "pt2", "r": 1.2, "theta": 1.0, "s": 1.8},
            {"kind": "pt2", "r": 0.8, "theta": -1.2, "s": 2.0},
        ]
    },
}


def test_criterion_10_cli_golden_verify(tmp_path, capsys):
    ok = True
    detail = []
    for name, doc in GOLDEN_DOCS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))

        code_first = main(["verify", str(path)])
        first = capsys.readouterr().out
        code_second = main(["verify", str(path)])
        second = capsys.readouterr().out

        stable = first.encode() == second.encode()
        all_pass = first.count(" PASS") == 10 and " FAIL" not in first
        ok = ok and stable and all_pass and code_first == 0 and code_second == 0
        detail.append(f"{name}:exit={code_first}")

    # exit codes honored on the failure paths as well
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{")
    ok = ok and main(["verify", str(garbled)]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text(
        json.dumps({"blocks": [{"kind": "pt2", "r": 2.0, "theta": 1.5707963267948966, "s": 1.0}]})
    )
    ok = ok and main(["verify", str(broken)]) == 3
    capsys.readouterr()

    report(10, "CLI golden verify runs", ok, " ".join(detail))
