"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test drives the same claim implementations as `localchrom verify-paper`
(single source of truth) and prints one pass/fail line per criterion.  The
extremal-search golden in localchrom.report was frozen from the first
verified run, after every listed graph passed check_membership and the
forced members (K3, C7BAR) were confirmed; it is a regression oracle now.
"""

import os
import subprocess
import sys
import time

import pytest

import localchrom
from localchrom import report as rp


def _run(criterion: str, claim_fns) -> None:
    start = time.monotonic()
    try:
        details = [fn() for fn in claim_fns]
        status = "PASS"
        note = "; ".join(details)
    except rp.ClaimFailure as exc:
        status, note = "FAIL", str(exc)
    print(f"{status} {criterion} ({time.monotonic() - start:.2f}s): {note}")
    if status == "FAIL":
        pytest.fail(f"{criterion}: {note}")


def test_criterion_01_family_sanity():
    _run(
        "criterion-01 family sanity",
        [rp.claim_families_four_chromatic, rp.claim_families_locally_bipartite],
    )


def test_criterion_02_moser_spindle_property():
    _run("criterion-02 five-vertex property", [rp.claim_h0_five_vertex])


def test_criterion_03_saturation_chain():
    _run("criterion-03 saturation chain", [rp.claim_saturation_chain])


def test_criterion_04_non_homomorphism_square():
    _run("criterion-04 non-homomorphisms", [rp.claim_non_homomorphisms])


def test_criterion_05_weighting_optima():
    _run(
        "criterion-05 weighting optima",
        [
            rp.claim_weighting_h2,
            rp.claim_weighting_h2plus,
            rp.claim_weighting_c7bar,
            rp.claim_weighting_delta3,
        ],
    )


def test_criterion_06_delta_family():
    _run("criterion-06 delta family", [rp.claim_delta_family])


def test_criterion_07_augmented_colouring():
    _run("criterion-07 augmented colouring", [rp.claim_augmented_colouring])


def test_criterion_08_counterexample8():
    _run("criterion-08 eight-vertex counterexample", [rp.claim_counterexample8])


def test_criterion_09_decomposition_round_trips():
    _run(
        "criterion-09 decomposition round-trips",
        [rp.claim_decomposition_c7bar, rp.claim_decomposition_h2plus],
    )


def test_criterion_10_property_suites():
    from localchrom.properties import PROPERTY_SUITES

    claims = [
        (lambda suite=suite, family=family, size=size: rp._property_claim(suite, family(size)))
        for _, suite, family, size in PROPERTY_SUITES
    ]
    _run("criterion-10 property suites (8 named families)", claims)


def test_criterion_11_extremal_search():
    _run("criterion-11 extremal search n<=7", [rp.claim_extremal_search_n7])


def test_criterion_12_aes_r2():
    _run("criterion-12 AES r=2 sanity", [rp.claim_aes_r2])


def test_verify_paper_runner_end_to_end():
    # the runner itself: stable ids, declared order, filtering
    result = rp.verify_paper(only="H0-five-vertex")
    assert [e.claim_id for e in result.entries] == ["H0-five-vertex"]
    assert result.exit_code == 0
    ids = [cid for cid, _ in rp.build_claims()]
    assert ids == sorted(ids, key=ids.index)  # declared order is the report order
    assert len(ids) == len(set(ids))


def test_mutated_generator_is_caught(monkeypatch):
    # drop the a4-a6 chord from the H2 generator: the weighting claim must
    # fail and name the vertex whose weighted degree is off
    from localchrom import families
    from localchrom.graphs import Graph

    broken = Graph(7, [e for e in families.h2().edges() if e != (4, 6)])
    monkeypatch.setitem(families._NAMED, "H2", lambda: broken)
    with pytest.raises(rp.ClaimFailure) as exc:
        rp.claim_weighting_h2()
    assert "vertex" in str(exc.value) and "weighted degree" in str(exc.value)


def test_fail_never_aborts_remaining_claims(monkeypatch):
    claims = [
        ("boom-first", lambda: (_ for _ in ()).throw(RuntimeError("crash"))),
        ("ok-second", lambda: "fine"),
    ]
    monkeypatch.setattr(rp, "build_claims", lambda: claims)
    result = rp.verify_paper()
    assert [e.status for e in result.entries] == ["FAIL", "PASS"]
    assert result.exit_code == 1


_OPTIMISED_CHECK = """
from fractions import Fraction
from localchrom import families
from localchrom.graphs import CertificateError
from localchrom.weighting import _check_certificates, optimal_weighting

assert False, "assert statements run: not optimised"
g = families.c7bar()
result = optimal_weighting(g)
# all dual mass on vertex 0: each neighbour of 0 sees mass 1 > t* = 4/7
infeasible = (Fraction(1),) + (Fraction(0),) * (g.n - 1)
try:
    _check_certificates(g, result.optimum, result.weights, infeasible)
except CertificateError as exc:
    print("raised:", exc)
"""


def test_checks_survive_python_optimise():
    # under python -O assert statements vanish; the certificate re-checks
    # must not, and the decomposition claims must still pass
    src = os.path.dirname(os.path.dirname(os.path.abspath(localchrom.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = [sys.executable, "-O"]
    checked = subprocess.run(
        run + ["-c", _OPTIMISED_CHECK], capture_output=True, text=True, env=env
    )
    assert checked.returncode == 0, checked.stderr
    assert checked.stdout == "raised: dual weighting is not feasible\n"
    claims = subprocess.run(
        run + ["-m", "localchrom.cli", "verify-paper", "--only", "decomposition"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert claims.returncode == 0, claims.stdout + claims.stderr
    assert claims.stdout.count("PASS") == 2


def test_property_claims_name_their_families():
    # each detail names the family checked and its size, counted as it was generated
    details = {e.claim_id: e.detail for e in rp.verify_paper(only="prop-").entries}
    dense = "all 84 graphs on <= 8 vertices with delta > n/2, zero violations"
    blow_ups = "all 216 {1,2}-class blow-ups of the graphs on 2..4 vertices, zero violations"
    assert details == {
        "prop-independent-set-pairs-dense": dense,
        "prop-c4-diagonal-dense": dense,
        "prop-dense-sets-independent": "all 165 locally bipartite H0-free graphs on <= 6 vertices, zero violations",
        "prop-hom-forces-induced": (
            "all 495 pairs of K3, C7BAR or H2PLUS with a locally bipartite graph on <= 6 vertices, zero violations"
        ),
        "prop-blowup-invariance": blow_ups,
        "prop-merge-twins": blow_ups,
        "prop-hom-composition": blow_ups,
        "prop-degree-identity": "all 208 graphs on <= 6 vertices, zero violations",
    }
    assert rp.claim_aes_r2() == (
        "5 of the 582 triangle-free graphs on <= 8 vertices have delta > 2n/5, all 2-colourable; "
        "C5, with delta = 2n/5, is not: the bound is sharp"
    )
