"""Acceptance suite: one test per criterion, pinned tolerances, one
printed pass/fail line each.  All randomness is seeded; tolerances are
written out literally next to the assertions they guard."""

import time

from ncgkit.checks import (
    SOBOLEV_CIRCLE_N,
    check_bianchi_trace,
    check_cech_suite,
    check_chain_character,
    check_character_comparison,
    check_complex_operators,
    check_derivation_suite,
    check_index_suite,
    check_induction_identity,
    check_morita_suite,
    check_pairing_consistency,
    check_partition_counts,
    check_sobolev_suite,
    check_torus_heat_trace,
    check_twisted_complex,
)

SEED = 7


def report(criterion: str, passed: bool, extra: str = ""):
    line = f"{'PASS' if passed else 'FAIL'}  {criterion}"
    if extra:
        line += f"  [{extra}]"
    print(line)
    assert passed, line


def test_criterion_01_induction_identity():
    t0 = time.time()
    res = check_induction_identity(seed=SEED, trials=100, k_max=5)
    elapsed = time.time() - t0
    ok = res.passed and res.details["failures"] == 0 and elapsed < 60.0
    report(
        "criterion-01 induction identity: exact zero defect, k<=5, m<=3, "
        "chart dim<=3, 100 trials",
        ok,
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_02_partition_counts():
    res = check_partition_counts(seed=SEED)
    ok = (
        res.passed
        and res.details["counts"] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        and res.details["recursion_matches"]
    )
    report(
        "criterion-02 partition term counts 1,1,2,3,5,8,13,21,34,55,89 and "
        "recursion == enumeration, exact",
        ok,
    )


def test_criterion_03_chain_character():
    res = check_chain_character(seed=SEED, trials=50)
    ok = (
        res.passed
        and res.details["rho_b_zero"]
        and res.details["cyclic_defect_zero"]
        and res.details["projection_character_closed"]
        and res.details["squared_block_collapse"]
    )
    report(
        "criterion-03 chain character: kills boundaries, exact cyclic "
        "defect, closed on 50 exact projections, collapses to two-block "
        "powers",
        ok,
    )


def test_criterion_04_complex_operators():
    res = check_complex_operators(seed=SEED, trials=100)
    report(
        "criterion-04 boundary/suspension operators: squares vanish and "
        "anticommute on 100 random reduced chains (k<=4, m<=3), exact",
        res.passed,
    )


def test_criterion_05_character_comparison():
    res = check_character_comparison(seed=SEED)
    diffs = [v for k, v in res.details.items() if k.endswith("_diff")]
    values = [v for k, v in res.details.items() if k.endswith("_value")]
    ok = (
        res.passed
        and res.details["resolution"] == 64
        and res.details["flat_exact_agreement"]
        and res.details["nonflat_lift_nonzero"]
        and res.details["nonflat_agree"]
        and all(d <= 1e-8 * max(1.0, max(values)) for d in diffs)
        and max(values) > 0  # the compared integrals are not all zero
    )
    report(
        "criterion-05 character maps agree: exact for flat lifts, 1e-8 at "
        "64x64 quadrature for non-flat lifts on the torus",
        ok,
        f"max degree diff {max(diffs):.2e}, max integral {max(values):.2e}",
    )


def test_criterion_06_flatness_and_twisted_complex():
    res1 = check_bianchi_trace(seed=SEED, trials=100)
    res2 = check_twisted_complex(seed=SEED, trials=100)
    report(
        "criterion-06 lift flatness and trace exchange (100 trials); "
        "twisted square zero and exponential shift intertwiner (100 trials), "
        "all exact",
        res1.passed and res2.passed,
    )


def test_criterion_07_cech_suite():
    res = check_cech_suite(seed=SEED, rephasings=50)
    ok = (
        res.passed
        and res.details["pauli_mu"] == "i"
        and res.details["torsion_witness"]
        and res.details["rephasing_invariant"]
        and res.details["h3_free_rank_one"]
        and res.details["delta_residual"] < 1e-6
    )
    report(
        "criterion-07 transition cocycles: scalar check, integer closed "
        "delta, 50 rephasings invariant, reference triangle phase i, rank-2 "
        "torsion witness, sphere nerve H3 = Z",
        ok,
    )


def test_criterion_08_derivation_suite():
    res = check_derivation_suite(seed=SEED, trials=100)
    ok = (
        res.passed
        and res.details["suspension_chain_map"]
        and res.details["vanish_on_commuting_inner"]
    )
    report(
        "criterion-08 derivation cochains: kills boundaries, intertwines "
        "the suspension, vanishes on 100 commuting inner families, exact",
        ok,
    )


def test_criterion_09_sobolev_suite():
    res = check_sobolev_suite(seed=SEED)
    ok = (
        res.passed
        and res.details["vectors"] == 1000
        and SOBOLEV_CIRCLE_N == 200
        and res.details["worst_slack"] >= -1e-12
        and res.details["verdict_d1"] == "summable"
        and res.details["verdict_d04"] == "divergent-trend"
    )
    report(
        "criterion-09 Sobolev embedding chain on 1000 vectors (N=200 circle "
        "truncation, slack >= -1e-12); summability verdicts match the "
        "series facts",
        ok,
        f"worst slack {res.details['worst_slack']:.2e}",
    )


def test_criterion_10_morita_suite():
    res = check_morita_suite(seed=SEED, trials=50)
    ok = (
        res.passed
        and res.details["identity_lift"]
        and res.details["finite_index_one"]
        and res.details["pairing_square"]
        and res.details["fluctuation_asymmetry"]
    )
    report(
        "criterion-10 module lifts: trivial lift is identical, finite "
        "example has kernel index 1, 50 pairing squares commute exactly, "
        "fluctuation asymmetry witnessed",
        ok,
    )


def test_criterion_11_index_suite():
    t0 = time.time()
    res = check_index_suite(seed=SEED, refine=2)
    heat = check_torus_heat_trace()
    elapsed = time.time() - t0
    ok = (
        res.passed
        and res.details["index_zero_projection"] == 0
        and res.details["index_trivial"] == 0
        and res.details["residual_trivial"] < 1e-4
        and res.details["chern_bott"] in (-1, 1)
        and res.details["chern_residual"] < 1e-6
        and res.details["index_bott"] == 2 * res.details["chern_bott"]
        and res.details["index_bott"] % 2 == 0
        and res.details["residual_bott"] < 1e-4
        and res.details["refinement_trend"]
        and heat.passed
        and heat.details["n_max"] == 32
        and len(heat.details["supertrace_values"]) == 3
        and heat.details["drift"] <= 1e-8
        and heat.details["index"] == 0
        and elapsed < 600.0
    )
    report(
        "criterion-11 index integrals: zero/trivial classes vanish, "
        "reference projection gives an even integer equal to twice its "
        "Chern number (residual < 1e-4, decreasing under refinement), heat "
        "supertrace t-independent to 1e-8 at N=32",
        ok,
        f"{elapsed:.1f}s < 600s, drift {heat.details['drift']:.1e}",
    )


def test_criterion_12_pairing_consistency():
    res = check_pairing_consistency(seed=SEED)
    ok = (
        res.passed
        and res.details["difference"] <= 1e-6
        and res.details["degree_padding_change"] == 0.0
        and res.details["cyclicity_residual"] < 1e-8
    )
    report(
        "criterion-12 assembled cocycle pairing equals the index to 1e-6, "
        "unchanged by degrees above the chart dimension, cyclic to 1e-8",
        ok,
        f"pairing-index diff {res.details['difference']:.2e}",
    )
