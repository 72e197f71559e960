#!/usr/bin/env python3
"""Mutation smoke run: each named source mutant must be killed by its tests.

    python3 scripts/mutants.py                 # every mutant
    python3 scripts/mutants.py no-rebuild ...  # the named ones
    python3 scripts/mutants.py --list

A mutant is a list of exact source replacements.  For each one the script
copies ``src/``, ``tests/``, ``scenarios/`` and ``perfbench/`` into a
temporary directory, applies the replacements there (each must match the
source exactly once) and runs the mutant's tests with pytest.  The mutant is
killed when those tests fail.  The checkout itself is never written.

Exit status: 0 every mutant was killed, 1 a mutant survived, no longer
applies to the source or stopped its tests from running, 2 an unknown
mutant name.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scenarios", "perfbench")

# name -> (what the mutant breaks, [(file, old, new)], tests that must fail)
MUTANTS = {
    "no-final-gcd": (
        "the fused QQi matrix product leaves its entries unreduced",
        [("src/ncgkit/linalg.py", "orow.append(_qqi(re, im, da * db))",
          "orow.append(_qqi_raw(re, im, da * db))"),
         ("src/ncgkit/linalg.py", "QQI_ZERO, QQi, _qqi\n",
          "QQI_ZERO, QQi, _qqi, _qqi_raw\n")],
        ["tests/test_linalg.py"],
    ),
    "eager-numpy": (
        "numpy is imported with ncgkit instead of on first use",
        [("src/ncgkit/_numpy.py", 'np = _lazy("numpy")', "import numpy as np")],
        ["tests/test_cli.py::test_exact_commands_never_load_numpy"],
    ),
    "block-transposed": (
        "the block routine of the one block layout returns block (j, i) "
        "for block (i, j)",
        [("src/ncgkit/linalg.py",
          "return tuple(row[j * n:(j + 1) * n] for row in a[i * n:(i + 1) * n])",
          "return tuple(row[i * n:(i + 1) * n] for row in a[j * n:(j + 1) * n])")],
        ["tests/test_block_layout.py"],
    ),
    "fused-row-update-drops-entry": (
        "the fused elimination step leaves the last nonzero column of the "
        "pivot row out of each row update",
        [("src/ncgkit/linalg.py", "for j, ya, yb, yd in nonzero:",
          "for j, ya, yb, yd in nonzero[:-1]:")],
        ["tests/test_linalg.py::test_fused_echelon_matches_the_textbook_update"],
    ),
    "every-matrix-exact": (
        "the one test of an exact matrix reads every matrix as exact, "
        "numeric transition data and triples included",
        [("src/ncgkit/linalg.py",
          '    """Whether every entry is a ``QQi``: the one test of an exact matrix."""\n',
          '    """Whether every entry is a ``QQi``: the one test of an exact matrix."""\n'
          "    return True\n")],
        ["tests/test_golden_reports.py::test_report_matches_reference"
         "[dd-class --scenario coboundary-s3]",
         "tests/test_cech.py::test_exact_only_operations_reject_numeric_data",
         "tests/test_spectral.py::TestExactness::test_exact_only_operations_reject_numeric_data"],
    ),
    "heat-weights-short-batch": (
        "the kept grading weights of the torus supertrace come from every "
        "block but the last",
        [("src/ncgkit/spectral.py", "vecs = np.linalg.eigh(self.blocks)[1]",
          "vecs = np.linalg.eigh(self.blocks[:-1])[1]")],
        ["tests/test_spectral.py::test_torus_fast_paths_match_the_per_block_loops"],
    ),
    "commutator-norm-no-initial": (
        "the batched commutator norm takes the maximum of an empty set of "
        "block differences when no mode has a neighbour",
        [("src/ncgkit/spectral.py", "np.max(norms, initial=0.0)", "np.max(norms)")],
        ["tests/test_spectral.py::test_torus_commutator_norm_without_neighbours_is_zero"],
    ),
    "lift-grading-unprojected": (
        "the Morita lift checks that p commutes with the grading but returns "
        "the amplified grading uncompressed",
        [("src/ncgkit/spectral.py",
          "        g_e = linalg.mat_mul(g_m, p)\n"
          "        if not linalg.mat_eq(g_e, linalg.mat_mul(p, g_m)):\n",
          "        g_e = g_m\n"
          "        if not linalg.mat_eq(linalg.mat_mul(g_m, p), linalg.mat_mul(p, g_m)):\n")],
        ["tests/test_spectral.py::TestMoritaLift::test_compressed_grading_is_p_g_p"],
    ),
    "values-only-zero-test": (
        "a jet counts as zero when its values vanish, gradients or not",
        [("src/ncgkit/scalars.py",
          "self._zero = not self.values.any() and (\n"
          "                self.grads is None or not self.grads.any())",
          "self._zero = not self.values.any()")],
        ["tests/test_jet_product.py", "tests/test_forms.py"],
    ),
    "zero-sum-keeps-grads": (
        "a jet sum with a zero that has no gradients keeps the other "
        "operand's gradients",
        [("src/ncgkit/scalars.py",
          "        if zero.grads is None and self.grads is not None:\n",
          "        if False:\n")],
        ["tests/test_jet_product.py::test_sum_with_a_zero_matches_the_fold"],
    ),
    "dropped-grads-keep-zero-flag": (
        "a jet copy with its gradients dropped keeps the operand's cached "
        "zero flag, so a flat operand's copy still reads nonzero",
        [("src/ncgkit/scalars.py", "        out._one = self._one\n",
          "        out._one = self._one\n        out._zero = self._zero\n")],
        ["tests/test_jet_product.py::test_dropped_gradients_share_values_and_find_their_zero",
         "tests/test_jet_product.py::test_sum_with_a_zero_matches_the_fold"],
    ),
    "one-ignores-presence": (
        "a jet times a structural one without gradients keeps its gradients",
        [("src/ncgkit/scalars.py",
          "        if one.grads is None and self.grads is not None:\n",
          "        if False:\n")],
        ["tests/test_jet_product.py::test_product_with_a_one_matches_the_fold"],
    ),
    "kron-fill-keeps-grads": (
        "the off-block entries of a (x) Id_k carry gradients when no entry of "
        "a does, so the amplified form has gradients the index loop would not",
        [("src/ncgkit/geom.py",
          "    if isinstance(z, JetScalar) and all(x.grads is None for mat in a.comps.values()\n",
          "    if False and all(x.grads is None for mat in a.comps.values()\n")],
        ["tests/test_block_layout.py::test_kron_identity_right_matches_the_index_loop"],
    ),
    "index-curvature-unnegated": (
        "the relative character traces p4 against +(p dp dp) (x) Id_4, not "
        "against its negation",
        [("src/ncgkit/geom.py", "kron_identity_right(-(p_form * dp * dp), 4)",
          "kron_identity_right(p_form * dp * dp, 4)")],
        ["tests/test_geom.py::test_relative_chern_matches_the_amplified_formula",
         "tests/test_golden_reports.py"],
    ),
    "trace-product-drops-merge-sign": (
        "the diagonal of a jet trace of a product adds the component pairs "
        "of odd merge sign with sign +1",
        [("src/ncgkit/forms.py",
          "(diagonal,),\n                        merge_sign(i_idx, j_idx) < 0)",
          "(diagonal,),\n                        False)")],
        ["tests/test_jet_product.py::test_trace_of_product_matches_the_trace"],
    ),
    "module-level-nerve-cache": (
        "every nerve shares one cache of simplices and presentations",
        [("src/ncgkit/cech.py", "        self._cache: Dict[tuple, object] = {}\n",
          "        self._cache = _SHARED_CACHE\n"),
         ("src/ncgkit/cech.py", "\nclass Nerve:\n",
          "\n_SHARED_CACHE: Dict[tuple, object] = {}\n\n\nclass Nerve:\n")],
        ["tests/test_cech.py"],
    ),
    "no-pop-on-cancel": (
        "a polynomial product keeps a monomial whose sum cancels, as a zero",
        [("src/ncgkit/scalars.py",
          "                        if zeros is None:\n"
          "                            del acc[k]\n",
          "                        if zeros is None:\n"
          "                            pass\n")],
        ["tests/test_poly_kernel.py::test_cancelled_monomial_reenters_at_the_end"],
    ),
    "scalar-id-flag-shared": (
        "the kept answer of the slot test is one class-level value shared by "
        "every form, so the first form tested answers for all",
        [("src/ncgkit/forms.py", '"_comps", "_scalar_id")\n',
          '"_comps")\n    _scalar_id = None\n'),
         ("src/ncgkit/forms.py", "        self._scalar_id = None\n", ""),
         ("src/ncgkit/forms.py", "        f._scalar_id = None\n", ""),
         ("src/ncgkit/forms.py", "            self._scalar_id = self._scalar_id_test()",
          "            MatrixForm._scalar_id = self._scalar_id_test()")],
        ["tests/test_jet_product.py::test_kept_scalar_id_equals_a_fresh_test",
         "tests/test_cyclic.py::test_chern_cyclic_keeps_its_terms"],
    ),
    "form-max-drops-nan": (
        "the largest sample magnitude of a jet form folds with max, which "
        "keeps 0.0 against a NaN, so a NaN form reads as zero",
        [("src/ncgkit/forms.py",
          "nan if any(map(isnan, values)) else max(values, default=0.0)",
          "max([0.0, *values])")],
        ["tests/test_forms.py::test_nan_sample_is_not_zero"],
    ),
    "unused-param-accepted": (
        "the dispatcher runs a request with a parameter that none of its "
        "checks takes",
        [("src/ncgkit/cli.py",
          "        if name not in takes:\n"
          "            raise SchemaViolation(f\"{command} takes no parameter {name}\")\n",
          "")],
        ["tests/test_cli.py::TestRejectsBadInput"],
    ),
    "no-interior-quotient": (
        "interior slots of a cyclic chain are not taken modulo the identity",
        [("src/ncgkit/cyclic.py", "        if pos >= 1:\n", "        if False:\n")],
        ["tests/test_cyclic.py"],
    ),
    "no-rebuild": (
        "a form-product entry drops a monomial whose running sum reaches "
        "zero and is never rebuilt, so a cancelled monomial moves to the end",
        [("src/ncgkit/scalars.py",
          "_products_into(entry, pairs, bias, negate, zeros)",
          "_products_into(entry, pairs, bias, negate)")],
        ["tests/test_form_product_kernel.py::test_cancelled_monomial_comes_back_in_place"],
    ),
    "no-order-fix": (
        "a form-product group where a monomial new to the entry cancels and "
        "comes back is not summed again on its own, so the monomial keeps "
        "its first place",
        [("src/ncgkit/scalars.py", "    if any(k in new for k in zeros):\n",
          "    if False:\n")],
        ["tests/test_form_product_kernel.py::test_new_monomial_cancels_and_comes_back_at_the_end"],
    ),
    "group-sign-dropped": (
        "the second component pair of each component of a form product "
        "adds with sign +1",
        [("src/ncgkit/forms.py", "(merge_sign(i_idx, j_idx) < 0, x, y)",
          "(merge_sign(i_idx, j_idx) < 0 and len(groups[k]) != 1, x, y)")],
        ["tests/test_form_product_kernel.py::test_theta_wedge_theta_with_commuting_entries"],
    ),
    "no-form-content": (
        "a form built from packed numerators keeps their content, so its "
        "denominator is not the lcm of its coefficient denominators",
        [("src/ncgkit/forms.py", "        g = content(d, entries)\n        if g > 1:\n",
          "        g = content(d, entries)\n        if False:\n")],
        ["tests/test_form_linear_kernel.py::test_content_is_divided_out_once_per_form"],
    ),
    "periodic-diff-sign": (
        "the packed derivative along a periodic coordinate multiplies by -i*e",
        [("src/ncgkit/scalars.py", "{k: [-b * e, a * e]", "{k: [b * e, -a * e]")],
        ["tests/test_form_linear_kernel.py::test_diff_matches_the_coefficientwise_derivative"],
    ),
    "keep-cancelled-monomial": (
        "a packed linear combination keeps a monomial whose sum cancels, "
        "as a zero",
        [("src/ncgkit/scalars.py",
          "                else:\n                    del acc[k]\n    return acc\n",
          "                else:\n                    acc[k] = [re, im]\n    return acc\n")],
        ["tests/test_form_linear_kernel.py"],
    ),
    "field-guard-skipped": (
        "a form-product entry is not checked against the packed window, so a "
        "monomial past it wraps into another exponent instead of raising",
        [("src/ncgkit/scalars.py", "    return _in_window(entry, guard)\n",
          "    return entry\n")],
        ["tests/test_form_product_kernel.py::test_form_product_past_the_field_raises"],
    ),
    "slots-reassembled-out-of-order": (
        "the results of the forked slots of a request are put back in the "
        "reverse order of the slots",
        [("src/ncgkit/cli.py", "for w, (res, _) in enumerate(outcomes):",
          "for w, (res, _) in enumerate(outcomes[::-1]):")],
        ["tests/test_cli.py::test_forked_workers_print_the_bytes_of_one_process"],
    ),
    "bott-dphi-n1-sign": (
        "the phi-derivative of the first component of the Bott unit vector "
        "has the wrong sign",
        [("src/ncgkit/geom.py", "dn1 = (ds2 * cos_p, -s2 * sin_p)",
          "dn1 = (ds2 * cos_p, s2 * sin_p)")],
        ["tests/test_golden_reports.py"],
    ),
    "right-matrix-left-product": (
        "the matrix of the right Clifford action of a generator is the "
        "left product e_i v",
        [("src/ncgkit/clifford.py", "return _action_matrix(n, lambda v: v * e)",
          "return _action_matrix(n, lambda v: e * v)")],
        ["tests/test_clifford.py::TestFiberActions::"
         "test_actions_match_the_wedge_contraction_reference",
         "tests/test_spectral.py::TestFourierTorus::test_commutator_is_right_clifford_action"],
    ),
    "odd-gamma-drops-i": (
        "the odd step of the gamma matrices appends the chirality matrix of "
        "the even predecessor without the factor i",
        [("src/ncgkit/clifford.py",
          "prev.matrices + [linalg.mat_scale(QQI_I, prev.chirality_matrix())]",
          "prev.matrices + [prev.chirality_matrix()]")],
        ["tests/test_clifford.py::test_spinor_rep_defining_relations"],
    ),
}


def apply(tree: Path, replacements) -> str:
    """Apply the replacements under ``tree``; an error message or ''."""
    for rel, old, new in replacements:
        path = tree / rel
        text = path.read_text()
        count = text.count(old)
        if count != 1:
            return f"{rel}: the replaced text occurs {count} times, not once"
        path.write_text(text.replace(old, new))
    return ""


def run_mutant(name: str) -> bool:
    what, replacements, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="ncgkit-mutant-") as tmp:
        tree = Path(tmp)
        for part in COPIED:
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        error = apply(tree, replacements)
        if error:
            print(f"{name}: does not apply ({error})")
            return False
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests], cwd=tree, env=env, capture_output=True, text=True)
    summary = (proc.stdout.strip().splitlines() or ["(no output)"])[-1]
    # pytest exits 1 when tests failed; any other failure (collection, usage)
    # means the mutant broke more than it meant to
    verdict = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "BROKEN")
    print(f"{name}: {verdict} -- {what} -- {summary}")
    return proc.returncode == 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", metavar="NAME",
                    help="mutants to run (default: all)")
    ap.add_argument("--list", action="store_true", help="list the mutants")
    args = ap.parse_args()
    unknown = [n for n in args.names if n not in MUTANTS]
    if unknown:
        ap.error(f"unknown mutant {', '.join(unknown)}; "
                 f"known: {', '.join(MUTANTS)}")
    if args.list:
        for name, (what, _, tests) in MUTANTS.items():
            print(f"{name}: {what} [{' '.join(tests)}]")
        return 0
    results = [run_mutant(name) for name in args.names or MUTANTS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
