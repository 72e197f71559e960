"""Seeded verification checks shared by the CLI and the acceptance suite.

Every check is replayable from (check id, seed, params): randomness goes
through ``random.Random(seed)`` only.  Runners return a ``CheckResult``
with a pass flag and a flat details dict of residuals, counts and
snapped integers, which the report layer renders deterministically.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, inf, isfinite
from typing import Callable, Dict, List, NamedTuple, Tuple

from . import cech, linalg
from ._numpy import np
from .algebroid import (
    AlternatingForm,
    Derivation,
    ce_d,
    ce_differential,
    chain_cochain,
    derivation_character,
    leibniz_defect,
)
from .characters import (
    NonTorsionTwist,
    character_totals,
    compare_class_integrals,
    cyclic_defect,
    psi,
    require_torsion_twist,
    rho,
    verify_induction_identity,
)
from .cyclic import (
    Chain,
    Projection,
    chern_cyclic,
    connes_B,
    find_boundary_witness,
    hochschild_b,
    pushforward_chain,
    tensor_is_zero,
    BlockMap,
)
from .forms import (
    Connection,
    ExactForm,
    JetForm,
    MatrixForm,
    exp_beta_intertwiner,
    exterior_d,
    twisted_d,
    dd_representative,
)
from .geom import (
    Geometry,
    bott_projection,
    chern_number,
    constant_projection,
    kron_identity_right,
    local_index,
    pairing_index,
    cocycle_cyclicity_residual,
)
from .randgen import (
    EXACT_PHASES,
    random_algebra_element,
    random_commuting_family,
    random_connection,
    random_exact_projection,
    random_exact_unitary,
    random_matrix_form,
    random_poly,
    random_qqi,
)
from .scalars import Chart, JetScalar, PolyScalar, QQi
from .spectral import (
    FourierTorusTriple,
    SobolevVector,
    SpectralTriple,
    circle_dirac,
    finite_triple_exact,
    inner_fluctuation,
    kernel_index_exact,
    morita_lift,
    pairing_functoriality_check,
    sobolev_chain_slack,
    spectra_equal,
    spectral_dimension_probe,
)


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class CheckSpec:
    check_id: str
    module: str
    description: str
    runner: Callable[..., CheckResult]


# ---------------------------------------------------------------------------
# identity suite


def check_induction_identity(seed: int = 7, trials: int = 100,
                             k_max: int = 5) -> CheckResult:
    """Defect of the inductive derivative identity, exact rationals."""
    rng = random.Random(seed)
    failures = 0
    done = 0
    for trial in range(trials):
        k = trial % k_max + 1
        m = trial % 3 + 1
        dim = trial % 3 + 1
        chart = Chart.affine(dim)
        conn = random_connection(chart, m, rng, poly_deg=1, terms=2)
        als = [random_algebra_element(chart, m, rng, poly_deg=1, terms=2)
               for _ in range(k + 1)]
        ok, _ = verify_induction_identity(conn, als)
        failures += 0 if ok else 1
        done += 1
    # nontrivial high-k coverage needs the chart dimension to reach k
    deep = []
    for k in (4, 5):
        chart = Chart.affine(k)
        conn = random_connection(chart, 2, rng, terms=1)
        als = [random_algebra_element(chart, 2, rng, terms=1)
               for _ in range(k + 1)]
        ok, _ = verify_induction_identity(conn, als)
        deep.append(ok)
        done += 1
    # a control that must read nonzero: psi's nabla(a_1) block doubled
    a0, a1 = _control_elements(conn, 2)
    caught = not verify_induction_identity(_PlantedDefect(conn, a1), [a0, a1])[0]
    details = {
        "trials": done, "failures": failures,
        "deep_k4": deep[0], "deep_k5": deep[1],
    }
    if not caught:
        details["planted_defect_seen"] = False
    return CheckResult("induction-identity", failures == 0 and all(deep) and caught,
                       details)


class _PlantedDefect:
    """A connection whose nabla doubles one element: every block
    nabla(target) of psi is scaled by 2, so an identity built on it has a
    known nonzero defect.  Run through a check's own verifier, it is the
    control that shows the verifier can say "nonzero"."""

    def __init__(self, conn: Connection, target: MatrixForm):
        self.conn = conn
        self.target = target
        self.sigma = conn.sigma
        self.identity = conn.identity

    def nabla(self, a: MatrixForm) -> MatrixForm:
        out = self.conn.nabla(a)
        return out.scale(2) if a is self.target else out


def _control_elements(conn: Connection, count: int) -> List[MatrixForm]:
    """x_0 Id, x_1 Id, ...: nabla(x_j Id) = dx_j Id whatever theta is, so a
    doubled block of these adds a defect that cannot vanish."""
    return [MatrixForm.from_scalar(PolyScalar.coordinate(conn.chart, j), conn.m)
            for j in range(count)]


def _block_compositions(k: int) -> List[Tuple[int, ...]]:
    """Ordered compositions of k into parts 1 and 2 (F(k+1) of them)."""
    if k == 0:
        return [()]
    if k == 1:
        return [(1,)]
    out = [(1,) + c for c in _block_compositions(k - 1)]
    out += [(2,) + c for c in _block_compositions(k - 2)]
    return out


def _psi_by_enumeration(conn: Connection, a_list) -> MatrixForm:
    """Oracle for ``psi``: the partition terms summed one by one.

    Each block nabla(a_i) and a_j sigma a_{j+1} is built once per call;
    every composition then multiplies its blocks left to right, and the sum
    starts from the first term, so only ``*``, ``+``, ``nabla``, ``sigma``
    and ``identity`` of the connection are used.
    """
    k = len(a_list)
    if k == 0:
        return conn.identity()
    nablas = [conn.nabla(a) for a in a_list]
    pairs = [a_list[j] * conn.sigma * a_list[j + 1] for j in range(k - 1)]
    total = None
    for comp in _block_compositions(k):
        term = None
        pos = 0
        for part in comp:
            block = nablas[pos] if part == 1 else pairs[pos]
            term = block if term is None else term * block
            pos += part
        total = term if total is None else total + term
    return total


class _FreeElement:
    """Element of the free noncommutative algebra: word -> integer coefficient.

    A word is a tuple of letters; ``*`` concatenates words and a sum drops
    the words whose coefficients cancel.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[str, ...], int]):
        self.terms = terms

    @staticmethod
    def letter(name: str) -> "_FreeElement":
        return _FreeElement({(name,): 1})

    def __add__(self, other: "_FreeElement") -> "_FreeElement":
        out = dict(self.terms)
        for word, c in other.terms.items():
            c += out.get(word, 0)
            if c:
                out[word] = c
            else:
                del out[word]
        return _FreeElement(out)

    def __sub__(self, other: "_FreeElement") -> "_FreeElement":
        return self + _FreeElement({w: -c for w, c in other.terms.items()})

    def __mul__(self, other: "_FreeElement") -> "_FreeElement":
        out: Dict[Tuple[str, ...], int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
        return _FreeElement({w: c for w, c in out.items() if c})

    def is_zero(self) -> bool:
        return not self.terms


class _FormalConnection:
    """Formal connection on the free algebra: each nabla(a) is one letter.

    ``nabla`` of the letter ``a`` is the letter ``da`` and sigma is the
    letter ``sigma``, so psi_k of k distinct letters is the sum of its
    F(k+1) partition words, each with coefficient 1.
    """

    sigma = _FreeElement.letter("sigma")

    @staticmethod
    def nabla(a: _FreeElement) -> _FreeElement:
        ((name,),) = a.terms
        return _FreeElement.letter("d" + name)

    @staticmethod
    def identity() -> _FreeElement:
        return _FreeElement({(): 1})


def check_partition_counts(seed: int = 7) -> CheckResult:
    """Fibonacci term counts and recursion vs enumeration agreement, for
    k = 0..10.

    Up to k = 5 on a 5-dim chart; above it degree truncation would empty
    both sides, so k >= 6 runs on the free algebra, where psi_k must be
    F(k+1) distinct words with coefficient 1.
    """
    k_top = 10
    expected = [1, 1]
    while len(expected) < k_top + 1:
        expected.append(expected[-1] + expected[-2])
    counts = [len(_block_compositions(k)) for k in range(k_top + 1)]
    rng = random.Random(seed)
    chart = Chart.affine(5)
    conn = random_connection(chart, 2, rng, terms=1)
    agree = True
    for k in range(0, 6):
        als = [random_algebra_element(chart, 2, rng, terms=1) for _ in range(k)]
        agree = agree and (psi(conn, als).total - _psi_by_enumeration(conn, als)).is_zero()
    free = _FormalConnection()
    for k in range(6, k_top + 1):
        als = [_FreeElement.letter(f"a{i}") for i in range(k)]
        total = psi(free, als).total
        agree = (agree and (total - _psi_by_enumeration(free, als)).is_zero()
                 and sorted(total.terms.values()) == [1] * expected[k])
    # a control that must read nonzero: psi with its nabla(a_1) block
    # doubled differs from the enumeration by dx_0 dx_1 Id
    ctrl = _control_elements(conn, 2)
    caught = not (psi(_PlantedDefect(conn, ctrl[0]), ctrl).total
                  - _psi_by_enumeration(conn, ctrl)).is_zero()
    details = {"counts": counts, "expected": expected, "recursion_matches": agree}
    if not caught:
        details["planted_defect_seen"] = False
    return CheckResult("partition-counts", counts == expected and agree and caught,
                       details)


def check_chain_character(seed: int = 7, trials: int = 50) -> CheckResult:
    """rho o b = 0, cyclic defect, closedness and the squared-block collapse
    on random exact projections."""
    rng = random.Random(seed)
    chart = Chart.torus(2)
    rho_b_ok = True
    defect_ok = True
    closed_ok = True
    collapse_ok = True
    for trial in range(trials):
        conn = random_connection(chart, 1, rng)
        p_form = random_exact_projection(chart, 2, rng)
        p = Projection(p_form, blocks=2, base_m=1)
        for m in (0, 1):
            ch = chern_cyclic(p, m)
            r = rho(conn, ch)
            closed_ok = closed_ok and exterior_d(r).is_zero()
        conn_a = conn.amplify(2)
        direct = (p_form * psi(conn_a, [p_form, p_form]).total).trace()
        direct = direct.scale(QQi(-2))
        collapse_ok = collapse_ok and (rho(conn, chern_cyclic(p, 1)) - direct).is_zero()
        k = trial % 3 + 1
        als = [random_algebra_element(chart, 1, rng) for _ in range(k + 2)]
        ch_high = Chain(k + 1, [(QQi(1), tuple(als))])
        rho_b_ok = rho_b_ok and rho(conn, hochschild_b(ch_high)).is_zero()
        defect_ok = defect_ok and cyclic_defect(conn, als[:k + 1]).is_zero()
    passed = rho_b_ok and defect_ok and closed_ok and collapse_ok
    return CheckResult("chain-character", passed, {
        "trials": trials,
        "rho_b_zero": rho_b_ok,
        "cyclic_defect_zero": defect_ok,
        "projection_character_closed": closed_ok,
        "squared_block_collapse": collapse_ok,
    })


def check_complex_operators(seed: int = 7, trials: int = 100) -> CheckResult:
    """b^2 = 0, B^2 = 0 and bB + Bb = 0 on random reduced chains."""
    rng = random.Random(seed)
    ok = True
    for trial in range(trials):
        k = trial % 4 + 1
        m = trial % 3 + 1
        chart = Chart.torus(1)
        terms = [
            (random_qqi(rng),
             tuple(random_algebra_element(chart, m, rng) for _ in range(k + 1)))
            for _ in range(2)
        ]
        ch = Chain(k, terms)
        ok = ok and tensor_is_zero(hochschild_b(hochschild_b(ch)))
        ok = ok and tensor_is_zero(connes_B(connes_B(ch)))
        mixed = hochschild_b(connes_B(ch)) + connes_B(hochschild_b(ch))
        ok = ok and tensor_is_zero(mixed)
        if not ok:
            break
    return CheckResult("complex-operators", ok, {"trials": trials, "all_zero": ok})


def check_bianchi_trace(seed: int = 7, trials: int = 100) -> CheckResult:
    """Flatness of the traceless lift and the trace-derivative exchange."""
    rng = random.Random(seed)
    bianchi_ok = True
    trace_ok = True
    square_ok = True
    for trial in range(trials):
        m = trial % 3 + 1
        dim = trial % 3 + 2
        chart = Chart.affine(dim)
        deg = 2 if dim <= 3 else 1
        conn = random_connection(chart, m, rng, poly_deg=deg)
        bianchi_ok = bianchi_ok and conn.nabla(conn.omega).is_zero()
        bianchi_ok = bianchi_ok and conn.nabla(conn.sigma).is_zero()
        a = random_algebra_element(chart, m, rng, poly_deg=deg)
        trace_ok = trace_ok and _trace_exchange_defect(conn, a).is_zero()
        square_ok = square_ok and (
            conn.nabla(conn.nabla(a)) - (conn.sigma * a - a * conn.sigma)
        ).is_zero()
        if not (bianchi_ok and trace_ok and square_ok):
            break
    # a control that must read nonzero: with nabla(x_0 Id) doubled the
    # trace exchange is off by m dx_0
    (target,) = _control_elements(conn, 1)
    caught = not _trace_exchange_defect(_PlantedDefect(conn, target), target).is_zero()
    details = {
        "trials": trials, "lift_flat": bianchi_ok,
        "trace_exchange": trace_ok, "square_is_lift_action": square_ok,
    }
    if not caught:
        details["planted_defect_seen"] = False
    return CheckResult("bianchi-trace",
                       bianchi_ok and trace_ok and square_ok and caught, details)


def _trace_exchange_defect(conn, a: MatrixForm) -> MatrixForm:
    """tr(nabla a) - d tr(a), zero for a connection."""
    return conn.nabla(a).trace() - exterior_d(a.trace())


def check_twisted_complex(seed: int = 7, trials: int = 100) -> CheckResult:
    """d_c^2 = 0 and the exponential shift intertwiner, exact."""
    rng = random.Random(seed)
    square_ok = True
    shift_ok = True
    for trial in range(trials):
        dim = 3 + trial % 2
        chart = Chart.affine(dim)
        alpha = random_matrix_form(chart, 1, rng, 2, poly_deg=1)
        c = exterior_d(alpha)  # closed 3-form by construction
        w = random_matrix_form(chart, 1, rng, trial % 2, poly_deg=1)
        square_ok = square_ok and twisted_d(c, twisted_d(c, w)).is_zero()
        beta = random_matrix_form(chart, 1, rng, 2, poly_deg=1)
        shift_ok = shift_ok and _shift_defect(c, c - exterior_d(beta), beta, w).is_zero()
        if not (square_ok and shift_ok):
            break
    # a control that must read nonzero: the shift by beta = x_0 dx_1 dx_2
    # of w = 1 with c2 = c instead of c - d beta is off by d beta
    beta = MatrixForm.from_scalar(PolyScalar.coordinate(chart, 0), 1, (1, 2))
    one = ExactForm.identity(chart, 1)
    caught = not _shift_defect(c, c, beta, one).is_zero()
    details = {"trials": trials, "square_zero": square_ok, "intertwiner": shift_ok}
    if not caught:
        details["planted_defect_seen"] = False
    return CheckResult("twisted-complex", square_ok and shift_ok and caught, details)


def _shift_defect(c: MatrixForm, c2: MatrixForm, beta: MatrixForm,
                  w: MatrixForm) -> MatrixForm:
    """d_c2(w exp beta) - (d_c w) exp beta, zero when c = c2 + d beta."""
    return (twisted_d(c2, exp_beta_intertwiner(beta, w))
            - exp_beta_intertwiner(beta, twisted_d(c, w)))


def check_lift_representative(seed: int = 7, trials: int = 25) -> CheckResult:
    """Single-chart obstruction form vanishes; declared discrepancies
    reproduce their differentials; the output is closed."""
    rng = random.Random(seed)
    ok = True
    for trial in range(trials):
        chart = Chart.affine(3)
        conn = random_connection(chart, 2, rng)
        single = dd_representative(conn)
        ok = ok and single.is_zero()
        beta = random_matrix_form(chart, 1, rng, 2, poly_deg=1)
        rep = dd_representative(conn, beta)
        ok = ok and (rep - exterior_d(beta)).is_zero()
        ok = ok and exterior_d(rep).is_zero()
        if not ok:
            break
    return CheckResult("lift-representative", ok, {"trials": trials})


# ---------------------------------------------------------------------------
# transition-cocycle suite


def _coboundary_type_data(rng: random.Random, nerve: cech.Nerve) -> cech.TransitionData:
    hs = {v: random_exact_unitary(2, rng) for v in nerve.vertices}
    edges = {}
    for (i, j) in nerve.k_simplices(1):
        lam = rng.choice(EXACT_PHASES)
        mat = linalg.mat_scale(
            lam, linalg.mat_mul(hs[i], linalg.mat_conj_transpose(hs[j]))
        )
        edges[(i, j)] = mat
    return cech.TransitionData(nerve, 2, edges)


def check_cech_suite(seed: int = 7, rephasings: int = 50) -> CheckResult:
    rng = random.Random(seed)
    details: Dict[str, object] = {}
    # reference triangle with the standard spin lifts
    data = cech.pauli_triangle()
    pc = cech.phase_cocycle(data)
    details["pauli_mu"] = str(pc.mu[(0, 1, 2)])
    mu_ok = pc.mu[(0, 1, 2)] == QQi(0, 1)
    normalized = cech.normalize_determinant(data)
    pc_n = cech.phase_cocycle(normalized)
    det_ok = normalized.exact and pc_n.mu[(0, 1, 2)] ** 2 == QQi(1)
    two_nu = 2 * pc_n.nu[(0, 1, 2)]
    det_ok = det_ok and abs(two_nu - round(two_nu)) < 1e-9
    details["determinant_normalized_exact"] = normalized.exact
    # sphere nerve: delta integer, closed, class machinery, torsion witness
    nerve = cech.boundary_of_4_simplex()
    data_s = _coboundary_type_data(rng, nerve)
    pc_s = cech.phase_cocycle(data_s)
    details["delta_residual"] = pc_s.residual
    cls = cech.h3_class(pc_s.delta_vector(), nerve)
    details["class_invariants"] = cls.invariants
    details["class_coordinates"] = cls.coordinates
    witness_ok = cech.is_torsion_witness(pc_s, cech.torsion_witness(pc_s, 2), 2)
    details["torsion_witness"] = witness_ok
    # invariance of the class under unit rephasings of the lifts
    invariant = True
    for _ in range(rephasings):
        phases = {e: rng.choice(EXACT_PHASES) for e in data_s.edges}
        pc_r = cech.phase_cocycle(data_s.rephased(phases))
        invariant = invariant and cech.h3_class(pc_r.delta_vector(), nerve) == cls
    details["rephasing_invariant"] = invariant
    # H^3 of the sphere nerve is Z, generated by a single-face indicator
    n3 = nerve.k_simplices(3)
    gen = cech.h3_class([1 if s == n3[0] else 0 for s in n3], nerve)
    h3_ok = gen.invariants == [0] and gen.coordinates in ([1], [-1])
    details["h3_free_rank_one"] = h3_ok
    passed = mu_ok and det_ok and witness_ok and invariant and h3_ok
    return CheckResult("cech-suite", passed, details)


# The expected answers of the built-in dd-class scenarios; the verdict of
# a built-in run is that every listed fact has its expected value.
DD_BUILTIN_EXPECTED = {
    # the spin lifts: mu(0,1,2) = i, and the unit-determinant lift is
    # exact with mu_n^2 = 1
    "pauli-triangle": {"mu_first": QQi(0, 1), "normalized_exact": True,
                       "normalized_mu_squared": QQi(1)},
    # lifts h_i h_j^* times unit phases: the class is zero for every seed,
    # and a witness w with d w = rank * delta exists
    "coboundary-s3": {"class_zero": True, "torsion_witness": True},
}


def check_dd_class_builtin(scenario: str, seed: int = 7) -> CheckResult:
    """Named transition data with its full cocycle and class output."""
    details: Dict[str, object] = {"scenario": scenario}
    if scenario == "pauli-triangle":
        data = cech.pauli_triangle()
    else:
        data = _coboundary_type_data(random.Random(seed), cech.boundary_of_4_simplex())
    pc = cech.phase_cocycle(data)
    first = data.nerve.k_simplices(2)[0]
    for tri in data.nerve.k_simplices(2)[:4]:
        details[f"mu[{','.join(map(str, tri))}]"] = pc.mu[tri]
    details["delta"] = pc.delta_vector()
    details["delta_residual"] = pc.residual
    facts: Dict[str, object] = {"mu_first": pc.mu[first]}
    if data.nerve.k_simplices(3):
        cls = cech.h3_class(pc.delta_vector(), data.nerve)
        details["class_invariants"] = cls.invariants
        details["class_coordinates"] = cls.coordinates
        witness = cech.torsion_witness(pc, data.rank)
        details["torsion_witness_found"] = witness is not None
        facts["class_zero"] = cls.is_zero
        facts["torsion_witness"] = cech.is_torsion_witness(pc, witness, data.rank)
    normalized = cech.normalize_determinant(data)
    pc_n = cech.phase_cocycle(normalized)
    details["determinant_normalized_exact"] = normalized.exact
    details["mu_normalized_first"] = pc_n.mu[first]
    facts["normalized_exact"] = normalized.exact
    facts["normalized_mu_squared"] = pc_n.mu[first] ** 2
    passed = all(facts.get(k) == v for k, v in DD_BUILTIN_EXPECTED[scenario].items())
    return CheckResult(f"dd-class:{scenario}", passed, details)


# ---------------------------------------------------------------------------
# derivation cochain suite


def check_derivation_suite(seed: int = 7, trials: int = 100) -> CheckResult:
    rng = random.Random(seed)
    chart = Chart.affine(2)
    conn = random_connection(chart, 2, rng)

    def rand_deriv(c=conn):
        return Derivation(
            c, [random_qqi(rng) for _ in range(c.chart.dim)],
            random_algebra_element(c.chart, c.m, rng),
        )

    leibniz_ok = True
    dd_ok = True
    chain_map_ok = True
    b_ok = True
    for _ in range(12):
        x = rand_deriv()
        a = random_algebra_element(chart, 2, rng)
        b2 = random_algebra_element(chart, 2, rng)
        leibniz_ok = leibniz_ok and leibniz_defect(x, a, b2).is_zero()
        om = AlternatingForm.alternating_from_seeds([(a, b2)])
        dd_ok = dd_ok and ce_differential(
            ce_d(om), rand_deriv(), rand_deriv(), rand_deriv()
        ).is_zero()
    for trial in range(16):
        k = trial % 2 + 1
        chn = Chain(k, [(QQi(1), tuple(
            random_algebra_element(chart, 2, rng) for _ in range(k + 1)
        ))])
        args = tuple(rand_deriv() for _ in range(k + 1))
        lhs = derivation_character(connes_B(chn), args)
        rhs = ce_differential(chain_cochain(chn), *args)
        chain_map_ok = chain_map_ok and (lhs - rhs).is_zero()
        chn_up = Chain(k + 1, [(QQi(1), tuple(
            random_algebra_element(chart, 2, rng) for _ in range(k + 2)
        ))])
        args_b = tuple(rand_deriv() for _ in range(k))
        b_ok = b_ok and derivation_character(
            hochschild_b(chn_up), args_b
        ).is_zero()
    # vanishing on commuting inner derivations, simultaneously
    # diagonalizable, over a noncommutative base so the action is faithful
    vanish_ok = True
    chartT = Chart.torus(2)
    for trial in range(trials):
        connT = random_connection(chartT, 2, rng, terms=1)
        k = trial % 2 + 1
        if k == 2:
            p = Projection(random_exact_projection(chartT, 4, rng, factors=1), 2, 2)
            cycle = chern_cyclic(p, 1)
        else:
            cycle = hochschild_b(
                Chain(2, [(QQi(1), tuple(
                    random_algebra_element(chartT, 2, rng) for _ in range(3)
                ))])
            )
        fam = random_commuting_family(2, k, rng)
        xs = tuple(
            Derivation.inner(connT, ExactForm.const_matrix(chartT, f))
            for f in fam
        )
        vanish_ok = vanish_ok and derivation_character(cycle, xs).is_zero()
        if not vanish_ok:
            break
    passed = leibniz_ok and dd_ok and chain_map_ok and b_ok and vanish_ok
    return CheckResult("derivation-suite", passed, {
        "trials": trials, "leibniz": leibniz_ok, "dd_zero": dd_ok,
        "kills_boundaries": b_ok,
        "suspension_chain_map": chain_map_ok,
        "vanish_on_commuting_inner": vanish_ok,
    })


# ---------------------------------------------------------------------------
# spectral suite


# the truncation of the circle triple of sobolev-suite: modes -200..200
SOBOLEV_CIRCLE_N = 200


def check_sobolev_suite(seed: int = 7) -> CheckResult:
    rng = np.random.default_rng(seed)
    triple = circle_dirac(SOBOLEV_CIRCLE_N)
    mu, counts = triple.resolvent_weights()
    worst = 0.0
    vectors = 1000
    for _ in range(vectors):
        raw = rng.standard_normal(len(mu)) ** 2
        decay = mu ** rng.uniform(0.5, 2.0)
        v = SobolevVector(raw * decay)
        s = rng.uniform(0, 2.5)
        p = float(rng.choice([1.0, 2.0, 4.0]))
        slack1, slack2 = sobolev_chain_slack(mu, v, s, p, 1.0)
        worst = min(worst, slack1, slack2)
    verdict1 = spectral_dimension_probe(triple, 1.0)["verdict"]
    verdict04 = spectral_dimension_probe(triple, 0.4)["verdict"]
    fin = finite_triple_exact([[0, 1], [1, 0]])
    verdict_fin = spectral_dimension_probe(fin, 0.1)["verdict"]
    passed = (
        worst >= -1e-12
        and verdict1 == "summable"
        and verdict04 == "divergent-trend"
        and verdict_fin == "summable"
    )
    return CheckResult("sobolev-suite", passed, {
        "vectors": vectors, "worst_slack": worst,
        "verdict_d1": verdict1, "verdict_d04": verdict04,
        "verdict_finite": verdict_fin,
    })


def _random_exact_projection_matrix(rng: random.Random, n: int):
    u = random_exact_unitary(n, rng)
    rank = rng.randint(1, n - 1) if n > 1 else 1
    diag = linalg.mat_from_rows([
        [QQi(1) if (i == j and i < rank) else QQi(0) for j in range(n)]
        for i in range(n)
    ])
    return linalg.mat_mul(u, linalg.mat_mul(diag, linalg.mat_conj_transpose(u)))


def _graded_projection_exact(rng: random.Random, m: int, n: int):
    """Projection on C^(m*n) commuting with Id_m (x) diag(1,-1,...): a
    random projection on the m*k coordinates of each sign, k of them in
    each of the m blocks."""
    parts = [(k, _random_exact_projection_matrix(rng, m * k))
             for k in (len(range(0, n, 2)), len(range(1, n, 2)))]
    zero = QQi(0)

    def block(b, c):
        subs = [linalg.mat_block(part, b, c, k) for k, part in parts]
        return tuple(tuple(subs[i % 2][i // 2][j // 2] if i % 2 == j % 2 else zero
                           for j in range(n)) for i in range(n))

    return linalg.mat_from_blocks([[block(b, c) for c in range(m)] for b in range(m)])


def check_morita_suite(seed: int = 7, trials: int = 50) -> CheckResult:
    rng = random.Random(seed)
    base = finite_triple_exact(
        [[0, 1], [1, 0]],
        algebra={"e1": [[1, 0], [0, 0]], "e2": [[0, 0], [0, 1]]},
        grading_diag=[1, -1],
    )
    eye = linalg.mat_eye(2, QQi(0), QQi(1))
    identity_ok = morita_lift(base, eye, 1) is base
    corner = linalg.mat_from_rows([[QQi(1), QQi(0)], [QQi(0), QQi(0)]])
    finite_ok = kernel_index_exact(morita_lift(base, corner, 1)) == 1
    # unitary change of the module presentation: transported lift has the
    # same spectrum and the same index
    spectrum_ok = True
    for _ in range(8):
        p = _graded_projection_exact(rng, 2, 2)
        lift1 = morita_lift(base, p, 2)
        u = random_exact_unitary(4, rng)
        u_ct = linalg.mat_conj_transpose(u)
        p2 = linalg.mat_mul(u, linalg.mat_mul(p, u_ct))
        d2 = linalg.mat_mul(u, linalg.mat_mul(lift1.d, u_ct))
        g2 = linalg.mat_mul(u, linalg.mat_mul(lift1.grading, u_ct))
        lift2 = SpectralTriple(d2, {}, g2, subspace=p2, check=False)
        spectrum_ok = spectrum_ok and spectra_equal(lift1, lift2)
        spectrum_ok = spectrum_ok and (
            kernel_index_exact(lift1) == kernel_index_exact(lift2)
        )
    # pairing functoriality: <alpha(q), sigma> = <q, sigma^E> exactly
    square_ok = True
    for _ in range(trials):
        n = 2
        coupling = rng.randint(1, 3)
        d_rows = [[QQi(0), QQi(coupling)], [QQi(coupling), QQi(0)]]
        sigma = finite_triple_exact(d_rows, grading_diag=[1, -1])
        m = 2
        p = _graded_projection_exact(rng, m, n)
        r = 2
        q_small = _random_exact_projection_matrix(rng, r)
        square = pairing_functoriality_check(sigma, p, m, q_small, r)
        square_ok = square_ok and square["commutes"]
    # inner fluctuation asymmetry: D != 0 fluctuates to zero, not back
    d_mat = finite_triple_exact(
        [[1, 0], [0, -1]],
        algebra={"e12": [[0, 1], [0, 0]], "e21": [[0, 0], [1, 0]]},
    )
    e12 = d_mat.algebra["e12"]
    e21 = d_mat.algebra["e21"]
    half = QQi(Fraction(1, 2))
    pairs = [
        (linalg.mat_scale(half, e12), e21),
        (linalg.mat_scale(half, e21), e12),
    ]
    fluct = inner_fluctuation(d_mat, pairs)
    to_zero = linalg.mat_is_zero(fluct.d)
    zero_triple = finite_triple_exact([[0, 0], [0, 0]])
    back = inner_fluctuation(zero_triple, pairs)
    asym_ok = to_zero and linalg.mat_is_zero(back.d) and not spectra_equal(
        d_mat, zero_triple
    )
    passed = identity_ok and finite_ok and spectrum_ok and square_ok and asym_ok
    return CheckResult("morita-suite", passed, {
        "identity_lift": identity_ok, "finite_index_one": finite_ok,
        "spectrum_stable": spectrum_ok, "pairing_square": square_ok,
        "fluctuation_asymmetry": asym_ok, "trials": trials,
    })


def check_torus_heat_trace() -> CheckResult:
    n_max = 32
    triple = FourierTorusTriple(n_max)
    grading = triple.grading_report()
    values = [triple.mckean_singer(t) for t in (0.5, 1.0, 2.0)]
    drift = max(abs(v - values[0]) for v in values)
    snapped = round(values[0])
    passed = grading["ok"] and drift <= 1e-8 and snapped == 0
    return CheckResult("torus-heat-trace", passed, {
        "n_max": n_max,
        "grading_ok": grading["ok"],
        "supertrace_values": [float(v) for v in values],
        "drift": float(drift),
        "index": int(snapped),
        "commutator_norm_z1": triple.commutator_norm_shift(0),
    })


# ---------------------------------------------------------------------------
# geometry / index suite


def check_index_suite(seed: int = 7, refine: int = 2) -> CheckResult:
    details: Dict[str, object] = {}
    geom = Geometry.sphere2(24, 48)
    zero_p = JetForm.zero(geom.chart, 2, geom.n_nodes)
    details["index_zero_projection"] = local_index(geom, zero_p)["integer"]
    one = constant_projection(geom, 1, 1)
    res_one = local_index(geom, one)
    details["index_trivial"] = res_one["integer"]
    details["residual_trivial"] = res_one["residual"]
    bott = bott_projection(geom)
    cn = chern_number(geom, bott)
    details["chern_bott"] = cn["integer"]
    details["chern_residual"] = cn["residual"]
    li = local_index(geom, bott)
    details["index_bott"] = li["integer"]
    details["residual_bott"] = li["residual"]
    # refinement ladder on the standard projection (saturates at the
    # quadrature exactness floor) and on the dilated one (genuine decrease)
    ladders = {"standard": 0.0, "dilated": 0.5}
    floor = 1e-10
    trend_ok = True
    for name, dil in ladders.items():
        residuals = []
        for res in _ladder((4, 8), refine):
            g = Geometry.sphere2(*res)
            out = local_index(g, bott_projection(g, dil), residual_tol=1.0)
            residuals.append(out["residual"])
        details[f"residuals_{name}"] = residuals
        for a, b in zip(residuals, residuals[1:]):
            if name == "dilated":
                trend_ok = trend_ok and (b < a or (a <= floor and b <= floor))
            else:
                trend_ok = trend_ok and b <= max(a, floor)
    details["refinement_trend"] = trend_ok
    passed = (
        details["index_zero_projection"] == 0
        and details["index_trivial"] == 0
        and res_one["residual"] < 1e-4
        and cn["integer"] in (-1, 1)
        and cn["residual"] < 1e-6
        and li["integer"] == 2 * cn["integer"]
        and li["integer"] % 2 == 0
        and li["residual"] < 1e-4
        and trend_ok
    )
    return CheckResult("index-suite", passed, details)


def _ladder(start: Tuple[int, int], refine: int) -> List[Tuple[int, int]]:
    """The grid sides of a refinement ladder: each level multiplies both by 1.5."""
    resolutions = [start]
    for _ in range(refine):
        a, b = resolutions[-1]
        resolutions.append((a + a // 2, b + b // 2))
    return resolutions


# The projections of the focus run built by the conformal flow: they take
# a dilation and live on the sphere.
BOTT_PROJECTIONS = ("bott", "bott-dilated")


def check_index_focus(geometry: str = "sphere2", projection: str = "bott",
                      refine: int = 0, dilation: float = 0.0) -> CheckResult:
    """One geometry and projection: raw value, snapped integer and residual
    on every grid of the refinement ladder, and the residual trend."""
    if geometry == "torus2" and projection in BOTT_PROJECTIONS:
        raise SchemaViolation("the reference projection lives on the sphere")

    def build(geom):
        if projection == "bott":
            return bott_projection(geom, dilation)
        if projection == "bott-dilated":
            return bott_projection(geom, dilation or 0.5)
        if projection == "constant":
            return constant_projection(geom, 1, 2)
        return JetForm.zero(geom.chart, 2, geom.n_nodes)

    details: Dict[str, object] = {"geometry": geometry, "projection": projection}
    passed = True
    residuals = []
    base = None  # the geometry and projection of the first resolution
    for res in _ladder((24, 48) if geometry == "sphere2" else (32, 32), refine):
        geom = (Geometry.sphere2(*res) if geometry == "sphere2"
                else Geometry.torus2(res[0]))
        p_form = build(geom)
        base = base or (geom, p_form)
        # no tolerance here: a residual the grid cannot resolve fails the
        # check below and is reported
        out = local_index(geom, p_form, residual_tol=inf)
        residuals.append(out["residual"])
        tag = f"{res[0]}x{res[1]}"
        details[f"raw_{tag}"] = out["raw"]
        details[f"integer_{tag}"] = out["integer"]
        details[f"residual_{tag}"] = out["residual"]
        passed = passed and out["residual"] < 1e-4
    trend = all(b <= max(a, 1e-10) for a, b in zip(residuals, residuals[1:]))
    details["residual_trend_nonincreasing"] = trend
    passed = passed and trend
    if projection in BOTT_PROJECTIONS:
        cn = chern_number(*base, residual_tol=inf)
        details["chern_integer"] = cn["integer"]
        details["chern_residual"] = cn["residual"]
        passed = passed and cn["residual"] < 1e-6
    return CheckResult("index-focus", passed, details)


def check_pairing_consistency(seed: int = 7) -> CheckResult:
    geom = Geometry.sphere2(24, 48)
    bott = bott_projection(geom)
    li = local_index(geom, bott)["raw"]
    paired = pairing_index(geom, bott)
    padded = pairing_index(geom, bott, max_degree=8)
    agree = abs(paired - li) <= 1e-6
    stable = abs(paired - padded) == 0.0
    # cocycle evaluation is cyclic to quadrature tolerance
    rng = random.Random(seed)
    torus = Geometry.torus2(24)
    conn = torus.clifford_connection()
    worst = 0.0
    for _ in range(20):
        entries = []
        for _ in range(3):
            f = random_poly(Chart.torus(2), rng, deg=1, terms=2)
            vals = _eval_poly_on_grid(f, torus)
            grads = np.stack([
                _eval_poly_on_grid(f.diff(0), torus),
                _eval_poly_on_grid(f.diff(1), torus),
            ])
            jet = JetScalar(torus.chart, vals, grads)
            entries.append(kron_identity_right(
                JetForm(torus.chart, 1, {(): ((jet,),)}, torus.n_nodes), 4
            ))
        chain = Chain(2, [(QQi(1), tuple(entries))])
        worst = max(worst, cocycle_cyclicity_residual(torus, chain, conn))
    passed = agree and stable and worst < 1e-8
    return CheckResult("pairing-consistency", passed, {
        "local_index": complex(li).real,
        "pairing": complex(paired).real,
        "difference": abs(paired - li),
        "degree_padding_change": abs(paired - padded),
        "cyclicity_residual": worst,
    })


def _eval_poly_on_grid(f: PolyScalar, geom: Geometry) -> np.ndarray:
    out = np.zeros(geom.n_nodes, dtype=complex)
    for mono, c in f.coeffs.items():
        term = complex(c) * np.exp(1j * (mono[0] * geom.theta + mono[1] * geom.phi))
        out = out + term
    return out


def check_character_comparison(seed: int = 7) -> CheckResult:
    """Class-level agreement of the two character maps on the flat torus.

    Flat lift (sigma = 0): forms agree exactly after the factorial
    renormalization.  Non-flat trig lift: matching-degree integrals on a
    64 x 64 quadrature grid agree to 1e-8.
    """
    rng = random.Random(seed)
    chart = Chart.torus(2)

    # torsion gate refuses an undeclared twist; any other error is a fault
    gate_ok = True
    try:
        require_torsion_twist("non-torsion")
        gate_ok = False
    except NonTorsionTwist:
        pass

    # sigma = 0: scalar-multiple gauge form, exact pointwise agreement
    theta = MatrixForm.from_scalar(random_poly(chart, rng), 1, (0,))
    conn_flat = Connection(theta)
    flat_sigma_zero = conn_flat.sigma.is_zero()
    p_flat = Projection(random_exact_projection(chart, 2, rng), blocks=2, base_m=1)
    exact_ok = True
    jlo_total, rho_total = character_totals(conn_flat, p_flat, 1)
    for k in (0, 2):
        lhs = jlo_total.degree_part(k).scale(QQi(factorial(k)))
        exact_ok = exact_ok and (lhs - rho_total.degree_part(k)).is_zero()

    # non-flat connection over a rank-2 base (rank-1 lifts are always
    # traceless-flat); numeric integrals on the 64 x 64 grid
    resolution = 64
    geom = Geometry.torus2(resolution)

    def integrate(form: MatrixForm, k: int) -> complex:
        part = form.degree_part(k)
        if part.is_zero():
            return 0.0
        mat = part.comps.get((0, 1) if k == 2 else ())
        if mat is None:
            return 0.0
        vals = _eval_poly_on_grid(mat[0][0], geom)
        return complex(np.sum(geom.weights * vals))

    conn = random_connection(chart, 2, rng)
    p = Projection(random_exact_projection(chart, 4, rng, factors=1),
                   blocks=2, base_m=2)
    report = compare_class_integrals(conn, p, integrate, twist="torsion")

    # sphere branch: nonzero degree-2 integrals (reference projection has
    # a nontrivial class), sampled jets, curvature lift -c_left(R)
    sphere = Geometry.sphere2(16, 32)
    conn_s = sphere.clifford_connection()
    p4 = kron_identity_right(bott_projection(sphere), 4)
    proj_s = Projection(p4, blocks=2, base_m=4, check=False)
    jlo_s, rho_s = character_totals(conn_s, proj_s, 1)
    lhs_s = sphere.integrate_form(jlo_s, 2)
    rhs_s = sphere.integrate_form(rho_s, 2) / 2.0
    sphere_value = abs(lhs_s)
    sphere_diff = abs(lhs_s - rhs_s)
    sphere_ok = sphere_value > 1.0 and sphere_diff <= 1e-8 * sphere_value

    passed = (gate_ok and flat_sigma_zero and exact_ok
              and not conn.sigma.is_zero() and report["agree"] and sphere_ok)
    diffs = {f"deg{k}_diff": v["difference"]
             for k, v in report["degrees"].items()}
    values = {f"deg{k}_value": abs(v["simplex"])
              for k, v in report["degrees"].items()}
    return CheckResult("character-comparison", passed, {
        "resolution": resolution,
        "flat_exact_agreement": exact_ok,
        "torsion_gate": gate_ok,
        "nonflat_lift_nonzero": not conn.sigma.is_zero(),
        **values,
        **diffs,
        "nonflat_agree": report["agree"],
        "sphere_deg2_value": sphere_value,
        "sphere_deg2_diff": sphere_diff,
    })


def check_pushforward(seed: int = 7, trials: int = 50) -> CheckResult:
    rng = random.Random(seed)
    chart = Chart.torus(1)
    unit = ExactForm.identity(chart, 1)
    commute_ok = True
    chern_ok = True
    witness_ok = True
    for trial in range(trials):
        s = 2
        alpha = BlockMap.corner_embedding(s, trial % s, unit)
        u = random_exact_unitary(s, rng)
        alpha = alpha.conjugate(u)
        k = trial % 2 + 1
        ch = Chain(k, [(QQi(1), tuple(
            random_algebra_element(chart, 1, rng) for _ in range(k + 1)
        ))])
        lhs = hochschild_b(pushforward_chain(alpha, ch))
        rhs = pushforward_chain(alpha, hochschild_b(ch))
        commute_ok = commute_ok and tensor_is_zero(lhs - rhs)
    # image of a projection character is the character of the image
    for _ in range(6):
        alpha = BlockMap.corner_embedding(2, 0, unit).conjugate(
            random_exact_unitary(2, rng)
        )
        q_form = random_exact_projection(chart, 2, rng)
        q = Projection(q_form, 2, 1)
        pushed = pushforward_chain(alpha, chern_cyclic(q, 1))
        aq = MatrixForm.from_blocks([[alpha.apply(q.block(i, j)) for j in range(q.blocks)]
                                     for i in range(q.blocks)])
        direct = chern_cyclic(Projection(aq, 4, 1, check=False), 1)
        chern_ok = chern_ok and tensor_is_zero(pushed - direct)
    # boundary-witness oracle finds a witness for a known boundary
    c3 = Chain(3, [(QQi(1), tuple(
        random_algebra_element(chart, 1, rng) for _ in range(4)
    ))])
    target = hochschild_b(c3)
    w = find_boundary_witness(target, [t for _, t in c3.terms])
    witness_ok = w is not None and (hochschild_b(w) - target).is_zero()
    passed = commute_ok and chern_ok and witness_ok
    return CheckResult("pushforward", passed, {
        "trials": trials, "commutes_with_b": commute_ok,
        "character_image": chern_ok, "witness_found": witness_ok,
    })


# ---------------------------------------------------------------------------
# registry


CHECKS: List[CheckSpec] = [
    CheckSpec("induction-identity", "characters",
              "inductive identity for the partition forms has exact zero defect",
              check_induction_identity),
    CheckSpec("partition-counts", "characters",
              "partition term counts are Fibonacci; recursion matches enumeration",
              check_partition_counts),
    CheckSpec("chain-character", "characters",
              "chain character kills boundaries; projection characters are closed "
              "and collapse to powers of the two-block form",
              check_chain_character),
    CheckSpec("complex-operators", "cyclic",
              "boundary and suspension operators square to zero and anticommute",
              check_complex_operators),
    CheckSpec("bianchi-trace", "forms",
              "curvature lift is flat; trace exchanges with the covariant derivative",
              check_bianchi_trace),
    CheckSpec("twisted-complex", "forms",
              "twisted differential squares to zero; exponential shift intertwines",
              check_twisted_complex),
    CheckSpec("lift-representative", "forms",
              "obstruction 3-form of a lift vanishes on one chart and is closed",
              check_lift_representative),
    CheckSpec("cech-suite", "cech",
              "phase cocycle, integer class, torsion witness, rephasing invariance",
              check_cech_suite),
    CheckSpec("dd-class-builtin", "cech",
              "named transition data (pauli-triangle, coboundary-s3): cocycle, "
              "class and determinant lift against their expected answers",
              check_dd_class_builtin),
    CheckSpec("derivation-suite", "algebroid",
              "cochain differential squares to zero; chain character intertwines "
              "the suspension and vanishes on commuting inner derivations",
              check_derivation_suite),
    CheckSpec("sobolev-suite", "spectral",
              "embedding chain inequality and summability verdicts",
              check_sobolev_suite),
    CheckSpec("morita-suite", "spectral",
              "module lifts: identity, kernel index, pairing square, fluctuation asymmetry",
              check_morita_suite),
    CheckSpec("torus-heat-trace", "spectral",
              "flat-torus truncation: grading contract and heat supertrace stability",
              check_torus_heat_trace),
    CheckSpec("index-suite", "geom",
              "curvature-integral index: trivial classes, reference projection, refinement",
              check_index_suite),
    CheckSpec("pairing-consistency", "geom",
              "assembled cocycle pairing equals the index and is degree-stable",
              check_pairing_consistency),
    CheckSpec("index-focus", "geom",
              "one geometry and projection: index, residual and its trend under "
              "refinement, Chern number of the reference projection",
              check_index_focus),
    CheckSpec("character-comparison", "characters",
              "the two character maps agree at class level on the flat torus",
              check_character_comparison),
    CheckSpec("pushforward", "cyclic",
              "module pushforward of chains: boundary compatibility and witnesses",
              check_pushforward),
]


CHECKS_BY_ID = {c.check_id: c for c in CHECKS}


class SchemaViolation(ValueError):
    pass


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class Rule(NamedTuple):
    """What a parameter must be, in words and as a test; a parameter with a
    fixed set of values lists them, and the command line offers those."""
    what: str
    ok: Callable[[object], bool]
    choices: Tuple[str, ...] = ()


def _between(low: int, high: int) -> Rule:
    return Rule(f"an integer from {low} to {high}",
                lambda v: _is_int(v) and low <= v <= high)


def _one_of(*values: str) -> Rule:
    return Rule(f"one of {', '.join(values)}", lambda v: v in values, values)


# What each parameter of a check must be, by name, whether it comes from a
# scenario or from the command line.  A count below its lower bound would
# run no trials and report a vacuous pass, or fail inside a check as an
# internal error; the upper bounds keep a run within about a minute on a
# 2-vCPU x86-64 host.
PARAM_RULES = {
    # a trial of verify-identities costs about 42 ms over its checks at
    # k_max 5, linear in trials (2 ms for algebroid, 3 ms for spectral), so
    # about 42 s at 1000
    "trials": _between(1, 1000),
    # a 3-dim induction-identity trial costs about 59 ms at k = 4 and 112 ms
    # at 16, growing like k^2; 100 trials take about 1.9 s at k_max 5 and
    # 3.1 s at 20, so about 31 s at 1000 trials
    "k_max": _between(1, 20),
    # each level multiplies the grid side by 1.5 and the peak memory by
    # about 2: an index run peaks at about 265 MiB at refine 7
    "refine": _between(0, 7),
    # one rephasing costs about 0.5 ms, so about 5 s at 10000
    "rephasings": _between(1, 10000),
    "geometry": _one_of("sphere2", "torus2"),
    "projection": _one_of("bott", "constant", "zero", "bott-dilated"),
    # |dilation| >= 1 degenerates the conformal flow: p is no projection
    "dilation": Rule("a finite number with |dilation| < 1",
                     lambda v: _is_real(v) and isfinite(v) and abs(v) < 1),
    "scenario": _one_of(*DD_BUILTIN_EXPECTED),
}


def validate_param(name: str, value) -> None:
    if not PARAM_RULES[name].ok(value):
        raise SchemaViolation(
            f"parameter {name} must be {PARAM_RULES[name].what}, got {value!r}")


def check_params(check_id: str) -> Dict[str, object]:
    """The parameters a check takes, each with its default."""
    return {name: p.default for name, p in
            inspect.signature(CHECKS_BY_ID[check_id].runner).parameters.items()}


def run_check(check_id: str, **params) -> CheckResult:
    """Run one check with the given parameters that it takes."""
    accepted = check_params(check_id)
    return CHECKS_BY_ID[check_id].runner(
        **{k: v for k, v in params.items() if k in accepted})
