"""The two twisted character chain maps and their machine checks.

``psi`` sums the partition forms: all decompositions of an ordered
tuple (a_1, ..., a_k) into singleton blocks nabla(a_i) and adjacent-pair
blocks a_j sigma a_{j+1}; the number of summands is the Fibonacci number
F(k+1).  It is computed by the suffix recursion over those
decompositions, so each block is built once and about 2k products replace
the F(k+1) term products.  ``rho`` pairs a chain with these forms, giving
a homogeneous degree-k scalar form.

``simplex_character`` is the heat-kernel-style map: exponentials of the
curvature lift integrated over the standard simplex.  Because sigma has
form degree 2, the exponential series terminates by degree counting and
the simplex moments integrate exactly via
integral of prod s_i^{m_i} = prod m_i! / (k + sum m_i)!.

Both maps induce the same classes; ``compare_class_integrals`` checks
the matching-degree integrals over a closed geometry after the factorial
renormalization between the cyclic and mixed-complex conventions.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Optional, Sequence, Tuple

from .cyclic import Chain, Projection, chern_cyclic
from .forms import Connection, MatrixForm, exterior_d
from .scalars import QQi


class NonTorsionTwist(ValueError):
    pass


def require_torsion_twist(declaration: str) -> None:
    """Gate for checks that assume a flat or torsion twist class."""
    if declaration not in ("flat", "torsion"):
        raise NonTorsionTwist(
            f"declared twist {declaration!r} is not flat or torsion; "
            "the character comparison is only defined for torsion twists"
        )


class PartitionExpansion:
    """psi_k assembled, with the number of partition terms it sums.

    ``tail`` is psi_{k-1} of all arguments but the first, which the suffix
    recursion builds on the way (the identity at k = 1, None at k = 0).
    """

    def __init__(self, k: int, total: MatrixForm,
                 tail: Optional[MatrixForm] = None):
        self.k = k
        self.total = total
        self.tail = tail

    @property
    def term_count(self) -> int:
        """F(k+1): compositions of k into parts 1 and 2."""
        a, b = 1, 1
        for _ in range(self.k):
            a, b = b, a + b
        return a


def psi(conn: Connection, a_list: Sequence[MatrixForm]) -> PartitionExpansion:
    """psi_k(a_1, ..., a_k) by the suffix recursion over the partitions.

    P_k = 1, P_{k-1} = nabla(a_k) and
    P_j = nabla(a_j) P_{j+1} + (a_j sigma a_{j+1}) P_{j+2}; psi_k = P_0,
    and P_1 is kept as the tail.  Every nabla(a_i) and every pair block is
    built once, and no product with the identity P_k is formed.
    """
    k = len(a_list)
    if k == 0:
        return PartitionExpansion(0, conn.identity())
    sigma = conn.sigma
    after = conn.nabla(a_list[-1])  # P_{j+1}
    after2 = None                   # P_{j+2}; None stands for P_k = 1
    for j in range(k - 2, -1, -1):
        pair = a_list[j] * sigma * a_list[j + 1]
        if after2 is not None:
            pair = pair * after2
        after, after2 = conn.nabla(a_list[j]) * after + pair, after
    return PartitionExpansion(k, after,
                              conn.identity() if after2 is None else after2)


def psi_recursive(conn: Connection, a_list: Sequence[MatrixForm]) -> MatrixForm:
    """Recursion psi_k = (nabla a_1) psi_{k-1} + a_1 sigma a_2 psi_{k-2}."""
    k = len(a_list)
    if k == 0:
        return conn.identity()
    if k == 1:
        return conn.nabla(a_list[0])
    head1 = conn.nabla(a_list[0]) * psi_recursive(conn, a_list[1:])
    head2 = (a_list[0] * conn.sigma * a_list[1]) * psi_recursive(conn, a_list[2:])
    return head1 + head2


def rho(conn: Connection, ch: Chain) -> MatrixForm:
    """Chain character rho_k(a_0, ..., a_k) = tr(a_0 psi_k(a_1, ..., a_k)).

    Linear over the chain; lands in scalar forms of pure degree k (every
    partition block contributes its size in form degree).  Degrees above
    the chart dimension vanish identically.
    """
    out = conn.theta.zero_like(1)
    for coef, t in ch.terms:
        out = out + (t[0] * psi(conn, t[1:]).total).trace().scale(coef)
    return out


def induction_defect(conn: Connection,
                     a_list: Sequence[MatrixForm]) -> MatrixForm:
    """Residual of the inductive identity behind the chain-map property.

    (-1)^(k-1) a_0 psi_k(a_1..a_k) + psi_k(a_0..a_{k-1}) a_k
        - nabla(a_0 psi_{k-1}(a_1..a_{k-1}) a_k)
    must vanish identically; the convention psi_{-1} = 0 settles k = 0.
    psi_{k-1}(a_1..a_{k-1}) is the tail of psi_k(a_0..a_{k-1}).
    """
    k = len(a_list) - 1
    if k < 0:
        raise ValueError("need at least a_0")
    a0, ak = a_list[0], a_list[-1]
    sign = -1 if (k - 1) % 2 else 1
    head = psi(conn, a_list[:-1])
    lhs = (a0 * psi(conn, a_list[1:]).total).scale(sign) + head.total * ak
    if k == 0:
        return lhs
    return lhs - conn.nabla(a0 * head.tail * ak)


def verify_induction_identity(conn: Connection,
                              a_list: Sequence[MatrixForm]) -> Tuple[bool, MatrixForm]:
    defect = induction_defect(conn, a_list)
    return defect.vanishes(1e-10), defect


def cyclic_defect(conn: Connection,
                  a_list: Sequence[MatrixForm]) -> MatrixForm:
    """Residual of the cyclic-quotient defect identity for rho.

    (-1)^(k-1) rho_k(a_0..a_k) + rho_k(a_k, a_0..a_{k-1})
        - d tr(a_0 psi_{k-1}(a_1..a_{k-1}) a_k)

    The rotated term is tr(a_k psi_k(a_0..a_{k-1})), and
    psi_{k-1}(a_1..a_{k-1}) is the tail of that expansion.
    """
    k = len(a_list) - 1
    ch = Chain(k, [(QQi(1), tuple(a_list))])
    sign = -1 if (k - 1) % 2 else 1
    head = psi(conn, a_list[:-1])
    lhs = rho(conn, ch).scale(sign) + (a_list[-1] * head.total).trace()
    if k == 0:
        return lhs
    return lhs - exterior_d((a_list[0] * head.tail * a_list[-1]).trace())


# -- simplex-integrated exponential character ---------------------------


def simplex_moment(powers: Sequence[int]) -> Fraction:
    """Exact moment of the standard simplex: prod m_i! / (k + sum m_i)!."""
    k = len(powers) - 1
    total = sum(powers)
    num = 1
    for m in powers:
        num *= factorial(m)
    return Fraction(num, factorial(k + total))


def _moment_tuples(slots: int, budget: int):
    if slots == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _moment_tuples(slots - 1, budget - first):
            yield (first,) + rest


def simplex_character(conn: Connection, ch: Chain) -> MatrixForm:
    """Simplex-integrated exponential character of a chain.

    Expands tr(a_0 e^{-s_0 sigma} nabla a_1 e^{-s_1 sigma} ... ) with the
    exponentials truncated by form degree and the simplex integrals done
    exactly through ``simplex_moment``.  The result has mixed degree
    k, k+2, ... up to the chart dimension.
    """
    chart = conn.chart
    out = conn.theta.zero_like(1)
    sigma = conn.sigma
    for coef, t in ch.terms:
        k = len(t) - 1
        if k > chart.dim:
            continue
        nablas = [conn.nabla(a) for a in t[1:]]
        budget = (chart.dim - k) // 2
        sigma_pows = [conn.identity()]
        for _ in range(budget):
            sigma_pows.append(sigma_pows[-1] * sigma)
        for powers in _moment_tuples(k + 1, budget):
            weight = simplex_moment(powers) * ((-1) ** sum(powers))
            term = t[0] * sigma_pows[powers[0]]
            for i in range(k):
                term = term * nablas[i] * sigma_pows[powers[i + 1]]
            if term.is_zero():
                continue
            out = out + term.trace().scale(QQi(weight) * coef)
    return out


def character_totals(conn: Connection, p: Projection,
                     top: int) -> Tuple[MatrixForm, MatrixForm]:
    """(simplex character, chain character) of ch(p), each summed over the
    Chern cycles ``chern_cyclic(p, m)`` for m = 0, ..., top."""
    jlo_total = rho_total = conn.theta.zero_like(1)
    for m in range(top + 1):
        ch = chern_cyclic(p, m)
        jlo_total = jlo_total + simplex_character(conn, ch)
        rho_total = rho_total + rho(conn, ch)
    return jlo_total, rho_total


def compare_class_integrals(conn: Connection, p: Projection,
                            integrate: Callable[[MatrixForm, int], complex],
                            twist: str = "torsion") -> dict:
    """Matching-degree integrals of the two character maps on ch(p).

    The simplex character uses the mixed-complex normalization, the chain
    character the cyclic one; degree-k integrals are compared after the
    factorial rescaling 1/k!.  Agreement is up to exact forms, hence
    integrals over a closed geometry are what is compared.
    """
    require_torsion_twist(twist)
    chart = conn.chart
    max_degree = chart.dim
    if p.base_m != conn.m:
        raise ValueError("projection base algebra does not match connection")
    report = {"degrees": {}, "twist": twist}
    jlo_total, rho_total = character_totals(conn, p, max_degree // 2)
    agree = True
    for k in range(0, max_degree + 1, 2):
        lhs = integrate(jlo_total, k)
        rhs = integrate(rho_total, k)
        rhs_scaled = rhs / factorial(k)
        delta = abs(lhs - rhs_scaled)
        scale = max(abs(lhs), abs(rhs_scaled), 1.0)
        ok = delta <= 1e-8 * scale
        agree = agree and ok
        report["degrees"][k] = {
            "simplex": lhs,
            "chain_over_kfact": rhs_scaled,
            "difference": delta,
            "ok": ok,
        }
    report["agree"] = agree
    return report
