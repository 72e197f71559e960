"""Concrete closed geometries and the desk-scale index evaluator.

Round 2-sphere and flat 2-torus charts with quadrature rules that
integrate the relevant function classes to near machine precision
(Gauss-Legendre in cos(theta) times uniform azimuth; uniform grids on
the torus).  Forms are ``JetForm``s of sampled jets: derivatives are supplied
analytically as arrays on the grid, never numerically.

The index pipeline follows the compressed-module calculus: the relative
character is a degree-graded rescaled trace of exp(-T) for the twisting
curvature T = p (dp)(dp) - p c_left(R) p on the module tensor the exterior
fiber, read from the s x s part of T that the trace sees, and the top
integral against the A-hat form snaps to an integer.  Normalization (one
factor (2*pi*i)^-1 per 2-form degree, a global sign, and one factor 2^n)
is pinned once by the anchor checks: the trivial class gives index 0 and
the standard degree-one projection on the sphere gives twice its first
Chern number.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, pi
from typing import Dict, Optional, Tuple

from . import clifford, linalg
from ._numpy import np
from .cyclic import Chain, Projection, chern_cyclic, cyclic_permute
from .characters import rho
from .forms import Connection, JetForm, MatrixForm, exp_form, exterior_d, trace_of_product
from .scalars import AFFINE, PERIODIC, Chart, JetScalar, QQi

# per-2-form-degree normalization; the sign of i is pinned by requiring
# the reference degree-one projection on the sphere to have first Chern
# number -1 under the outward frame
CHERN_UNIT = -2j * pi


class QuadratureError(ValueError):
    pass


@cache
def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule, computed once
    per process for each n and returned read-only, as every caller
    shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class Geometry:
    """Chart atlas descriptor with nodes, weights, frame and curvature.

    ``weights`` integrate coordinate top components: the integral of
    f(theta, phi) d theta ^ d phi is sum(weights * f(nodes)).  The
    orthonormal coframe has top coefficient ``frame_density`` relative to
    the coordinate one (sin theta on the sphere, 1 on the torus).
    """

    def __init__(self, kind: str, chart: Chart, theta: np.ndarray,
                 phi: np.ndarray, weights: np.ndarray,
                 frame_density: np.ndarray, sectional_curvature: float,
                 resolution: Tuple[int, int]):
        self.kind = kind
        self.chart = chart
        self.theta = theta
        self.phi = phi
        self.weights = weights
        self.frame_density = frame_density
        self.sectional_curvature = sectional_curvature
        self.resolution = resolution

    @property
    def n_nodes(self) -> int:
        return len(self.theta)

    @property
    def half_dim(self) -> int:
        return 1  # both desk geometries are surfaces

    @staticmethod
    def sphere2(n_theta: int = 24, n_phi: int = 48) -> "Geometry":
        """Round unit sphere; Gauss-Legendre in cos(theta), uniform phi.

        Nodes stay away from the poles.  Exact for integrands of the form
        sin(theta) * poly(cos theta, e^{i phi}) within the rule's degree.
        """
        u, wu = _gauss_legendre(n_theta)
        theta_1d = np.arccos(u)
        phi_1d = 2 * pi * np.arange(n_phi) / n_phi
        t_grid, p_grid = np.meshgrid(theta_1d, phi_1d, indexing="ij")
        sin_t = np.sin(t_grid).ravel()
        w = np.repeat(wu, n_phi) / sin_t * (2 * pi / n_phi)
        chart = Chart((AFFINE, PERIODIC))
        return Geometry("sphere2", chart, t_grid.ravel(), p_grid.ravel(),
                        w, sin_t, 1.0, (n_theta, n_phi))

    @staticmethod
    def torus2(n: int = 32) -> "Geometry":
        """Flat square torus with side 2*pi and uniform product grid."""
        grid = 2 * pi * np.arange(n) / n
        t_grid, p_grid = np.meshgrid(grid, grid, indexing="ij")
        w = np.full(n * n, (2 * pi / n) ** 2)
        chart = Chart.torus(2)
        ones = np.ones(n * n)
        return Geometry("torus2", chart, t_grid.ravel(), p_grid.ravel(),
                        w, ones, 0.0, (n, n))

    # -- jet builders ----------------------------------------------------

    def jet_const(self, c) -> JetScalar:
        return JetScalar.const(self.chart, complex(c), self.n_nodes)

    # -- integration -------------------------------------------------------

    def integrate_form(self, a: MatrixForm, degree: int = 2) -> complex:
        """Integral of the degree-k component (k=2: against the chart
        orientation; k=0: against the volume form)."""
        if a.m != 1:
            raise ValueError("only scalar forms integrate")
        if degree == 0:
            mat = a.comps.get(())
            if mat is None:
                return 0.0
            return complex(np.sum(self.weights * self.frame_density * mat[0][0].values))
        if degree == 2:
            mat = a.comps.get((0, 1))
            if mat is None:
                return 0.0
            return complex(np.sum(self.weights * mat[0][0].values))
        return 0.0

    # -- curvature and Clifford data ---------------------------------------

    def left_curvature_matrix(self) -> np.ndarray:
        """Constant fiber matrix of the left Clifford curvature action.

        For a surface with R_1212 = kappa the sum collapses to
        kappa * c_L(e_2) c_L(e_1) on the 4-dimensional exterior fiber.
        """
        c1 = clifford.to_numpy(clifford.left_matrix(2, 1))
        c2 = clifford.to_numpy(clifford.left_matrix(2, 2))
        return self.sectional_curvature * (c2 @ c1)

    def clifford_curvature_form(self, blocks: int = 1) -> MatrixForm:
        """c_left(R) as a 2-form valued endomorphism, amplified to blocks."""
        fiber = self.left_curvature_matrix()
        big = np.kron(np.eye(blocks), fiber)
        dens = self.frame_density.astype(complex)
        # the fiber matrix is a signed permutation: most entries share one zero
        zero = JetScalar.zero(self.chart, self.n_nodes, grads=False)
        rows = tuple(
            tuple(JetScalar(self.chart, big[i, j] * dens, None) if big[i, j] else zero
                  for j in range(4 * blocks))
            for i in range(4 * blocks)
        )
        return JetForm(self.chart, 4 * blocks, {(0, 1): rows}, self.n_nodes)

    def clifford_connection(self) -> Connection:
        """Connection whose curvature lift is minus the left Clifford action.

        The gauge 1-form vanishes because the registered sections have
        scalar entries (the lift acts trivially on them), so nabla = d.
        """
        sigma = -self.clifford_curvature_form()
        return Connection.with_sigma(sigma)

    def a_hat_form(self) -> MatrixForm:
        """A-hat of the geometry; identically 1 on surfaces (degree bound)."""
        one = self.jet_const(1.0)
        return JetForm(self.chart, 1, {(): ((one,),)}, self.n_nodes)


# -- formal A-hat from curvature matrices ---------------------------------


def a_hat_from_curvature(r_form: MatrixForm) -> MatrixForm:
    """A-hat characteristic form of an antisymmetric matrix of 2-forms.

    Trace-log evaluation of det^(1/2) of (R/2)/sinh(R/2) in the rotated
    (Pontryagin) convention: the series in the skew matrix reads
    (1/2) tr(R^2/24 + R^4/2880 + ...), truncated by form degree.  The
    degree-0 term is 1; on surfaces the whole form is 1.
    """
    for idx, mat in r_form.comps.items():
        if len(idx) != 2:
            raise ValueError("curvature entries must be 2-forms")
        for i in range(r_form.m):
            for j in range(r_form.m):
                s = mat[i][j] + mat[j][i]
                bad = s.max_abs() > 1e-12 if isinstance(s, JetScalar) else not s.is_zero()
                if bad:
                    raise ValueError("curvature matrix must be antisymmetric")
    r2 = r_form * r_form
    r4 = r2 * r2
    series = r2.trace().scale(Fraction(1, 48)) + r4.trace().scale(Fraction(1, 5760))
    return exp_form(series)


# -- projections on geometries --------------------------------------------


def bott_projection(geom: Geometry, dilation: float = 0.0) -> MatrixForm:
    """(1 + n.sigma)/2 on the grid of ``geom``, with an optional conformal
    dilation, its theta- and phi-derivatives given analytically.

    dilation = 0 is the standard degree-one projection; nonzero values
    compose with the conformal flow towards the north pole, which leaves
    the class unchanged but makes the integrand non-polynomial (useful
    for genuine quadrature refinement trends).
    """
    a = float(dilation)
    root = np.sqrt(1.0 - a * a) if abs(a) < 1 else 1.0
    u, s = np.cos(geom.theta), np.sin(geom.theta)
    cos_p, sin_p = np.cos(geom.phi), np.sin(geom.phi)
    den = 1.0 + a * u
    # n = (s2 cos phi, s2 sin phi, n3) and the theta-derivatives of s2, n3
    n3 = (u + a) / den
    s2 = root * s / den
    dn3 = -s * (1.0 - a * a) / den ** 2
    ds2 = root * (u + a) / den ** 2
    n1, n2 = s2 * cos_p, s2 * sin_p
    dn1 = (ds2 * cos_p, -s2 * sin_p)
    dn2 = (ds2 * sin_p, s2 * cos_p)
    zero = np.zeros_like(geom.theta)

    def entry(value, d_theta, d_phi):
        return JetScalar(geom.chart, value, np.stack([d_theta, d_phi]))

    # p = (1 + n . sigma)/2 entrywise; the 0 + turns the -0.0 of dn3 where
    # sin theta = 0 (torus grids meet theta = 0) into +0.0, and the report
    # bytes depend on that sign
    e11 = entry(0.5 + 0.5 * n3, 0 + 0.5 * dn3, zero)
    e22 = entry(0.5 - 0.5 * n3, -0.5 * dn3, zero)
    e12 = entry(0.5 * (n1 - 1j * n2), *[0.5 * (x - 1j * y) for x, y in zip(dn1, dn2)])
    e21 = entry(0.5 * (n1 + 1j * n2), *[0.5 * (x + 1j * y) for x, y in zip(dn1, dn2)])
    return JetForm(geom.chart, 2, {(): ((e11, e12), (e21, e22))}, geom.n_nodes)


def constant_projection(geom: Geometry, rank: int, size: int) -> MatrixForm:
    mat = [[QQi(1) if (i == j and i < rank) else QQi(0) for j in range(size)]
           for i in range(size)]
    return JetForm.zero(geom.chart, size, geom.n_nodes).const_like(mat)


# -- index pipeline --------------------------------------------------------


def kron_identity_right(a: MatrixForm, k: int) -> MatrixForm:
    """a (x) Id_k: each scalar entry becomes a k-block multiple of identity.

    The entries off the blocks are the form's zero; on jets they have no
    gradients when no entry of ``a`` has any, as in a product of a with a
    gradient-free factor.
    """
    z = a._zero_scalar()
    if isinstance(z, JetScalar) and all(x.grads is None for mat in a.comps.values()
                                        for row in mat for x in row):
        z = JetScalar.zero(a.chart, len(z.values), grads=False)
    out = {
        idx: linalg.mat_from_blocks([[linalg.mat_eye(k, z, x) for x in row] for row in mat])
        for idx, mat in a.comps.items()
    }
    return a._like(a.m * k, out)


def relative_chern(p_form: MatrixForm) -> MatrixForm:
    """2^{-n} tr(p4 exp(-T)) on the compressed module, fiber trace
    normalized, for T = (p dp dp) (x) Id_4 - p4 c_left(R) p4 and
    p4 = p (x) Id_4.

    Two facts leave only s x s work.  On a surface exp(-T) = 1 - T: T is
    a 2-form and there are no 4-forms.  And p4 pairs each fiber index
    only with itself, while c_left(R) = kappa c(e_2) c(e_1) has a zero
    fiber diagonal, so the curvature term adds nothing to the trace.
    What is left is tr(p4) in degree 0 and tr(p4 (-(p dp dp) (x) Id_4))
    in degree 2, the negation taken on the s x s matrix.

    The fiber trace uses the spinor normalization (one factor 2^{-n} on
    the 2^{2n}-dimensional exterior fiber), and each 2-form degree
    carries (2*pi*i)^{-1}; so the trivial rank-one module gives exactly 1
    in degree 0.
    """
    n = p_form.chart.dim // 2
    p4 = kron_identity_right(p_form, 4)
    dp = exterior_d(p_form)
    parts = (p4.trace(), trace_of_product(p4, kron_identity_right(-(p_form * dp * dp), 4)))
    out = p_form.zero_like(1)
    for k, part in zip((0, 2), parts):
        scale = (2 ** (-2 * n)) * (1.0 / CHERN_UNIT) ** (k // 2)
        out = out + part.scale(scale)
    return out


def chern_number(geom: Geometry, p_form: MatrixForm,
                 residual_tol: float = 1e-6) -> Dict[str, object]:
    """(1/2 pi i) integral of tr(p dp dp), snapped to the nearest integer."""
    dp = exterior_d(p_form)
    two_form = trace_of_product(p_form * dp, dp)
    raw = geom.integrate_form(two_form, 2) / CHERN_UNIT
    snapped = round(raw.real)
    residual = abs(raw - snapped)
    if residual > residual_tol:
        raise QuadratureError(
            "projection not smooth enough / grid too coarse: "
            f"residual {residual:.3e}"
        )
    return {"raw": raw, "integer": int(snapped), "residual": float(residual)}


def local_index(geom: Geometry, p_form: MatrixForm,
                residual_tol: float = 1e-4) -> Dict[str, object]:
    """Index of the compressed module operator by the curvature integral.

    Evaluates -2^n * integral of A-hat wedge relative character; the
    integrality residual is a first-class output.
    """
    n = geom.half_dim
    if p_form.is_zero():
        return {"raw": 0.0, "integer": 0, "residual": 0.0}
    total = geom.a_hat_form() * relative_chern(p_form)
    raw = -(2 ** n) * geom.integrate_form(total, 2)
    snapped = round(raw.real)
    residual = abs(raw - snapped)
    if residual > residual_tol:
        raise QuadratureError(
            f"index quadrature residual too large: {residual:.3e}"
        )
    return {"raw": raw, "integer": int(snapped), "residual": float(residual)}


def character_pairing(geom: Geometry, chain: Chain, conn: Connection) -> complex:
    """Evaluation of the geometry's character cocycle on one chain degree.

    For a degree-2m chain this is
    -(2 pi i)^{-m} / (2^n (2m)!) * integral of A-hat wedge rho_{2m}(chain),
    with the curvature lift sigma = -c_left(R) and nabla = d on
    scalar-entried sections.  Degrees above the chart dimension vanish.
    """
    n = geom.half_dim
    k = chain.degree
    if k % 2:
        raise ValueError("character pairing takes even-degree chains")
    if k > geom.chart.dim:
        return 0.0
    # the pairing integrates the top part of A-hat wedge the character
    # form; for k = 0 on a surface the top part of A-hat vanishes, so the
    # degree-0 component contributes nothing
    value_form = geom.a_hat_form() * rho(conn, chain)
    integral = geom.integrate_form(value_form, 2)
    m = k // 2
    coef = -(1.0 / CHERN_UNIT) ** m / (2 ** n * factorial(k))
    return coef * integral


def pairing_index(geom: Geometry, p_form: MatrixForm,
                  max_degree: Optional[int] = None) -> complex:
    """Assembled pairing of the projection character with the cocycle.

    Sums character_pairing over even degrees; terms above the chart
    dimension vanish identically, so appending them does not change the
    value.
    """
    if max_degree is None:
        max_degree = geom.chart.dim
    s = p_form.m
    fiber_p = kron_identity_right(p_form, 4)
    proj = Projection(fiber_p, blocks=s, base_m=4, check=False)
    conn = geom.clifford_connection()
    total = 0j
    for m in range(max_degree // 2 + 1):
        chain = chern_cyclic(proj, m)
        total += character_pairing(geom, chain, conn)
    return total


def cocycle_cyclicity_residual(geom: Geometry, chain: Chain,
                               conn: Connection) -> float:
    """Deviation of the cocycle evaluation under signed cyclic rotation."""
    lhs = character_pairing(geom, chain, conn)
    rhs = character_pairing(geom, cyclic_permute(chain), conn)
    return abs(lhs - rhs)
