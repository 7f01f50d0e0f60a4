"""Quasi-exact (Juddian) solutions: energies, delta^2 branches, roots,
wavefunctions, and the algebraic cross-checks on the roots.

The quasi-exact energy is fixed by termination of the +1 stencil band.
With the energy fixed, delta^2 enters the eliminated operator linearly, so
restricting to polynomials of degree M turns the solvability condition into
an (M+1)x(M+1) linear eigenproblem in delta^2 (the pencil). Every real,
non-negative eigenvalue is one admissible delta^2 branch; the eigenvector
holds the polynomial coefficients. The roots are the eigenvalues of the
companion matrix, polished by one Aberth-Ehrlich step against the returned
coefficients, with p(z) evaluated by compensated Horner (as if in twice the
working precision). A branch keeps the polished set only when every
correction shows the companion set already converging; otherwise, as for
the clustered roots of the degenerate-atom branch, it keeps the companion
roots. The root systems and parameter constraints verify each branch
independently. The Aberth step and the root systems, in power sums at
O(M^2), read one pairwise matrix 1/(z_i - z_j) (``_pairwise``); the
root-system coefficients are hand-written, so a wrong stencil term shows.

The 2-photon model is solved through the two-mode formulas in its
two-mode frame (``models.two_mode_frame``); pencil, roots and every
reported number stay in its own Bargmann variable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    DegenerateAtomBranch,
    DegenerateRoots,
    IllConditioned,
    NoPhysicalSolution,
)
from .models import (
    ModelKind,
    ModelSpec,
    SectorBasisDescriptor,
    squeeze_factor,
    two_mode_frame,
    validate,
)
from .stencil import (
    OdeStencil,
    _apply_terms,
    _require_degree,
    apply_first_factor,
    apply_ode,
    apply_second_factor,
    ode_stencil,
)

# A branch with delta^2 below this is the decoupled degenerate-atom case.
DEGENERATE_DELTA_SQ = 1e-9

# Residual gates used when records are emitted / solutions verified.
ODE_RESIDUAL_TOL = 1e-8
BAE_RESIDUAL_TOL = 1e-8
CONSTRAINT_RESIDUAL_TOL = 1e-8

_EIG_IMAG_TOL = 1e-9
_EIG_NEG_TOL = 1e-9


class Branch(str, Enum):
    NONTRIVIAL = "nontrivial"
    DEGENERATE_ATOM = "degenerate-atom"


@dataclass(eq=False)
class QesSolution:
    """One Juddian point: degree, energy, delta^2, monic polynomial, roots.

    ``spec`` carries delta = +sqrt(delta_squared); the spectrum is invariant
    under delta -> -delta (the lower component flips sign), so only the
    non-negative square root is reported.
    """

    spec: ModelSpec
    degree: int
    energy: float
    delta_squared: float
    roots: np.ndarray
    coeffs: np.ndarray
    branch: Branch

    @property
    def delta(self) -> float:
        return self.spec.delta


@dataclass(eq=False)
class BargmannWavefunction:
    """Two spinor components, each exp(-prefactor_rate*z) * polynomial(z)."""

    prefactor_rate: float
    plus_coeffs: np.ndarray
    minus_coeffs: np.ndarray
    basis: SectorBasisDescriptor


def qes_energy(spec: ModelSpec, degree: int) -> float:
    """Closed-form energy of the degree-M quasi-exact level."""
    spec = validate(spec)
    _require_degree(degree)
    w = spec.omega
    if spec.kind is ModelKind.RABI:
        return w * (degree - spec.g**2 / w**2)
    # The zero point omega - energy_shift is subtracted in one rounding.
    f = two_mode_frame(spec)
    return ((2 * degree + 2 * f.kappa) * f.omega * f.squeeze
            - (f.omega - f.energy_shift))


def delta_pencil(spec: ModelSpec, degree: int) -> np.ndarray:
    """Matrix A of the restriction of the eliminated operator to degree M.

    Acting on coefficient vectors (c_0..c_M), the polynomial solvability
    condition at the quasi-exact energy reads
    (A + delta_sq_sign * delta^2 * I) c = 0. A is banded with entries only
    at row - column offsets {+1, 0, -1, -2}; the would-be row M+1 vanishes
    identically by termination.
    """
    st = ode_stencil(spec, degree, qes_energy(spec, degree))
    return _apply_terms(st.terms, np.eye(degree + 1))[:degree + 1]


def _mirror_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Monic coefficients of p(-z) up to sign, i.e. roots negated."""
    m = len(coeffs) - 1
    signs = np.array([(-1.0) ** (m - k) for k in range(m + 1)])
    return coeffs * signs


# Veltkamp's splitting constant 2**27 + 1: a = hi + lo exactly, with halves
# short enough that every product of two halves is exact in double.
_SPLIT = 134217729.0
# Stacked (re, im) arrays: a * (x + iy) = a*x + _swap(a*y), _swap(a) = i*a.
_SWAP_SIGN = np.array([-1.0, 1.0])[:, None, None]
# Aberth corrections above this, relative to max(1, |z|), mean the companion
# roots were not yet converging: the branch keeps them unpolished.
_POLISH_ACCEPT = 1e-10


def _swap(a: np.ndarray) -> np.ndarray:
    return a[::-1] * _SWAP_SIGN


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(a + b) and the exact error e = a + b - s (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a, a_split, b, b_split) -> tuple[np.ndarray, np.ndarray]:
    """p = fl(a * b) and the exact error e = a * b - p (Dekker)."""
    (ah, al), (bh, bl) = a_split, b_split
    p = a * b
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _horner(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(z) by compensated Horner, and p'(z) by plain Horner.

    ``coeffs`` is (B, n+1), ascending and real, ``z`` is (B, M) complex.
    Complex values are carried as stacked (re, im) arrays of shape (2, B, M),
    and (x, y) = (Re z, Im z) as one (2, 1, B, M) array, so that each real
    error-free transformation forms all four products s_re x, s_im x,
    s_re y, s_im y at once; the rounding errors of each step are
    accumulated by a second Horner recurrence (Graillat, Langlois & Louvet
    2009) and added at the end.
    """
    xy = np.stack((z.real, z.imag))[:, None]
    xy_split = _split(xy)
    n = coeffs.shape[1] - 1
    s = np.zeros((2,) + z.shape)
    s[0] = coeffs[:, n:]
    err = np.zeros_like(s)
    deriv = np.zeros_like(s)
    for k in range(n - 1, -1, -1):
        d = deriv * xy
        deriv = d[0] + _swap(d[1]) + s
        prod, e_prod = _two_prod(s, _split(s), xy, xy_split)
        s, e_sum = _two_sum(prod[0], _swap(prod[1]))
        s[0], e_coeff = _two_sum(s[0], coeffs[:, k:k + 1])
        e_sum[0] += e_coeff
        e = err * xy
        err = e[0] + _swap(e[1]) + (e_prod[0] + _swap(e_prod[1]) + e_sum)
    p = s + err
    return p[0] + 1j * p[1], deriv[0] + 1j * deriv[1]


def _pairwise(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z_i - z_j and a_ij = 1/(z_i - z_j) of (..., M) roots, as (..., M, M);
    the differences are inf on the diagonal, so a_ij is 0 there."""
    diff = z[..., :, None] - z[..., None, :]
    diag = np.arange(z.shape[-1])
    diff[..., diag, diag] = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        return diff, 1.0 / diff


def _polish_roots(coeffs: np.ndarray, roots: list[np.ndarray]) -> list[np.ndarray]:
    """One Aberth-Ehrlich step on each branch's companion roots.

    ``coeffs`` is (B, M+1) monic, ``roots`` the B companion root sets,
    which for real coefficients come in exact conjugate pairs with real
    roots exactly real. The step w_i = N_i / (1 - N_i sum_j 1/(z_i - z_j)),
    N_i = p(z_i)/p'(z_i), uses the compensated p(z). A branch keeps its
    polished roots only when every |w_i| <= 1e-10 max(1, |z_i|), and no
    upper root crosses the real axis; the upper-half-plane roots are
    polished and mirrored, real roots stay real. Each returned set is
    sorted by (real, imag), like the companion roots.
    """
    z = np.array(roots, dtype=complex)
    p, dp = _horner(coeffs, z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        newton = p / dp
        w = newton / (1.0 - newton * _pairwise(z)[1].sum(axis=2))
    bound = _POLISH_ACCEPT * np.maximum(1.0, np.abs(z))
    converging = np.all(np.abs(w) <= bound, axis=1)  # False for NaN

    out = []
    for zb, wb, ok, companion in zip(z, w, converging, roots):
        upper = zb.imag > 0
        real = zb.imag == 0
        up = zb[upper] - wb[upper]
        if not ok or np.any(up.imag <= 0):
            out.append(companion)
            continue
        r = np.concatenate([(zb[real].real - wb[real].real).astype(complex),
                            up, up.conj()])
        r = r[np.lexsort((r.imag, r.real))]
        out.append(r if np.iscomplexobj(companion) else r.real)
    return out


def solve_qes(spec: ModelSpec, degree: int) -> list[QesSolution]:
    """All admissible delta^2 branches at this (model, g, degree).

    Pencil eigenvalues mu give candidates delta^2 = -delta_sq_sign * mu;
    a candidate is retained when its imaginary part is below
    1e-9 * (1 + |mu|) and its real part is >= -1e-9. Branches with
    delta^2 < 1e-9 are tagged as the degenerate-atom case. Results are
    sorted by delta^2 ascending. Negative g is handled through the exact
    sign symmetry g -> -g, z -> -z.

    Roots are the companion roots, polished by ``_polish_roots``.
    """
    spec = validate(spec)
    mirrored = spec.g < 0
    work = spec if not mirrored else ModelSpec(
        spec.kind, spec.omega, -spec.g, spec.delta, spec.sector
    )

    a = delta_pencil(work, degree)
    energy = qes_energy(work, degree)
    sign = ode_stencil(work, degree, energy).delta_sq_sign
    mu, vecs = np.linalg.eig(a)
    scale = max(np.max(np.abs(a)), 1.0)

    kept = []
    for i in range(len(mu)):
        m = mu[i]
        if abs(m.imag) > _EIG_IMAG_TOL * (1.0 + abs(m)):
            continue
        d2 = -sign * m.real
        if d2 < -_EIG_NEG_TOL:
            continue
        v = vecs[:, i]
        if v[-1] == 0:
            raise IllConditioned(
                "leading polynomial coefficient exactly zero", residual=0.0
            )
        # Coefficients may legitimately span many orders of magnitude
        # (large-delta branches have large roots); the eigenpair residual
        # below is normalization invariant and is the real quality gate.
        v = v / v[-1]
        if np.iscomplexobj(v):
            imag = float(np.max(np.abs(v.imag)))
            if imag > 1e-8 * np.max(np.abs(v.real)):
                raise IllConditioned("eigenvector not real after phase fix", residual=imag)
            v = v.real
        res = float(np.max(np.abs(a @ v - m.real * v)) / (scale * np.max(np.abs(v))))
        if res > 1e-8:
            raise IllConditioned("pencil eigenpair residual too large", residual=res)

        d2 = max(d2, 0.0)
        coeffs = v
        if mirrored:
            coeffs = _mirror_coeffs(coeffs)
        roots = npoly.polyroots(coeffs)
        kept.append((d2, coeffs, roots[np.lexsort((roots.imag, roots.real))]))

    if not kept:
        raise NoPhysicalSolution(
            f"no real delta^2 >= 0 at g={spec.g:g}, degree={degree}"
        )
    polished = _polish_roots(np.array([c for _, c, _ in kept]),
                             [r for _, _, r in kept])
    solutions = []
    for (d2, coeffs, _), roots in zip(kept, polished):
        branch = Branch.DEGENERATE_ATOM if d2 < DEGENERATE_DELTA_SQ else Branch.NONTRIVIAL
        solutions.append(QesSolution(
            spec=spec.with_delta(math.sqrt(d2)),
            degree=degree,
            energy=energy,
            delta_squared=d2,
            roots=roots,
            coeffs=coeffs,
            branch=branch,
        ))
    solutions.sort(key=lambda s: s.delta_squared)
    return solutions


def solution_stencil(solution: QesSolution) -> OdeStencil:
    return ode_stencil(solution.spec, solution.degree, solution.energy)


def ode_residual(solution: QesSolution) -> float:
    """Max-norm of the operator image of the solution polynomial, relative
    to the largest coefficient."""
    st = solution_stencil(solution)
    img = apply_ode(st, solution.delta_squared, solution.coeffs)
    return float(np.max(np.abs(img)) / np.max(np.abs(solution.coeffs)))


def _root_prechecks(solution: QesSolution) -> tuple[np.ndarray, np.ndarray]:
    z = solution.roots
    diff, a = _pairwise(z)
    scale = max(float(np.max(np.abs(z))), 1e-300)
    # Symmetric, false on the diagonal: the first hit in row-major has i < j.
    pairs = np.argwhere(np.abs(diff) <= 1e-10 * scale)
    if len(pairs):
        i, j = pairs[0]
        raise DegenerateRoots(f"roots {i} and {j} coincide within 1e-10 relative")
    if solution.spec.kind is ModelKind.RABI:
        w, g = solution.spec.omega, solution.spec.g
        at_pole = np.flatnonzero(np.minimum(np.abs(w * z - g), np.abs(w * z + g)) <= 1e-12)
        if len(at_pole):
            raise DegenerateRoots(
                f"root {at_pole[0]} sits at a pole z = +/- g/omega of the root equations"
            )
    return z, a


def bae_residual(solution: QesSolution) -> float:
    """Largest violation of the algebraic root-system equations.

    Equation i holds s_n(i), the sum of n / prod(z_i - z_j) over ordered
    (n-1)-tuples of distinct j != i, in the power sums p_k = sum_j a_ij^k:
    s2 = 2 p1, s3 = 3 (p1^2 - p2), s4 = 4 (p1^3 - 3 p1 p2 + 2 p3). Rabi
    denominators are cleared through (omega z_i - g)(omega z_i + g); the
    fourth-order models run in their two-mode frame. A correct solution
    stays below 1e-8 * max(1, max|z_i|)^3. The coefficients are written
    out, not read from the stencil, so a wrong stencil term shows.
    """
    z, a = _root_prechecks(solution)
    m = solution.degree
    if solution.spec.kind is ModelKind.RABI:
        w, g = solution.spec.omega, solution.spec.g
        lhs = 2.0 * a.sum(axis=1) * (w * z - g) * (w * z + g)
        rhs = (2.0 * w * g * z ** 2 + (2 * m - 1) * w * w * z
               + g * (w * w - 2.0 * g * g) / w)
        return float(np.max(np.abs(lhs - rhs)))

    f = two_mode_frame(solution.spec)
    w, g, x, sq = f.omega, f.g, f.kappa, f.squeeze
    z, a = z / f.z_scale, a * f.z_scale  # exact: z_scale is a power of two
    a2 = a * a
    p1, p2, p3 = a.sum(axis=1), a2.sum(axis=1), (a2 * a).sum(axis=1)
    s2 = 2.0 * p1
    s3 = 3.0 * (p1 * p1 - p2)
    s4 = 4.0 * (p1 * (p1 * p1 - 3.0 * p2) + 2.0 * p3)
    val = (g * g * z ** 2 * s4
           + 4.0 * g * (w * (sq - 1.0) * z ** 2 + g * (x + 0.5) * z) * s3
           + (4.0 * w * w * (sq * sq - 3.0 * sq + 1.0) * z ** 2
              + 4.0 * w * g * (3.0 * (x + 0.5) * sq - 3.0 * x - 1.0) * z
              + 4.0 * g * g * x * (x + 0.5)) * s2
           + 8.0 * w**3 / g * sq * (1.0 - sq) * z ** 2
           + 8.0 * w * w * (m * sq + (x + 0.5) * sq * (sq - 2.0) + x) * z
           + 8.0 * w * g * x * ((x + 0.5) * sq - x))
    return float(np.max(np.abs(val))) / f.z_scale ** 3


def bae_scale(solution: QesSolution) -> float:
    """Tolerance scale for bae_residual: max(1, max|z_i|)^3."""
    return max(1.0, float(np.max(np.abs(solution.roots)))) ** 3


def constraint_residual(solution: QesSolution) -> float:
    """|LHS| of the parameter constraint tying delta^2 to the root sum.

    A consistent branch stays below 1e-8 * max(1, delta^2): the pencil
    eigenvalue must reproduce the closed-form constraint.
    """
    w, g = solution.spec.omega, solution.spec.g
    m = solution.degree
    d2 = solution.delta_squared
    zsum = complex(np.sum(solution.roots))
    if solution.spec.kind is ModelKind.RABI:
        return abs(d2 + 2.0 * m * g * g + 2.0 * w * g * zsum)
    f = two_mode_frame(solution.spec)
    w, g, x, sq = f.omega, f.g, f.kappa, f.squeeze
    zsum = complex(np.sum(solution.roots / f.z_scale))
    return abs(d2 + 4.0 * w * w * (1.0 - sq)
               * (m * (m + 2.0 * x - 1.0) + 2.0 * w / g * sq * zsum))


def _trim(coeffs: np.ndarray, rel: float = 1e-12) -> np.ndarray:
    cut = rel * max(1.0, float(np.max(np.abs(coeffs))))
    n = len(coeffs)
    while n > 1 and abs(coeffs[n - 1]) <= cut:
        n -= 1
    return coeffs[:n]


def second_component(solution: QesSolution, delta: float | None = None) -> BargmannWavefunction:
    """Lower spinor component via elimination: minus = -(1/delta) L1 plus.

    The exactly solvable factor never raises the degree, so the lower
    polynomial stays inside the invariant subspace (in fact its degree
    drops to at most degree - 1 at the quasi-exact energy). Passing
    ``delta=-solution.delta`` realizes the delta -> -delta sign flip.
    """
    if solution.branch is Branch.DEGENERATE_ATOM:
        raise DegenerateAtomBranch(
            "delta = 0: lower component not defined by the elimination formula"
        )
    if delta is None:
        delta = solution.delta
    plus = solution.coeffs
    minus = -apply_first_factor(solution.spec, solution.energy, plus) / delta
    return BargmannWavefunction(
        prefactor_rate=squeeze_factor(solution.spec).prefactor_rate,
        plus_coeffs=plus,
        minus_coeffs=_trim(minus),
        basis=SectorBasisDescriptor.for_spec(solution.spec),
    )


def coupled_residuals(solution: QesSolution, wf: BargmannWavefunction) -> tuple[float, float]:
    """Max-norm residuals of the two coupled spinor equations.

    Equation 1 defines the lower component (L1 plus = -delta minus);
    equation 2 closes the system (L2 minus = -delta plus for the Rabi
    model, +delta plus for the sector models).
    """
    d = solution.delta
    e = solution.energy
    r1 = apply_first_factor(solution.spec, e, wf.plus_coeffs)
    n1 = max(len(r1), len(wf.minus_coeffs))
    eq1 = np.zeros(n1)
    eq1[: len(r1)] += r1
    eq1[: len(wf.minus_coeffs)] += d * wf.minus_coeffs
    r2 = apply_second_factor(solution.spec, e, wf.minus_coeffs)
    sgn = 1.0 if solution.spec.kind is ModelKind.RABI else -1.0
    n2 = max(len(r2), len(wf.plus_coeffs))
    eq2 = np.zeros(n2)
    eq2[: len(r2)] += r2
    eq2[: len(wf.plus_coeffs)] += sgn * d * wf.plus_coeffs
    return float(np.max(np.abs(eq1))), float(np.max(np.abs(eq2)))


def wavefunction_eval(wf: BargmannWavefunction, points) -> np.ndarray:
    """Sample both components on a grid: rows are exp(-rate*z) * poly(z)."""
    z = np.asarray(points, dtype=complex)
    pre = np.exp(-wf.prefactor_rate * z)
    return np.vstack([
        pre * npoly.polyval(z, wf.plus_coeffs),
        pre * npoly.polyval(z, wf.minus_coeffs),
    ])
