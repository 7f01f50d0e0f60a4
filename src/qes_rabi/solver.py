"""Quasi-exact (Juddian) solutions: energies, delta^2 branches, roots,
wavefunctions, and the algebraic cross-checks on the roots.

The quasi-exact energy is fixed by termination of the +1 band of L.
With the energy fixed, delta^2 enters the eliminated operator linearly, so
restricting to polynomials of degree M turns the solvability condition into
an (M+1)x(M+1) linear eigenproblem in delta^2 (the pencil). Every real,
non-negative eigenvalue is one admissible delta^2 branch; the eigenvector
holds the polynomial coefficients. The pencil is built at the spec's own
signed g: every model is invariant under g -> -g, z -> -z, a property the
tests check and no code path uses. A grid of points is solved in one
stacked pass (``solve_grid``; ``solve_qes`` is its one-point grid): one
eigensolve of the stack of every point's pencil, and the roots of all
branches of all points from one stacked eigensolve of their 180-degree
rotated companion matrices, polished by one Aberth-Ehrlich step against
the returned coefficients, with p(z) evaluated by compensated Horner (as
if in twice the working precision) once per conjugate pair, in one array
pass over all branches. Each point's results are bitwise those of its
own solve. A branch keeps the polished set, by one mask over the
branches, only when every correction shows the companion set already
converging; otherwise, as for the clustered roots of the degenerate-atom
branch, it keeps the companion roots. The Aberth step and the root
systems, in power sums at O(M^2), read one pairwise matrix
1/(z_i - z_j) (``_pairwise``). L = L2 L1 is applied as its factors
(``stencil``), built once per point: the pencil is the product of the
two factor matrices, and each branch's ODE residual applies L1, then L2,
to all kept coefficient vectors at once. Only the hand-written root systems and parameter constraint check a branch
independently, so a wrong factor term shows there; they are evaluated
once per grid over the (B, M, M) pairwise block of all branches, with
each point's coupling, Bargmann index and squeeze factor a per-row array.
The three residuals are computed only in ``solve_grid`` and read only
from the ``QesSolution`` fields, and ``QesSolution.reject_reason`` alone
compares them with their gates.

Every formula reads a point through its ``models.Frame``, built once per
point. Every model is solved in units of omega, at g/omega: the stored
residuals and every gate are in units of omega, and omega enters only the
reported energy E = omega E' and delta^2 = omega^2 delta'^2. The 2-photon
model is solved through the two-mode formulas in its frame; pencil, roots
and every reported number stay in its own Bargmann variable.
"""
from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateAtomBranch, DroppedBranchWarning, ValidationError
from .models import Frame, ModelKind, ModelSpec, frame, validate
from .stencil import (
    _apply_terms,
    _delta_sq_sign,
    _factors,
    _require_degree,
    apply_first_factor,
)

# A branch with delta^2/omega^2 below this is the decoupled degenerate-atom case.
DEGENERATE_DELTA_SQ = 1e-9

# Residual gates in units of omega, compared only in QesSolution.reject_reason.
ODE_RESIDUAL_TOL = 1e-8
BAE_RESIDUAL_TOL = 1e-8
CONSTRAINT_RESIDUAL_TOL = 1e-8

_EIG_NEG_TOL = 1e-9


class Branch(str, Enum):
    NONTRIVIAL = "nontrivial"
    DEGENERATE_ATOM = "degenerate-atom"


@dataclass(eq=False)
class QesSolution:
    """One Juddian point: degree, energy, delta^2, monic polynomial, roots.

    ``spec`` carries delta = +sqrt(delta_squared); the spectrum is invariant
    under delta -> -delta (the lower component flips sign), so only the
    non-negative square root is reported. The residuals are computed once,
    in ``solve_grid``, and judged once, by ``reject_reason``:
    ``ode_residual`` is the max-norm of the image of ``coeffs`` under the
    full operator at this delta^2, relative to the largest coefficient;
    ``bae_residual`` and ``constraint_residual`` are the hand-written
    root-system and constraint residuals of ``roots``, and
    ``bae_residual`` is None where the root system is singular. They,
    their gates and ``unit_delta_squared`` (delta^2/omega^2) are in units of omega.
    """

    spec: ModelSpec
    degree: int
    energy: float
    delta_squared: float
    unit_delta_squared: float
    roots: np.ndarray
    coeffs: np.ndarray
    branch: Branch
    ode_residual: float
    bae_residual: float | None
    constraint_residual: float

    @property
    def delta(self) -> float:
        return self.spec.delta

    @property
    def reject_reason(self) -> str | None:
        """Why a record of this branch is rejected, or None: the
        degenerate-atom case, or any stored residual above its gate (a NaN
        fails). The root-system gate scales as max(1, max|z|)^3. A branch
        whose root equations are singular (``bae_residual`` is None) is
        judged by the other two, since the polynomial/ODE picture is not
        singular there."""
        if self.branch is Branch.DEGENERATE_ATOM:
            return "degenerate-atom"
        bae = self.bae_residual
        root_scale = max(1.0, float(np.max(np.abs(self.roots))))
        if (not self.ode_residual <= ODE_RESIDUAL_TOL
                or (bae is not None and not bae <= BAE_RESIDUAL_TOL * root_scale ** 3)
                or not (self.constraint_residual
                        <= CONSTRAINT_RESIDUAL_TOL * max(1.0, self.unit_delta_squared))):
            return "residual"
        return None


@dataclass(eq=False)
class BargmannWavefunction:
    """Two spinor components, each exp(-prefactor_rate*z) * polynomial(z)."""

    prefactor_rate: float
    plus_coeffs: np.ndarray
    minus_coeffs: np.ndarray


def _unit_energy(f: Frame, degree: int) -> float:
    """E/omega of the degree-M quasi-exact level, in the frame f."""
    if f.kind is ModelKind.RABI:
        return degree - f.g ** 2
    # The zero point 1 - energy_shift is subtracted in one rounding.
    return (2 * degree + 2 * f.kappa) * f.squeeze - (1.0 - f.energy_shift)


def qes_energy(spec: ModelSpec, degree: int) -> float:
    """Closed-form energy of the degree-M quasi-exact level.

    Where the energy leaves the double range it raises the ValidationError
    that ``solve_qes`` raises (the pencil's, where (g/omega)^2 overflows).
    """
    spec = validate(spec)
    _require_degree(degree)
    try:
        energy = spec.omega * _unit_energy(frame(spec), degree)
    except ArithmeticError:
        raise _precision_error(spec, degree, _PENCIL_NOT_FINITE) from None
    if not math.isfinite(energy):
        raise _precision_error(spec, degree, _OUT_OF_RANGE)
    return energy


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


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of each row of the (B, M+1) ``coeffs``, as a (B, M) complex
    array with every row sorted by (real, imag).

    One ``eigvals`` call solves the stack of 180-degree rotated companion
    matrices: ones on the superdiagonal and first column -c_{M-1..0}/c_M,
    which is ``polycompanion(c)[::-1, ::-1]``. Each matrix is solved on its
    own, so a row is bitwise the eigenvalues of its matrix alone; real
    roots of these real matrices come out exactly real, the others in exact
    conjugate pairs.
    """
    b, n = coeffs.shape[0], coeffs.shape[1] - 1
    stack = np.zeros((b, n, n))
    stack[:, np.arange(n - 1), np.arange(1, n)] = 1.0
    stack[:, :, 0] = -coeffs[:, -2::-1] / coeffs[:, -1:]
    return np.sort(np.linalg.eigvals(stack).astype(complex), axis=1)


def _polish_roots(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One Aberth-Ehrlich step on each branch's companion roots, in one
    array pass over all branches.

    ``coeffs`` is (B, M+1) monic, ``z`` the (B, M) companion roots of
    ``_companion_roots``: each row sorted and closed under conjugation.
    The step w_i = N_i / (1 - N_i sum_j 1/(z_i - z_j)), N_i = p(z_i)/p'(z_i),
    uses the compensated p(z), evaluated only at the roots with Im z >= 0:
    each lower root takes the conjugate of its partner's correction, so a
    conjugate pair is evaluated once and stays a pair, and real roots are
    updated in real arithmetic. The keep decision is one (B,) mask: a
    branch keeps its polished roots only when every |w_i| <= 1e-10
    max(1, |z_i|) and no upper root crosses the real axis. Each returned
    row is sorted by (real, imag), like the companion roots. At very large
    roots the evaluation overflows; a non-finite correction keeps the
    companion roots, so its floating-point warnings are silenced.
    """
    upper = z.imag >= 0  # one root of each conjugate pair, and the real roots
    # Rows are sorted and closed under conjugation: z[b, mirror[b, i]] == conj(z[b, i]).
    mirror = np.argsort(z.conj(), axis=1, kind="stable")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, dp = _horner(coeffs[np.nonzero(upper)[0]], z[upper][:, None])
        newton = (p / dp)[:, 0]
        w = np.zeros_like(z)
        w[upper] = newton / (1.0 - newton * _pairwise(z)[1].sum(axis=2)[upper])
        w = np.where(upper, w, np.take_along_axis(w, mirror, axis=1).conj())
        new = np.where(z.imag == 0, z.real - w.real, z - w)
        bound = _POLISH_ACCEPT * np.maximum(1.0, np.abs(z))
        keep = (np.all(np.abs(w) <= bound, axis=1)  # False for NaN
                & ~np.any((z.imag > 0) & (new.imag <= 0), axis=1))
    return np.where(keep[:, None], np.sort(new, axis=1), z)


def _root_residuals(kind: ModelKind, degree: int, d2: np.ndarray, z: np.ndarray,
                    frames: Sequence[Frame], point: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The root checks of B branches at once, over one (B, M, M) block.

    ``z`` is (B, M) complex, ``d2`` the B values of delta^2, ``frames``
    the ``Frame`` of each point and ``point`` the (B,) index of each
    branch's point in ``frames``, all in units of omega. Returns
    three (B,) arrays: ``singular``, true where two roots agree within
    1e-10 of the largest |z| or a Rabi root sits within 1e-12 of a pole
    z = +/- g of the root equations, so that the root-system residual
    means nothing; the root-system residual; and the constraint residual.

    Root system: equation i holds s_n(i), the sum of n / prod(z_i - z_j)
    over ordered (n-1)-tuples of distinct j != i, in the power sums
    p_k = sum_j a_ij^k: s2 = 2 p1, s3 = 3 (p1^2 - p2),
    s4 = 4 (p1^3 - 3 p1 p2 + 2 p3). Rabi denominators are cleared through
    (z_i - g)(z_i + g); the fourth-order models run in their two-mode
    frame. A correct solution stays below
    1e-8 * max(1, max|z_i|)^3. Constraint: |LHS| of the closed form tying
    delta^2 to the root sum; a consistent branch stays below
    1e-8 * max(1, delta^2). Both are written out, not composed from the
    factors, so a wrong factor term shows. Their coefficients are Python
    floats, computed once a point, each in the left-to-right association
    of the term it stands for, and gathered by branch.
    """
    diff, a = _pairwise(z)
    scale = np.maximum(np.max(np.abs(z), axis=1), 1e-300)
    singular = np.any(np.abs(diff) <= 1e-10 * scale[:, None, None], axis=(1, 2))
    m = degree
    d2 = d2[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is ModelKind.RABI:
            # g, the root system's coefficients of z^2 and z^0, then the
            # constraint's constant and root-sum terms; each (B, 1).
            g, r2, r0, k_const, k_sum = np.array(
                [(f.g, 2.0 * f.g, f.g * (1.0 - 2.0 * f.g * f.g), 2.0 * m * f.g * f.g, 2.0 * f.g)
                 for f in frames])[point].T[:, :, None]
            singular |= np.any(np.minimum(np.abs(z - g), np.abs(z + g)) <= 1e-12, axis=1)
            lhs = 2.0 * a.sum(axis=2) * (z - g) * (z + g)
            rhs = r2 * z ** 2 + (2 * m - 1) * z + r0
            bae = np.max(np.abs(lhs - rhs), axis=1)
            constraint = np.abs(d2 + k_const + k_sum * z.sum(axis=1, keepdims=True))[:, 0]
            return singular, bae, constraint

        def coefficients(g: float, x: float, sq: float, z_scale: float) -> tuple[float, ...]:
            return (z_scale,
                    g * g,
                    4.0 * g, sq - 1.0, g * (x + 0.5),
                    4.0 * (sq * sq - 3.0 * sq + 1.0),
                    4.0 * g * (3.0 * (x + 0.5) * sq - 3.0 * x - 1.0),
                    4.0 * g * g * x * (x + 0.5),
                    8.0 / g * sq * (1.0 - sq),
                    8.0 * (m * sq + (x + 0.5) * sq * (sq - 2.0) + x),
                    8.0 * g * x * ((x + 0.5) * sq - x),
                    z_scale ** 3, 4.0 * (1.0 - sq), m * (m + 2.0 * x - 1.0), 2.0 / g * sq)

        # w<n><k>: the coefficient of z^k in the factor of s_n (w3 scales
        # that of s3; n = 0: the terms with no power sum); then the
        # constraint's; each (B, 1).
        (z_scale, w42, w3, w32, w31, w22, w21, w20, w02, w01, w00,
         z_scale3, k_scale, k_const, k_sum) = np.array(
            [coefficients(f.g, f.kappa, f.squeeze, f.z_scale) for f in frames])[point].T[:, :, None]
        z, a = z / z_scale, a * z_scale[:, :, None]  # exact: z_scale is a power of two
        a2 = a * a
        p1, p2, p3 = a.sum(axis=2), a2.sum(axis=2), (a2 * a).sum(axis=2)
        s2 = 2.0 * p1
        s3 = 3.0 * (p1 * p1 - p2)
        s4 = 4.0 * (p1 * (p1 * p1 - 3.0 * p2) + 2.0 * p3)
        z2 = z ** 2
        val = (w42 * z2 * s4
               + w3 * (w32 * z2 + w31 * z) * s3
               + (w22 * z2 + w21 * z + w20) * s2
               + w02 * z2
               + w01 * z
               + w00)
        bae = np.max(np.abs(val), axis=1) / z_scale3[:, 0]
        constraint = np.abs(d2 + k_scale * (k_const + k_sum * z.sum(axis=1, keepdims=True)))[:, 0]
    return singular, bae, constraint


# A grid is solved in chunks of points, each within this budget of
# working memory by ``_point_bytes``, and each of at least one point.
_GRID_BUDGET = 16 * 2**20


def _point_bytes(degree: int) -> int:
    """Bytes charged to one point of a chunk: above the measured peak of a
    point's working arrays (the (B, M, M) complex root blocks, at most
    M + 1 branches a point, and about 2 kB of small arrays)."""
    return 64 * (degree + 1) ** 3 + 4096


def _chunk_points(degree: int) -> int:
    """Grid points per chunk at this degree: at least one."""
    return max(1, _GRID_BUDGET // _point_bytes(degree))


def _caller_stacklevel() -> int:
    """The warnings stacklevel of the nearest caller outside this module."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == __file__:
        level, frame = level + 1, frame.f_back
    return level


_PENCIL_NOT_FINITE = "pencil is not finite in double precision"
_OUT_OF_RANGE = "energy or delta^2 overflows or underflows in double precision"


def _precision_error(spec: ModelSpec, degree: int, what: str) -> ValidationError:
    return ValidationError(f"omega={spec.omega:g}, g={spec.g:g}: the degree-{degree} {what}")


def solve_qes(spec: ModelSpec, degree: int) -> list[QesSolution]:
    """All admissible delta^2 branches at this (model, g, degree): the
    one-point grid of ``solve_grid``."""
    return solve_grid([spec], degree)[0]


def solve_grid(specs: Sequence[ModelSpec], degree: int) -> list[list[QesSolution]]:
    """All admissible delta^2 branches at each point of a grid of one
    model, in one stacked pass: entry i is bitwise what point i gives on
    its own.

    Pencil eigenvalues mu, in units of omega^2, give candidates
    delta^2 = -delta_sq_sign * mu: the eigenvalues that ``eig`` reports as
    exactly real, with delta^2 >= -1e-9; delta^2 is clamped to +0.0 from
    below. Only a candidate that cannot be a real monic polynomial (zero
    leading coefficient or non-finite coefficients) is dropped, with one
    ``DroppedBranchWarning`` per point, in grid order; a point where no
    candidate is left gives an empty list. Branches with delta^2/omega^2
    < 1e-9 are tagged as the degenerate-atom case.
    Each point's results are sorted by delta^2 ascending.
    The pencil is built at the spec's own signed g; the symmetry
    g -> -g, z -> -z is a tested property of the operator, not a code
    path.

    The grid is solved in chunks of points (``_chunk_points``). Each point
    builds its frame once, then its energy and one factor pair (L1, L2)
    from it, as Python floats; each factor of one model has one term list,
    so a chunk builds every point's pencil, L2 L1 applied to the identity,
    in one ``_apply_terms`` call a factor and solves the (P, M+1, M+1)
    stack with one ``eig``. A candidate's eigenvector is real, also in the
    complex arrays ``eig`` returns for a stack with a complex eigenvalue,
    and is divided by its leading coefficient in real arithmetic. Applied
    in turn to the block of every kept coefficient vector, the factors
    give every branch's ODE residual: rows 0..M of that image are
    A v - mu v, so it is the one evaluation of the pencil equation. Each
    column enters it divided by a power of two, so coefficients near the
    overflow range still give a finite residual. The roots of all
    branches come from one stacked companion eigensolve
    (``_companion_roots``), polished by ``_polish_roots``; their
    singular-system mask, root-system and constraint residuals from one
    ``_root_residuals`` call, given each branch's frame. All three
    residuals are stored on the solutions. Parameters whose pencil is not
    finite in double precision (an overflowing g^2/omega^2, say), or whose
    energy or nonzero delta^2 candidates overflow or underflow when scaled
    by omega, raise ValidationError for the first such point, after the
    warnings of the points before it.
    """
    specs = [validate(spec) for spec in specs]
    _require_degree(degree)
    if len({spec.kind for spec in specs}) > 1:
        raise ValidationError("the points of a grid must be of one model")
    step = _chunk_points(degree)
    return [sols for lo in range(0, len(specs), step)
            for sols in _solve_chunk(specs[lo:lo + step], degree)]


def _solve_chunk(specs: list[ModelSpec], degree: int) -> list[list[QesSolution]]:
    """``solve_grid`` on one chunk of validated specs of one model."""
    n = degree + 1
    frames = [frame(spec) for spec in specs]
    unit_energies, pairs = [], []
    with np.errstate(all="ignore"):
        for f in frames:
            try:  # Python floats raise on overflow or 0/0 where numpy gives inf or nan
                energy = _unit_energy(f, degree)
                pairs.append(_factors(f, energy))
            except ArithmeticError:
                break
            unit_energies.append(energy)
        # Each factor of one model has one term list: the chunk's term j of
        # a factor holds each point's coefficient j as a per-point array.
        factors = [[(column[0][0], column[0][1], np.array([c for _, _, c in column]))
                    for column in zip(*terms)] for terms in zip(*pairs)]
        pencils = np.repeat(np.eye(n)[:, None], len(pairs), axis=1)
        for factor in factors:  # L1, then L2
            pencils = _apply_terms([(d, m, c[:, None]) for d, m, c in factor], pencils)
    pencils = pencils[:n].transpose(1, 0, 2)  # (P, M+1, M+1)
    finite = np.isfinite(pencils).all(axis=(1, 2))
    ok = len(pairs) if finite.all() else int(np.argmin(finite))

    sign = _delta_sq_sign(specs[0].kind)
    mu, vecs = np.linalg.eig(pencils[:ok])
    d2 = -sign * mu.real
    # dgeev returns a real eigenvalue with imaginary part 0 and a real eigenvector.
    candidate = (mu.imag == 0) & ~(d2 < -_EIG_NEG_TOL)
    point, col = np.nonzero(candidate)  # candidates in grid order, then pencil order
    d2 = d2[point, col]
    d2 = np.where(d2 > 0.0, d2, 0.0)  # clamped to +0.0, never -0.0
    omega = np.array([spec.omega for spec in specs[:ok]])[point]
    energies = [spec.omega * e for spec, e in zip(specs, unit_energies[:ok])]
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        delta_sq = omega * (omega * d2)
        out_of_range = ~np.isfinite(delta_sq) | ((delta_sq < np.finfo(float).tiny) & (d2 > 0.0))
        # Coefficients may legitimately span many orders of magnitude
        # (large-delta branches have large roots): the ODE residual judges.
        lead = vecs.real[point, -1:, col]
        vecs = vecs.real[point, :, col] / lead  # (C, M+1): one candidate a row
        unusable = {
            "leading coefficient zero": lead[:, 0] == 0,
            "coefficients not finite": ~np.isfinite(vecs).all(axis=1),
        }
    kept = np.ones(len(d2), dtype=bool)
    for hit in unusable.values():  # each drop counted under its first reason
        hit &= kept
        kept &= ~hit
    # Only points with a drop or out of range report, in grid order.
    report = set(point[out_of_range | ~kept].tolist())
    report.update(i for i, e in enumerate(energies) if not math.isfinite(e))
    for i in sorted(report):
        spec, here = specs[i], point == i
        if not math.isfinite(energies[i]) or out_of_range[here].any():
            raise _precision_error(spec, degree, _OUT_OF_RANGE)
        warnings.warn(
            f"dropped {np.sum(here & ~kept)} of {np.sum(here)} delta^2 candidates "
            f"at g={spec.g:g}, degree={degree}: "
            + ", ".join(f"{np.sum(hit & here)} {reason}"
                        for reason, hit in unusable.items() if np.any(hit & here)),
            DroppedBranchWarning, stacklevel=_caller_stacklevel())
    if ok < len(specs):
        raise _precision_error(specs[ok], degree, _PENCIL_NOT_FINITE)

    idx = np.flatnonzero(kept)
    idx = idx[np.lexsort((d2[idx], point[idx]))]
    point, d2, delta_sq, block = point[idx], d2[idx], delta_sq[idx], vecs[idx].T
    # Each column divided by an exact power of two near its largest |c|:
    # the image cannot overflow, and the ratio keeps its bits.
    scaled = np.ldexp(block, -np.frexp(np.max(np.abs(block), axis=0))[1])
    image = scaled
    for factor in factors:
        image = _apply_terms([(d, m, c[point]) for d, m, c in factor], image)
    image[:n] += sign * d2 * scaled
    ode = np.max(np.abs(image), axis=0) / np.max(np.abs(scaled), axis=0)
    roots = _polish_roots(block.T, _companion_roots(block.T))
    singular, bae, constraint = _root_residuals(specs[0].kind, degree, d2, roots,
                                                frames, point)
    solutions = [[] for _ in specs]
    for i, d2_b, d2_out, coeffs, r, res, b, c, sing in zip(
            point.tolist(), d2.tolist(), delta_sq.tolist(), block.T, roots,
            ode.tolist(), bae.tolist(), constraint.tolist(), singular.tolist()):
        branch = Branch.DEGENERATE_ATOM if d2_b < DEGENERATE_DELTA_SQ else Branch.NONTRIVIAL
        solutions[i].append(QesSolution(
            spec=specs[i].with_delta(math.sqrt(d2_out)),
            degree=degree,
            energy=energies[i],
            delta_squared=d2_out,
            unit_delta_squared=d2_b,
            roots=r if r.imag.any() else r.real,
            coeffs=coeffs,
            branch=branch,
            ode_residual=res,
            bae_residual=None if sing else b,
            constraint_residual=c,
        ))
    return solutions


def second_component(solution: QesSolution) -> BargmannWavefunction:
    """Lower spinor component via elimination: minus = -(1/delta) L1 plus.

    The exactly solvable factor never raises the degree, and at the
    quasi-exact energy the z^M coefficient of L1 plus vanishes (to
    rounding for the sector models), so minus keeps the M coefficients
    below it, however small: the Fock basis weighs z^n by about
    sqrt(n!) or n!, so they decide the physical state.
    """
    if solution.branch is Branch.DEGENERATE_ATOM:
        raise DegenerateAtomBranch(
            "delta = 0: lower component not defined by the elimination formula"
        )
    plus = solution.coeffs
    unit_delta = solution.delta / solution.spec.omega
    minus = -apply_first_factor(solution.spec, solution.energy, plus) / unit_delta
    return BargmannWavefunction(
        prefactor_rate=frame(solution.spec).prefactor_rate,
        plus_coeffs=plus,
        minus_coeffs=minus[:-1],
    )


def wavefunction_eval(wf: BargmannWavefunction, points) -> np.ndarray:
    """Sample both components on a grid: rows are exp(-rate*z) * poly(z)."""
    z = np.asarray(points, dtype=complex)
    pre = np.exp(-wf.prefactor_rate * z)
    return np.vstack([
        pre * npoly.polyval(z, wf.plus_coeffs),
        pre * npoly.polyval(z, wf.minus_coeffs),
    ])
