import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from qes_rabi import (
    Branch,
    DegenerateAtomBranch,
    DroppedBranchWarning,
    ModelKind,
    ModelSpec,
    ValidationError,
    frame,
    qes_energy,
    second_component,
    solve_grid,
    solve_qes,
    wavefunction_eval,
)
from qes_rabi.records import build_record
from qes_rabi.solver import _chunk_points, _companion_roots, _root_residuals
from qes_rabi.stencil import _apply_terms, _delta_sq_sign, _factors
from conftest import (
    MODEL_G_RANGES,
    bae_gate,
    bae_reference,
    exact_count,
    exact_roots,
    kus_matrix,
    make_spec,
    operator,
    pencil,
    rabi_spec,
    sector_reference,
    two_mode_spec,
    two_photon_spec,
)

ALL_KINDS = [ModelKind.RABI, ModelKind.TWO_PHOTON, ModelKind.TWO_MODE]


def nontrivial(solutions):
    return [s for s in solutions if s.branch is Branch.NONTRIVIAL]


def closed_form_degree_one(kind, omega, g, sector):
    """Constraint value delta^2 and the nontrivial root at degree 1."""
    if kind is ModelKind.RABI:
        return omega**2 - 4 * g * g, (2 * g * g - omega**2) / (2 * omega * g)
    x = float(sector)
    sq = frame(make_spec(kind, g, omega, sector)).squeeze
    d2 = 8 * (x + 0.5) * omega**2 * sq * sq - 8 * x * omega**2
    if kind is ModelKind.TWO_PHOTON:
        root = (4 * g * x * (1 - sq) - 2 * g * sq) / (omega * (1 - sq))
    else:
        root = g * (x - (x + 0.5) * sq) / (omega * (1 - sq))
    return d2, root


class TestEnergy:
    def test_rabi(self):
        assert qes_energy(rabi_spec(g=0.3), 1) == pytest.approx(0.91, abs=1e-15)

    def test_two_photon(self):
        assert qes_energy(two_photon_spec(g=0.3), 1) == pytest.approx(1.5, abs=1e-14)

    def test_two_mode(self):
        assert qes_energy(two_mode_spec(g=0.6), 1) == pytest.approx(1.4, abs=1e-14)


# Couplings at which g ** 2 is one ulp off the correctly rounded g * g.
ROUNDED_SQUARES = [(0.290533, 2), (0.623532, 1)]


class TestRabiEnergySquare:
    @pytest.mark.parametrize("g,degree", ROUNDED_SQUARES)
    def test_energy_is_degree_minus_g_times_g(self, g, degree):
        exact = Fraction(g) ** 2
        assert abs(Fraction(g * g) - exact) < abs(Fraction(g ** 2) - exact)
        want = degree - g * g
        assert qes_energy(rabi_spec(g=g), degree) == want
        sols = solve_qes(rabi_spec(g=g), degree)
        assert sols and all(sol.energy == want for sol in sols)


class TestPrecisionRefusals:
    # qes_energy refuses, with the solve's ValidationError, the points
    # whose energy the solve cannot form in double precision, where it
    # raised a bare OverflowError; the solve refuses a pencil that is not
    # finite, without a floating-point warning.
    @pytest.mark.parametrize("spec,degree", [
        (ModelSpec("rabi", 1.0, 1e200), 1),  # (g/omega)^2 overflows
        (ModelSpec("rabi", 1.0, 1e200), 2),
        (ModelSpec("rabi", 1.7e308, 0.3 * 1.7e308), 2),  # omega * E/omega overflows
    ])
    def test_energy(self, spec, degree):
        with pytest.raises(ValidationError) as want:
            solve_qes(spec, degree)
        with pytest.raises(ValidationError) as got:
            qes_energy(spec, degree)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("spec,degree", [
        (ModelSpec("rabi", 1.0, 1e200), 1),
        (ModelSpec("rabi", 1.0, 1e200), 2),
        (ModelSpec("rabi", 1.0, 1e150), 2),  # products of (g/omega)^2 overflow
    ])
    def test_pencil(self, spec, degree):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as got:
                solve_qes(spec, degree)
        assert "pencil is not finite in double precision" in str(got.value)


class TestPencil:
    def test_rabi_degree_one(self):
        a = pencil(rabi_spec(g=0.3), 1)
        assert a.shape == (2, 2)
        assert a[1, 0] == pytest.approx(0.6, abs=1e-15)
        # eigenvalues of -sign * A are the delta^2 candidates {0, w^2-4g^2}
        mu = np.sort(np.linalg.eigvals(a).real)
        assert mu == pytest.approx([0.0, 0.64], abs=1e-12)

    def test_two_photon_degree_one_contains_example_value(self):
        a = pencil(two_photon_spec(g=0.3), 1)
        mu = np.sort(np.linalg.eigvals(-a).real)
        assert min(abs(mu - 1.84)) <= 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bandwidth(self, kind):
        spec = make_spec(kind, 0.3)
        a = pencil(spec, 6)
        rows, cols = np.nonzero(a)
        assert set(rows - cols) <= {+1, 0, -1, -2}


class TestSolveExamples:
    def test_rabi_degree_one_branches(self):
        sols = solve_qes(rabi_spec(g=0.3), 1)
        assert [s.branch for s in sols] == [Branch.DEGENERATE_ATOM, Branch.NONTRIVIAL]
        degen, juddian = sols
        assert degen.delta_squared == pytest.approx(0.0, abs=1e-12)
        assert degen.roots[0] == pytest.approx(-0.3, abs=1e-12)
        assert juddian.delta_squared == pytest.approx(0.64, abs=1e-12)
        assert juddian.roots[0] == pytest.approx(-41.0 / 30.0, abs=1e-12)
        assert juddian.energy == pytest.approx(0.91, abs=1e-15)
        assert juddian.spec.delta == pytest.approx(0.8, abs=1e-12)

    def test_two_photon_degree_one(self):
        sols = nontrivial(solve_qes(two_photon_spec(g=0.3), 1))
        assert len(sols) == 1
        assert sols[0].delta_squared == pytest.approx(1.84, abs=1e-12)
        assert sols[0].roots[0] == pytest.approx(-2.1, abs=1e-12)

    def test_two_mode_degree_one(self):
        sols = nontrivial(solve_qes(two_mode_spec(g=0.6), 1))
        assert len(sols) == 1
        assert sols[0].delta_squared == pytest.approx(1.12, abs=1e-12)
        assert sols[0].roots[0] == pytest.approx(-0.9, abs=1e-12)

    def test_sorted_by_delta_squared(self):
        sols = solve_qes(rabi_spec(g=0.2), 4)
        d2 = [s.delta_squared for s in sols]
        assert d2 == sorted(d2)

    def test_monic_and_root_consistency(self):
        for sol in solve_qes(rabi_spec(g=0.25), 5):
            assert sol.coeffs[-1] == pytest.approx(1.0, abs=0)
            rebuilt = npoly.polyfromroots(sol.roots)
            assert np.max(np.abs(rebuilt - sol.coeffs)) <= 1e-9

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_stencil_per_solve(self, kind, monkeypatch):
        import qes_rabi.solver as solver

        real, built = solver._factors, []
        monkeypatch.setattr(solver, "_factors",
                            lambda *args: built.append(real(*args)) or built[-1])
        spec = make_spec(kind, 0.6 if kind is ModelKind.TWO_MODE else 0.3)
        sols = solve_qes(spec, 3)
        records = [build_record(sol) for sol in sols]
        # One factor pair per point, at its quasi-exact energy: the
        # records reuse the solve's.
        assert built == [_factors(frame(spec), qes_energy(spec, 3) / spec.omega)]
        # The solve read the right delta^2 sign: every delta^2 >= 0 solves L.
        assert all(r["residuals"]["ode"] <= 1e-8 for r in records)


class TestClosedFormAgreement:
    @pytest.mark.parametrize("kind,sector,gmax", [
        (ModelKind.RABI, None, 0.49),
        (ModelKind.TWO_PHOTON, Fraction(1, 4), 0.48),
        (ModelKind.TWO_PHOTON, Fraction(3, 4), 0.48),
        (ModelKind.TWO_MODE, Fraction(1, 2), 0.95),
        (ModelKind.TWO_MODE, Fraction(1), 0.95),
        (ModelKind.TWO_MODE, Fraction(3, 2), 0.95),
    ])
    def test_degree_one_branch_matches_closed_forms(self, kind, sector, gmax):
        # Where the closed-form delta^2 is positive the solver must return
        # exactly that branch and root; where it is negative, no
        # nontrivial branch may exist.
        for g in np.linspace(0.02, gmax, 50):
            d2_want, root_want = closed_form_degree_one(kind, 1.0, g, sector)
            sols = nontrivial(solve_qes(make_spec(kind, float(g), sector=sector), 1))
            if d2_want > 1e-6:
                assert len(sols) == 1
                assert abs(sols[0].delta_squared - d2_want) <= 1e-10
                assert abs(sols[0].roots[0] - root_want) <= 1e-10
            elif d2_want < -1e-6:
                assert sols == []


class TestKusMatrix:
    @pytest.mark.parametrize("omega", [1.0, 1.3])
    @pytest.mark.parametrize("g", [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.7, -0.3])
    def test_rabi_delta_squared_are_kus_eigenvalues(self, omega, g):
        # An independent route to every nontrivial Rabi delta^2, up to
        # M = 30, where nothing else pins the pencil. Matched to 1e-12 of
        # the largest delta^2: the pencil is not symmetric, so the smallest
        # branches carry more relative error than the symmetric reference.
        import scipy.linalg

        for degree in list(range(1, 13)) + [16, 20, 25, 30]:
            want = scipy.linalg.eigh_tridiagonal(*kus_matrix(omega, g, degree),
                                                 eigvals_only=True)
            want = want[want >= 1e-9]  # below 1e-9 solve_qes tags the degenerate atom
            got = np.array([s.delta_squared for s in nontrivial(
                solve_qes(rabi_spec(g=g, omega=omega), degree))])
            assert len(got) == len(want)
            if len(got):
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(want))


# (degree, g, the number of positive delta^2) of Rabi points at omega = 1.
EXACT_COUNTS = [(30, 0.25, 28), (60, 0.25, 58), (100, 0.7, 91), (150, 0.7, 139),
                (200, 0.5, 191), (300, 0.4, 291)]


class TestExactCount:
    @pytest.mark.parametrize("degree,g,count", EXACT_COUNTS)
    def test_pinned_counts(self, degree, g, count):
        # The rational Sturm count of Kus's matrix. At M = 200, g = 0.5 its
        # first pivot, 1 - 4 g^2, is exactly 0, the case its zero rule reads.
        import scipy.linalg

        assert exact_count(1.0, g, degree) == count
        levels = scipy.linalg.eigh_tridiagonal(*kus_matrix(1.0, g, degree), eigvals_only=True)
        assert np.sum(levels > 0) == count

    @pytest.mark.parametrize("degree,g,count", [
        *EXACT_COUNTS[:3],
        pytest.param(*EXACT_COUNTS[3], marks=pytest.mark.xfail(
            strict=False, reason="Rabi M=150, g=0.7: solve_qes returns 140 nontrivial "
                                 "branches against the exact 139; the dense eig of the "
                                 "order-151 pencil misses some and adds spurious ones")),
    ])
    def test_solve_returns_exact_count(self, degree, g, count):
        assert exact_count(1.0, g, degree) == count
        assert len(nontrivial(solve_qes(rabi_spec(g=g), degree))) == count


# (kind, sector, g, degree): both signs of g in every sector, M <= 20,
# small couplings among them.
SECTOR_REFERENCE_CASES = [
    # The two-photon branch delta^2 = 0.0234, with 1e-10 relative error
    # when L was composed term by term before the solve.
    (ModelKind.TWO_PHOTON, Fraction(3, 4), 0.230657, 5),
    (ModelKind.TWO_PHOTON, Fraction(3, 4), -0.08, 16),
    (ModelKind.TWO_PHOTON, Fraction(3, 4), 0.4275, 8),
    (ModelKind.TWO_PHOTON, Fraction(1, 4), 0.27, 20),
    (ModelKind.TWO_PHOTON, Fraction(1, 4), -0.03, 12),
    (ModelKind.TWO_MODE, Fraction(1, 2), 0.09435, 5),
    (ModelKind.TWO_MODE, Fraction(1, 2), -0.54, 20),
    (ModelKind.TWO_MODE, Fraction(1), 0.54, 12),
    (ModelKind.TWO_MODE, Fraction(1), -0.08, 8),
    (ModelKind.TWO_MODE, Fraction(3, 2), -0.855, 8),
    (ModelKind.TWO_MODE, Fraction(3, 2), 0.4, 16),
]


class TestSectorReference:
    @pytest.mark.parametrize("kind,sector,g,degree", SECTOR_REFERENCE_CASES)
    def test_delta_squared_match_50_digit_pencil(self, kind, sector, g, degree):
        # Every nontrivial delta^2, against the exact eigenvalues of the
        # solve's own double-precision factor tables.
        pytest.importorskip("mpmath")
        want = [d2 for d2 in sector_reference(make_spec(kind, g, sector=sector), degree)
                if d2 >= 1e-9]  # below 1e-9 solve_qes tags the degenerate atom
        got = [s.unit_delta_squared
               for s in nontrivial(solve_qes(make_spec(kind, g, sector=sector), degree))]
        assert len(got) == len(want) > 0
        assert max(abs(a - b) / b for a, b in zip(got, want)) <= 2e-11


class TestResiduals:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("degree", range(1, 9))
    def test_cross_verification(self, kind, degree):
        g = {ModelKind.RABI: 0.3, ModelKind.TWO_PHOTON: 0.22,
             ModelKind.TWO_MODE: 0.55}[kind]
        sols = nontrivial(solve_qes(make_spec(kind, g), degree))
        assert sols, "expected at least one Juddian branch"
        for sol in sols:
            assert sol.ode_residual <= 1e-8
            assert sol.bae_residual is not None  # None: a singular root system
            assert sol.bae_residual <= bae_gate(sol)
            assert sol.constraint_residual <= 1e-8 * max(1.0, sol.delta_squared)

    @pytest.mark.parametrize("kind, sector", [
        (ModelKind.RABI, None),
        (ModelKind.TWO_PHOTON, Fraction(1, 4)),
        (ModelKind.TWO_PHOTON, Fraction(3, 4)),
        (ModelKind.TWO_MODE, Fraction(1, 2)),
        (ModelKind.TWO_MODE, Fraction(3, 2)),
    ])
    @pytest.mark.parametrize("degree", range(1, 11))
    def test_bae_power_sums_match_tuple_sums(self, kind, sector, degree):
        # The same equations, rounded differently: they must agree to
        # 1e-6 of the gate (the worst case seen here is 6.4e-8).
        rng = np.random.default_rng(degree)
        lo, hi = MODEL_G_RANGES[kind]
        for _ in range(3):
            omega = rng.uniform(0.5, 2.0)
            spec = make_spec(kind, rng.uniform(lo, hi) * omega, omega, sector)
            for sol in nontrivial(solve_qes(spec, degree)):
                assert sol.bae_residual is not None
                assert abs(sol.bae_residual - bae_reference(sol)) <= 1e-6 * bae_gate(sol)

    def test_rabi_degree_one_bae_closed_form(self):
        sol = nontrivial(solve_qes(rabi_spec(g=0.3), 1))[0]
        z1 = sol.roots[0].real
        direct = abs(2 * 0.3 * z1**2 + z1 + 0.3 * (1 - 2 * 0.09))
        assert sol.bae_residual == pytest.approx(direct, abs=1e-12)
        assert direct <= 1e-12

    def test_degenerate_branch_root_equations_singular(self):
        # degree 1: the degenerate-atom root -g/omega sits exactly on a
        # pole of the cleared root equation; moved off it, it does not.
        degen = solve_qes(rabi_spec(g=0.3), 1)[0]
        z = np.array([degen.roots, degen.roots + 1e-6], dtype=complex)
        singular, _, _ = _root_residuals(ModelKind.RABI, 1, np.zeros(2), z,
                                         [frame(degen.spec)], np.zeros(2, int))
        assert singular.tolist() == [True, False]

    def test_coincident_roots_rejected(self):
        sol = nontrivial(solve_qes(two_mode_spec(g=0.5), 2))[0]
        z = np.array([sol.roots, [sol.roots[1], sol.roots[1]]], dtype=complex)
        singular, _, _ = _root_residuals(ModelKind.TWO_MODE, 2, np.full(2, sol.delta_squared), z,
                                         [frame(sol.spec)], np.zeros(2, int))
        assert singular.tolist() == [False, True]

    def test_perturbed_root_detected(self):
        sol = nontrivial(solve_qes(rabi_spec(g=0.3), 1))[0]
        z = np.asarray(sol.roots + 0.01, dtype=complex)[None]
        _, bae, _ = _root_residuals(ModelKind.RABI, 1, np.array([sol.delta_squared]), z,
                                    [frame(sol.spec)], np.zeros(1, int))
        assert bae[0] > 1e-4

    def test_constraint_linear_in_delta_squared(self):
        sol = nontrivial(solve_qes(two_photon_spec(g=0.3), 1))[0]
        z = np.asarray(sol.roots, dtype=complex)[None]
        _, _, constraint = _root_residuals(ModelKind.TWO_PHOTON, 1,
                                           np.array([sol.delta_squared + 0.1]), z,
                                           [frame(sol.spec)], np.zeros(1, int))
        assert constraint[0] == pytest.approx(0.1, abs=1e-12)

    def test_root_system_at_huge_omega_does_not_raise(self):
        # Past |omega| ~ 5e102 the two-mode root system's omega^3 overflows;
        # the residual is then inf, like any other overflow in the solve.
        sols = solve_qes(two_mode_spec(g=0.5e110, omega=1e110), 2)
        assert sols and all(math.isfinite(s.delta_squared) for s in sols)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_root_antisymmetry_identities(self, kind):
        g = {ModelKind.RABI: 0.28, ModelKind.TWO_PHOTON: 0.2,
             ModelKind.TWO_MODE: 0.5}[kind]
        for degree in (2, 4, 6):
            for sol in nontrivial(solve_qes(make_spec(kind, g), degree)):
                z = sol.roots
                m = len(z)
                s1 = sum(1.0 / (z[i] - z[j]) for i in range(m)
                         for j in range(m) if j != i)
                s2 = sum(z[i] / (z[i] - z[j]) for i in range(m)
                         for j in range(m) if j != i)
                assert abs(s1) <= 1e-9
                assert abs(s2 - m * (m - 1) / 2.0) <= 1e-9

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_conjugation_closure(self, kind):
        g = {ModelKind.RABI: 0.35, ModelKind.TWO_PHOTON: 0.25,
             ModelKind.TWO_MODE: 0.6}[kind]
        for degree in (3, 5):
            for sol in solve_qes(make_spec(kind, g), degree):
                assert not np.iscomplexobj(sol.coeffs)
                z = sol.roots
                scale = max(1.0, np.max(np.abs(z)))
                for zi in z[np.abs(z.imag) > 1e-10 * scale]:
                    assert np.min(np.abs(z - np.conj(zi))) <= 1e-9 * scale
                # The companion eigenvalues of a real matrix: pairs bitwise
                # conjugate, real roots with imag exactly 0.
                assert np.array_equal(np.sort_complex(z[z.imag > 0]),
                                      np.sort_complex(np.conj(z[z.imag < 0])))
                assert np.all(z.imag[np.abs(z.imag) <= 1e-10 * scale] == 0)


# (kind, g, degree, branches): the indices, in ascending delta^2, of the
# nontrivial branches a case checks; None checks every one.
ROOT_ACCURACY_CASES = [
    (ModelKind.RABI, 0.25, 5, None),
    (ModelKind.TWO_PHOTON, 0.22, 6, None),
    (ModelKind.TWO_MODE, 0.55, 6, None),
    (ModelKind.RABI, 0.25, 12, (0, 10)),
    (ModelKind.RABI, 0.25, 20, (0, 18)),
    (ModelKind.TWO_MODE, 0.55, 10, (0, 5)),
]

# A stored root z lies within ROOT_FACTOR |r - x| + ROOT_ULPS ulp of the
# exact root x, where r is the correctly rounded root of the returned
# coefficients and an ulp is eps |x|. A scan of 1230 roots, every
# nontrivial branch of the cases above and of Rabi g = 0.1 and 0.4,
# two-photon 1/4 g = 0.3 and two-mode 1/2 g = 0.3 and 0.8 at M = 3, 7 and
# 10, needed 148 ulp beside a factor of 3 (two-photon g = 0.3, M = 7: 220
# ulp where r is 24 off), and 9 ulp on the cases above. A factor of 2
# needed 19846 ulp, more than the 4504 ulp of a 1e-12 relative error.
ROOT_FACTOR, ROOT_ULPS = 3.0, 256.0


def matched(roots, ref):
    """``roots`` in the order of ``ref``, each the nearest to its reference
    root; the match must be one to one."""
    nearest = [int(np.argmin(np.abs(roots - r))) for r in ref]
    assert sorted(nearest) == list(range(len(ref)))
    return roots[nearest]


class TestRootAccuracy:
    @pytest.mark.parametrize("kind,g,degree,branches", ROOT_ACCURACY_CASES)
    def test_roots_match_high_precision_roots(self, kind, g, degree, branches):
        # The stored roots match one to one the roots of the same double
        # coefficients found in 50 digits (r), and the roots of the exact
        # polynomial of the branch (x, ``conftest.exact_roots``). The
        # coefficients' own error dominates both: each stored root is as
        # close to x as its r is, up to ROOT_FACTOR and ROOT_ULPS.
        mpmath = pytest.importorskip("mpmath")
        sols = nontrivial(solve_qes(make_spec(kind, g), degree))
        for sol in sols if branches is None else [sols[i] for i in branches]:
            with mpmath.workdps(50):
                ref = np.array([complex(r) for r in mpmath.polyroots(
                    [mpmath.mpf(float(c)) for c in sol.coeffs[::-1]],
                    maxsteps=200, extraprec=200)])
            got, exact = matched(sol.roots, ref), matched(exact_roots(sol), ref)
            bound = (ROOT_FACTOR * np.abs(ref - exact)
                     + ROOT_ULPS * np.finfo(float).eps * np.abs(exact))
            assert np.all(np.abs(got - exact) <= bound)


def rotated_companion(coeffs):
    return npoly.polycompanion(coeffs)[::-1, ::-1]


# Points with several branches, some with complex roots and some without.
BATCH_CASES = [
    (ModelKind.RABI, 0.2, None, 2),
    (ModelKind.TWO_PHOTON, 0.22, Fraction(1, 4), 12),
    (ModelKind.TWO_PHOTON, 0.3, Fraction(3, 4), 20),
    (ModelKind.TWO_MODE, 0.55, Fraction(1, 2), 12),
    (ModelKind.TWO_MODE, 0.8, Fraction(3, 2), 8),
]


class TestBatchedRoots:
    @pytest.mark.parametrize("kind,g,sector,degree", BATCH_CASES)
    def test_stack_equals_single_eigensolves(self, kind, g, sector, degree):
        # Bit for bit: each branch's companion roots are those of its own
        # rotated companion matrix, a branch is real exactly when that
        # single eigensolve is, and the stored roots are its sorted
        # eigenvalues: nothing refines them after the eigensolve.
        sols = solve_qes(make_spec(kind, g, sector=sector), degree)
        stacked = _companion_roots(np.array([s.coeffs for s in sols]))
        kinds = set()
        for sol, row in zip(sols, stacked):
            single = np.sort(np.linalg.eigvals(rotated_companion(sol.coeffs)).astype(complex))
            assert np.array_equal(row, single)
            want = single if single.imag.any() else single.real
            assert sol.roots.dtype == want.dtype
            assert np.array_equal(sol.roots, want)
            kinds.add(np.iscomplexobj(want))
        assert kinds == {False, True}

    def test_degenerate_atom_root_system_stored_as_none(self):
        degen = solve_qes(rabi_spec(g=0.3), 1)[0]
        assert degen.bae_residual is None
        assert build_record(degen)["residuals"]["bae"] is None

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_eigvals_call_per_point(self, kind, monkeypatch, capsys):
        from qes_rabi import cli

        real, calls = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(a.shape) or real(a))
        sols = solve_qes(make_spec(kind, 0.6 if kind is ModelKind.TWO_MODE else 0.3), 8)
        assert calls == [(len(sols), 8, 8)]
        # A sweep solves its whole grid in one pass: one pencil eigensolve
        # of the (10, 9, 9) stack and one companion eigensolve.
        real_eig, pencils = np.linalg.eig, []
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: pencils.append(a.shape) or real_eig(a))
        calls.clear()
        model = {ModelKind.RABI: ["rabi"], ModelKind.TWO_PHOTON: ["two-photon", "--sector", "1/4"],
                 ModelKind.TWO_MODE: ["two-mode", "--sector", "1/2"]}[kind]
        assert cli.main(["sweep", "--model", *model, "--degree", "8",
                         "--g-range", "0.1:0.4:10", "--include-rejected"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert pencils == [(10, 9, 9)]
        assert calls == [(len(rows), 8, 8)]

    def test_records_evaluate_no_residual(self, monkeypatch):
        import qes_rabi.solver as solver

        sols = solve_qes(rabi_spec(g=0.25), 20)

        def refuse(*args):
            raise AssertionError("residual evaluated outside solve_qes")

        monkeypatch.setattr(solver, "_root_residuals", refuse)
        monkeypatch.setattr(solver, "_apply_terms", refuse)
        records = [build_record(sol) for sol in sols]
        assert [r["residuals"]["constraint"] for r in records] == [
            s.constraint_residual for s in sols]

    @pytest.mark.parametrize("field", ["ode_residual", "bae_residual",
                                       "constraint_residual"])
    def test_nan_residual_rejects(self, field):
        sol = nontrivial(solve_qes(rabi_spec(g=0.3), 3))[0]
        assert build_record(sol)["reject_reason"] is None
        bad = replace(sol, **{field: math.nan})
        assert build_record(bad)["reject_reason"] == "residual"

    @pytest.mark.parametrize("bae, verdict", [
        (1e305, "residual"),  # bae / max|z|^3 = 1e-4
        (math.inf, "residual"),
        (1e300, None),  # 1e-9
    ])
    def test_root_gate_holds_past_cube_range(self, bae, verdict):
        # max|z|^3 = 1e309 is not a double: the gate compares bae / max|z|^3.
        sol = nontrivial(solve_qes(rabi_spec(g=0.3), 3))[0]
        assert sol.reject_reason is None
        huge = replace(sol, roots=np.array([1e103, 2.0]), bae_residual=bae)
        assert huge.reject_reason == verdict

    def test_root_pass_is_silent_at_huge_roots(self):
        # At |z| ~ 1e160 the companion eigensolve still finds the roots,
        # and the root checks overflow to inf without a warning.
        coeffs = npoly.polyfromroots([1e160, 1.0, 2.0])[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = _companion_roots(coeffs)
            for spec in (rabi_spec(g=0.3), two_mode_spec(g=0.5)):
                _root_residuals(spec.kind, 3, np.ones(1), z, [frame(spec)], np.zeros(1, int))
        assert np.max(np.abs(z)) == pytest.approx(1e160, rel=1e-12)

    def test_unusable_candidates_dropped_with_one_warning(self):
        # At M = 70, g = 0.001 some pencil eigenvectors have a zero or
        # underflowing leading coefficient, so their coefficients are not
        # finite after division by it: they are dropped, the point keeps
        # its other branches.
        with pytest.warns(DroppedBranchWarning) as caught:
            sols = solve_qes(rabi_spec(g=0.001), 70)
        assert len(caught) == 1
        match = re.fullmatch(r"dropped (\d+) of 71 delta\^2 candidates at g=0.001, "
                             r"degree=70: (\d+) coefficients not finite", str(caught[0].message))
        assert match and match.group(1) == match.group(2)
        assert len(sols) == 71 - int(match.group(1))
        for sol in sols:
            assert np.all(np.isfinite(sol.coeffs)) and sol.coeffs[-1] == 1.0

    def test_structural_drops_counted_once_in_fixed_order(self, monkeypatch):
        # Three candidates that cannot be real monic polynomials: one holds
        # a NaN, one has a zero leading coefficient, and one has both. The
        # one finiteness test after division by the leading coefficient
        # drops each, and each is counted once.
        spec, real_eig = rabi_spec(g=0.3), np.linalg.eig
        mu, vecs = real_eig(pencil(spec, 6))
        candidates = np.flatnonzero((np.abs(mu.imag) <= 1e-9) & (mu.real >= -1e-9))
        vecs = vecs.astype(complex)
        b, c, d = candidates[:3]
        vecs[0, b] = np.nan
        vecs[-1, c] = 0.0
        vecs[-1, d], vecs[0, d] = 0.0, np.nan
        monkeypatch.setattr(np.linalg, "eig", lambda m: (mu[None], vecs[None]))
        with pytest.warns(DroppedBranchWarning) as caught:
            sols = solve_qes(spec, 6)
        assert len(caught) == 1
        assert str(caught[0].message) == (
            f"dropped 3 of {len(candidates)} delta^2 candidates at g=0.3, degree=6: "
            "3 coefficients not finite")
        assert [s.delta_squared for s in sols] == sorted(
            max(m, 0.0) for m in mu.real[candidates[3:]])

    def test_pencil_misfit_is_kept_and_rejected_by_its_residual(self, monkeypatch):
        # A real monic candidate that misses the pencil equation
        # A c = delta^2 c: the solve keeps it without a warning, and its own
        # ODE residual rejects its record.
        spec, real_eig = rabi_spec(g=0.3), np.linalg.eig
        a = pencil(spec, 6)
        mu, vecs = real_eig(a)
        misfit = np.flatnonzero((np.abs(mu.imag) <= 1e-9) & (mu.real >= 1e-9))[0]
        vecs = vecs.copy()
        vecs[0, misfit] *= 1.001
        monkeypatch.setattr(np.linalg, "eig", lambda m: (mu[None], vecs[None]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sols = solve_qes(spec, 6)
        misfits = 0
        for s in sols:
            v = s.coeffs
            res = (np.max(np.abs(a @ v - s.delta_squared * v))
                   / (max(1.0, np.max(np.abs(a))) * np.max(np.abs(v))))
            if not res <= 1e-8:
                misfits += 1
                assert not s.ode_residual <= 1e-8
                assert s.reject_reason == "residual"
        assert misfits >= 1

    def test_point_without_candidates_is_empty(self, monkeypatch):
        # Only complex pencil eigenvalues: no candidate, no drop warning.
        spec = rabi_spec(g=0.3)
        mu, vecs = np.linalg.eig(pencil(spec, 6))
        monkeypatch.setattr(np.linalg, "eig", lambda m: (mu.real[None] + 1j, vecs[None]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_qes(spec, 6) == []

    def test_solve_ignores_delta_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sols = solve_qes(rabi_spec(g=0.3, delta=0.0), 4)
        assert [s.delta_squared for s in sols] == [
            s.delta_squared for s in solve_qes(rabi_spec(g=0.3), 4)]

    def test_records_copy_the_solution_reject_reason(self):
        sols = solve_qes(rabi_spec(g=0.25), 30)
        assert {s.reject_reason for s in sols} == {None, "residual", "degenerate-atom"}
        for s in sols:
            assert build_record(s)["reject_reason"] == s.reject_reason

    @pytest.mark.parametrize("degree,g,floor", [(60, 0.25, 11), (40, 0.25, 14),
                                                (30, 0.1, 18)])
    def test_rabi_high_degree_acceptance_floor(self, degree, g, floor):
        # The rotated companion roots pass the unchanged gates on more
        # branches (4, 12 and 15 accepted with the unrotated companion).
        records = [build_record(s) for s in nontrivial(solve_qes(rabi_spec(g=g), degree))]
        assert sum(r["reject_reason"] is None for r in records) >= floor


class TestSecondComponent:
    def test_rabi_degree_one_lower_component(self):
        sol = nontrivial(solve_qes(rabi_spec(g=0.3), 1))[0]
        wf = second_component(sol)
        # z-coefficient of L1 phi cancels at the quasi-exact energy, so
        # the lower component is the constant -(g + (g^2/w + E) z1)/delta.
        assert len(wf.minus_coeffs) == 1
        assert wf.minus_coeffs[0] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert wf.prefactor_rate == pytest.approx(0.3, abs=1e-15)

    def test_degenerate_branch_refused(self):
        degen = solve_qes(rabi_spec(g=0.3), 1)[0]
        with pytest.raises(DegenerateAtomBranch):
            second_component(degen)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_subspace_closure_and_coupled_equations(self, kind, degree):
        g = {ModelKind.RABI: 0.3, ModelKind.TWO_PHOTON: 0.2,
             ModelKind.TWO_MODE: 0.5}[kind]
        for sol in nontrivial(solve_qes(make_spec(kind, g), degree)):
            wf = second_component(sol)
            assert len(wf.minus_coeffs) == degree
            # L1 plus = -delta minus, and L2 minus = -delta plus (Rabi) or
            # +delta plus (sector models), in units of omega.
            first, second = _factors(frame(sol.spec), sol.energy / sol.spec.omega)
            d = sol.delta / sol.spec.omega
            r1 = np.max(np.abs(npoly.polyadd(_apply_terms(first, wf.plus_coeffs),
                                             d * wf.minus_coeffs)))
            r2 = np.max(np.abs(npoly.polyadd(_apply_terms(second, wf.minus_coeffs),
                                             -_delta_sq_sign(kind) * d * wf.plus_coeffs)))
            scale = max(1.0, float(np.max(np.abs(sol.coeffs))))
            assert r1 <= 1e-8 * scale
            assert r2 <= 1e-8 * scale


class TestWavefunction:
    def test_vanishes_at_roots(self):
        sol = nontrivial(solve_qes(two_photon_spec(g=0.3), 1))[0]
        wf = second_component(sol)
        table = wavefunction_eval(wf, sol.roots.real)
        assert np.max(np.abs(table[0])) <= 1e-12

    def test_value_at_origin_is_product_of_negated_roots(self):
        sol = nontrivial(solve_qes(rabi_spec(g=0.25), 3))[0]
        wf = second_component(sol)
        table = wavefunction_eval(wf, [0.0])
        assert table[0, 0] == pytest.approx(np.prod(-sol.roots), rel=1e-12)

    def test_rabi_degree_one_sample(self):
        sol = nontrivial(solve_qes(rabi_spec(g=0.3), 1))[0]
        wf = second_component(sol)
        table = wavefunction_eval(wf, [1.0])
        want = math.exp(-0.3) * (1 + 41.0 / 30.0)
        assert table[0, 0].real == pytest.approx(want, rel=1e-12)
        assert table[0, 0].imag == 0.0


class TestSignSymmetry:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_negative_coupling_maps_to_mirrored_roots(self, kind):
        # The pencil is built at the signed g, so this checks the operator
        # itself at g < 0. The first cases keep an absolute delta^2 bound;
        # the higher degrees and omega = 1.3 scale it with delta^2.
        g = {ModelKind.RABI: 0.3, ModelKind.TWO_PHOTON: 0.24,
             ModelKind.TWO_MODE: 0.55}[kind]
        cases = [(1, 1.0, False), (3, 1.0, False), (6, 1.0, True), (12, 1.0, True),
                 (1, 1.3, True), (3, 1.3, True), (6, 1.3, True), (12, 1.3, True)]
        for degree, omega, relative in cases:
            plus = solve_qes(make_spec(kind, g, omega=omega), degree)
            minus = solve_qes(make_spec(kind, -g, omega=omega), degree)
            assert len(plus) == len(minus)
            for a, b in zip(plus, minus):
                d2_scale = max(1.0, a.delta_squared) if relative else 1.0
                assert abs(b.delta_squared - a.delta_squared) <= 1e-12 * d2_scale
                assert b.energy == pytest.approx(a.energy, abs=1e-14)
                # Coefficients mirror with alternating signs; root positions
                # themselves are ill-conditioned at repeated roots, so the
                # comparison is made on the (well-conditioned) coefficients.
                mirrored = np.array([(-1.0) ** (degree - k) * c
                                     for k, c in enumerate(b.coeffs)])
                assert np.max(np.abs(mirrored - a.coeffs)) <= 1e-10 * max(
                    1.0, np.max(np.abs(a.coeffs)))

    def test_ode_residual_holds_for_negative_coupling(self):
        for sol in nontrivial(solve_qes(two_mode_spec(g=-0.6), 1)):
            assert sol.ode_residual <= 1e-8


class TestDegreeValidation:
    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            solve_qes(rabi_spec(), 0)
        with pytest.raises(ValueError):
            qes_energy(rabi_spec(), 0)

    @pytest.mark.parametrize("degree", [2.5, 3.0])
    def test_non_integer_degree_rejected(self, degree):
        for call in (solve_qes, solve_grid, qes_energy):
            arg = [rabi_spec()] if call is solve_grid else rabi_spec()
            with pytest.raises(ValidationError, match="degree must be an integer"):
                call(arg, degree)

    def test_stencil_residual_of_returned_solutions(self):
        for sol in solve_qes(two_mode_spec(g=0.7), 4):
            img = operator(sol.spec, sol.energy, sol.degree + 1) @ sol.coeffs
            img[:sol.degree + 1] += _delta_sq_sign(sol.spec.kind) * sol.delta_squared * sol.coeffs
            assert np.max(np.abs(img)) <= 1e-8 * np.max(np.abs(sol.coeffs))


# Every family of the three models, with a coupling (g/omega) that has
# nontrivial branches at degrees 1-8.
OMEGA_FAMILIES = [
    (ModelKind.RABI, None, 0.3),
    (ModelKind.TWO_PHOTON, Fraction(1, 4), 0.22),
    (ModelKind.TWO_PHOTON, Fraction(3, 4), 0.22),
    (ModelKind.TWO_MODE, Fraction(1, 2), 0.55),
    (ModelKind.TWO_MODE, Fraction(1), 0.55),
    (ModelKind.TWO_MODE, Fraction(3, 2), 0.4),
]


def _bits(x) -> bytes | None:
    return None if x is None else np.float64(x).tobytes()


def omega_unit_fields(sol) -> tuple:
    """Every field of a solution that is in units of omega, as raw bits."""
    return (_bits(sol.unit_delta_squared), sol.roots.dtype.str, sol.roots.tobytes(),
            sol.coeffs.tobytes(), _bits(sol.ode_residual), _bits(sol.bae_residual),
            _bits(sol.constraint_residual), sol.branch, sol.reject_reason)


class TestOmegaUnits:
    # Every model depends only on g/omega and delta/omega, and the solve
    # runs in units of omega: the same point gives the same bits, and the
    # same verdicts, at every omega.
    @pytest.mark.parametrize("kind,sector,g", OMEGA_FAMILIES)
    def test_powers_of_two_are_bitwise_the_unit_solve(self, kind, sector, g):
        # Scaling by a power of two is exact, so even E/omega and
        # delta^2/omega^2 keep their bits.
        for sign in (1.0, -1.0):
            for degree in range(1, 9):
                ref = solve_qes(make_spec(kind, sign * g, 1.0, sector), degree)
                assert any(s.reject_reason is None for s in ref)
                for omega in (2.0**-10, 2.0**10, 2.0**20):
                    sols = solve_qes(make_spec(kind, sign * g * omega, omega, sector), degree)
                    assert len(sols) == len(ref)
                    for s, r in zip(sols, ref):
                        assert _bits(s.delta_squared / omega**2) == _bits(r.delta_squared)
                        assert _bits(s.energy / omega) == _bits(r.energy)
                        assert omega_unit_fields(s) == omega_unit_fields(r)

    @pytest.mark.parametrize("omega", [0.7, 1.3, 1e3, 1e6])
    @pytest.mark.parametrize("kind,sector,g", OMEGA_FAMILIES)
    def test_any_omega_is_bitwise_the_solve_at_g_over_omega(self, kind, sector, g, omega):
        # Only E = omega E' and delta^2 = omega^2 delta'^2 are rounded on
        # the way out; everything the gates judge is the unit solve's.
        for sign in (1.0, -1.0):
            for degree in range(1, 9):
                spec = make_spec(kind, sign * g * omega, omega, sector)
                ref = solve_qes(make_spec(kind, spec.g / omega, 1.0, sector), degree)
                sols = solve_qes(spec, degree)
                assert len(sols) == len(ref)
                for s, r in zip(sols, ref):
                    assert omega_unit_fields(s) == omega_unit_fields(r)
                    assert s.energy == omega * r.energy
                    assert s.delta_squared == omega * (omega * r.delta_squared)

    @pytest.mark.parametrize("kind,sector,g,accepted", [
        (ModelKind.RABI, None, 0.3, 3),
        (ModelKind.TWO_MODE, Fraction(1, 2), 0.5, 2),
        (ModelKind.TWO_PHOTON, Fraction(1, 4), 0.3, 2),
    ])
    def test_degree_three_verdicts_do_not_move_with_omega(self, kind, sector, g, accepted):
        # Gates in units of omega: at large omega these points keep their
        # omega = 1 verdicts, the delta^2 ~ 0 branch tagged degenerate-atom.
        ref = [s.reject_reason for s in solve_qes(make_spec(kind, g, 1.0, sector), 3)]
        assert ref.count(None) == accepted and ref[0] == "degenerate-atom"
        for omega in (1e3, 1e4, 1e6):
            sols = solve_qes(make_spec(kind, g * omega, omega, sector), 3)
            assert [s.reject_reason for s in sols] == ref


def solution_bits(sol) -> tuple:
    """Every field of a solution, as raw bits."""
    return (_bits(sol.delta_squared), _bits(sol.energy)) + omega_unit_fields(sol)


def grid_bits(points) -> list:
    return [[solution_bits(s) for s in sols] for sols in points]


def assert_grid_is_pointwise(specs, degree):
    """``solve_grid`` gives bitwise each point's own solve, with the same
    warnings in the same order."""
    with warnings.catch_warnings(record=True) as grid_caught:
        warnings.simplefilter("always")
        grid = solve_grid(specs, degree)
    with warnings.catch_warnings(record=True) as point_caught:
        warnings.simplefilter("always")
        points = [solve_qes(spec, degree) for spec in specs]
    assert grid_bits(grid) == grid_bits(points)
    assert [str(w.message) for w in grid_caught] == [str(w.message) for w in point_caught]


# Every family, over a coupling range with nontrivial branches.
GRID_FAMILIES = [
    (ModelKind.RABI, None, 0.05, 0.7),
    (ModelKind.TWO_PHOTON, Fraction(1, 4), 0.05, 0.45),
    (ModelKind.TWO_PHOTON, Fraction(3, 4), 0.05, 0.45),
    (ModelKind.TWO_MODE, Fraction(1, 2), 0.05, 0.9),
    (ModelKind.TWO_MODE, Fraction(1), 0.05, 0.9),
    (ModelKind.TWO_MODE, Fraction(3, 2), 0.05, 0.9),
]


def spoil_one_candidate(points):
    """An ``np.linalg.eig`` whose eigenvectors hold a NaN in one candidate
    of each listed stack index: a drop with one warning at those points."""
    real_eig = np.linalg.eig

    def eig(stack):
        mu, vecs = real_eig(stack)
        vecs = vecs.copy()
        for i in points:
            vecs[i, 0, np.flatnonzero(mu[i].real >= 1e-9)[0]] = np.nan
        return mu, vecs
    return eig


def drop_message(spec, degree) -> str:
    mu = np.linalg.eigvals(pencil(spec, degree))
    found = np.sum((np.abs(mu.imag) <= 1e-9) & (mu.real >= -1e-9))
    return (f"dropped 1 of {found} delta^2 candidates at g={spec.g:g}, degree={degree}: "
            "1 coefficients not finite")


class TestGridSolve:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_validate_and_one_frame_per_point(self, kind, monkeypatch):
        import qes_rabi.solver as solver

        calls = {"validate": 0, "frame": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(solver, "validate", counted("validate", solver.validate))
        monkeypatch.setattr(solver, "frame", counted("frame", solver.frame))
        top = 0.9 if kind is ModelKind.TWO_MODE else 0.45
        specs = [make_spec(kind, float(g)) for g in np.linspace(0.1, top, 4)]
        assert all(solve_grid(specs, 3))
        assert calls == {"validate": 4, "frame": 4}

    @pytest.mark.parametrize("kind,sector,lo,hi", GRID_FAMILIES)
    def test_grid_is_bitwise_each_point_alone(self, kind, sector, lo, hi):
        for sign in (1.0, -1.0):
            for degree in list(range(1, 13)) + [30]:
                grid = sign * np.linspace(lo, hi, 3 if degree == 30 else 7)
                assert_grid_is_pointwise(
                    [make_spec(kind, float(g), sector=sector) for g in grid], degree)

    def test_real_points_of_a_complex_stack(self):
        # Some of these pencils have complex eigenvalues, so the stacked
        # eig returns complex arrays for every point; a point with real
        # eigenpairs must still divide its eigenvectors in real arithmetic.
        specs = [make_spec(ModelKind.TWO_MODE, float(g), sector=Fraction(3, 2))
                 for g in np.linspace(0.02, 0.98, 25)]
        assert {np.iscomplexobj(np.linalg.eigvals(pencil(s, 1))) for s in specs} == {
            False, True}
        assert_grid_is_pointwise(specs, 1)

    @pytest.mark.parametrize("spec", [two_mode_spec(g=0.5), two_photon_spec(g=0.3)])
    def test_real_branches_beside_spurious_complex_pairs(self, spec):
        # At M = 100 these pencils have complex pairs, so eig returns
        # complex arrays; every branch divides the real eigenvector of its
        # own real eigenvalue in real arithmetic.
        mu, vecs = np.linalg.eig(pencil(spec, 100))
        assert np.any(mu.imag != 0)
        d2 = -_delta_sq_sign(spec.kind) * mu.real
        cols = np.flatnonzero((mu.imag == 0) & (d2 >= -1e-9))
        cols = cols[np.argsort(d2[cols], kind="stable")]
        sols = solve_qes(spec, 100)
        assert len(sols) == len(cols)
        for sol, c in zip(sols, cols):
            assert sol.unit_delta_squared == max(d2[c], 0.0)
            assert sol.coeffs.tobytes() == (vecs.real[:, c] / vecs.real[-1, c]).tobytes()

    def test_term_missing_at_one_point(self):
        # At Rabi degree 2 and g = 1, g^2 - E = 0: that point's L2 holds
        # an exact zero (0, 0) term where its neighbours' do not.
        specs = [rabi_spec(g=g) for g in (0.5, 1.0, 1.5)]
        const = [{(d, m): c for d, m, c in _factors(frame(s), qes_energy(s, 2) / s.omega)[1]}[0, 0]
                 for s in specs]
        assert const[1] == 0.0 and 0.0 not in (const[0], const[2])
        assert_grid_is_pointwise(specs, 2)

    def test_point_without_candidates_mid_grid(self, monkeypatch):
        specs = [rabi_spec(g=g) for g in (0.2, 0.3, 0.4)]
        want = [solve_qes(spec, 6) for spec in specs]
        real_eig = np.linalg.eig

        def eig(stack):  # only complex eigenvalues at the middle point
            mu, vecs = real_eig(stack)
            mu = mu.astype(complex)
            mu[1] = mu[1].real + 1j
            return mu, vecs.astype(complex)

        monkeypatch.setattr(np.linalg, "eig", eig)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve_grid(specs, 6)
        assert got[1] == []
        assert grid_bits([got[0], got[2]]) == grid_bits([want[0], want[2]])

    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    def test_chunk_boundaries(self, per_chunk, monkeypatch):
        import qes_rabi.solver as solver

        specs = [two_mode_spec(g=float(g)) for g in np.linspace(0.1, 0.9, 7)]
        want = grid_bits([solve_qes(spec, 5) for spec in specs])
        monkeypatch.setattr(solver, "_GRID_BUDGET", per_chunk * solver._point_bytes(5))
        assert _chunk_points(5) == per_chunk
        real_eig, stacks = np.linalg.eig, []
        monkeypatch.setattr(np.linalg, "eig", lambda a: stacks.append(a.shape) or real_eig(a))
        assert grid_bits(solve_grid(specs, 5)) == want
        sizes = [per_chunk] * (7 // per_chunk) + [7 % per_chunk] * (7 % per_chunk > 0)
        assert stacks == [(p, 6, 6) for p in sizes]

    def test_chunk_sizes(self):
        # As many points as the budget holds, at least one: the highest
        # degree is solved one point at a time.
        import qes_rabi.solver as solver
        from qes_rabi.stencil import MAX_DEGREE

        for degree in (1, 2, 8, 30, 60, MAX_DEGREE):
            per = _chunk_points(degree)
            assert per == 1 or per * solver._point_bytes(degree) <= solver._GRID_BUDGET
        assert _chunk_points(1) > 1 and _chunk_points(MAX_DEGREE) == 1

    @pytest.mark.parametrize("degree,per_chunk", [(1, 40), (12, 3)])
    def test_chunk_working_memory_within_budget(self, degree, per_chunk, monkeypatch):
        import tracemalloc

        import qes_rabi.solver as solver

        budget = per_chunk * solver._point_bytes(degree)
        monkeypatch.setattr(solver, "_GRID_BUDGET", budget)
        specs = [two_mode_spec(g=float(g)) for g in np.linspace(0.1, 0.9, 4 * per_chunk)]
        solve_grid(specs[:1], degree)
        tracemalloc.start()
        try:
            sols = solve_grid(specs, degree)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sols) == len(specs)
        assert peak - current <= budget

    def test_mixed_models_refused(self):
        with pytest.raises(ValueError):
            solve_grid([rabi_spec(g=0.3), two_mode_spec(g=0.3)], 2)

    def test_drop_warnings_in_grid_order_at_callers_line(self, monkeypatch):
        specs = [rabi_spec(g=g) for g in (0.2, 0.3, 0.4, 0.5)]
        want = [drop_message(specs[i], 6) for i in (1, 3)]
        in_grid, alone_eig = spoil_one_candidate((1, 3)), spoil_one_candidate((0,))
        monkeypatch.setattr(np.linalg, "eig", in_grid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_grid(specs, 6)
        monkeypatch.setattr(np.linalg, "eig", alone_eig)
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            solve_qes(specs[3], 6)
        assert [str(w.message) for w in caught + alone] == want + want[1:]
        assert {w.category for w in caught + alone} == {DroppedBranchWarning}
        assert {w.filename for w in caught + alone} == {__file__}

    @pytest.mark.parametrize("bad_g", [1e154, 1e200])
    def test_error_names_first_failing_point_after_earlier_warnings(self, bad_g, monkeypatch):
        # g = 1e154 overflows the pencil to inf; at 1e200 g^2 already
        # overflows the Python-float energy. Only points 0 and 1 warn.
        specs = [rabi_spec(g=g) for g in (0.2, 0.3, bad_g, 0.4, 1e200)]
        want = [drop_message(specs[i], 6) for i in (0, 1)]
        monkeypatch.setattr(np.linalg, "eig", spoil_one_candidate((0, 1)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as err:
                solve_grid(specs, 6)
        assert str(err.value) == (f"omega=1, g={bad_g:g}: the degree-6 pencil is not "
                                  "finite in double precision")
        assert [str(w.message) for w in caught] == want
