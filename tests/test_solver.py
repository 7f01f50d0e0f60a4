import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from qes_rabi import (
    Branch,
    DegenerateAtomBranch,
    ModelKind,
    QesSolution,
    apply_ode,
    bae_residual,
    bae_scale,
    constraint_residual,
    coupled_residuals,
    delta_pencil,
    ode_residual,
    ode_stencil,
    qes_energy,
    second_component,
    solve_qes,
    squeeze_factor,
    wavefunction_eval,
)
from conftest import (
    MODEL_G_RANGES,
    bae_reference,
    make_spec,
    rabi_spec,
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
    sq = squeeze_factor(make_spec(kind, g, omega, sector)).value
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


class TestPencil:
    def test_rabi_degree_one(self):
        a = delta_pencil(rabi_spec(g=0.3), 1)
        assert a.shape == (2, 2)
        assert a[1, 0] == pytest.approx(0.6, abs=1e-15)
        # eigenvalues of -sign * A are the delta^2 candidates {0, w^2-4g^2}
        mu = np.sort(np.linalg.eigvals(a).real)
        assert mu == pytest.approx([0.0, 0.64], abs=1e-12)

    def test_two_photon_degree_one_contains_example_value(self):
        a = delta_pencil(two_photon_spec(g=0.3), 1)
        mu = np.sort(np.linalg.eigvals(-a).real)
        assert min(abs(mu - 1.84)) <= 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bandwidth(self, kind):
        spec = make_spec(kind, 0.3)
        a = delta_pencil(spec, 6)
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


class TestResiduals:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("degree", range(1, 9))
    def test_cross_verification(self, kind, degree):
        g = {ModelKind.RABI: 0.3, ModelKind.TWO_PHOTON: 0.22,
             ModelKind.TWO_MODE: 0.55}[kind]
        sols = nontrivial(solve_qes(make_spec(kind, g), degree))
        assert sols, "expected at least one Juddian branch"
        for sol in sols:
            assert ode_residual(sol) <= 1e-8
            assert bae_residual(sol) <= 1e-8 * bae_scale(sol)
            assert constraint_residual(sol) <= 1e-8 * max(1.0, sol.delta_squared)

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
                gate = 1e-8 * bae_scale(sol)
                assert abs(bae_residual(sol) - bae_reference(sol)) <= 1e-6 * gate

    def test_rabi_degree_one_bae_closed_form(self):
        sol = nontrivial(solve_qes(rabi_spec(g=0.3), 1))[0]
        z1 = sol.roots[0].real
        direct = abs(2 * 0.3 * z1**2 + z1 + 0.3 * (1 - 2 * 0.09))
        assert bae_residual(sol) == pytest.approx(direct, abs=1e-12)
        assert direct <= 1e-12

    def test_degenerate_branch_root_equations_singular(self):
        from qes_rabi import DegenerateRoots
        # degree 1: the degenerate-atom root -g/omega sits exactly on a
        # pole of the cleared root equation
        degen = solve_qes(rabi_spec(g=0.3), 1)[0]
        with pytest.raises(DegenerateRoots, match="root 0 sits at a pole"):
            bae_residual(degen)

    def test_coincident_roots_rejected(self):
        from qes_rabi import DegenerateRoots
        sol = nontrivial(solve_qes(two_mode_spec(g=0.5), 2))[0]
        stuck = QesSolution(
            spec=sol.spec, degree=sol.degree, energy=sol.energy,
            delta_squared=sol.delta_squared,
            roots=np.array([sol.roots[0], sol.roots[1], sol.roots[1], sol.roots[0]]),
            coeffs=sol.coeffs, branch=sol.branch)
        # Both (0, 3) and (1, 2) coincide; the first pair in row-major
        # order is named.
        with pytest.raises(DegenerateRoots, match="roots 0 and 3 coincide"):
            bae_residual(stuck)

    def test_perturbed_root_detected(self):
        sol = nontrivial(solve_qes(rabi_spec(g=0.3), 1))[0]
        bad = QesSolution(
            spec=sol.spec, degree=sol.degree, energy=sol.energy,
            delta_squared=sol.delta_squared, roots=sol.roots + 0.01,
            coeffs=sol.coeffs, branch=sol.branch)
        assert bae_residual(bad) > 1e-4

    def test_constraint_linear_in_delta_squared(self):
        sol = nontrivial(solve_qes(two_photon_spec(g=0.3), 1))[0]
        shifted = QesSolution(
            spec=sol.spec, degree=sol.degree, energy=sol.energy,
            delta_squared=sol.delta_squared + 0.1, roots=sol.roots,
            coeffs=sol.coeffs, branch=sol.branch)
        assert constraint_residual(shifted) == pytest.approx(0.1, abs=1e-12)

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
                # The root polish keeps the companion's exact symmetry:
                # pairs bitwise conjugate, real roots with imag exactly 0.
                assert np.array_equal(np.sort_complex(z[z.imag > 0]),
                                      np.sort_complex(np.conj(z[z.imag < 0])))
                assert np.all(z.imag[np.abs(z.imag) <= 1e-10 * scale] == 0)


ROOT_ACCURACY_CASES = [
    (ModelKind.RABI, 0.25, 5),
    (ModelKind.TWO_PHOTON, 0.22, 6),
    (ModelKind.TWO_MODE, 0.55, 6),
]


def rebuilt_error(roots, coeffs):
    return np.max(np.abs(npoly.polyfromroots(roots) - coeffs))


class TestRootAccuracy:
    @pytest.mark.parametrize("kind,g,degree", ROOT_ACCURACY_CASES)
    def test_roots_match_high_precision_roots(self, kind, g, degree):
        # Reference: the roots of the same double coefficients, found in
        # 50-digit arithmetic; each returned root must be within 2 ulp.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for sol in nontrivial(solve_qes(make_spec(kind, g), degree)):
                ref = np.array([complex(r) for r in mpmath.polyroots(
                    [mpmath.mpf(float(c)) for c in sol.coeffs[::-1]],
                    maxsteps=200, extraprec=200)])
                nearest = [int(np.argmin(np.abs(sol.roots - r))) for r in ref]
                assert sorted(nearest) == list(range(degree))
                err = np.abs(sol.roots[nearest] - ref)
                assert np.all(err <= 2 * np.finfo(float).eps * np.abs(ref))

    @pytest.mark.parametrize("kind,g,degree", ROOT_ACCURACY_CASES)
    def test_polish_keeps_degenerate_cluster_backward_error(self, kind, g, degree):
        # The degenerate-atom branch can carry clustered roots, where a
        # polish step may scatter them; its roots must rebuild the
        # coefficients no worse than the companion roots do.
        degen = [s for s in solve_qes(make_spec(kind, g), degree)
                 if s.branch is Branch.DEGENERATE_ATOM]
        assert len(degen) == 1
        sol = degen[0]
        companion = npoly.polyroots(sol.coeffs)
        assert rebuilt_error(sol.roots, sol.coeffs) <= rebuilt_error(companion, sol.coeffs)


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

    def test_delta_sign_flip(self):
        sol = nontrivial(solve_qes(two_mode_spec(g=0.6), 1))[0]
        wf = second_component(sol)
        flipped = second_component(sol, delta=-sol.delta)
        assert np.allclose(flipped.minus_coeffs, -wf.minus_coeffs, rtol=0, atol=0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_subspace_closure_and_coupled_equations(self, kind, degree):
        g = {ModelKind.RABI: 0.3, ModelKind.TWO_PHOTON: 0.2,
             ModelKind.TWO_MODE: 0.5}[kind]
        for sol in nontrivial(solve_qes(make_spec(kind, g), degree)):
            wf = second_component(sol)
            assert len(wf.minus_coeffs) - 1 <= degree
            r1, r2 = coupled_residuals(sol, wf)
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
        g = {ModelKind.RABI: 0.3, ModelKind.TWO_PHOTON: 0.24,
             ModelKind.TWO_MODE: 0.55}[kind]
        for degree in (1, 3):
            plus = solve_qes(make_spec(kind, g), degree)
            minus = solve_qes(make_spec(kind, -g), degree)
            assert len(plus) == len(minus)
            for a, b in zip(plus, minus):
                assert b.delta_squared == pytest.approx(a.delta_squared, abs=1e-12)
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
            assert ode_residual(sol) <= 1e-8


class TestDegreeValidation:
    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            solve_qes(rabi_spec(), 0)
        with pytest.raises(ValueError):
            qes_energy(rabi_spec(), 0)

    def test_stencil_residual_of_returned_solutions(self):
        for sol in solve_qes(two_mode_spec(g=0.7), 4):
            st = ode_stencil(sol.spec, sol.degree, sol.energy)
            img = apply_ode(st, sol.delta_squared, sol.coeffs)
            assert np.max(np.abs(img)) <= 1e-8 * np.max(np.abs(sol.coeffs))
