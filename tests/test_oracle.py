import math
from fractions import Fraction

import numpy as np
import pytest

from qes_rabi import (
    Branch,
    ModelKind,
    ValidationError,
    WindowExceeded,
    match_energy,
    parity_spectrum,
    qes_energy,
    second_component,
    solve_qes,
    squeeze_factor,
)
from conftest import (
    dense_hamiltonian,
    direct_two_photon_hamiltonian,
    fock_coefficients,
    make_spec,
    rabi_spec,
    two_mode_spec,
    two_photon_spec,
)


class TestBuild:
    def test_symmetric_exactly(self):
        # eigvalsh reads one triangle only, so the reference matrix must be
        # exactly symmetric for the comparisons below to mean anything.
        for spec in (rabi_spec(delta=0.4), two_photon_spec(delta=0.7),
                     two_photon_spec(delta=0.7, sector=Fraction(3, 4)),
                     two_mode_spec(delta=1.0)):
            h = dense_hamiltonian(spec, 12)
            assert np.array_equal(h, h.T)
            assert h.shape == (26, 26)
            assert parity_spectrum(spec, 12).shape == (26,)

    def test_requires_delta(self):
        with pytest.raises(ValidationError):
            parity_spectrum(rabi_spec(), 8)

    def test_requires_minimum_truncation(self):
        with pytest.raises(ValidationError):
            parity_spectrum(rabi_spec(delta=0.4), 3)

    def test_decoupled_rabi_spectrum(self):
        # g = 0: independent two-level atom and oscillator, levels n +/- delta.
        got = parity_spectrum(rabi_spec(g=0.0, delta=0.5), 4)
        want = np.sort(np.concatenate([np.arange(5) - 0.5, np.arange(5) + 0.5]))
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_rabi_matrix_elements(self):
        g, delta = 0.3, 0.8
        h = dense_hamiltonian(rabi_spec(g=g, delta=delta), 6)
        n = 3
        i_plus, i_minus = 2 * n, 2 * n + 1
        assert h[i_plus, i_plus] == n
        assert h[i_plus, i_plus + 2] == pytest.approx(g * math.sqrt(n + 1))
        assert h[i_minus, i_minus + 2] == pytest.approx(-g * math.sqrt(n + 1))
        assert h[i_plus, i_minus] == delta
        # At g = 0 the library's levels are that diagonal split by +/- delta.
        got = parity_spectrum(rabi_spec(g=0.0, delta=delta), 6)
        diagonal = np.diag(h)[::2]
        assert np.max(np.abs(got - np.sort(np.r_[diagonal - delta, diagonal + delta]))) <= 1e-12

    def test_sector_diagonals(self):
        for spec, want in (
            # q = 3/4 carries the odd photon numbers 2n + 1.
            (two_photon_spec(delta=0.5, sector=Fraction(3, 4)), [1.0, 3.0, 5.0, 7.0]),
            # kappa = 3/2: K0 - 1/2 = n + 1, total photon number 2n + 2.
            (two_mode_spec(delta=0.5, sector=Fraction(3, 2)), [2.0, 4.0, 6.0, 8.0]),
        ):
            diagonal = np.diag(dense_hamiltonian(spec, 6))[::2]
            assert np.allclose(diagonal[:4], want)
            decoupled = make_spec(spec.kind, 0.0, spec.omega, spec.sector, spec.delta)
            got = parity_spectrum(decoupled, 6)
            assert np.max(np.abs(got - np.sort(np.r_[diagonal - 0.5, diagonal + 0.5]))) \
                <= 1e-12

    def test_displaced_oscillator_limit(self):
        # delta = 0 decouples the spin sectors; each chain is a displaced
        # oscillator with levels omega*n - g^2/omega, doubly degenerate.
        with pytest.warns(UserWarning):
            got = parity_spectrum(rabi_spec(g=0.3, delta=0.0), 80)[:8]
        want = np.repeat(np.arange(4) - 0.09, 2)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_squeezed_oscillator_limit(self):
        # 2-photon at delta = 0: lowest level omega*Omega*(0 + 2q) - omega/2.
        with pytest.warns(UserWarning):
            got = parity_spectrum(two_photon_spec(g=0.3, delta=0.0), 200)[0]
        assert got == pytest.approx(-0.1, abs=1e-8)


class TestSpectrum:
    def test_full_spectrum_trace(self):
        spec = two_mode_spec(delta=0.9)
        ev = parity_spectrum(spec, 32)
        assert ev.shape == (66,)
        assert np.all(np.diff(ev) >= 0)
        assert np.sum(ev) == pytest.approx(np.trace(dense_hamiltonian(spec, 32)), rel=1e-9)

    @pytest.mark.parametrize("spec", [
        rabi_spec(g=0.3, delta=0.8),
        two_photon_spec(g=0.3, delta=math.sqrt(1.84)),
        two_photon_spec(g=0.2, delta=0.6, sector=Fraction(3, 4)),
        two_mode_spec(g=0.6, delta=math.sqrt(1.12)),
        two_mode_spec(g=0.5, delta=0.9, sector=Fraction(3, 2)),
    ])
    def test_parity_route_agrees_with_dense(self, spec):
        dense = np.linalg.eigvalsh(dense_hamiltonian(spec, 48))
        fast = parity_spectrum(spec, 48)
        assert np.max(np.abs(dense - fast)) <= 1e-12 * max(1.0, np.max(np.abs(dense)))

    @pytest.mark.parametrize("spec", [
        rabi_spec(g=0.35, delta=0.6),
        two_photon_spec(g=0.25, delta=0.9),
        two_mode_spec(g=0.55, delta=1.1),
    ])
    def test_coupling_sign_invariance(self, spec):
        flipped = make_spec(spec.kind, -spec.g, spec.omega, spec.sector, spec.delta)
        a = parity_spectrum(spec, 128)
        b = parity_spectrum(flipped, 128)
        assert np.max(np.abs(a - b)) <= 1e-10

    @pytest.mark.parametrize("spec", [
        rabi_spec(g=0.4, delta=0.7),
        two_photon_spec(g=0.3, delta=0.8),
        two_mode_spec(g=0.7, delta=0.5),
    ])
    def test_variational_monotonicity(self, spec):
        # Nested truncations: every low eigenvalue is non-increasing as
        # the basis grows.
        prev = None
        for n_max in (16, 32, 64, 128):
            ev = parity_spectrum(spec, n_max)[:10]
            if prev is not None:
                assert np.all(ev <= prev + 1e-12)
            prev = ev

    def test_two_photon_sectors_union_matches_photon_basis(self):
        omega, g, delta, n_max = 1.0, 0.3, 0.9, 40
        union = np.sort(np.concatenate([
            parity_spectrum(two_photon_spec(g=g, delta=delta, sector=q), n_max)
            for q in (Fraction(1, 4), Fraction(3, 4))
        ]))
        direct = np.linalg.eigvalsh(
            direct_two_photon_hamiltonian(omega, g, delta, 2 * n_max + 2))
        assert np.max(np.abs(union[:10] - direct[:10])) <= 1e-8

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("q", [Fraction(1, 4), Fraction(3, 4)])
    def test_two_photon_juddian_energies_in_photon_basis(self, q, degree):
        # The solver reaches the 2-photon model through the two-mode
        # formulas, and so does the sector oracle; the raw photon basis
        # shares none of that code.
        omega, g, cutoff = 1.0, 0.3, 64
        sols = [s for s in solve_qes(two_photon_spec(g=g, sector=q), degree)
                if s.branch is Branch.NONTRIVIAL]
        assert sols
        for sol in sols:
            delta = math.sqrt(sol.delta_squared)
            for photons in (cutoff, 2 * cutoff):
                ev = np.linalg.eigvalsh(
                    direct_two_photon_hamiltonian(omega, g, delta, photons))
                assert np.min(np.abs(ev - sol.energy)) <= 1e-8


class TestMatch:
    def test_juddian_point_matches(self):
        res = match_energy(0.91, rabi_spec(g=0.3, delta=0.8), 64, 1e-8)
        assert res.matched
        assert res.gap <= 1e-10
        assert res.truncation_drift <= 1e-10

    def test_off_constraint_does_not_match(self):
        res = match_energy(0.91, rabi_spec(g=0.3, delta=0.7), 64, 1e-8)
        assert not res.matched
        assert res.gap > 1e-3

    def test_two_mode_example_matches(self):
        res = match_energy(1.4, two_mode_spec(g=0.6, delta=math.sqrt(1.12)), 256, 1e-8)
        assert res.matched

    def test_window_guard(self):
        with pytest.raises(WindowExceeded):
            match_energy(17.0, rabi_spec(g=0.3, delta=0.8), 64, 1e-8)
        with pytest.raises(ValueError):
            match_energy(0.9, rabi_spec(g=0.3, delta=0.8), 64, 0.0)

    def test_threshold_softness_still_fails_match(self):
        # Close to the branch-existence threshold the nontrivial delta is
        # small and the spectrum responds only weakly to detuning: the
        # perturbed gap can drop below the generic 1e-5 scale, but the
        # match at tol = 1e-8 must still fail.
        g = 0.4079
        sol = [s for s in solve_qes(two_photon_spec(g=g), 1)
               if s.branch is Branch.NONTRIVIAL][0]
        bumped = sol.spec.with_delta(sol.spec.delta + 1e-3)
        res = match_energy(sol.energy, bumped, 256, 1e-8)
        assert not res.matched
        assert res.gap > 1e-8


class TestWavefunctionAgainstMatrix:
    @pytest.mark.parametrize("spec,degree", [
        (rabi_spec(g=0.3), 1),
        (rabi_spec(g=0.25), 2),
        (two_photon_spec(g=0.3), 1),
        (two_photon_spec(g=0.2, sector=Fraction(3, 4)), 2),
        (two_mode_spec(g=0.6), 1),
        (two_mode_spec(g=0.5, sector=Fraction(1)), 2),
    ])
    def test_analytic_state_is_truncated_eigenvector(self, spec, degree):
        # Expand exp(-rate z) * polynomial into the sector basis and check
        # H c = E c on the truncated matrix: the closed-form wavefunction,
        # not just the energy, must diagonalize the Hamiltonian.
        n_max = 60
        sols = [s for s in solve_qes(spec, degree) if s.branch is Branch.NONTRIVIAL]
        assert sols
        for sol in sols:
            wf = second_component(sol)
            cp = fock_coefficients(sol.spec, wf.prefactor_rate,
                                   np.real(wf.plus_coeffs), n_max)
            cm = fock_coefficients(sol.spec, wf.prefactor_rate,
                                   np.real(wf.minus_coeffs), n_max)
            vec = np.zeros(2 * (n_max + 1))
            vec[0::2] = cp
            vec[1::2] = cm
            h = dense_hamiltonian(sol.spec, n_max)
            residual = h @ vec - sol.energy * vec
            assert np.max(np.abs(residual)) <= 1e-8 * np.max(np.abs(vec))


class TestEnergyWindowScale:
    def test_window_uses_squeezed_spacing(self):
        spec = two_photon_spec(g=0.45)
        # Omega is small here; energies valid at n_max=256 for the plain
        # model would overflow the squeezed window.
        sq = squeeze_factor(spec).value
        e = qes_energy(spec, 6)
        assert e < 2 * sq * 256 / 4
        with pytest.raises(WindowExceeded):
            match_energy(e, spec.with_delta(1.0), int(2 * e / sq), 1e-8)
