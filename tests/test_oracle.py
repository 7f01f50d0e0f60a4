import math
from fractions import Fraction

import numpy as np
import pytest

from qes_rabi import (
    Branch,
    DegenerateAtomWarning,
    ModelKind,
    ValidationError,
    WindowExceeded,
    default_n_max,
    frame,
    match_energy,
    oracle,
    parity_spectrum,
    qes_energy,
    second_component,
    solve_qes,
)
from conftest import (
    dense_hamiltonian,
    dense_parity_chains,
    direct_two_photon_hamiltonian,
    fock_coefficients,
    full_chain_match,
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

    def test_degenerate_atom_warns(self):
        # The oracle is the one reader of delta as an input.
        with pytest.warns(DegenerateAtomWarning):
            parity_spectrum(rabi_spec(g=0.3, delta=0.0), 8)

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
        # Bisection (levels = 8) returns both copies of each.
        want = np.repeat(np.arange(4) - 0.09, 2)
        for levels in (None, 8):
            with pytest.warns(UserWarning):
                got = parity_spectrum(rabi_spec(g=0.3, delta=0.0), 80, levels)[:8]
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
        rabi_spec(g=0.39, omega=1.3, delta=0.8),
        two_photon_spec(g=0.2, omega=1.3, delta=0.6, sector=Fraction(3, 4)),
        two_mode_spec(g=0.65, omega=1.3, delta=0.9, sector=Fraction(3, 2)),
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

    def test_one_chain_level_is_unmatched(self):
        # A level of the +delta chain alone is not a Juddian point: the
        # -delta chain has no level near it, so the gap is that chain's.
        spec = rabi_spec(g=0.3, delta=0.77)
        (d, e), _ = dense_parity_chains(spec, 64)
        E = 1.8404581733483552
        levels = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        assert levels[2] == pytest.approx(E, abs=1e-12)
        res = match_energy(E, spec, 64, 1e-8)
        assert not res.matched
        assert res.gap > 1e-8


def count_full_chain_solves(monkeypatch) -> list[int]:
    """Count the oracle's solves of a whole chain."""
    calls = [0]
    solve = oracle._chain_levels

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(oracle, "_chain_levels", counted)
    return calls


class TestWindowedMatch:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("spec", [
        rabi_spec(g=0.3),
        two_photon_spec(g=0.3),
        two_photon_spec(g=0.3, sector=Fraction(3, 4)),
        two_mode_spec(g=0.6),
        two_mode_spec(g=0.5, sector=Fraction(1)),
    ])
    def test_windowed_gaps_equal_full_solve_gaps(self, spec, degree, monkeypatch):
        # Matched Juddian points are decided in the first window alone; a
        # detuned delta leaves it empty, and the widening windows must give
        # the gap the full solve of each chain gives, without solving a
        # whole chain.
        tol = 1e-8
        sols = [s for s in solve_qes(spec, degree) if s.branch is Branch.NONTRIVIAL]
        assert sols
        full_solves = count_full_chain_solves(monkeypatch)
        for sol in sols:
            n_max = default_n_max(sol.spec.kind)
            targets = [(sol.spec, True)] + [(sol.spec.with_delta(sol.spec.delta + d), False)
                                            for d in (1e-3, 0.1, 1.0)]
            for target, want_matched in targets:
                want_gap, want_drift, want = full_chain_match(sol.energy, target, n_max, tol)
                before = full_solves[0]
                res = match_energy(sol.energy, target, n_max, tol)
                assert res.matched is want is want_matched
                assert abs(res.gap - want_gap) <= 1e-12
                assert abs(res.truncation_drift - want_drift) <= 1e-12
                assert full_solves[0] == before


ONE_SPEC_PER_SECTOR = (
    rabi_spec(g=0.3),
    two_photon_spec(g=0.3),
    two_photon_spec(g=0.2, sector=Fraction(3, 4)),
    two_mode_spec(g=0.6),
    two_mode_spec(g=0.5, sector=Fraction(1)),
)


# Bisected levels against dstev's: largest difference over the chain's
# largest entry, for chains dstebz gets scaled by a power of two (Rabi at
# g/omega = 1e199) and for the rest. A scan of the cases below read 1.8e-14.
NORM_BOUND = 5e-14


def chain_norm(diags, amp) -> float:
    return max(1.0, float(np.max(np.abs(np.concatenate([*diags, amp])))))


class TestLapackRoute:
    # The oracle calls dstebz and dstev itself; scipy's wrapper, told to
    # use the same routine, is the reference, bit for bit. Rabi at
    # g/omega = 1e199 gives chains of large norm, which dstev rescales
    # before it solves (dsterf alone would give other bits there). dstebz
    # squares the couplings unscaled and fails on them, so the wrapper
    # raises LinAlgError there; the oracle scales such a chain by a power
    # of two first, and its levels are compared with dstev's.
    @pytest.mark.parametrize("unit_delta", [0.3, 1e3, 1e200, 1e-200])
    @pytest.mark.parametrize("n_max", [4, 64, 256, 512])
    @pytest.mark.parametrize("spec", ONE_SPEC_PER_SECTOR + (rabi_spec(g=1e199),))
    def test_solves_keep_the_bits_of_eigh_tridiagonal(self, spec, n_max, unit_delta):
        import scipy.linalg

        spec = make_spec(spec.kind, 1.3 * spec.g, 1.3, spec.sector, 1.3 * unit_delta)
        diags, amp = oracle._parity_chains(spec, n_max)
        for d in diags:
            want = scipy.linalg.eigh_tridiagonal(d, amp, eigvals_only=True, lapack_driver="stev")
            assert oracle._chain_levels(d, amp).tobytes() == want.tobytes()
            # Window edges halfway between levels: none, one, and all but
            # two (at delta/omega = 1e200 the levels coincide in two
            # clusters: no window holds one, the last holds one cluster).
            mid = 0.5 * (want[:-1] + want[1:])
            k = len(want) // 2
            span = want[-1] - want[0] + 1.0
            windows = {0: (want[0] - 2.0 * span, want[0] - span),
                       1: (mid[k - 1], mid[k]),
                       len(want) - 2: (mid[0], mid[-1])}
            for count, (lo, hi) in windows.items():
                if not lo < hi:
                    continue
                try:
                    ref = scipy.linalg.eigh_tridiagonal(d, amp, eigvals_only=True, select="v",
                                                        select_range=(lo, hi),
                                                        lapack_driver="stebz")
                except np.linalg.LinAlgError:
                    assert spec.g > 1e150  # the couplings' squares overflow
                    got = oracle._window_levels(d, amp, lo, hi)
                    inside = want[(want > lo) & (want <= hi)]
                    assert got.size == inside.size
                    assert np.all(np.abs(got - inside) <= NORM_BOUND * chain_norm(diags, amp))
                else:
                    got = oracle._window_levels(d, amp, lo, hi)
                    assert got.tobytes() == ref.tobytes()
                    assert got.size == np.count_nonzero((want > lo) & (want <= hi))
                if unit_delta < 1e200:
                    assert got.size == count
        want = np.sort(np.concatenate([
            scipy.linalg.eigh_tridiagonal(d, amp, eigvals_only=True, lapack_driver="stev")
            for d in diags])) * spec.omega
        assert parity_spectrum(spec, n_max).tobytes() == want.tobytes()
        # The lowest tenth by bisection (the whole-chain route at n_max 4).
        levels = max(1, (n_max + 1) // 10)
        low = parity_spectrum(spec, n_max, levels)
        assert low.shape == (levels,)
        assert np.all(np.abs(low - want[:levels])
                      <= NORM_BOUND * spec.omega * chain_norm(diags, amp))

    @pytest.mark.parametrize("spec", ONE_SPEC_PER_SECTOR)
    def test_chains_at_n_max_are_leading_blocks(self, spec):
        # match_energy builds the chains at 2 n_max only and reads n_max off them.
        spec = spec.with_delta(0.7)
        for n_max in (4, 64, 256):
            (plus, minus), amp = oracle._parity_chains(spec, n_max)
            (plus2, minus2), amp2 = oracle._parity_chains(spec, 2 * n_max)
            assert plus.tobytes() == plus2[:n_max + 1].tobytes()
            assert minus.tobytes() == minus2[:n_max + 1].tobytes()
            assert amp.tobytes() == amp2[:n_max].tobytes()

    def test_chains_and_levels_that_overflow_are_refused(self):
        # Couplings past the double range, then finite chains whose levels are not.
        with pytest.raises(ValidationError, match="chains are not finite"):
            parity_spectrum(rabi_spec(g=5e307, delta=1.0), 64)
        with pytest.raises(ValidationError, match="chains are not finite"):
            match_energy(1.0, rabi_spec(g=5e307, delta=1.0), 64, 1e-8)
        with pytest.raises(ValidationError, match="spectrum is not finite"):
            parity_spectrum(rabi_spec(g=2e307, delta=1.0), 64)

    def test_couplings_whose_squares_overflow_are_matched(self):
        # dstebz alone raises here (info=1); the chain is scaled first. At
        # a chain norm near 1e155 any solve places a level only to about
        # ulp times the norm, so gap and drift are compared within the
        # bound of bisection against dstev.
        spec = rabi_spec(g=1e154, delta=0.5)
        res = match_energy(1.0, spec, 64, 1e-8)
        want_gap, want_drift, _ = full_chain_match(1.0, spec, 64, 1e-8)
        assert not res.matched
        bound = NORM_BOUND * spec.omega * chain_norm(*oracle._parity_chains(spec, 2 * 64))
        assert abs(res.gap - want_gap) <= bound
        assert abs(res.truncation_drift - want_drift) <= bound


# Lowest levels by bisection against the same levels of the full solve,
# relative to max(1, |level|); a scan of the cases below read 2.2e-15.
LEVELS_BOUND = 1e-14

FIVE_SECTORS_AND_RABI = ONE_SPEC_PER_SECTOR + (two_mode_spec(g=0.4, sector=Fraction(3, 2)),)


def assert_lowest_levels(got, full, levels):
    want = full[:levels]
    assert got.shape == (levels,)
    assert np.all(np.diff(got) >= 0)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= LEVELS_BOUND


class TestLowestLevels:
    # parity_spectrum(spec, n_max, levels) bisects both chains for its
    # levels when 10 levels <= n_max + 1 and keeps the lowest levels of the
    # full solve otherwise.
    @pytest.mark.parametrize("omega", [1.0, 1.3])
    @pytest.mark.parametrize("n_max", [64, 256])
    @pytest.mark.parametrize("spec", FIVE_SECTORS_AND_RABI)
    def test_levels_agree_with_the_full_spectrum(self, spec, n_max, omega, monkeypatch):
        spec = make_spec(spec.kind, omega * spec.g, omega, spec.sector, omega * 0.7)
        full = parity_spectrum(spec, n_max)
        full_solves = count_full_chain_solves(monkeypatch)
        edge = (n_max + 1) // 10  # the most levels bisected
        for levels in (1, 10, edge, edge + 1):
            before = full_solves[0]
            got = parity_spectrum(spec, n_max, levels)
            assert_lowest_levels(got, full, levels)
            assert full_solves[0] - before == (0 if levels <= edge else 2)
            if levels > edge:
                assert got.tobytes() == full[:levels].tobytes()

    @pytest.mark.parametrize("spec,degree", [
        (rabi_spec(g=0.3), 1),
        (rabi_spec(g=0.25), 2),
        (two_photon_spec(g=0.2, sector=Fraction(3, 4)), 2),
        (two_mode_spec(g=0.6), 3),
        (two_mode_spec(g=0.5, sector=Fraction(1)), 2),
    ])
    def test_cut_between_the_two_copies_of_a_juddian_level(self, spec, degree):
        # Both chains hold a Juddian energy, so it is two adjacent levels
        # of the spectrum; levels = the first copy's index + 1 cuts between them.
        sol = next(s for s in solve_qes(spec, degree) if s.branch is Branch.NONTRIVIAL)
        n_max = default_n_max(sol.spec.kind)
        full = parity_spectrum(sol.spec, n_max)
        copies = np.flatnonzero(np.abs(full - sol.energy) <= 1e-8)
        assert copies.size == 2 and copies[1] == copies[0] + 1
        for levels in (copies[0] + 1, copies[0] + 2):
            assert 10 * levels <= n_max + 1  # the bisection route
            got = parity_spectrum(sol.spec, n_max, int(levels))
            assert_lowest_levels(got, full, levels)
            assert np.count_nonzero(np.abs(got - sol.energy) <= 1e-8) == levels - copies[0]

    def test_levels_outside_the_spectrum_are_refused(self):
        spec = rabi_spec(delta=0.4)
        for levels in (-1, 0, 19, 100):
            with pytest.raises(ValidationError, match="levels must be in 1..18"):
                parity_spectrum(spec, 8, levels)
        assert parity_spectrum(spec, 8, 18).tobytes() == parity_spectrum(spec, 8).tobytes()


class TestWavefunctionAgainstMatrix:
    @pytest.mark.parametrize("spec,degree,n_max", [
        (rabi_spec(g=0.3), 1, 60),
        (rabi_spec(g=0.25), 2, 60),
        (two_photon_spec(g=0.3), 1, 60),
        (two_photon_spec(g=0.2, sector=Fraction(3, 4)), 2, 60),
        (two_mode_spec(g=0.6), 1, 60),
        (two_mode_spec(g=0.5, sector=Fraction(1)), 2, 60),
        # From degree 10 the lower component holds coefficients far below
        # 1e-12 of its largest, which the Fock basis weighs by about
        # sqrt(n!) or n!; from degree 20 the state needs n_max 120.
        (rabi_spec(g=0.3), 10, 60),
        (rabi_spec(g=0.4), 30, 120),
        (two_mode_spec(g=0.5), 10, 60),
        (two_mode_spec(g=0.5), 20, 120),
        (two_photon_spec(g=0.3), 20, 120),
    ])
    def test_analytic_state_is_truncated_eigenvector(self, spec, degree, n_max):
        # Expand exp(-rate z) * polynomial into the sector basis and check
        # H c = E c on the truncated matrix: the closed-form wavefunction,
        # not just the energy, must diagonalize the Hamiltonian. Every
        # accepted branch is checked.
        sols = [s for s in solve_qes(spec, degree) if s.reject_reason is None]
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
        sq = frame(spec).squeeze
        e = qes_energy(spec, 6)
        assert e < 2 * sq * 256 / 4
        with pytest.raises(WindowExceeded):
            match_energy(e, spec.with_delta(1.0), int(2 * e / sq), 1e-8)


class TestOmegaUnits:
    # The chains are solved in units of omega; at omega = 2^k every
    # conversion is exact, so the oracle's numbers over omega keep their bits.
    @pytest.mark.parametrize("spec", [
        rabi_spec(g=0.3),
        two_photon_spec(g=0.3),
        two_photon_spec(g=0.2, sector=Fraction(3, 4)),
        two_mode_spec(g=0.6),
        two_mode_spec(g=0.5, sector=Fraction(1)),
        two_mode_spec(g=0.4, sector=Fraction(3, 2)),
    ])
    def test_sweep_verify_at_powers_of_two(self, spec):
        # What sweep --verify does at each omega: solve, then match every
        # nontrivial branch (and the branch detuned) with tol scaled by omega.
        def verified(omega, degree):
            out = []
            for sol in solve_qes(make_spec(spec.kind, omega * spec.g, omega, spec.sector),
                                 degree):
                if sol.branch is not Branch.NONTRIVIAL:
                    continue
                n_max = default_n_max(sol.spec.kind)
                for target in (sol.spec, sol.spec.with_delta(sol.delta + omega * 1e-3)):
                    res = match_energy(sol.energy, target, n_max, omega * 1e-8)
                    out.append((res.matched, (res.gap / omega).hex(),
                                (res.truncation_drift / omega).hex()))
            return out

        for degree in (1, 2, 3):
            ref = verified(1.0, degree)
            assert ref and any(matched for matched, _, _ in ref)
            for omega in (2.0**-10, 2.0**10, 2.0**20):
                assert verified(omega, degree) == ref

    def test_tol_below_the_spacing_of_energies_is_refused(self):
        # At omega = 1e9 an E near 1.9e9 has neighbours 2.4e-7 apart:
        # tol = 1e-8 opens no window around it.
        spec = rabi_spec(g=3e8, omega=1e9, delta=1e9)
        with pytest.raises(ValidationError, match="tol"):
            match_energy(1.91e9, spec, 16, 1e-8)
        res = match_energy(1.91e9, spec, 16, 1e-6)
        assert res.gap > 0
