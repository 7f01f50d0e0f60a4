import math
from fractions import Fraction

import numpy as np
import pytest

from qes_rabi import ModelKind, frame, qes_energy, solve_qes
from qes_rabi.stencil import _apply_terms, _delta_sq_sign, _factors
from conftest import (
    band,
    make_spec,
    operator,
    pencil,
    rabi_spec,
    random_specs,
    two_mode_spec,
    two_photon_spec,
)

ALL_KINDS = [ModelKind.RABI, ModelKind.TWO_PHOTON, ModelKind.TWO_MODE]


def factored_image(spec, energy, coeffs):
    """L2 applied to L1 applied to coeffs, factor by factor."""
    first, second = _factors(frame(spec), energy / spec.omega)
    return _apply_terms(second, _apply_terms(first, coeffs))


class TestBands:
    def test_rabi_raising_band(self):
        op = operator(rabi_spec(g=0.3), 0.91, 10)
        assert band(op, +1, 0) == pytest.approx(0.6, abs=1e-15)
        assert band(op, +1, 1) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("sector", [Fraction(1, 2), Fraction(1), Fraction(5, 2)])
    def test_two_mode_raising_band_and_constant_term_closed_form(self, sector):
        # The operator is L / omega^2, read at g/omega and E/omega.
        w, g, E = 1.1, 0.47, 0.83
        op = operator(two_mode_spec(g=g, omega=w, sector=sector), E, 10)
        g, E = g / w, E / w
        lam, kap = math.sqrt(1.0 - g * g), float(sector)
        for k in range(8):
            want = 4 * (1 - lam) / g * (2 * lam * (k + kap) - 1 - E)
            assert band(op, +1, k) == pytest.approx(want, rel=1e-13)
        want = 4 * kap * kap * (1 - lam) ** 2 - (E - 2 * (kap - 0.5)) ** 2
        assert band(op, 0, 0) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("sector", [Fraction(1, 4), Fraction(3, 4)])
    def test_two_photon_raising_band_through_frame(self, sector):
        # The two-mode band at (omega, 2g, kappa = q) and E - omega/2, in
        # units of omega; with z = 2 z_two_mode a +1-band term picks up a
        # factor 1/2.
        w, g, E = 0.9, 0.21, 1.37
        g2, e2, kap = 2 * g / w, E / w - 0.5, float(sector)
        lam = math.sqrt(1.0 - g2 * g2)
        op = operator(two_photon_spec(g=g, omega=w, sector=sector), E, 10)
        for k in range(8):
            want = 4 * (1 - lam) / g2 * (2 * lam * (k + kap) - 1 - e2) / 2
            assert band(op, +1, k) == pytest.approx(want, rel=1e-13)

    def test_rabi_diagonal_band_closed_form(self):
        w, g, E = 1.3, 0.21, 0.77
        op = operator(rabi_spec(g=g, omega=w), E, 10)
        g, E = g / w, E / w  # the operator is L / omega^2
        for k in range(8):
            want = k * (k - 1) + (1 - 2 * g * g - 2 * E) * k + E * E - g**4
            assert band(op, 0, k) == pytest.approx(want, rel=1e-14)

    def test_delta_sq_signs(self):
        assert _delta_sq_sign(ModelKind.RABI) == -1
        assert _delta_sq_sign(ModelKind.TWO_PHOTON) == +1
        assert _delta_sq_sign(ModelKind.TWO_MODE) == +1

    def test_band_offsets_limited(self):
        for kind in ALL_KINDS:
            spec = random_specs(kind, 1, seed=7)[0]
            rows, cols = np.nonzero(operator(spec, qes_energy(spec, 4), 10))
            assert set(rows - cols) == {+1, 0, -1, -2}

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_termination_band_vanishes_at_qes_energy(self, kind):
        for spec in random_specs(kind, 20, seed=11):
            for degree in range(1, 11):
                op = operator(spec, qes_energy(spec, degree), degree + 1)
                assert abs(band(op, +1, degree)) <= 1e-12


def _image(spec, energy, d2, coeffs):
    """Image of the full operator, delta^2 part included, through the two
    factors: length n + 1 for n coefficients."""
    out = factored_image(spec, energy, coeffs)
    out[: len(coeffs)] += _delta_sq_sign(spec.kind) * d2 * coeffs
    return out


class TestApplyOde:
    def test_zero_maps_to_zero(self):
        out = _image(rabi_spec(), 0.91, 0.64, np.zeros(4))
        assert out.shape == (5,)
        assert np.all(out == 0.0)

    def test_rabi_degree_one_solution(self):
        # z + 41/30 solves the eliminated equation at g=0.3, E=0.91,
        # delta^2 = 0.64.
        out = _image(rabi_spec(g=0.3), 0.91, 0.64, np.array([41.0 / 30.0, 1.0]))
        assert np.max(np.abs(out)) <= 1e-12

    def test_rabi_constant_image(self):
        w, g, E, d2 = 1.0, 0.23, 0.456, 0.3
        out = _image(rabi_spec(g=g, omega=w), E, d2, np.array([1.0]))
        assert out == pytest.approx(
            [E * E - d2 - g**4 / w**2, 2 * g * (g * g / w + E)], rel=1e-14)

    def test_linearity(self):
        spec = rabi_spec()
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        lhs = _image(spec, 1.5, 0.7, 2.0 * a + 3.0 * b)
        rhs = 2.0 * _image(spec, 1.5, 0.7, a) + 3.0 * _image(spec, 1.5, 0.7, b)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def _scalar_image(terms, coeffs):
    """The operator image by the plain loop: k ascending, then term order."""
    out = np.zeros(len(coeffs) + 1, dtype=np.result_type(coeffs, float))
    for k, ck in enumerate(coeffs):
        for d, m, c in terms:
            if k - d + m >= 0:
                out[k - d + m] += c * math.perm(k, d) * ck
    return out


def _scalar_operator(spec, coeffs):
    """L applied by the plain loop at the quasi-exact energy of degree
    len(coeffs) - 1: L1 first, its image cut to len(coeffs) (L1 keeps
    the degree), then L2."""
    f = frame(spec)
    first, second = _factors(f, qes_energy(spec, len(coeffs) - 1) / spec.omega)
    return _scalar_image(second, _scalar_image(first, coeffs)[:len(coeffs)])


class TestAccumulationOrder:
    # The vectorised term routine must sum every output coefficient in the
    # scalar loop's order, so that pencils and residuals keep their bits.
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bitwise_equal_to_scalar_loop(self, kind):
        rng = np.random.default_rng(41)
        for spec in random_specs(kind, 3, seed=43):
            # The solve's factors: the model at (1, g/omega), in units of omega.
            unit = make_spec(spec.kind, spec.g / spec.omega, 1.0, spec.sector)
            for degree in range(1, 13):
                n = degree + 1
                sign = _delta_sq_sign(kind)
                want = np.column_stack(
                    [_scalar_operator(unit, col)[:n] for col in np.eye(n)])
                assert np.array_equal(pencil(spec, degree), want)

                coeffs = rng.standard_normal(n)
                d2 = float(rng.uniform(0.0, 5.0))
                want = _scalar_operator(unit, coeffs)
                want[:n] += sign * d2 * coeffs
                energy = qes_energy(unit, degree)
                assert np.array_equal(_image(unit, energy, d2, coeffs), want)

                # The solve's residuals, all branches in one block.
                for sol in solve_qes(spec, degree):
                    want = _scalar_operator(unit, sol.coeffs)
                    want[:n] += sign * sol.unit_delta_squared * sol.coeffs
                    res = np.max(np.abs(want)) / np.max(np.abs(sol.coeffs))
                    assert sol.ode_residual == res
