import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qes_rabi
from qes_rabi import (
    BadSector,
    CouplingOutOfRange,
    Frame,
    ModelKind,
    ModelSpec,
    ValidationError,
    WrongModel,
    ZeroCoupling,
    frame,
    su11_elements,
    validate,
)
from conftest import rabi_spec, two_mode_spec, two_photon_spec


class TestValidate:
    def test_two_photon_coupling_out_of_range(self):
        with pytest.raises(CouplingOutOfRange):
            validate(two_photon_spec(g=0.6))

    def test_two_mode_at_same_coupling_is_valid(self):
        spec = two_mode_spec(g=0.6)
        assert validate(spec) is spec

    def test_zero_coupling_rejected(self):
        with pytest.raises(ZeroCoupling):
            validate(rabi_spec(g=0.0))

    def test_zero_coupling_admitted_when_relaxed(self):
        spec = rabi_spec(g=0.0, delta=0.5)
        assert validate(spec, require_coupling=False) is spec

    def test_rabi_rejects_sector(self):
        with pytest.raises(BadSector):
            validate(ModelSpec(ModelKind.RABI, 1.0, 0.3, sector=Fraction(1, 4)))

    @pytest.mark.parametrize("sector", [Fraction(1, 2), Fraction(1, 3), Fraction(0)])
    def test_two_photon_sector_must_be_quarter_or_three_quarter(self, sector):
        with pytest.raises(BadSector):
            validate(two_photon_spec(sector=sector))

    @pytest.mark.parametrize("sector", [Fraction(1, 4), Fraction(-1, 2), Fraction(0)])
    def test_two_mode_sector_must_be_positive_half_integer(self, sector):
        with pytest.raises(BadSector):
            validate(two_mode_spec(sector=sector))

    @pytest.mark.parametrize("sector", ["1/2", "1", "3/2", "5"])
    def test_two_mode_accepts_half_integers(self, sector):
        validate(two_mode_spec(sector=Fraction(sector)))

    def test_negative_coupling_allowed_inside_domain(self):
        validate(rabi_spec(g=-0.3))
        validate(two_photon_spec(g=-0.3))

    def test_bad_omega(self):
        with pytest.raises(ValidationError):
            validate(ModelSpec(ModelKind.RABI, -1.0, 0.3))

    def test_negative_delta(self):
        with pytest.raises(ValidationError):
            validate(rabi_spec(delta=-0.1))

    def test_sector_normalized_to_fraction(self):
        spec = ModelSpec(ModelKind.TWO_PHOTON, 1.0, 0.3, sector=0.25)
        assert spec.sector == Fraction(1, 4)


class TestFrame:
    # omega = 1.3 = 13/10: every field below is the parent expression in g/omega.
    def test_rabi(self):
        f = frame(rabi_spec(g=0.3, omega=1.3))
        assert f == Frame(ModelKind.RABI, 0.3 / 1.3, 0.0, 0.0, 1.0)
        assert f.squeeze == 1.0
        assert f.prefactor_rate == 0.3 / 1.3

    def test_two_mode(self):
        f = frame(two_mode_spec(g=0.6, omega=1.3, sector=Fraction(3, 2)))
        assert (f.kind, f.g, f.kappa, f.energy_shift, f.z_scale) == (
            ModelKind.TWO_MODE, 0.6 / 1.3, 1.5, 0.0, 1.0)
        assert f.squeeze == math.sqrt(1.0 - (0.6 / 1.3) ** 2)
        assert f.prefactor_rate == 1.0 / (0.6 / 1.3) * (1.0 - f.squeeze)

    @pytest.mark.parametrize("sector", [Fraction(1, 4), Fraction(3, 4)])
    def test_two_photon(self, sector):
        f = frame(two_photon_spec(g=0.3, omega=1.3, sector=sector))
        assert (f.kind, f.g, f.kappa, f.energy_shift, f.z_scale) == (
            ModelKind.TWO_PHOTON, 2.0 * 0.3 / 1.3, float(sector), 0.5, 2.0)
        assert f.prefactor_rate == 1.0 / f.g * (1.0 - f.squeeze) / 2.0

    @pytest.mark.parametrize("sector", [Fraction(1, 4), Fraction(3, 4)])
    def test_two_photon_is_two_mode_at_twice_the_coupling(self, sector):
        # The 2-photon model at (omega, g, q) is the two-mode model at
        # (omega, 2g, kappa = q), shifted up by omega/2, in z = 2 z_two_mode.
        f = frame(two_photon_spec(g=0.3, omega=1.3, sector=sector))
        two_mode = frame(two_mode_spec(g=0.6, omega=1.3, sector=sector))
        assert (f.g, f.kappa, f.squeeze) == (two_mode.g, two_mode.kappa, two_mode.squeeze)
        assert (f.energy_shift, f.z_scale) == (0.5, 2.0)
        assert (two_mode.energy_shift, two_mode.z_scale) == (0.0, 1.0)
        assert f.prefactor_rate == two_mode.prefactor_rate / 2.0

    def test_properties_computed_when_read(self):
        # validate reads the coupling beyond the collapse boundary, and the
        # oracle builds frames at g = 0.
        beyond = frame(two_mode_spec(g=1.5))
        assert beyond.g == 1.5
        with pytest.raises(ValueError):
            beyond.squeeze
        with pytest.raises(CouplingOutOfRange):
            validate(two_mode_spec(g=1.5))
        decoupled = frame(two_photon_spec(g=0.0))
        assert decoupled.squeeze == 1.0
        with pytest.raises(ZeroDivisionError):
            decoupled.prefactor_rate


class TestSqueezeAndPrefactorRate:
    def test_two_photon(self):
        sf = frame(two_photon_spec(g=0.3))
        assert sf.squeeze == pytest.approx(0.8, abs=1e-15)
        assert sf.prefactor_rate == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_two_mode(self):
        sf = frame(two_mode_spec(g=0.6))
        assert sf.squeeze == pytest.approx(0.8, abs=1e-15)
        assert sf.prefactor_rate == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_rabi(self):
        sf = frame(rabi_spec(g=0.3))
        assert sf.squeeze == 1.0
        assert sf.prefactor_rate == pytest.approx(0.3, abs=1e-16)

    def test_negative_g_flips_rate_only(self):
        plus = frame(two_mode_spec(g=0.6))
        minus = frame(two_mode_spec(g=-0.6))
        assert minus.squeeze == plus.squeeze
        assert minus.prefactor_rate == -plus.prefactor_rate


class TestSu11:
    def test_ground_level(self):
        k0, kplus = su11_elements(two_photon_spec(), 0)
        assert k0 == pytest.approx(0.25)
        assert kplus == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_q_three_quarter(self):
        k0, kplus = su11_elements(two_photon_spec(sector=Fraction(3, 4)), 1)
        assert k0 == pytest.approx(1.75)
        assert kplus == pytest.approx(math.sqrt(5.0), abs=1e-15)

    def test_two_mode_kappa_half(self):
        k0, kplus = su11_elements(two_mode_spec(), 2)
        assert (k0, kplus) == pytest.approx((2.5, 3.0), abs=1e-15)

    @pytest.mark.parametrize("build,sector", [
        (two_photon_spec, Fraction(1, 4)),
        (two_photon_spec, Fraction(3, 4)),
        (two_mode_spec, Fraction(1, 2)),
    ])
    def test_array_levels_match_scalar_levels(self, build, sector):
        # The oracle reads its chain couplings from one array call.
        spec = build(sector=sector)
        arrays = su11_elements(spec, np.arange(20))
        for n in range(20):
            assert tuple(a[n] for a in arrays) == su11_elements(spec, n)

    @pytest.mark.parametrize("n", [-1, np.array([0, -1])])
    def test_negative_level_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            su11_elements(two_mode_spec(), n)

    def test_rabi_has_no_su11(self):
        with pytest.raises(WrongModel):
            su11_elements(rabi_spec(), 0)

    @pytest.mark.parametrize("build,sector,want", [
        (two_photon_spec, Fraction(1, 4), 3.0 / 16.0),
        (two_photon_spec, Fraction(3, 4), 3.0 / 16.0),
        (two_mode_spec, Fraction(1, 2), 0.25),
        (two_mode_spec, Fraction(1), 0.0),
        (two_mode_spec, Fraction(3, 2), -0.75),
    ])
    def test_representation_identities(self, build, sector, want):
        # The Casimir value K+K- - K0(K0-1) = sector(1-sector), level by
        # level, K- on |n> being K+ on |n-1>: 3/16 for both 2-photon
        # sectors, kappa (1 - kappa) for the two-mode model.
        spec = build(sector=sector)
        for n in range(51):
            k0, _ = su11_elements(spec, n)
            casimir = su11_elements(spec, n - 1)[1] ** 2 - k0 * (k0 - 1) \
                if n > 0 else -k0 * (k0 - 1)
            assert abs(casimir - want) <= 1e-12


def test_all_is_exactly_the_public_names_of_the_package():
    tree = ast.parse(Path(qes_rabi.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert len(qes_rabi.__all__) == len(set(qes_rabi.__all__))
    assert set(qes_rabi.__all__) == {n for n in bound if not n.startswith("_")}
    exec("from qes_rabi import *", {})  # raises on a name that does not resolve
