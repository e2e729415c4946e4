import math

import pytest
from hypothesis import given, strategies as st

from pathgain.diffuse import (
    DiffuseLink,
    PenetrationSpec,
    diffuse_pathgain,
    t_eff,
)
from pathgain.units import wavelength_m


class TestTEff:
    def test_aperture_tends_to_street(self):
        d = 2.0
        wide = t_eff(PenetrationSpec.aperture(3.0, 1e6 * d), d)
        street = t_eff(PenetrationSpec.street(3.0), d)
        assert wide == pytest.approx(street, rel=1e-4)

    def test_street_tends_to_unbounded(self):
        d = 2.0
        assert t_eff(PenetrationSpec.street(1e6 * d, material_t2=0.8), d) == \
            pytest.approx(0.8, rel=1e-4)

    def test_facade_mixture_suburban_house(self):
        # 10% plain-glass windows in an opaque wall
        spec = PenetrationSpec.facade_mixture(0.1, 1.0, 0.0)
        assert t_eff(spec) == pytest.approx(0.1, rel=1e-14)

    @given(d1=st.floats(min_value=0.1, max_value=50.0),
           d2=st.floats(min_value=0.1, max_value=50.0))
    def test_monotone_in_depth(self, d1, d2):
        spec = PenetrationSpec.aperture(2.0, 3.0)
        lo, hi = sorted([d1, d2])
        assert t_eff(spec, hi) <= t_eff(spec, lo) + 1e-15

    @given(w1=st.floats(min_value=0.1, max_value=100.0),
           w2=st.floats(min_value=0.1, max_value=100.0))
    def test_monotone_in_widths(self, w1, w2):
        lo, hi = sorted([w1, w2])
        assert t_eff(PenetrationSpec.aperture(hi, 3.0), 1.5) >= \
            t_eff(PenetrationSpec.aperture(lo, 3.0), 1.5) - 1e-15
        assert t_eff(PenetrationSpec.street(hi), 1.5) >= \
            t_eff(PenetrationSpec.street(lo), 1.5) - 1e-15

    def test_bounded_variant_needs_depth(self):
        with pytest.raises(ValueError):
            t_eff(PenetrationSpec.street(3.0))

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            PenetrationSpec.aperture(2.0, -1.0)
        with pytest.raises(ValueError):
            PenetrationSpec.facade_mixture(1.2, 1.0, 0.0)
        with pytest.raises(ValueError):
            PenetrationSpec.unbounded(material_t2=1.5)


class TestDiffusePathgain:
    def link(self, r=100.0, kappa=0.38, d_in=10.0, f_hz=28e9, d_s=20.0):
        return DiffuseLink(d_s, r, d_in, kappa, wavelength_m(f_hz))

    def test_lossless_unbounded_form(self):
        link = self.link(kappa=0.0)
        expected = (link.wavelength_m**2 * 20.0**2
                    / (8.0 * math.pi**2 * 100.0**4))
        assert diffuse_pathgain(link, PenetrationSpec.unbounded()) == \
            pytest.approx(expected, rel=1e-14)

    def test_quartic_law(self):
        spec = PenetrationSpec.unbounded()
        g1 = diffuse_pathgain(self.link(r=100.0), spec)
        g2 = diffuse_pathgain(self.link(r=200.0), spec)
        assert g1 / g2 == pytest.approx(16.0, rel=1e-12)
        # r^4 * gain is range-free
        products = [diffuse_pathgain(self.link(r=r), spec) * r**4
                    for r in (50.0, 120.0, 400.0, 1600.0)]
        assert max(products) == pytest.approx(min(products), rel=1e-12)

    def test_aperture_spec_reuses_t_eff(self):
        spec = PenetrationSpec.aperture(2.0, 1.5, material_t2=0.6)
        link = self.link()
        unbounded = diffuse_pathgain(link, PenetrationSpec.unbounded())
        assert diffuse_pathgain(link, spec) == pytest.approx(
            unbounded * t_eff(spec, link.depth_m), rel=1e-14)

    def test_monotone_in_absorption_and_depth(self):
        spec = PenetrationSpec.street(4.0)
        gains_kappa = [diffuse_pathgain(self.link(kappa=k), spec)
                       for k in (0.0, 0.1, 0.4, 1.0)]
        assert all(a > b for a, b in zip(gains_kappa, gains_kappa[1:]))
        gains_depth = [diffuse_pathgain(self.link(d_in=d), spec)
                       for d in (1.0, 3.0, 10.0, 30.0)]
        assert all(a > b for a, b in zip(gains_depth, gains_depth[1:]))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            DiffuseLink(20.0, 10.0, 5.0, 0.1, 0.01)  # range < standoff
        with pytest.raises(ValueError):
            DiffuseLink(20.0, 100.0, 5.0, -0.1, 0.01)

