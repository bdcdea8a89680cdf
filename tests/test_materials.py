import dataclasses

import pytest

from tegkit import constants
from tegkit.device import GeneratorDesign, evaluate, internal_resistance
from tegkit.errors import InvariantError, UnknownMaterialError
from tegkit.materials import (
    MaterialProps,
    StoichiometryRatio,
    lookup_material,
    preset_names,
)


class TestPresets:
    def test_su8_is_a_pure_insulator(self):
        su8 = lookup_material("su8")
        assert su8.carrier == "insulator"
        assert su8.seebeck == 0.0

    def test_n_type_preset_has_negative_seebeck(self):
        assert lookup_material("bi2te3_n_asdep").seebeck < 0
        assert lookup_material("bi2te3_n_annealed").seebeck < 0

    def test_p_type_preset_has_positive_seebeck(self):
        assert lookup_material("bi2te3_p_asdep").seebeck > 0

    def test_copper_and_nickel_have_opposite_seebeck_signs(self):
        # Absolute thermopowers at 300 K: Cu is weakly positive, Ni strongly
        # negative (values recorded in tegkit.constants with sources).
        cu = lookup_material("copper")
        ni = lookup_material("nickel")
        assert cu.seebeck > 0 > ni.seebeck
        assert cu.carrier == ni.carrier == "metal"

    def test_every_preset_satisfies_record_invariants(self):
        for name in preset_names():
            mat = lookup_material(name)
            assert mat.resistivity > 0
            assert mat.thermal_conductivity > 0
            if mat.carrier == "p":
                assert mat.seebeck > 0
            elif mat.carrier == "n":
                assert mat.seebeck < 0
            elif mat.carrier == "insulator":
                assert mat.seebeck == 0

    def test_unknown_name_error_lists_the_valid_set(self):
        with pytest.raises(UnknownMaterialError) as err:
            lookup_material("unobtainium")
        for name in preset_names():
            assert name in str(err.value)

    def test_annealed_presets_are_less_resistive_by_the_anneal_gain(self):
        asdep = lookup_material("bi2te3_p_asdep")
        annealed = lookup_material("bi2te3_p_annealed")
        assert annealed.resistivity == pytest.approx(
            asdep.resistivity / constants.ANNEAL_POWER_GAIN, rel=1e-15
        )


class TestMaterialInvariants:
    def test_rejects_nonpositive_resistivity(self):
        with pytest.raises(InvariantError):
            MaterialProps("bad", 1e-4, 0.0, 1.0, "p")

    def test_rejects_wrong_seebeck_sign(self):
        with pytest.raises(InvariantError):
            MaterialProps("bad", -1e-4, 1e-5, 1.0, "p")
        with pytest.raises(InvariantError):
            MaterialProps("bad", +1e-4, 1e-5, 1.0, "n")

    def test_insulator_must_have_zero_seebeck(self):
        with pytest.raises(InvariantError):
            MaterialProps("bad", 1e-6, 1e14, 0.2, "insulator")

    @pytest.mark.parametrize("args", [
        (float("nan"), 1e-5, 1.0, "metal"), (float("inf"), 1e-5, 1.0, "p"),
        (1e-4, float("inf"), 1.0, "p"), (1e-4, 1e-5, float("inf"), "p")])
    def test_rejects_non_finite_properties(self, args):
        with pytest.raises(InvariantError):
            MaterialProps("bad", *args)

    def test_unknown_carrier_rejected(self):
        with pytest.raises(InvariantError):
            MaterialProps("bad", 1e-4, 1e-5, 1.0, "semimetal")


class TestStoichiometry:
    def test_ratio_must_be_positive(self):
        with pytest.raises(InvariantError):
            StoichiometryRatio(0.0)


def _bare_design(rho_c=0.0):
    p = MaterialProps("p", +1e-4, 2e-5, 1.5, "p")
    n = MaterialProps("n", -1e-4, 2e-5, 1.5, "n")
    su8 = lookup_material("su8")
    return GeneratorDesign(
        leg_length=200e-6,
        leg_area=1e-8,
        fill_factor=0.2,
        device_area=1e-4,
        p_material=p,
        n_material=n,
        matrix_material=su8,
        contact_resistivity=rho_c,
        interface_resistance=3.9,
    )


def _annealed(design, gain):
    # Annealing is modelled as a resistivity drop by the power gain alone.
    def anneal(mat):
        return dataclasses.replace(mat, resistivity=mat.resistivity / gain)

    return dataclasses.replace(
        design,
        p_material=anneal(design.p_material),
        n_material=anneal(design.n_material),
    )


class TestAnnealing:
    def test_annealing_both_legs_scales_device_power_by_the_gain(self):
        # Matched power is alpha^2 / (4 R_i) per couple; with no contact
        # parasitics R_i is proportional to leg resistivity, so the whole
        # device gains exactly the annealing factor.
        design = _bare_design(rho_c=0.0)
        before = evaluate(design, 40.0).p_matched
        gain = constants.ANNEAL_POWER_GAIN
        annealed = _annealed(design, gain)
        after = evaluate(annealed, 40.0).p_matched
        assert after / before == pytest.approx(gain, rel=1e-12)

    def test_gain_two_halves_internal_resistance_without_contacts(self):
        design = _bare_design(rho_c=0.0)
        halved = _annealed(design, 2.0)
        assert internal_resistance(halved) == pytest.approx(
            internal_resistance(design) / 2, rel=1e-15
        )
