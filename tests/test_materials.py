import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tegkit import constants
from tegkit.device import GeneratorDesign, evaluate, internal_resistance
from tegkit.errors import InvariantError, ParameterError, UnknownMaterialError
from tegkit.materials import (
    NEAR_STOICHIOMETRIC,
    MaterialProps,
    StoichiometryRatio,
    apply_annealing,
    classify_carrier,
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

    def test_stoichiometric_ratio_has_zero_bi_excess(self):
        assert StoichiometryRatio(1.5).bi_excess == pytest.approx(0.0, abs=1e-15)

    def test_bi_rich_ratio_has_positive_bi_excess(self):
        assert StoichiometryRatio(0.8).bi_excess > 0
        assert StoichiometryRatio(2.1).bi_excess < 0

    def test_measured_range_endpoints_classify_as_p_and_n(self):
        assert classify_carrier(StoichiometryRatio(0.8)) == "p"
        assert classify_carrier(StoichiometryRatio(2.1)) == "n"

    def test_balanced_composition_is_near_stoichiometric(self):
        assert classify_carrier(StoichiometryRatio(1.5)) == NEAR_STOICHIOMETRIC

    def test_band_edges_are_inclusive_to_the_near_class(self):
        assert classify_carrier(StoichiometryRatio(1.55)) == NEAR_STOICHIOMETRIC
        assert classify_carrier(StoichiometryRatio(1.45)) == NEAR_STOICHIOMETRIC
        assert classify_carrier(StoichiometryRatio(1.5501)) == "n"
        assert classify_carrier(StoichiometryRatio(1.4499)) == "p"

    def test_zero_band_splits_at_exactly_the_balanced_ratio(self):
        assert classify_carrier(StoichiometryRatio(1.5), band=0.0) == (
            NEAR_STOICHIOMETRIC
        )
        assert classify_carrier(StoichiometryRatio(1.5000001), band=0.0) == "n"

    def test_negative_band_rejected(self):
        with pytest.raises(ParameterError):
            classify_carrier(StoichiometryRatio(1.5), band=-0.1)

    @given(
        st.floats(0.1, 5.0),
        st.floats(0.1, 5.0),
        st.floats(0.0, 0.5),
    )
    def test_classification_is_monotone_in_the_ratio(self, r1, r2, band):
        lo, hi = sorted((r1, r2))
        rank = {"p": 0, NEAR_STOICHIOMETRIC: 1, "n": 2}
        assert (
            rank[classify_carrier(StoichiometryRatio(lo), band)]
            <= rank[classify_carrier(StoichiometryRatio(hi), band)]
        )


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


class TestAnnealing:
    def test_unity_gain_is_the_identity(self):
        mat = lookup_material("bi2te3_p_asdep")
        assert apply_annealing(mat, 1.0) == mat

    def test_seebeck_is_untouched(self):
        mat = lookup_material("bi2te3_p_asdep")
        assert apply_annealing(mat, 3.9).seebeck == mat.seebeck

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ParameterError):
            apply_annealing(lookup_material("bi2te3_p_asdep"), 0.0)

    def test_only_thermolegs_can_be_annealed(self):
        with pytest.raises(ParameterError):
            apply_annealing(lookup_material("su8"), 2.0)
        with pytest.raises(ParameterError):
            apply_annealing(lookup_material("copper"), 2.0)

    @given(st.floats(0.1, 50.0), st.floats(0.1, 50.0))
    def test_composition_is_multiplicative_in_the_gain(self, g1, g2):
        mat = lookup_material("bi2te3_p_asdep")
        twice = apply_annealing(apply_annealing(mat, g1), g2)
        once = apply_annealing(mat, g1 * g2)
        assert twice.resistivity == pytest.approx(once.resistivity, rel=1e-14)

    def test_annealing_both_legs_scales_device_power_by_the_gain(self):
        # Matched power is alpha^2 / (4 R_i) per couple; with no contact
        # parasitics R_i is proportional to leg resistivity, so the whole
        # device gains exactly the annealing factor.
        design = _bare_design(rho_c=0.0)
        before = evaluate(design, 40.0).p_matched
        gain = constants.ANNEAL_POWER_GAIN
        annealed = dataclasses.replace(
            design,
            p_material=apply_annealing(design.p_material, gain),
            n_material=apply_annealing(design.n_material, gain),
        )
        after = evaluate(annealed, 40.0).p_matched
        assert after / before == pytest.approx(gain, rel=1e-12)

    def test_gain_two_halves_internal_resistance_without_contacts(self):
        design = _bare_design(rho_c=0.0)
        halved = dataclasses.replace(
            design,
            p_material=apply_annealing(design.p_material, 2.0),
            n_material=apply_annealing(design.n_material, 2.0),
        )
        assert internal_resistance(halved) == pytest.approx(
            internal_resistance(design) / 2, rel=1e-15
        )
