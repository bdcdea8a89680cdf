"""Reference device designs built on the calibrated material presets.

The geometry is shared across all three designs so comparisons isolate the
leg material; the fill factor is the calibrated value that reproduces the
inferred generator temperature difference through the interface divider.
"""

from dataclasses import replace

from . import constants
from .device import GeneratorDesign
from .materials import lookup_material


def _reference_design(
    p_name: str,
    n_name: str,
    contact_resistivity: float = constants.CONTACT_RESISTIVITY_REF,
) -> GeneratorDesign:
    return GeneratorDesign(
        leg_length=constants.LEG_LENGTH_REF,
        leg_area=constants.LEG_AREA_REF,
        fill_factor=constants.FILL_FACTOR_REF,
        device_area=constants.DEVICE_AREA_REF,
        p_material=lookup_material(p_name),
        n_material=lookup_material(n_name),
        matrix_material=lookup_material("su8"),
        contact_resistivity=contact_resistivity,
        interface_resistance=constants.K_INTERFACE_REF,
    )


def as_deposited_design() -> GeneratorDesign:
    """Electroplated Bi2Te3 legs before annealing (71.6 uW/cm2 at 40 K)."""
    return _reference_design("bi2te3_p_asdep", "bi2te3_n_asdep")


def annealed_design() -> GeneratorDesign:
    """Annealed Bi2Te3 legs (278.5 uW/cm2 at 40 K)."""
    return _reference_design("bi2te3_p_annealed", "bi2te3_n_annealed")


def cu_ni_design() -> GeneratorDesign:
    """Electroplated Cu/Ni legs on the same geometry (earlier technology)."""
    return _reference_design(
        "copper", "nickel", contact_resistivity=constants.CONTACT_RESISTIVITY_METAL
    )


def with_couple_seebeck(design: GeneratorDesign, couple: float) -> GeneratorDesign:
    """Copy of `design` whose legs split `couple` evenly (+/- couple / 2)."""
    return replace(
        design,
        p_material=replace(
            design.p_material, seebeck=+couple / 2, carrier="p"
        ),
        n_material=replace(
            design.n_material, seebeck=-couple / 2, carrier="n"
        ),
    )
