"""Material records and the preset registry."""

from dataclasses import dataclass
from math import inf

from . import constants
from .errors import InvariantError, UnknownMaterialError

CARRIERS = ("p", "n", "metal", "insulator")


@dataclass(frozen=True)
class MaterialProps:
    """Transport properties of one material, SI units.

    seebeck is signed (V/K): positive for p-type conduction, negative for
    n-type. Insulators carry seebeck 0 and participate only thermally.
    """

    name: str
    seebeck: float  # V/K
    resistivity: float  # ohm m
    thermal_conductivity: float  # W/(m K)
    carrier: str  # one of CARRIERS

    def __post_init__(self):
        if self.carrier not in CARRIERS:
            raise InvariantError(
                f"carrier must be one of {CARRIERS}, got {self.carrier!r}"
            )
        if not -inf < self.seebeck < inf:
            raise InvariantError(f"{self.name}: seebeck must be finite")
        if not 0 < self.resistivity < inf:
            raise InvariantError(f"{self.name}: resistivity must be finite and > 0")
        if not 0 < self.thermal_conductivity < inf:
            raise InvariantError(
                f"{self.name}: thermal_conductivity must be finite and > 0"
            )
        if self.carrier == "p" and not self.seebeck > 0:
            raise InvariantError(f"{self.name}: p-type requires seebeck > 0")
        if self.carrier == "n" and not self.seebeck < 0:
            raise InvariantError(f"{self.name}: n-type requires seebeck < 0")
        if self.carrier == "insulator" and self.seebeck != 0:
            raise InvariantError(f"{self.name}: insulator requires seebeck = 0")


@dataclass(frozen=True)
class StoichiometryRatio:
    """Te:Bi atomic ratio of a Bi(2+x)Te(3-x) deposit.

    1.5 is stoichiometric Bi2Te3; smaller is Bi rich, larger is Te rich.
    """

    te_to_bi: float

    def __post_init__(self):
        if not self.te_to_bi > 0:
            raise InvariantError("te_to_bi must be > 0")


_PRESETS = {
    "bi2te3_p_asdep": MaterialProps(
        "bi2te3_p_asdep",
        +constants.SEEBECK_COUPLE_AS_DEP / 2,
        constants.BI2TE3_RESISTIVITY_AS_DEP,
        constants.BI2TE3_THERMAL_CONDUCTIVITY,
        "p",
    ),
    "bi2te3_n_asdep": MaterialProps(
        "bi2te3_n_asdep",
        -constants.SEEBECK_COUPLE_AS_DEP / 2,
        constants.BI2TE3_RESISTIVITY_AS_DEP,
        constants.BI2TE3_THERMAL_CONDUCTIVITY,
        "n",
    ),
    "bi2te3_p_annealed": MaterialProps(
        "bi2te3_p_annealed",
        +constants.SEEBECK_COUPLE_ANNEALED / 2,
        constants.BI2TE3_RESISTIVITY_ANNEALED,
        constants.BI2TE3_THERMAL_CONDUCTIVITY,
        "p",
    ),
    "bi2te3_n_annealed": MaterialProps(
        "bi2te3_n_annealed",
        -constants.SEEBECK_COUPLE_ANNEALED / 2,
        constants.BI2TE3_RESISTIVITY_ANNEALED,
        constants.BI2TE3_THERMAL_CONDUCTIVITY,
        "n",
    ),
    "copper": MaterialProps(
        "copper",
        constants.COPPER_SEEBECK,
        constants.COPPER_RESISTIVITY,
        constants.COPPER_THERMAL_CONDUCTIVITY,
        "metal",
    ),
    "nickel": MaterialProps(
        "nickel",
        constants.NICKEL_SEEBECK,
        constants.NICKEL_RESISTIVITY,
        constants.NICKEL_THERMAL_CONDUCTIVITY,
        "metal",
    ),
    "su8": MaterialProps(
        "su8",
        0.0,
        constants.SU8_RESISTIVITY,
        constants.SU8_THERMAL_CONDUCTIVITY,
        "insulator",
    ),
    "gold": MaterialProps(
        "gold",
        constants.GOLD_SEEBECK,
        constants.GOLD_RESISTIVITY,
        constants.GOLD_THERMAL_CONDUCTIVITY,
        "metal",
    ),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def lookup_material(name: str) -> MaterialProps:
    """Return the immutable preset record for `name`."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownMaterialError(
            f"unknown material {name!r}; valid presets: {', '.join(preset_names())}"
        ) from None
