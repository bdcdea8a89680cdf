"""Physical constants, literature transport data, and calibration anchors.

Everything here is SI. Display-unit conversion factors live in
tegkit.config. The bismuth-telluride Seebeck presets are not literature
numbers: they are derived below from the demonstrator measurements so the
device-level outputs of the model are fixed points (see README, section
"Calibration philosophy").
"""

import math

FARADAY = 96485.33212  # C/mol, CODATA 2018

# ---------------------------------------------------------------------------
# Literature transport properties
# ---------------------------------------------------------------------------
# Electroplated Bi2Te3 films near room temperature. Order-of-magnitude
# starting values; compare Takahashi et al., J. Appl. Phys. 96, 5582 (2004)
# and Rowe (ed.), CRC Handbook of Thermoelectrics. Leg Seebeck magnitudes of
# literature films are ~100-200 uV/K; the shipped presets instead carry the
# calibrated values computed at the bottom of this file.
BI2TE3_THERMAL_CONDUCTIVITY = 1.5  # W/(m K)
BI2TE3_RESISTIVITY_AS_DEP = 2.0e-5  # ohm m, as deposited
ANNEAL_POWER_GAIN = 3.9  # matched-power gain measured after 18 h at 200 C

# Metals at 300 K. Absolute Seebeck coefficients from Cusack & Kendall,
# Proc. Phys. Soc. 72, 898 (1958); resistivity and thermal conductivity
# from the CRC Handbook of Chemistry and Physics.
COPPER_SEEBECK = +1.83e-6  # V/K
COPPER_RESISTIVITY = 1.68e-8  # ohm m
COPPER_THERMAL_CONDUCTIVITY = 401.0  # W/(m K)
NICKEL_SEEBECK = -19.5e-6
NICKEL_RESISTIVITY = 6.99e-8
NICKEL_THERMAL_CONDUCTIVITY = 90.9
GOLD_SEEBECK = +1.94e-6
GOLD_RESISTIVITY = 2.44e-8
GOLD_THERMAL_CONDUCTIVITY = 318.0

# SU-8 epoxy photoresist (mold, matrix, and package material).
SU8_THERMAL_CONDUCTIVITY = 0.2  # W/(m K)
SU8_RESISTIVITY = 1.0e14  # ohm m, insulator

# Bulk Bi2Te3 data used by the deposition simulator.
BI2TE3_MOLAR_MASS = 0.80076  # kg/mol
BI2TE3_DENSITY = 7700.0  # kg/m3
BI2TE3_ELECTRONS_PER_FORMULA = 18  # 2 Bi x 3e + 3 Te x 4e
TE_ION_ELECTRONS = 4  # HTeO2+ + 3 H+ + 4 e- -> Te + 2 H2O
DEFAULT_DIFFUSIVITY = 1.0e-9  # m2/s, typical aqueous ion

# Electrolyte anchors: the standard bath's Te ion and Bi2O3 concentrations,
# and the Bi2O3 window over which deposit stoichiometry was mapped.
BATH_C_TEO2 = 80.0  # mol/m3
BATH_C_BI2O3 = 40.0  # mol/m3, the recipe boundary
BATH_C_BI2O3_MIN = 20.0  # mol/m3, most Te-rich recipe
BATH_C_BI2O3_MAX = 60.0  # mol/m3, most Bi-rich recipe
STOICH_TE_RICH = 2.1  # Te:Bi at 20 mol/m3 Bi2O3
STOICH_BI_RICH = 0.8  # Te:Bi at 60 mol/m3 Bi2O3
STOICH_BALANCED = 1.5  # stoichiometric Bi2Te3; recipe boundary at 40 mol/m3

# ---------------------------------------------------------------------------
# Demonstrator measurements used as calibration anchors
# ---------------------------------------------------------------------------
DT_MEAS_REF = 40.0  # K, difference between the external sensors
DT_GEN_REF = 21.4  # K, model-inferred difference across the generator
K_INTERFACE_REF = 3.9  # K/W, lumped thermal interface resistance (both faces)
POWER_DENSITY_AS_DEP = 0.716  # W/m2 (71.6 uW/cm2) at DT_MEAS_REF
POWER_DENSITY_ANNEALED = 2.785  # W/m2 (278.5 uW/cm2) at DT_MEAS_REF
CU_NI_POWER_RATIO_MIN = 60.0  # annealed Bi2Te3 vs Cu/Ni legs, same conditions

# ---------------------------------------------------------------------------
# Reference device geometry
# ---------------------------------------------------------------------------
# The measurements above are area-normalized, so the absolute geometry is a
# choice; these values stay inside the fabrication constraints (SU-8 molds
# 200-500 um deep, leg aspect ratio >= 1.5).
DEVICE_AREA_REF = 1.0e-4  # m2 (1 cm2)
LEG_LENGTH_REF = 200e-6  # m
LEG_AREA_REF = 1.0e-8  # m2, 100 um x 100 um legs (aspect ratio 2)
CONTACT_RESISTIVITY_REF = 1.0e-10  # ohm m2, Au / Bi2Te3 contact
CONTACT_RESISTIVITY_METAL = 1.0e-11  # ohm m2, metal on metal

# Thermal calibration: the generator resistance that reproduces DT_GEN_REF
# through the interface divider, and the fill factor that realizes it with
# the transport data above at the reference leg length.
GENERATOR_RESISTANCE_REF = (
    K_INTERFACE_REF * DT_GEN_REF / (DT_MEAS_REF - DT_GEN_REF)
)  # K/W, = 4.4871
FILL_FACTOR_REF = (
    LEG_LENGTH_REF / (DEVICE_AREA_REF * GENERATOR_RESISTANCE_REF)
    - SU8_THERMAL_CONDUCTIVITY
) / (BI2TE3_THERMAL_CONDUCTIVITY - SU8_THERMAL_CONDUCTIVITY)  # = 0.18902
COUPLE_COUNT_REF = FILL_FACTOR_REF * DEVICE_AREA_REF / (2 * LEG_AREA_REF)


def _calibrated_couple_seebeck(resistivity: float, target_density: float) -> float:
    # Closed form of tegkit.device.calibrate_seebeck at the reference
    # geometry, pinned to it by tests. It stays because the preset table in
    # tegkit.materials needs these numbers at import time, and device imports
    # materials. It also uses DT_GEN_REF as given: the divider computes
    # dt_gen = 0x1.5666666666667p+4 against DT_GEN_REF = 0x1.5666666666666p+4,
    # so calibrate_seebeck would move both couple coefficients by 1 ulp and
    # change the bytes of every output.
    r_internal = (
        COUPLE_COUNT_REF
        * (2 * resistivity * LEG_LENGTH_REF + 4 * CONTACT_RESISTIVITY_REF)
        / LEG_AREA_REF
    )
    return math.sqrt(4 * r_internal * DEVICE_AREA_REF * target_density) / (
        COUPLE_COUNT_REF * DT_GEN_REF
    )


BI2TE3_RESISTIVITY_ANNEALED = BI2TE3_RESISTIVITY_AS_DEP / ANNEAL_POWER_GAIN

# Couple coefficients alpha_p - alpha_n reproducing the measured power
# densities; split evenly between the p and n presets.
SEEBECK_COUPLE_AS_DEP = _calibrated_couple_seebeck(
    BI2TE3_RESISTIVITY_AS_DEP, POWER_DENSITY_AS_DEP
)
SEEBECK_COUPLE_ANNEALED = _calibrated_couple_seebeck(
    BI2TE3_RESISTIVITY_ANNEALED, POWER_DENSITY_ANNEALED
)
