"""tegkit: micro thermoelectric generator design and process toolkit.

Evaluates a coupled thermal-electrical generator model (temperature
divider, Seebeck source, matched-load power), optimizes thermocouple
geometry, and simulates pulsed electrochemical deposition of
Bi(2+x)Te(3-x) thermolegs.

The package re-exports nothing: import each name from its module
(tegkit.device, tegkit.optimize, tegkit.ecd, tegkit.presets,
tegkit.config, tegkit.output), so `import tegkit` alone loads no submodule.
"""

__version__ = "0.1.0"
