"""Exception hierarchy.

The CLI maps these to exit codes: NumericalError and subclasses exit 2,
every other TegkitError exits 1, from every subcommand. A failure at one
sweep point or in one compared design keeps its class, so its exit code;
`sweep` and `compare_designs` only prefix the message with that point
(`dt_meas = 5e+299: ...`) or design (`design 'cu_ni': ...`).
"""


class TegkitError(Exception):
    """Base class for all package errors."""


class ParameterError(TegkitError, ValueError):
    """An operation argument is outside its documented domain."""


class InvariantError(TegkitError, ValueError):
    """A record's field combination violates a type invariant."""


class DegenerateDesignError(TegkitError, ValueError):
    """A design evaluates to a degenerate model (no thermal path, N < 1, ...)."""


class CalibrationError(TegkitError, ValueError):
    """Requested calibration target is infeasible for the given inputs."""


class UnknownMaterialError(TegkitError, KeyError):
    """Material preset name not in the registry."""


class ExtrapolationError(TegkitError, ValueError):
    """Input outside the range covered by measured anchors."""


class ConfigError(TegkitError, ValueError):
    """Configuration problem; `path` is the dotted field path when known."""

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ConfigFileError(ConfigError):
    """Config file missing or unreadable."""


class ConfigSyntaxError(ConfigError):
    """Config file is not well-formed JSON."""


class ConfigFieldError(ConfigError):
    """Config field missing, unknown, or invalid."""


class UsageError(TegkitError):
    """Bad command line invocation."""


class NumericalError(TegkitError):
    """Numerical failure during a simulation or solve (CLI exit 2)."""


class StabilityError(NumericalError, ParameterError):
    """Explicit time step violates the diffusion stability bound."""


class DepletionError(NumericalError):
    """Surface ion concentration reached zero; carries the failure time."""

    def __init__(self, time_s: float):
        self.time_s = time_s
        super().__init__(f"surface concentration depleted at t = {time_s:.6g} s")
