"""Exception types shared across the package."""


class PullInError(Exception):
    """No stable electrostatic equilibrium exists below the electrode gap.

    Raised when the attractive electrostatic force exceeds the elastic
    restoring force for every deflection, i.e. the bias voltage is past
    the pull-in instability.
    """


class TuningError(Exception):
    """The requested resonance cannot be reached with a nonnegative capacitor."""


class ConfigError(Exception):
    """Invalid configuration document or simulation setup."""

    def __init__(self, message, section=None, key=None):
        loc = ""
        if section is not None:
            loc = f"[{section}] " if key is None else f"[{section}] {key}: "
        super().__init__(loc + message)
        self.section = section
        self.key = key
