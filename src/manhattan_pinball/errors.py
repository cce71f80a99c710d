"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """A requested extent needs more field bytes than configuration.MAX_FIELD_BYTES."""


class ConfigParseError(ValueError):
    """A configuration, trajectory, witness or pattern file failed to parse.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DynamicsError(RuntimeError):
    """The ray dynamics repeated a state other than the start.

    The step map is a bijection, so this is a defect of the program, not an
    outcome of the model.
    """
