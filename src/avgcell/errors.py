"""The exceptions that more than one avgcell module raises."""


class AvgcellError(Exception):
    """Base class for all errors raised by avgcell."""


class InvalidConfig(AvgcellError):
    pass


class InvalidCircuit(AvgcellError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class SingularSystem(AvgcellError):
    """The assembled system has no reliable solution; the circuit is
    degenerate in a way the validator did not catch."""

    def __init__(self, message, period=None):
        self.period = period
        if period is not None:
            message = f"period {period}: {message}"
        super().__init__(message)
