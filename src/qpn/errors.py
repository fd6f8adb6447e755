"""Exception hierarchy shared by all qpn modules."""


class QpnError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(QpnError):
    pass


class BadIndex(QpnError):
    pass


class BadPermutation(QpnError):
    pass


class NotEnabled(QpnError):
    pass


class SafetyViolation(QpnError):
    pass


class BoundExceeded(QpnError):
    """A configured exploration/enumeration bound was exhausted."""


class SafetyUnverified(QpnError):
    """The net's safety flag is unset; downstream checkers refuse to run."""


class NotAConfiguration(QpnError):
    pass


class Unreachable(QpnError):
    pass


class NotReachableFrom(QpnError):
    pass


class SignatureMismatch(QpnError):
    pass


class IncompatibleExtension(QpnError):
    pass


class NegativeEventInCluster(QpnError):
    pass


class NotAClique(QpnError):
    pass


class CrossClusterConflict(QpnError):
    pass


class PolarityMismatch(QpnError):
    pass


class SignalSpaceMismatch(QpnError):
    pass


class NotAQpn(QpnError):
    pass


class MissingEnvInput(QpnError):
    pass


class NetFileError(QpnError):
    """Parse or schema error in a net file; carries a location string."""

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location
