"""Exception hierarchy shared by all fockscan modules."""


class FockscanError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(FockscanError, ValueError):
    """An argument violates a documented precondition."""


class DimensionCeilingExceeded(FockscanError):
    """Requested tensor-product space is larger than the fixed dimension ceiling.

    Callers hitting this should switch to the effective single-mode backend.
    """


class UnsupportedCavityCount(FockscanError):
    """The binary distribution scheme requires a power-of-two cavity count."""


class StabilityGuard(FockscanError):
    """dt times the largest total channel rate reached the stability limit."""


class TruncationLeak(FockscanError):
    """Population at the Fock truncation boundary exceeded the leak budget."""


class FidelityUnreachable(FockscanError):
    """Requested beamsplitter fidelity exceeds what the base rates allow."""


class BudgetTooSmall(FockscanError):
    """Scan time budget does not afford a single tuning step."""


class ConfigError(FockscanError):
    """Run configuration failed schema validation."""
