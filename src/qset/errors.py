"""Semantic exception hierarchy.

Public functions never raise bare ValueError for contract violations; each
failure mode documented in the operation contracts has its own class so
callers (and the CLI exit-code mapping) can discriminate without string
matching.
"""

from __future__ import annotations


class QsetError(Exception):
    """Base class for all library errors."""


class InvalidBehaviorError(QsetError, ValueError):
    """A behavior failed validation (component range or probability positivity)."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class DegenerateThetaError(QsetError):
    """Entanglement angle is 0 mod pi/2 (or outside a required sector)."""


class MarginalUnitError(QsetError):
    """An Alice (or Bob) marginal is +-1, so steered correlators are undefined."""


class CorrelatorRangeError(QsetError):
    """A steered correlator exceeds [-1, 1] by more than the clamping slack."""


class LocalInputError(QsetError):
    """Operation requires a nonlocal behavior but the input is local."""


class NonzeroMarginalsError(QsetError):
    """Masanes criterion requires all four marginals to vanish."""


class NotSelfTestingError(QsetError):
    """Behavior does not satisfy the self-testing equality conditions."""

    def __init__(self, msg: str, residuals=None):
        self.residuals = residuals
        super().__init__(msg)


class InconsistentGaugeError(QsetError):
    """No consistent gauge placement of the steered projectors was found."""


class NoThetaBranchError(QsetError):
    """Neither branch of the entanglement-angle equation lies in (0, pi/4]."""


class DegenerateDenominatorError(QsetError):
    """Sector linear-system denominator vanishes."""


class ExcludedSectorError(QsetError, ValueError):
    """Sector (-1, +1) has no closed-form solution in the implemented range."""


class SamplingError(QsetError, RuntimeError):
    """Constrained realization sampling exhausted its retry budget."""
