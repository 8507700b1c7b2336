"""Exception types shared across the package."""


class MonodynError(Exception):
    """Base class for all package errors."""


class ZeroInput(MonodynError):
    pass


class RootOfUnityInput(MonodynError):
    pass


class DegreeCapExceeded(MonodynError):
    pass


class EmptyWord(MonodynError):
    pass


class DepthNonPositive(MonodynError):
    pass


class TreeSizeCap(MonodynError):
    pass


class DegenerateCollision(MonodynError):
    pass


class NoRationalBElement(MonodynError):
    pass


class EnumerationCap(MonodynError):
    pass


class OverflowGuard(MonodynError):
    pass


class BadWindow(MonodynError):
    pass


class LambdaZero(MonodynError):
    pass


class ZeroAlpha(MonodynError):
    pass


class DegenerateDegree(MonodynError):
    pass


class BetaIsConjugate(MonodynError):
    pass


class NotSIntegral(MonodynError):
    pass


class FactorBudgetExceeded(MonodynError):
    pass


class InvalidConfig(MonodynError):
    pass
