"""Exception types shared across the package."""


class BlockseqError(Exception):
    """Base class for all errors raised by this package."""


class InvalidBaseError(BlockseqError):
    """A base smaller than 2 was supplied."""


class InvalidPatternError(BlockseqError):
    """A pattern word is empty or contains digits outside the base."""


class ClaimViolationError(BlockseqError):
    """A structural claim that the library treats as a hard contract
    (block dichotomy, power-prefix exclusion, divisibility of power
    lengths) was violated by generated data."""


class VerificationError(BlockseqError):
    """Two independent generation methods disagreed on sequence values."""
