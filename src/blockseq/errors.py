"""Exception types shared across the package."""


class BlockseqError(Exception):
    """Base class for all errors raised by this package."""


class InvalidBaseError(BlockseqError):
    """A base smaller than 2, or one too large to test for primality
    where primality is asked, was supplied."""


class InvalidPatternError(BlockseqError):
    """A pattern word is empty or contains digits outside the base."""


class ClaimViolationError(BlockseqError):
    """Generated data broke the block dichotomy, a hard contract, or a
    power-prefix claim, whose check returns a FAIL record that only the
    `powers` subcommand turns into this error."""


class VerificationError(BlockseqError):
    """Two independent generation methods disagreed on sequence values."""
