"""Exceptions shared across the package."""


class GroupTooLargeError(RuntimeError):
    """A resource guard tripped: an infinite group or one above the element
    cap (refused from the classification before any build), or the
    regular-representation size cap."""


class InvariantError(RuntimeError):
    """An internal cross-check failed (such as a root or element count that
    differs from the classification); signals a bug, not a user error."""
