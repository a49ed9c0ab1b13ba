"""Exceptions shared across the package."""


class GroupTooLargeError(RuntimeError):
    """A resource guard tripped: an infinite group (refused by the
    classification), a finite one above the element cap (refused by
    build_group before any cache access, closure or enumeration), or the
    regular-representation size cap."""


class InvariantError(RuntimeError):
    """An internal cross-check failed (such as a root or element count that
    differs from the classification); signals a bug, not a user error."""
