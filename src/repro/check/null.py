"""The disabled sanitizer every engine carries by default.

:class:`NullCheckContext` is only the ``enabled = False`` flag: every
hook site guards on it, so a disabled sanitizer is never called.  The
hooks themselves are defined and documented once, on
:class:`~repro.check.context.CheckContext`.  :data:`NULL_CHECK` is the
shared instance.  This module imports nothing, so the event kernel gets
its default observer without loading the live sanitizer.
"""


class NullCheckContext:
    """Disabled sanitizer: the flag every hook site checks, no hooks."""

    def __init__(self) -> None:
        #: An instance attribute, not a class one: CPython specializes
        #: the load of an instance attribute, and every hook site
        #: guards on this flag.
        self.enabled = False


#: Shared default instance; safe because NullCheckContext is stateless.
NULL_CHECK = NullCheckContext()
