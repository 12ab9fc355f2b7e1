"""Errors of the public verification API.

Everything the facade can reject -- an unknown engine, an unknown
property check, an arbitration place that does not exist on the
specification -- raises a subclass of :class:`ApiError` whose message is
ready to be shown to a user verbatim (the CLI maps them to usage errors,
exit status 2).  Unknown-name errors are
:class:`~repro.utils.registry.UnknownNameError` subclasses: they list
the registered names and suggest the close ones, like every registry.
"""

from __future__ import annotations

from repro.utils.registry import UnknownNameError


class ApiError(ValueError):
    """An invalid request to the verification facade."""


class UnknownEngineError(UnknownNameError, ApiError):
    """The requested engine is not registered."""

    kind = "engine"


class UnknownCheckError(UnknownNameError, ApiError):
    """The requested property check is not registered."""

    kind = "check"
