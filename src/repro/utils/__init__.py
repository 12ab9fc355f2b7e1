"""Small shared utilities (cooperative deadlines)."""

from repro.utils.timing import (
    DeadlineExceeded,
    check_deadline,
    deadline_from_timeout,
)

__all__ = ["DeadlineExceeded", "check_deadline", "deadline_from_timeout"]
