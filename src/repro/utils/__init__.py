"""Small shared utilities: cooperative deadlines (:mod:`.timing`), the
append-only JSONL journal (:mod:`.journal`), the name registry
(:mod:`.registry`) and the ``key=value`` option grammar
(:mod:`.keyvalue`); import the last three directly."""

from repro.utils.timing import (
    DeadlineExceeded,
    check_deadline,
    deadline_from_timeout,
)

__all__ = ["DeadlineExceeded", "check_deadline", "deadline_from_timeout"]
