"""Small shared utilities: cooperative deadlines (:mod:`.timing`) and
the append-only JSONL journal (:mod:`.journal`, imported directly)."""

from repro.utils.timing import (
    DeadlineExceeded,
    check_deadline,
    deadline_from_timeout,
)

__all__ = ["DeadlineExceeded", "check_deadline", "deadline_from_timeout"]
