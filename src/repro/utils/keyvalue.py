"""The one ``key=value`` grammar of the sweep's option strings.

``--retry`` (:func:`repro.fabric.policy.parse_retry_spec`),
``--inject-faults`` (:func:`repro.faults.parse_fault_spec`) and
``--cache-gc`` (:func:`repro.runner.store.parse_gc_spec`) all take
comma-separated ``key=value`` parts.  :func:`key_value_pairs` splits
them; each parser keeps its own value conversions, range checks and
rule for an empty spec.
"""

from __future__ import annotations

from typing import Collection, Iterator, Tuple, Type


def key_value_pairs(spec: str, keys: Collection[str],
                    error: Type[Exception],
                    what: str) -> Iterator[Tuple[str, str]]:
    """Yield the ``(key, value)`` pairs of ``spec``, both stripped.

    Empty parts are skipped.  A part without ``=``, or whose key is not
    one of ``keys``, raises ``error``; ``what`` names the spec in the
    message (``"retry"``, ``"fault"``, ``"cache-gc"``).
    """
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, equals, value = part.partition("=")
        key = key.strip()
        if not equals:
            raise error(f"bad {what} spec part {part!r}; expected key=value")
        if key not in keys:
            raise error(f"unknown {what} spec key {key!r}; known: "
                        f"{', '.join(keys)}")
        yield key, value.strip()
