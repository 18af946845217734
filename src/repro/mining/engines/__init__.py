"""Pluggable support-counting engines behind a self-registration registry.

Importing this package registers the built-in engines; everything else
(the CLI ``engines`` subcommand, benchmarks, property tests) enumerates
the registry instead of hard-coding names. See :mod:`.base` for the
protocol and DESIGN.md §9 for the architecture.
"""

from __future__ import annotations

from .base import (
    Capabilities,
    CountingEngine,
    EnginePolicy,
    EngineState,
    count_pass,
    create_engine,
    engine_names,
    parse_spec,
    register_engine,
    registered_engines,
    validate_candidates,
    validate_spec,
)

# Importing the implementation modules is what registers them; the
# import order fixes the registry (and therefore ENGINES) order.
from . import serial as _serial  # noqa: E402  (bitmap, hashtree, brute)
from . import cached as _cached  # noqa: E402
from . import packed as _packed  # noqa: E402  (numpy)
from . import outofcore as _outofcore  # noqa: E402  (mmap)
from . import parallel as _parallel  # noqa: E402
from .cached import CachedEngine
from .outofcore import MmapEngine
from .packed import NumpyEngine
from .parallel import ParallelShmEngine
from .serial import (
    BitmapEngine,
    BruteEngine,
    HashTreeEngine,
    RowScanEngine,
    extended_rows,
)

del _serial, _cached, _packed, _outofcore, _parallel

#: All registered engine names, in registration order.
ENGINES = engine_names()

#: The engine ``MiningConfig``, ``MiningSession`` and every CLI
#: ``--engine`` flag default to: one physical scan serves every pass,
#: and appends extend the index (DESIGN.md §6.5).
DEFAULT_ENGINE = "cached"


def _first_doc_line(cls: type) -> str:
    doc = (cls.__doc__ or "").strip()
    first = doc.splitlines()[0].strip() if doc else ""
    return first.rstrip(".")


def capability_table(markdown: bool = False) -> str:
    """The registered engines with their capability flags, as text.

    Generated from the registry — never hand-written — so the CLI's
    ``engines`` subcommand and the README table cannot drift from the
    code. The :data:`DEFAULT_ENGINE` row is marked ``(default)``. With
    *markdown* the output is a GitHub table.
    """
    from .base import Capabilities as _Caps
    from dataclasses import fields as _fields

    flag_names = [f.name for f in _fields(_Caps)]
    rows = []
    for name, cls in registered_engines().items():
        caps = cls.capabilities
        flags = [
            "yes" if getattr(caps, flag) else "-" for flag in flag_names
        ]
        description = _first_doc_line(cls)
        if name == DEFAULT_ENGINE:
            description += " (default)"
        rows.append([name, *flags, description])
    header = ["engine", *flag_names, "description"]
    if markdown:
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join("---" for _ in header) + "|",
        ]
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
        return "\n".join(lines)
    widths = [
        max(len(header[col]), *(len(row[col]) for row in rows))
        for col in range(len(header) - 1)
    ]
    lines = [
        "  ".join(
            header[col].ljust(widths[col])
            for col in range(len(widths))
        )
        + "  "
        + header[-1]
    ]
    for row in rows:
        lines.append(
            "  ".join(
                row[col].ljust(widths[col]) for col in range(len(widths))
            )
            + "  "
            + row[-1]
        )
    return "\n".join(lines)


__all__ = [
    "Capabilities",
    "CountingEngine",
    "EnginePolicy",
    "EngineState",
    "BitmapEngine",
    "BruteEngine",
    "CachedEngine",
    "HashTreeEngine",
    "MmapEngine",
    "NumpyEngine",
    "ParallelShmEngine",
    "RowScanEngine",
    "ENGINES",
    "DEFAULT_ENGINE",
    "capability_table",
    "count_pass",
    "create_engine",
    "engine_names",
    "extended_rows",
    "parse_spec",
    "register_engine",
    "registered_engines",
    "validate_candidates",
    "validate_spec",
]
