"""Module-to-layer map and cProfile self-time attribution.

A layer is a package of ``repro`` (``sim``, ``backends``, ...) or, inside
``repro.core``, one protocol module (``core.mhp``, ``core.egp``, ...).
Frames outside ``repro`` — numpy, the standard library, builtins such as
``min`` — are charged to the nearest ``repro`` caller, following the
profile's caller edges and weighting each caller by its share of the
callee's self time.  Time with no ``repro`` caller at all is ``other``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Optional

LAYERS = (
    "sim", "core.mhp", "core.egp", "core.distributed_queue", "core.scheduler",
    "core.feu", "core.qmm", "core.messages", "backends", "quantum",
    "hardware", "network", "topology", "runtime", "analysis", "cluster",
    "obs", "other",
)

#: ``repro`` modules deliberately charged to ``other`` (package glue and
#: the example applications, which no workload runs).
OTHER_MODULES = ("repro.core", "repro.apps")


def layer_of_module(module: str) -> Optional[str]:
    """The layer of a dotted module name; ``None`` outside ``repro``."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) > 2 and parts[1] == "core":
        key = f"core.{parts[2]}"
    elif len(parts) > 1:
        key = parts[1]
    else:
        key = "other"
    return key if key in LAYERS else "other"


def module_of_file(filename: str, src_root: Path) -> Optional[str]:
    """Dotted module name of a source file under ``src_root``, or ``None``."""
    try:
        relative = Path(os.path.abspath(filename)).relative_to(
            os.path.abspath(src_root))
    except ValueError:
        return None
    if relative.suffix != ".py":
        return None
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else None


def file_resolver(src_root: Path) -> Callable[[str], Optional[str]]:
    """Memoised ``filename -> layer`` for one source root."""
    cache: dict[str, Optional[str]] = {}

    def resolve(filename: str) -> Optional[str]:
        if filename not in cache:
            module = module_of_file(filename, src_root)
            cache[filename] = (None if module is None
                               else layer_of_module(module))
        return cache[filename]

    return resolve


def self_time_by_layer(stats: dict,
                       layer_of_file: Callable[[str], Optional[str]],
                       ) -> dict[str, float]:
    """Seconds of self time per layer from a ``pstats.Stats(...).stats``
    mapping: ``func -> (cc, nc, tt, ct, callers)`` with
    ``callers[caller] = (nc, cc, tt, ct)`` for the edge."""
    owners: dict[tuple, dict[str, float]] = {}

    def owner(func: tuple, visiting: frozenset) -> tuple[dict, bool]:
        """Layer shares (summing to 1) that ``func``'s self time goes to,
        and whether they are final.  A caller already on the path is a
        cycle: it contributes nothing and the answer is not memoised."""
        layer = layer_of_file(func[0])
        if layer is not None:
            return {layer: 1.0}, True
        if func in owners:
            return owners[func], True
        if func in visiting:
            return {}, False
        callers = stats[func][4] if func in stats else {}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[0] for caller, edge in callers.items()}
        shares: dict[str, float] = {}
        final = True
        for caller, weight in weights.items():
            caller_shares, caller_final = owner(caller, visiting | {func})
            final &= caller_final
            for name, share in caller_shares.items():
                shares[name] = shares.get(name, 0.0) + weight * share
        norm = sum(shares.values())
        if norm > 0:
            shares = {name: share / norm for name, share in shares.items()}
        elif final:
            shares = {"other": 1.0}  # no repro caller anywhere above
        if final:
            owners[func] = shares
        return shares, final

    seconds = {layer: 0.0 for layer in LAYERS}
    for func, (_, _, self_time, _, _) in stats.items():
        if self_time <= 0:
            continue
        shares, _ = owner(func, frozenset())
        for layer, share in (shares or {"other": 1.0}).items():
            seconds[layer] += self_time * share
    return seconds


def self_fractions(seconds: dict[str, float]) -> dict[str, float]:
    """Per-layer shares of the total self time (they sum to 1)."""
    total = sum(seconds.values())
    return {layer: (value / total if total > 0 else 0.0)
            for layer, value in seconds.items()}
