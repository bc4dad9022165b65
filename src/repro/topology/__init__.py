"""Multi-link network topologies composed from link-layer building blocks.

The spec layer (:mod:`repro.topology.spec`) is imported eagerly — it is pure
data and is what :mod:`repro.runtime.scenarios` embeds into scenario specs.
The live layers (network instantiation, the swap-ASAP protocol, the runner)
are re-exported lazily: they pull in :mod:`repro.runtime`, which itself
imports the spec layer, so loading them at package-import time would be
circular.
"""

from types import MappingProxyType

from repro.topology.spec import LinkSpec, SwitchSpec, Topology

_LAZY = MappingProxyType({
    "LinkInstance": "repro.topology.network",
    "SwitchSchedule": "repro.topology.network",
    "TopologyNetwork": "repro.topology.network",
    "SwapAsapEGP": "repro.topology.swap",
    "EndToEndRecord": "repro.topology.swap",
    "TopologyRun": "repro.topology.run",
    "run_topology": "repro.topology.run",
    "jain_fairness": "repro.topology.run",
    "swap_states": "repro.topology.compose",
    "project_swap": "repro.topology.compose",
    "compose_chain": "repro.topology.compose",
    "outcome_average_swap": "repro.topology.compose",
    "werner_state": "repro.topology.compose",
    "werner_chain_fidelity": "repro.topology.compose",
})

__all__ = ["LinkSpec", "SwitchSpec", "Topology", *sorted(_LAZY)]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
