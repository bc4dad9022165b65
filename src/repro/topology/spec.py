"""Declarative network topologies built from link-layer links.

A :class:`Topology` describes an N-node network as a set of named nodes and
links, where every link carries its own :class:`~repro.hardware.parameters.
ScenarioConfig` (hardware parameters, midpoint placement).  The spec layer is
pure data: it knows nothing about simulation engines or protocols — the
:mod:`repro.topology.network` module instantiates one MHP/EGP link-layer
stack per link from it.

Two constructors cover the paper-adjacent topologies:

* :meth:`Topology.chain` — a linear chain of automated repeater nodes; the
  swap-ASAP protocol (:mod:`repro.topology.swap`) turns per-link pairs into
  end-to-end entanglement;
* :meth:`Topology.switched_star` — several node pairs time-sharing a single
  heralding midpoint through a lossy optical switch
  (:class:`SwitchSpec`).
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import typing
from dataclasses import dataclass, replace
from typing import Optional

from repro.hardware.parameters import (
    ScenarioConfig,
    lab_scenario,
    ql2020_scenario,
)


@functools.lru_cache(maxsize=None)
def _nested_field_types(cls: type) -> tuple[tuple[str, Optional[type]], ...]:
    """``(field name, nested dataclass type or None)`` for each field of ``cls``.

    Memoized per class: ``typing.get_type_hints`` evaluates every string
    annotation afresh on each call, which dominated parsing a whole plan.
    """
    hints = typing.get_type_hints(cls)
    fields = []
    for spec_field in dataclasses.fields(cls):
        hint = hints.get(spec_field.name)
        if typing.get_origin(hint) is typing.Union:
            args = [arg for arg in typing.get_args(hint)
                    if arg is not type(None)]
            hint = args[0] if len(args) == 1 else None
        fields.append((spec_field.name,
                       hint if dataclasses.is_dataclass(hint) else None))
    return tuple(fields)


def build_dataclass(cls: type, data: dict):
    """Rebuild a (possibly nested) dataclass from ``dataclasses.asdict`` output.

    Field types are resolved through ``typing.get_type_hints`` (the modules
    use ``from __future__ import annotations``, so ``fields()`` only carries
    strings); nested dataclasses and ``Optional`` wrappers are reconstructed
    recursively.  Unknown keys are ignored so older serialised plans keep
    loading after a field is added.
    """
    kwargs = {}
    for name, nested in _nested_field_types(cls):
        if name not in data:
            continue
        value = data[name]
        if nested is not None and isinstance(value, dict):
            value = build_dataclass(nested, value)
        kwargs[name] = value
    return cls(**kwargs)


#: Immutable leaf types :func:`dataclass_to_dict` returns as they are.
_ATOMS = frozenset((str, int, float, bool, type(None)))


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...]:
    """Field names of dataclass ``cls``, memoized per class."""
    return tuple(spec_field.name for spec_field in dataclasses.fields(cls))


def dataclass_to_dict(obj) -> dict:
    """Convert a (possibly nested) dataclass to plain data — the inverse of
    :func:`build_dataclass`.

    Equal to ``dataclasses.asdict(obj)`` without its per-leaf
    ``copy.deepcopy``: immutable leaves are returned as they are and the
    field list is memoized per class.  Containers are rebuilt on every
    call, so callers may mutate the result.
    """
    return {name: _plain(getattr(obj, name))
            for name in _field_names(type(obj))}


def _plain(value):
    """One value copied as ``dataclasses.asdict`` copies it."""
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is list or kind is tuple:
        return kind([_plain(item) for item in value])
    if kind is dict:
        return {_plain(key): _plain(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclass_to_dict(value)
    return copy.deepcopy(value)


def hardware_config(hardware: "str | ScenarioConfig") -> ScenarioConfig:
    """Resolve a hardware name (``"Lab"`` / ``"QL2020"``) or pass a config."""
    if isinstance(hardware, ScenarioConfig):
        return hardware
    if hardware.lower() == "lab":
        return lab_scenario()
    if hardware.lower() == "ql2020":
        return ql2020_scenario()
    raise ValueError(f"unknown hardware scenario {hardware!r}")


@dataclass(frozen=True)
class LinkSpec:
    """One physical link of a topology.

    ``scenario`` carries the full per-link hardware parameters (the same
    :class:`ScenarioConfig` a single-link simulation uses); the topology node
    names map onto the link's internal ``"A"``/``"B"`` roles in declaration
    order.  ``midpoint_position`` places the heralding station along the
    fibre: the total fibre length of the link's optics is split
    ``position : (1 - position)`` between the A and B arms.
    """

    node_a: str
    node_b: str
    scenario: ScenarioConfig
    midpoint_position: float = 0.5

    @property
    def name(self) -> str:
        """Display name, e.g. ``"n0-n1"``."""
        return f"{self.node_a}-{self.node_b}"

    def arm_scenario(self) -> ScenarioConfig:
        """The link scenario with the midpoint placed per ``midpoint_position``.

        The combined fibre length of both optical arms is preserved; only
        its split between the A and B arms moves with the midpoint.
        """
        if self.midpoint_position == 0.5:
            return self.scenario
        total = (self.scenario.optics_a.fiber_length_km
                 + self.scenario.optics_b.fiber_length_km)
        optics_a = replace(self.scenario.optics_a,
                           fiber_length_km=total * self.midpoint_position)
        optics_b = replace(self.scenario.optics_b,
                           fiber_length_km=total * (1 - self.midpoint_position))
        return self.scenario.with_optics(optics_a=optics_a, optics_b=optics_b)


@dataclass(frozen=True)
class SwitchSpec:
    """A lossy optical switch time-sharing one midpoint between links.

    ``insertion_loss_db`` is applied to *both* optical arms of every link
    behind the switch (photons traverse the switch in each direction);
    ``slot_duration`` is the round-robin time slot during which exactly one
    link's attempts reach the heralding station — attempts of inactive links
    fail deterministically (their photons are not routed).
    """

    slot_duration: float = 0.005
    insertion_loss_db: float = 1.5
    schedule: str = "round-robin"


@dataclass(frozen=True)
class Topology:
    """A declarative multi-link network specification.

    ``kind`` selects the composition protocol: ``"chain"`` runs swap-ASAP
    entanglement swapping at the interior nodes, ``"star"`` time-shares a
    switched midpoint between independent end-node pairs.
    """

    name: str
    kind: str
    nodes: tuple[str, ...]
    links: tuple[LinkSpec, ...]
    switch: Optional[SwitchSpec] = None

    KINDS = ("chain", "star")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def chain(cls, num_nodes: int,
              hardware: "str | ScenarioConfig" = "Lab",
              name: Optional[str] = None) -> "Topology":
        """A linear repeater chain of ``num_nodes`` nodes (≥ 2).

        Link ``i`` connects node ``n{i}`` (internal role A) to node
        ``n{i+1}`` (internal role B); every link uses the same hardware
        parameters.  Per-link overrides are expressed by rebuilding the
        ``links`` tuple with :func:`dataclasses.replace`.
        """
        if num_nodes < 2:
            raise ValueError(f"a chain needs at least 2 nodes, got {num_nodes}")
        config = hardware_config(hardware)
        nodes = tuple(f"n{i}" for i in range(num_nodes))
        links = tuple(LinkSpec(node_a=nodes[i], node_b=nodes[i + 1],
                               scenario=config)
                      for i in range(num_nodes - 1))
        topology = cls(name=name or f"chain{num_nodes}_{config.name}",
                       kind="chain", nodes=nodes, links=links)
        topology.validate()
        return topology

    @classmethod
    def switched_star(cls, num_pairs: int,
                      hardware: "str | ScenarioConfig" = "Lab",
                      slot_duration: float = 0.005,
                      insertion_loss_db: float = 1.5,
                      name: Optional[str] = None) -> "Topology":
        """``num_pairs`` end-node pairs sharing one switched midpoint."""
        if num_pairs < 1:
            raise ValueError(f"a star needs at least 1 pair, got {num_pairs}")
        config = hardware_config(hardware)
        nodes: list[str] = []
        links: list[LinkSpec] = []
        for i in range(num_pairs):
            left, right = f"a{i}", f"b{i}"
            nodes.extend((left, right))
            links.append(LinkSpec(node_a=left, node_b=right, scenario=config))
        topology = cls(name=name or f"star{num_pairs}_{config.name}",
                       kind="star", nodes=tuple(nodes), links=tuple(links),
                       switch=SwitchSpec(slot_duration=slot_duration,
                                         insertion_loss_db=insertion_loss_db))
        topology.validate()
        return topology

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise ``ValueError`` on any structural inconsistency."""
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}; "
                             f"expected one of {self.KINDS}")
        if not self.nodes:
            raise ValueError("topology has no nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names in topology")
        if not self.links:
            raise ValueError("topology has no links")
        known = set(self.nodes)
        for link in self.links:
            if link.node_a == link.node_b:
                raise ValueError(f"self-link at node {link.node_a!r}")
            for node in (link.node_a, link.node_b):
                if node not in known:
                    raise ValueError(f"link {link.name!r} references unknown "
                                     f"node {node!r}")
            if not 0.0 < link.midpoint_position < 1.0:
                raise ValueError(
                    f"link {link.name!r} midpoint_position "
                    f"{link.midpoint_position} outside (0, 1)")
        if self.kind == "chain":
            if self.switch is not None:
                raise ValueError("chain topologies have no switch")
            if len(self.links) != len(self.nodes) - 1:
                raise ValueError(
                    f"a {len(self.nodes)}-node chain needs "
                    f"{len(self.nodes) - 1} links, got {len(self.links)}")
            for i, link in enumerate(self.links):
                if (link.node_a, link.node_b) != (self.nodes[i],
                                                  self.nodes[i + 1]):
                    raise ValueError(
                        f"chain link {i} must connect {self.nodes[i]!r} -> "
                        f"{self.nodes[i + 1]!r}, got {link.name!r}")
        if self.kind == "star":
            if self.switch is None:
                raise ValueError("star topologies need a switch spec")
            if self.switch.slot_duration <= 0:
                raise ValueError("switch slot_duration must be positive")
            if self.switch.insertion_loss_db < 0:
                raise ValueError("switch insertion loss cannot be negative")
            endpoints = [node for link in self.links
                         for node in (link.node_a, link.node_b)]
            if len(set(endpoints)) != len(endpoints):
                raise ValueError("star links must connect disjoint node pairs")

    def interior_nodes(self) -> tuple[str, ...]:
        """Repeater nodes of a chain (empty for other kinds)."""
        if self.kind != "chain":
            return ()
        return self.nodes[1:-1]

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serialisable representation (exact round-trip)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "nodes": list(self.nodes),
            "links": [{
                "node_a": link.node_a,
                "node_b": link.node_b,
                "scenario": dataclass_to_dict(link.scenario),
                "midpoint_position": link.midpoint_position,
            } for link in self.links],
            "switch": (None if self.switch is None
                       else dataclass_to_dict(self.switch)),
        }

    def identity_key(self) -> str:
        """Short content hash of the full topology definition.

        Recorded in resume-cache entries (see :mod:`repro.runtime.cache`) so
        a topology redefinition under an unchanged name is detected and
        reported instead of silently served stale results.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode()).hexdigest()[:20]

    @classmethod
    def from_dict(cls, data: dict) -> "Topology":
        """Rebuild a topology serialised with :meth:`to_dict`."""
        links = tuple(
            LinkSpec(node_a=entry["node_a"], node_b=entry["node_b"],
                     scenario=build_dataclass(ScenarioConfig,
                                              entry["scenario"]),
                     midpoint_position=entry.get("midpoint_position", 0.5))
            for entry in data["links"])
        switch = (build_dataclass(SwitchSpec, data["switch"])
                  if data.get("switch") else None)
        topology = cls(name=data["name"], kind=data["kind"],
                       nodes=tuple(data["nodes"]), links=links, switch=switch)
        topology.validate()
        return topology
