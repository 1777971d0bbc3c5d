"""PDN netlist container and structural validation.

A :class:`Netlist` is an append-only description of a power delivery
network built from the element vocabulary in
:mod:`repro.pdn.elements`.  It enforces the structural invariants that
the solvers rely on:

* element names are unique within their kind;
* every free (non-ground, non-pinned) node carries exactly one
  capacitor to ground — physically, every PDN node has local decoupling,
  and mathematically this makes node voltages well-defined algebraic
  functions of the capacitor/inductor states;
* the network graph is connected and reaches ground;
* at most one voltage port pins any given node.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable

from ..errors import NetlistError
from .elements import (
    GROUND,
    Capacitor,
    CurrentPort,
    Inductor,
    Resistor,
    VoltagePort,
)

__all__ = ["Netlist"]


class Netlist:
    """Mutable builder for a PDN circuit description.

    Use the ``add_*`` methods to populate the network, then call
    :meth:`validate` (the solvers call it for you).  Node names are
    created implicitly by referencing them from elements.
    """

    def __init__(self, title: str = "pdn"):
        self.title = title
        self.resistors: list[Resistor] = []
        self.inductors: list[Inductor] = []
        self.capacitors: list[Capacitor] = []
        self.current_ports: list[CurrentPort] = []
        self.voltage_ports: list[VoltagePort] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_resistor(self, name: str, a: str, b: str, ohms: float) -> Resistor:
        """Add a resistive branch and return it."""
        element = Resistor(name, a, b, ohms)
        self.resistors.append(element)
        return element

    def add_inductor(
        self, name: str, a: str, b: str, henries: float, esr: float = 0.0
    ) -> Inductor:
        """Add a series R-L branch and return it."""
        element = Inductor(name, a, b, henries, esr)
        self.inductors.append(element)
        return element

    def add_capacitor(
        self, name: str, node: str, farads: float, esr: float
    ) -> Capacitor:
        """Add a decoupling capacitor (node to ground) and return it."""
        element = Capacitor(name, node, farads, esr)
        self.capacitors.append(element)
        return element

    def add_current_port(self, name: str, node: str) -> CurrentPort:
        """Declare a named load input at *node* and return it."""
        element = CurrentPort(name, node)
        self.current_ports.append(element)
        return element

    def add_voltage_port(self, name: str, node: str) -> VoltagePort:
        """Pin *node* to an externally supplied voltage input."""
        element = VoltagePort(name, node)
        self.voltage_ports.append(element)
        return element

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[str]:
        """All node names referenced by the netlist, ground excluded,
        in first-reference order."""
        seen: dict[str, None] = {}
        for name in self._referenced_nodes():
            if name != GROUND:
                seen.setdefault(name)
        return list(seen)

    @property
    def pinned_nodes(self) -> set[str]:
        """Nodes whose voltage is an input (voltage ports)."""
        return {port.node for port in self.voltage_ports}

    @property
    def free_nodes(self) -> list[str]:
        """Nodes whose voltage is determined by the network solution."""
        pinned = self.pinned_nodes
        return [node for node in self.nodes if node not in pinned]

    @property
    def input_names(self) -> list[str]:
        """Input ordering used by the solvers: current ports first (in
        declaration order), then voltage ports."""
        return [p.name for p in self.current_ports] + [
            p.name for p in self.voltage_ports
        ]

    def capacitor_at(self, node: str) -> Capacitor:
        """Return the capacitor attached to *node*.

        Raises :class:`NetlistError` if there is not exactly one.
        """
        matches = [cap for cap in self.capacitors if cap.node == node]
        if len(matches) != 1:
            raise NetlistError(
                f"node {node!r} has {len(matches)} capacitors, expected exactly 1"
            )
        return matches[0]

    def _referenced_nodes(self) -> Iterable[str]:
        for res in self.resistors:
            yield res.a
            yield res.b
        for ind in self.inductors:
            yield ind.a
            yield ind.b
        for cap in self.capacitors:
            yield cap.node
        for cport in self.current_ports:
            yield cport.node
        for vport in self.voltage_ports:
            yield vport.node

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`NetlistError` on
        violation."""
        self._check_unique_names()
        self._check_voltage_ports()
        self._check_capacitor_coverage()
        self._check_connectivity()

    def _check_unique_names(self) -> None:
        for kind, elements in (
            ("resistor", self.resistors),
            ("inductor", self.inductors),
            ("capacitor", self.capacitors),
            ("current port", self.current_ports),
            ("voltage port", self.voltage_ports),
        ):
            counts = Counter(e.name for e in elements)
            duplicates = sorted(n for n, c in counts.items() if c > 1)
            if duplicates:
                raise NetlistError(f"duplicate {kind} names: {duplicates}")
        counts = Counter(self.input_names)
        duplicates = sorted(n for n, c in counts.items() if c > 1)
        if duplicates:
            raise NetlistError(f"input names shared across port kinds: {duplicates}")

    def _check_voltage_ports(self) -> None:
        counts = Counter(port.node for port in self.voltage_ports)
        multiple = sorted(n for n, c in counts.items() if c > 1)
        if multiple:
            raise NetlistError(f"nodes pinned by more than one voltage port: {multiple}")
        for cap in self.capacitors:
            if cap.node in self.pinned_nodes:
                raise NetlistError(
                    f"capacitor {cap.name!r} placed on pinned node {cap.node!r}"
                )

    def _check_capacitor_coverage(self) -> None:
        cap_counts = Counter(cap.node for cap in self.capacitors)
        for node in self.free_nodes:
            count = cap_counts.get(node, 0)
            if count != 1:
                raise NetlistError(
                    f"free node {node!r} has {count} capacitors, expected exactly 1"
                )

    def _check_connectivity(self) -> None:
        if not self.nodes:
            raise NetlistError("netlist has no nodes")
        # Capacitors connect their node to ground; resistors and
        # inductors connect their endpoints.
        neighbours: dict[str, set[str]] = defaultdict(set)
        branches = [(e.a, e.b) for e in (*self.resistors, *self.inductors)]
        branches += [(cap.node, GROUND) for cap in self.capacitors]
        for a, b in branches:
            neighbours[a].add(b)
            neighbours[b].add(a)
        reachable = {GROUND}
        frontier = [GROUND]
        while frontier:
            for node in neighbours[frontier.pop()] - reachable:
                reachable.add(node)
                frontier.append(node)
        unreachable = sorted(set(self.nodes) - reachable)
        if unreachable:
            raise NetlistError(f"nodes not connected to ground: {unreachable}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Netlist({self.title!r}: {len(self.nodes)} nodes, "
            f"{len(self.resistors)}R {len(self.inductors)}L "
            f"{len(self.capacitors)}C, {len(self.current_ports)} loads, "
            f"{len(self.voltage_ports)} sources)"
        )
