#!/usr/bin/env python3
"""Quickstart: request one entangled pair over the link layer.

Builds the Lab scenario network (two NV nodes, a heralding midpoint, the MHP
and EGP protocol stack), submits a single create-and-keep CREATE request from
node A and prints the resulting OK messages at both nodes.

Run with::

    python examples/quickstart.py

Set ``REPRO_BACKEND=analytic`` to run the same example on the closed-form
physics fast path (see ``repro.backends``).
"""

from __future__ import annotations

from repro.core.messages import EntanglementRequest, Priority, RequestType
from repro.hardware import lab_scenario
from repro.network import LinkLayerNetwork
from repro.quantum.states import BellIndex


def main() -> None:
    network = LinkLayerNetwork(lab_scenario(), scheduler="FCFS", seed=42,
                               attempt_batch_size=50)

    delivered = []
    for name, node in network.nodes.items():
        node.egp.add_ok_listener(lambda ok, n=name: delivered.append((n, ok)))
        node.egp.add_error_listener(
            lambda err, n=name: print(f"[{n}] error: {err.error.value} "
                                      f"({err.detail})"))

    request = EntanglementRequest(
        remote_node_id="B",
        request_type=RequestType.KEEP,
        number=1,
        consecutive=True,
        priority=Priority.CK,
        min_fidelity=0.64,
    )
    create_id = network.node_a.create(request)
    print("Submitted CREATE request at node A "
          f"(create_id={create_id}, F_min={request.min_fidelity}) ...")

    network.run(duration=2.0)

    if not delivered:
        print("No entanglement delivered within the simulated window.")
        return
    for node_name, ok in delivered:
        print(f"[{node_name}] OK: entanglement_id={tuple(ok.entanglement_id)} "
              f"qubit={ok.logical_qubit_id} goodness={ok.goodness:.3f} "
              f"delivered_at={ok.goodness_time * 1e3:.2f} ms")
    pair = delivered[0][1].pair
    print(f"True fidelity of the delivered pair to |Psi+>: "
          f"{pair.fidelity(BellIndex.PSI_PLUS):.3f}")


if __name__ == "__main__":
    main()
