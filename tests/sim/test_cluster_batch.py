"""Cluster.run is cycle-identical to stepping manually.

``Cluster.run`` is a loop over :meth:`Cluster.step` with a
``max_cycles`` guard, and a run may be handed over between the two
mid-flight.  Both drivers run the full two-node ping-pong — kernels,
NICs, a latent wire — and every cycle count, counter, and NIC statistic
must agree.
"""

from repro.devices.link import Link
from repro.evaluation.rtt import _build_node
from repro.isa.assembler import assemble
from repro.memory.layout import IO_COMBINING_BASE, IO_UNCACHED_BASE
from repro.sim.cluster import Cluster
from repro.workloads.pingpong import ping_kernel, pong_kernel


def _pingpong_cluster():
    node_a, nic_a = _build_node()
    node_b, nic_b = _build_node()
    cluster = Cluster([node_a, node_b])
    cluster.connect(Link(nic_a, nic_b, latency=10))
    node_a.add_process(
        assemble(
            ping_kernel("csb", 4, IO_UNCACHED_BASE, IO_COMBINING_BASE),
            name="ping",
        )
    )
    node_b.add_process(
        assemble(
            pong_kernel("csb", 4, IO_UNCACHED_BASE, IO_COMBINING_BASE),
            name="pong",
        )
    )
    return cluster, nic_a, nic_b


def _signature(cluster, nics):
    return {
        "cycle": cluster.cycle,
        "stats": [system.stats.as_dict() for system in cluster.systems],
        "marks": [dict(system.stats.marks) for system in cluster.systems],
        "received": [nic.received_total for nic in nics],
        "in_flight": [link.in_flight for link in cluster.links],
    }


def test_batched_run_matches_manual_stepping():
    batched, *batched_nics = _pingpong_cluster()
    batched.run(max_cycles=100_000)

    stepped, *stepped_nics = _pingpong_cluster()
    while not stepped.finished:
        assert stepped.cycle < 100_000
        stepped.step()

    assert _signature(batched, batched_nics) == _signature(stepped, stepped_nics)


def test_run_resumes_after_manual_steps():
    # Mixing drivers mid-flight must also be seamless: step a while, then
    # hand the rest of the run to Cluster.run.
    mixed, *mixed_nics = _pingpong_cluster()
    for _ in range(137):
        mixed.step()
    mixed.run(max_cycles=100_000)

    reference, *reference_nics = _pingpong_cluster()
    reference.run(max_cycles=100_000)

    assert _signature(mixed, mixed_nics) == _signature(reference, reference_nics)
