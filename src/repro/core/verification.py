"""Design-rule verification of synthesized design points.

An independent checker that re-validates everything the synthesis flow
promises about a :class:`~repro.core.design_point.DesignPoint`:

* every specified flow is routed, as a connected core-to-core chain;
* routes are deadlock-free per message class (CDG acyclicity);
* no link exceeds its capacity;
* the ``max_ill`` TSV constraint holds on every layer boundary;
* no switch exceeds the maximum size for the operating frequency;
* switch-to-switch links respect the adjacency restriction (when enabled);
* Phase 2 designs keep cores attached to same-layer switches;
* every latency constraint is met with the final wire lengths;
* the floorplan is legal (no intra-layer overlap) and contains every core
  and switch;
* multi-layer vertical links have their intermediate TSV macros placed.

Used by the test suite as an oracle and exposed through the CLI so users
can audit any design the tool emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.design_point import DesignPoint
from repro.graphs.comm_graph import CommGraph
from repro.models.library import NocLibrary
from repro.noc.deadlock import ChannelDependencyGraph
from repro.noc.metrics import flow_latency_cycles


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_design_point`."""

    violations: List[str] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def fail(self, message: str) -> None:
        self.violations.append(message)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{status}: {self.checks_run} checks, "
                 f"{len(self.violations)} violations"]
        lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines)


def verify_design_point(
    point: DesignPoint,
    graph: CommGraph,
    library: NocLibrary,
) -> VerificationReport:
    """Run every design-rule check against ``point``."""
    report = VerificationReport()
    topo = point.topology
    config = point.config

    # 1. Route completeness and connectivity.
    report.checks_run += 1
    expected = set(graph.edges)
    routed = set(topo.routes)
    for missing in sorted(expected - routed):
        report.fail(f"flow {missing} has no route")
    for extra in sorted(routed - expected):
        report.fail(f"route exists for unspecified flow {extra}")
    try:
        topo.validate_routes()
    except Exception as exc:  # SynthesisError carries the detail
        report.fail(f"route chain invalid: {exc}")

    # 2. Deadlock freedom per message class.
    report.checks_run += 1
    cdg = ChannelDependencyGraph()
    for flow_key in sorted(topo.routes):
        if flow_key not in graph.edges:
            continue
        flow = graph.edges[flow_key]
        cdg.add_path(topo.routes[flow_key], flow.message_type)
    if not cdg.is_deadlock_free():
        report.fail("channel dependency graph contains a cycle")

    # 3. Link capacity.
    report.checks_run += 1
    for link_id in topo.check_capacity():
        link = topo.links[link_id]
        report.fail(
            f"link {link_id} ({link.src}->{link.dst}) over capacity: "
            f"{link.load_mbps:.1f} MB/s > {topo.capacity_mbps:.1f}"
        )

    # 4. TSV / max_ill constraint.
    report.checks_run += 1
    for boundary, count in sorted(topo.ill.items()):
        if count > config.max_ill:
            report.fail(
                f"boundary {boundary} uses {count} inter-layer links "
                f"(max_ill {config.max_ill})"
            )

    # 5. Switch size vs frequency.
    report.checks_run += 1
    max_size = library.switch.max_switch_size(config.frequency_mhz)
    for sw in topo.switches:
        if sw.size > max_size:
            report.fail(
                f"switch {sw.id} has size {sw.size} above the limit "
                f"{max_size} at {config.frequency_mhz} MHz"
            )

    # 6. Adjacency of switch-to-switch links.
    report.checks_run += 1
    for link in topo.links:
        if not link.is_core_link and link.layers_crossed > 1:
            report.fail(
                f"switch link {link.id} spans {link.layers_crossed} "
                "layers (adjacent-only technology)"
            )

    # 7. Phase 2 layer locality.
    report.checks_run += 1
    if point.phase == "phase2":
        for core, sw_id in sorted(topo.core_to_switch.items()):
            if topo.switches[sw_id].layer != graph.layers[core]:
                report.fail(
                    f"phase2: core {core} (layer {graph.layers[core]}) "
                    f"attached to switch {sw_id} on layer "
                    f"{topo.switches[sw_id].layer}"
                )

    # 8. Latency constraints with final wire lengths.
    report.checks_run += 1
    for flow_key, flow in sorted(graph.edges.items()):
        if flow_key not in topo.routes:
            continue
        latency = flow_latency_cycles(topo, flow_key, library)
        if latency > flow.latency + 1e-9:
            report.fail(
                f"flow {flow_key} latency {latency:.2f} cyc exceeds its "
                f"constraint {flow.latency:g}"
            )

    # 9. Floorplan legality and completeness.
    report.checks_run += 1
    overlaps = point.floorplan.overlaps()
    for a, b in overlaps:
        report.fail(f"floorplan overlap between {a!r} and {b!r}")
    placed = {c.name for c in point.floorplan}
    for i, name in enumerate(graph.names):
        if name not in placed:
            report.fail(f"core {name!r} missing from the floorplan")
    for sw in topo.switches:
        if f"sw{sw.id}" not in placed:
            report.fail(f"switch sw{sw.id} missing from the floorplan")

    # 10. Intermediate TSV macros for multi-layer vertical links.
    report.checks_run += 1
    for link in topo.links:
        if link.layers_crossed >= 2:
            for layer in range(link.lo_layer + 1, link.hi_layer):
                name = f"tsv:link{link.id}:L{layer}"
                if name not in placed:
                    report.fail(
                        f"vertical link {link.id} lacks its TSV macro on "
                        f"intermediate layer {layer}"
                    )

    return report
