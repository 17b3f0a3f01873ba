#!/usr/bin/env python3
"""Fraud-ring detection on a streaming transaction graph.

A classic mining-on-evolving-graphs workload (the paper's introduction
cites "detecting suspicious credit card transactions"): vertices are
accounts labeled by type, edges are transaction relationships arriving as
a stream.  A *fraud ring* here is a clique of >= 3 accounts in which a
card, a merchant, and a mule all participate — dense mutual activity
between roles that should not form tight groups.

The example shows:

* a custom MiningAlgorithm (arbitrary filter/match code — not a fixed
  pattern query);
* live alerts raised and retracted as transactions appear and as
  chargebacks remove edges;
* dataflow post-processing: alerts grouped per merchant.

Run:  python examples/fraud_detection.py
"""

import random

from repro.core.api import MiningAlgorithm
from repro.graph.subgraph import SubgraphView
from repro.runtime.session import StreamingSession
from repro.types import Update

ROLES = ("card", "merchant", "mule")


class FraudRing(MiningAlgorithm):
    """Cliques of 3-4 accounts covering all three roles."""

    max_size = 4

    def filter(self, s: SubgraphView) -> bool:
        n = len(s)
        if n > self.max_size:
            return False
        # anti-monotone: must stay a clique, and no role may repeat twice
        # more often than the ring size allows
        return s.num_edges() == n * (n - 1) // 2

    def match(self, s: SubgraphView) -> bool:
        if len(s) < 3:
            return False
        labels = set(s.labels())
        return set(ROLES) <= labels


def main():
    rng = random.Random(42)
    session = StreamingSession(FraudRing(), window_size=5)

    # Accounts: 30 of each role.
    accounts = []
    for i in range(90):
        role = ROLES[i % 3]
        session.submit(Update.add_vertex(i, label=role))
        accounts.append((i, role))

    # Live post-processing: alerts per merchant account.
    alerts_by_merchant = (
        session.output_stream()
        .flat_map(
            lambda sub: [
                v for v in sub.vertices if sub.label_of(v) == "merchant"
            ]
        )
        .group_by(lambda merchant: merchant)
        .count()
    )
    total_alerts = session.output_stream().count()

    # Background traffic: random transactions.
    for _ in range(300):
        u, v = rng.sample(range(90), 2)
        session.submit(Update.add_edge(u, v))

    # A planted ring: card 0, merchant 1, mule 2, second card 3.
    ring = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)]
    for u, v in ring:
        session.submit(Update.add_edge(u, v))
    session.flush()

    print(f"alerts after transaction stream: {total_alerts.value()}")
    worst = sorted(
        alerts_by_merchant.state().items(), key=lambda kv: -kv[1]
    )[:3]
    for merchant, count in worst:
        print(f"  merchant {merchant}: involved in {count} live rings")
    assert total_alerts.value() > 0
    assert alerts_by_merchant.state().get(1, 0) >= 1

    # A chargeback removes the card-merchant edge: rings dissolve live.
    before = total_alerts.value()
    session.submit(Update.delete_edge(0, 1))
    session.flush()
    print(f"after chargeback on (card 0, merchant 1): {total_alerts.value()} alerts")
    assert total_alerts.value() <= before

    # The delta stream doubles as an audit log.
    rem = [d for d in session.deltas() if d.is_rem()]
    print(f"audit log: {len(session.deltas())} events, {len(rem)} retractions")


if __name__ == "__main__":
    main()
