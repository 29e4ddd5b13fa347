#!/usr/bin/env python3
"""Users browsing the web over PQ TLS — the paper's §5.3 scenario.

Simulates a cohort of users, each drawing destinations from a synthetic
Tranco-style ranking (a Zipf stream of first-party domains and their
third-party origins) at the paper's per-session calibration (~1950
unique destinations per user), with ICA suppression on every handshake.
Then prints the Fig. 5 style summary: data saved per algorithm, TTFB
impact, false positives.

Run:  python examples/browsing_session.py [num_users]
"""

import sys

from repro.experiments import fig5
from repro.netsim.metrics import summarize
from repro.webmodel.cohort import format_cohort, run_cohort
from repro.webmodel.population import ICAPopulation

num_users = int(sys.argv[1]) if len(sys.argv) > 1 else 3

print(f"simulating {num_users} browsing sessions...\n")
config = fig5.paper_config(num_users=num_users, seed=11)
population = ICAPopulation(config.population)
result = run_cohort(config, population=population)
print(format_cohort(result))

print()
print(fig5.format_data_volume(fig5.data_volume(result)))

lookup_seconds = fig5.measure_lookup_seconds(config, population)
print()
print(fig5.format_ttfb(fig5.ttfb_scenarios(result, lookup_seconds)))

sphincs_full = summarize(
    fig5.ttfb_samples(result, "sphincs-128f", False, lookup_seconds).tolist()
)
sphincs_sup = summarize(
    fig5.ttfb_samples(result, "sphincs-128f", True, lookup_seconds).tolist()
)
print(
    f"\nSPHINCS+-128f p99 TTFB: {1000 * sphincs_full.p99:.0f} ms full vs "
    f"{1000 * sphincs_sup.p99:.0f} ms suppressed "
    f"({1000 * (sphincs_full.p99 - sphincs_sup.p99):.0f} ms saved in the tail)"
)
print(
    f"filter lookups: {1e6 * lookup_seconds:.2f} us per ICA on the server, "
    f"{result.stats.false_positives} false positives in "
    f"{result.stats.handshakes} handshakes"
)
