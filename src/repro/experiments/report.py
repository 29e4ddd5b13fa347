"""One-shot reproduction report.

``generate_report`` regenerates every artifact at a configurable scale
and assembles a single markdown document — the machine-written companion
to the hand-annotated EXPERIMENTS.md. Used by ``python -m repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro._version import __version__


@dataclass(frozen=True)
class ReportScale:
    """How big to run the simulations (defaults stay under a minute):
    ``runs`` browsing sessions (cohort users at the paper's per-session
    calibration) for Fig. 5, ``domains`` destinations for the baselines
    and warm-up curves."""

    runs: int = 3
    domains: int = 100
    crawl_domains: int = 4000
    throughput_items: int = 4000


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def generate_report(
    scale: ReportScale = ReportScale(),
    population=None,
) -> str:
    """Regenerate all artifacts and return the markdown report."""
    from repro.experiments import (
        ablations,
        baselines,
        compression,
        fig1,
        fig3,
        fig4,
        fig5,
        mixed_chains,
        quic,
        table1,
        table2,
    )
    from repro.experiments.estimator_model import (
        expected_duration_table,
        format_expected_durations,
    )
    from repro.experiments.warmup import format_warmup, warmup_curves
    from repro.webmodel.nonweb import compare_environments, format_environments
    from repro.webmodel.cohort import run_cohort
    from repro.webmodel.population import ICAPopulation, PopulationConfig

    population = population or ICAPopulation(PopulationConfig(seed=1))
    sections: List[str] = [
        "# Reproduction report",
        "",
        f"repro {__version__} — scale: {scale.runs} browsing sessions, "
        f"{scale.domains} domains, {scale.crawl_domains}-domain crawls.",
        "",
    ]

    sections.append(_section(
        "Table 1 — authentication data",
        table1.format_table1(table1.compute_table1()),
    ))
    sections.append(_section(
        "Table 2 — chain statistics",
        table2.format_table2(
            table2.compute_table2(
                population=population, num_domains=scale.crawl_domains
            )
        ),
    ))
    sections.append(_section(
        "Figure 1 — handshake flights",
        fig1.format_flow_summary(fig1.compute_flows()),
    ))
    sections.append(_section(
        "Figure 3 — filter feasibility",
        "\n\n".join(
            [
                fig3.format_load_factor_sweep(fig3.load_factor_sweep()),
                fig3.format_max_load(fig3.measured_max_load(trials=2)),
                fig3.format_throughput(
                    fig3.throughput(num_items=scale.throughput_items)
                ),
                fig3.format_capacity_sweep(
                    fig3.capacity_sweep(), fig3.budget_capacities()
                ),
            ]
        ),
    ))
    sections.append(_section(
        "Figure 4 — extension size vs FPP",
        fig4.format_fpp_sweep(fig4.fpp_sweep()),
    ))

    browsing = fig5.paper_config(
        num_users=scale.runs, seed=1, population=population.config
    )
    result = run_cohort(browsing, population=population)
    lookup_seconds = fig5.measure_lookup_seconds(browsing, population)
    sections.append(_section(
        "Figure 5 — browsing impact",
        "\n\n".join(
            [
                fig5.format_data_volume(fig5.data_volume(result)),
                fig5.format_latency_models(fig5.latency_models()),
                fig5.format_ttfb(fig5.ttfb_scenarios(result, lookup_seconds)),
            ]
        ),
    ))
    sections.append(_section(
        "Ablations and extensions",
        "\n\n".join(
            [
                ablations.format_initcwnd(ablations.initcwnd_sweep()),
                baselines.format_baselines(
                    baselines.compare_designs(
                        num_domains=scale.domains, population=population
                    )
                ),
                quic.format_transport_comparison(quic.transport_comparison()),
                compression.format_compression(
                    compression.compression_comparison()
                ),
                mixed_chains.format_mixed_chains(
                    mixed_chains.mixed_chain_comparison()
                ),
                format_warmup(
                    warmup_curves(
                        num_destinations=5 * scale.domains,
                        checkpoint_every=scale.domains,
                        population=population,
                    )
                ),
                format_expected_durations(expected_duration_table()),
                format_environments(compare_environments(sample_handshakes=20)),
            ]
        ),
    ))
    return "\n".join(sections)
