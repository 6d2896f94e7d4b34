"""Benchmark harness: paper workloads, runners and table renderers.

The runnable benchmarks live in ``benchmarks/`` at the repository root
(one file per paper table/figure); this package holds the shared
machinery so those files stay declarative.
"""

from .fig5 import fig5_report
from .reporting import (
    render_collusion_table,
    render_resource_table,
    render_runtime_figure,
    render_selection_table,
    render_table,
)
from .runner import (
    centralized_row,
    collusion_row,
    gendpr_row,
    naive_row,
    study_decisions,
)
from .serve import serve_report
from .shard import shard_report
from .workloads import (
    PAPER_CASE_FULL,
    PAPER_CASE_HALF,
    PAPER_COLLUSION_GDO_COUNTS,
    PAPER_CONTROL,
    PAPER_GDO_COUNTS,
    PAPER_SNP_COUNTS,
    PAPER_THRESHOLDS,
    bench_scale,
    clear_cohort_cache,
    paper_cohort,
    paper_config,
    scaled,
)

__all__ = [
    "fig5_report",
    "serve_report",
    "shard_report",
    "study_decisions",
    "render_collusion_table",
    "render_resource_table",
    "render_runtime_figure",
    "render_selection_table",
    "render_table",
    "centralized_row",
    "collusion_row",
    "gendpr_row",
    "naive_row",
    "PAPER_CASE_FULL",
    "PAPER_CASE_HALF",
    "PAPER_COLLUSION_GDO_COUNTS",
    "PAPER_CONTROL",
    "PAPER_GDO_COUNTS",
    "PAPER_SNP_COUNTS",
    "PAPER_THRESHOLDS",
    "bench_scale",
    "clear_cohort_cache",
    "paper_cohort",
    "paper_config",
    "scaled",
]
