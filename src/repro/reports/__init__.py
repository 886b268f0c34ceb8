"""Reports: declarative experiment-to-table pipelines with provenance.

The package turns :class:`~repro.experiments.ExperimentGrid` sweeps into
publishable dependability tables and a byte-identical reproducibility
bundle:

* :data:`REPORTS` — the decorator registry mapping report names to
  :class:`ReportPlan` builders (``repro report <name>`` resolves here);
* :func:`build_report` — execute a plan's cells on one warm worker pool
  and aggregate them into tables;
* :func:`write_report_bundle` / :func:`write_run_bundle` — emit the
  self-describing bundle (manifest + raw cells + tables + summary);
* the shipped reports — ``dependability-surface`` and ``paper-tables``
  (:mod:`repro.reports.definitions`).

See docs/reports.md for the bundle layout and the recipe for
registering a new report.
"""

from repro.reports.bundle import (
    BundleWriter,
    canonical_json,
    cell_payload,
    registry_versions,
    write_report_bundle,
    write_run_bundle,
)
from repro.reports.plan import (
    REPORTS,
    ReportCell,
    ReportPlan,
    ReportRun,
    ReportTable,
    build_report,
)
from repro.reports import definitions  # noqa: F401  (registers the reports)
from repro.reports.tables import (
    delivery_columns,
    format_table,
    pooled_delivery,
    render_csv,
    render_markdown,
)

__all__ = [
    "REPORTS",
    "BundleWriter",
    "ReportCell",
    "ReportPlan",
    "ReportRun",
    "ReportTable",
    "build_report",
    "canonical_json",
    "cell_payload",
    "delivery_columns",
    "format_table",
    "pooled_delivery",
    "registry_versions",
    "render_csv",
    "render_markdown",
    "write_report_bundle",
    "write_run_bundle",
]
