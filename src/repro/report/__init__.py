"""Result presentation: terminal tables/series, CSV/JSON export, and the
run-directory dashboard (ASCII + static HTML) behind ``repro-sim report``."""

from repro.report.ascii import (
    format_phase_table,
    format_series,
    format_table,
    render_ascii_chart,
)
from repro.report.dashboard import (
    RunArtifacts,
    load_run_dir,
    render_ascii_report,
    render_html_report,
    write_run_artifacts,
)
from repro.report.export import summaries_to_csv, summaries_to_json, write_csv, write_json

__all__ = [
    "format_table",
    "format_series",
    "format_phase_table",
    "render_ascii_chart",
    "RunArtifacts",
    "load_run_dir",
    "render_ascii_report",
    "render_html_report",
    "write_run_artifacts",
    "summaries_to_csv",
    "summaries_to_json",
    "write_csv",
    "write_json",
]
