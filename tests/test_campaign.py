"""Tests for the campaign result, its CSVs and the Markdown report."""

from __future__ import annotations

import pytest

from repro.campaign import run_durable_campaign
from repro.errors import CampaignError
from repro.experiments.campaign import CampaignResult, render_markdown_report


@pytest.fixture(scope="module")
def small_campaign(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("store")
    campaign, _ = run_durable_campaign(
        store_dir, ("fig5",), num_slots=1200, seed=7, workers=2,
        install_signal_handlers=False,
    )
    return campaign, store_dir / "csv"


class TestRunCampaign:
    def test_figures_and_claims_collected(self, small_campaign):
        campaign, _ = small_campaign
        assert set(campaign.figures) == {"fig5"}
        assert campaign.claims_total >= 3
        assert 0 <= campaign.claims_passed <= campaign.claims_total

    def test_csvs_written(self, small_campaign):
        _, csv_dir = small_campaign
        assert (csv_dir / "fig5.csv").exists()
        header = (csv_dir / "fig5.csv").read_text().splitlines()[0]
        assert header.startswith("algorithm,")

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="fig99"):
            run_durable_campaign(tmp_path / "s", ("fig99",), num_slots=100)
        assert not (tmp_path / "s").exists()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="no figures"):
            run_durable_campaign(tmp_path / "s", (), num_slots=100)
        assert not (tmp_path / "s").exists()


class TestMarkdownReport:
    def test_report_structure(self, small_campaign):
        campaign, _ = small_campaign
        text = render_markdown_report(campaign)
        assert text.startswith("# Reproduction report")
        assert "Fig. 5" in text
        assert "Average convergence rounds" in text
        assert "| load |" in text
        assert "Paper claims" in text
        assert "fifoms" in text

    def test_counts_line(self, small_campaign):
        campaign, csv_dir = small_campaign
        text = render_markdown_report(campaign)
        assert f"{campaign.claims_passed} / {campaign.claims_total} PASS" in text
        # The store's REPORT.md is this rendering.
        assert (csv_dir.parent / "REPORT.md").read_text() == text

    def test_unstable_rendering(self):
        # Exercise the 'unstable' cell rendering with a single
        # supercritical point (offered load > 1).
        from repro.experiments.figures import get_figure
        from repro.experiments.sweep import run_figure

        fig = run_figure(
            get_figure("fig4"), num_slots=2500, seed=1, loads=[1.2],
            algorithms=["fifoms"], workers=1,
        )
        c = CampaignResult(num_slots=2500, seed=1)
        c.figures["fig4"] = fig
        c.expectations["fig4"] = []
        text = render_markdown_report(c)
        assert "unstable" in text
