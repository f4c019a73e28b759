"""CLI smoke tests (the commands are thin wrappers over tested code)."""

from dataclasses import replace

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.verify.campaign import LANES, CampaignReport


def test_info_runs(capsys):
    assert main(["info", "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "hosts" in out and "16" in out


def test_bringup_runs(capsys):
    assert main(["bringup", "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "LDP location discovery complete" in out
    assert "8 edge" in out


def test_convergence_runs(capsys):
    assert main(["--seed", "3", "convergence", "--failures", "1",
                 "--rate", "500"]) == 0
    out = capsys.readouterr().out
    assert "worst-flow convergence" in out


def test_arp_load_runs(capsys):
    assert main(["arp-load", "--rate", "10", "--duration", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "FM utilization" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.fixture
def campaigns(monkeypatch):
    """The configurations ``verify`` runs, each answered by a clean
    report with no scenarios."""
    ran = []

    def run_campaign(config, log=None):
        ran.append(config)
        return CampaignReport(config=config)

    monkeypatch.setattr(repro.cli, "run_campaign", run_campaign)
    return ran


def test_verify_without_lane_runs_the_default_row(campaigns, capsys):
    assert main(["--seed", "7", "verify", "--quiet"]) == 0
    assert campaigns == [LANES["default"]]
    assert "all invariants held" in capsys.readouterr().out


def test_verify_unknown_lane_names_the_choices(campaigns, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "no-such-lane"])
    assert exit_info.value.code != 0
    err = capsys.readouterr().err
    assert "no-such-lane" in err
    assert all(name in err for name in LANES)
    assert campaigns == []


def test_verify_all_runs_every_row_once(campaigns):
    assert main(["--seed", "3", "verify", "all", "default", "--quiet"]) == 0
    assert campaigns == [replace(row, seed=3) for row in LANES.values()]
