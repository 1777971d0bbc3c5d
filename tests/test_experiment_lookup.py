"""The CLI runs each experiment's driver as ``repro.cli.get_experiment``
returns it when the command runs.  perfbench's tracer rebinds that name
to time every driver as an ``experiment`` layer; a driver reached
another way would run untraced."""

from __future__ import annotations


def test_run_drivers_come_through_the_cli_binding(cli, driver_calls):
    assert cli("--quick", "run", "fig7b", "fig13b")[0] == 0
    assert driver_calls == ["fig7b", "fig13b"]


def test_family_run_drivers_come_through_the_cli_binding(cli, driver_calls):
    status, _, _ = cli("--quick", "family", "run", "quick", "fig7b",
                       "fig13b", "--members", "cores4,cores6")
    assert status == 0
    assert driver_calls == ["fig7b", "fig13b", "fig7b", "fig13b"]
