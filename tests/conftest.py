"""Shared fixtures for the test suite."""

import contextlib
import io
import json
from types import SimpleNamespace

import pytest

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment
from repro.sim.eventloop import EventLoop


@pytest.fixture
def loop() -> EventLoop:
    """A fresh discrete-event loop."""
    return EventLoop()


@pytest.fixture
def config() -> SyncConfig:
    """The paper's default sync configuration."""
    return SyncConfig.paper_defaults()


@pytest.fixture
def two_sites() -> InputAssignment:
    """The paper's two-site, one-player-per-site assignment."""
    return InputAssignment.standard(2)


def _reproduce(tmp_path_factory, frames: int) -> SimpleNamespace:
    """Every registered experiment at ``frames``, run through ``repro
    reproduce``: what it printed, report.md's text, and results.json's
    path and payload."""
    from repro.cli import main

    out = tmp_path_factory.mktemp(f"reproduction{frames}")
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(["reproduce", "--frames", str(frames), "--out", str(out)]) == 0
    json_path = out / "results.json"
    return SimpleNamespace(
        stdout=stdout.getvalue(),
        report=(out / "report.md").read_text(),
        json_path=str(json_path),
        payload=json.loads(json_path.read_text()),
    )


@pytest.fixture(scope="session")
def reproduction(tmp_path_factory):
    """The 420-frame bundle every claim of ``repro validate`` holds on."""
    return _reproduce(tmp_path_factory, 420)


@pytest.fixture(scope="session")
def quick_reproduction(tmp_path_factory):
    """A 120-frame bundle: the CLI's tables, and one of the two equal runs
    the determinism check compares."""
    return _reproduce(tmp_path_factory, 120)
