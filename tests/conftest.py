"""Shared test fixtures."""

import os
from pathlib import Path

import pytest

import rtwt_planner


@pytest.fixture
def announce(request):
    """Write a line through pytest's terminal reporter, visible without -s."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _line(text: str) -> None:
        if reporter is not None:
            reporter.write_line(text)
        else:  # pragma: no cover
            print(text)

    return _line


@pytest.fixture
def package_env():
    """Environment for a fresh interpreter that imports this rtwt_planner."""
    src = str(Path(rtwt_planner.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
