"""The names the perfbench harness patches must keep resolving.

``Tracer.install()`` calls ``getattr`` on every ``(owner, attr)`` in
``tracer.WRAPPED``, and the workloads time ``couplegen.cli.generate_and_score``;
a missing name crashes every traced benchmark run.
"""

import sys
from pathlib import Path

import couplegen.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_wrapped_names_resolve():
    missing = [
        f"{owner.__name__}.{attr}"
        for targets in tracer.WRAPPED.values()
        for owner, attr in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_timed_entry_point_resolves():
    assert callable(couplegen.cli.generate_and_score)
