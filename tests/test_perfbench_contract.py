"""The names the perfbench harness patches must keep resolving.

``Tracer.install()`` calls ``getattr`` on every ``(owner, attr)`` in
``tracer.WRAPPED``, and the workloads time ``couplegen.cli.generate_and_score``;
a missing name crashes every traced benchmark run, and a hook that cannot
bind the wrapped function's arguments crashes it at the first call.
"""

import inspect
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


def _call_forms(fn):
    """(args, kwargs) for fn's parameters: all positional, and the required
    ones positional with every defaulted one by keyword."""
    params = [
        p for p in inspect.signature(fn).parameters.values()
        if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]
    positional = [p.name for p in params if p.kind != p.KEYWORD_ONLY]
    keyword_only = {p.name: p.name for p in params if p.kind == p.KEYWORD_ONLY}
    required = [p.name for p in params if p.default is p.empty and p.kind != p.KEYWORD_ONLY]
    defaulted = {p.name: p.name for p in params if p.default is not p.empty}
    return [(positional, keyword_only), (required, defaulted)]


def test_hooks_accept_wrapped_signatures():
    # each hook is called as hook(result, *args, **kwargs) with the wrapped
    # function's arguments, so it must bind every way callers pass them
    t = tracer.Tracer()
    t.install()
    try:
        wrappers = [
            (name, getattr(owner, attr))
            for name, targets in tracer.WRAPPED.items()
            for owner, attr in targets
        ]
    finally:
        t.uninstall()
    checked = set()
    for name, wrapper in wrappers:
        hook = inspect.getclosurevars(wrapper).nonlocals["hook"]
        if hook is None:
            continue
        for args, kwargs in _call_forms(wrapper.__wrapped__):
            inspect.signature(hook).bind("result", *args, **kwargs)
        checked.add(name)
    assert {"pipeline.sample", "pipeline.reference", "attention.branch"} <= checked
