import sys

import pytest

import dispest.gaussian


@pytest.fixture
def probe_checks(monkeypatch):
    """Arguments of every gaussian.check_probe call, from any dispest module."""
    calls = []
    check = dispest.gaussian.check_probe

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return check(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("dispest") and getattr(module, "check_probe", None) is check:
            monkeypatch.setattr(module, "check_probe", counted)
    return calls
