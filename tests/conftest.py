import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def readout_calls(monkeypatch):
    """A list with one entry per call of ``plans.readout_amplitudes``.

    The counter replaces the function at every dmres module that binds
    it, so calls through ``from .plans import readout_amplitudes``
    copies count too.
    """
    import dmres.plans

    calls = []
    rotate = dmres.plans.readout_amplitudes

    def counted(*args, **kwargs):
        calls.append(args[2:] + tuple(kwargs.values()))
        return rotate(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("dmres") and getattr(module, "readout_amplitudes", None) is rotate:
            monkeypatch.setattr(module, "readout_amplitudes", counted)
    return calls
