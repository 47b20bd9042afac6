import pytest

import _acceptance_report
from gradnoise.problems import MlpProblem


@pytest.fixture
def mlp_forward_calls(monkeypatch):
    """A list that grows by one at every ``MlpProblem._forward`` call."""
    calls = []
    forward = MlpProblem._forward

    def counted(self, w, features):
        calls.append(None)
        return forward(self, w, features)

    monkeypatch.setattr(MlpProblem, "_forward", counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_report.RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for entry in sorted(_acceptance_report.RESULTS):
        terminalreporter.write_line(_acceptance_report.format_line(entry))
