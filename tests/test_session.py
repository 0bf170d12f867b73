"""The test session's own configuration."""

import subprocess
import sys

PROPERTY_THEN_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_after():
    pass
'''


def test_a_falsified_property_leaves_the_session_running(tmp_path, pytestconfig):
    """Under this session's warning filters, a falsified hypothesis property
    fails alone: reporting it imports libcst, whose import warning must not
    abort the session, so the test after it still runs.  The inner session
    runs in ``tmp_path``, where hypothesis writes its patch files."""
    filters = pytestconfig.getini("filterwarnings")
    lines = ["[pytest]", "filterwarnings =", *(f"    {f}" for f in filters)]
    (tmp_path / "pytest.ini").write_text("\n".join(lines) + "\n")
    (tmp_path / "test_inner.py").write_text(PROPERTY_THEN_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_inner.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout
