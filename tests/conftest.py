"""Fixtures shared across test files."""
import contextlib
import io

import pytest


@pytest.fixture(scope="session")
def verify_run():
    """(exit code, stdout, CheckResults) of one `zsig verify`, run in this process.

    The golden verify.txt case reads the exit code and stdout, and
    test_full_suite_is_green reads the results that printed them, so the
    whole suite runs once per session instead of once per test.
    """
    from zsig import cli, verification

    run_all, results = verification.run_all, []

    def recording(names=None):
        results.append(run_all(names))
        return results[-1]

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        mp.setattr(verification, "run_all", recording)
        rc = cli.main(["verify"])
    [checks] = results
    return rc, out.getvalue(), checks
