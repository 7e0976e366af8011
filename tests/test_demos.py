"""The walkthrough scripts in demos/ run to the end and clean up."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run_and_leave_no_temporary_files(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    demos = sorted((ROOT / "demos").glob("0*.py"))
    assert len(demos) == 4
    # the suite turns warnings into errors, and so do the demo runs
    runs = [subprocess.Popen([sys.executable, "-W", "error", str(d)],
                             env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
            for d in demos]
    # reap every run before asserting on any, so that no run's pipe or
    # process is left to warn during a later test
    errs = []
    try:
        for run in runs:
            errs.append(run.communicate(timeout=300)[1])
    finally:
        for run in runs[len(errs):]:
            run.kill()
            run.communicate()
    for demo, run, err in zip(demos, runs, errs):
        assert run.returncode == 0, f"{demo.name}: {err}"
    assert list(tmp_path.iterdir()) == []
