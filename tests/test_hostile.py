"""The hostile-model corpus: models the parser accepts that once ended in
a traceback, an internal error, or no answer at all.  Each must end every
verb at every notion in an answer or a clean exit 2, within 1.5 GB."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdlab

CORPUS = sorted((Path(__file__).parent / "hostile").glob("*.model"))

# Runs in a child process, so that the address-space limit binds it alone:
# every verb on the model named by argv[1], one JSON line per run.
_CHILD = """
import contextlib, io, json, resource, sys
limit = 3 << 29  # 1.5 GB
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from fdlab.cli import main
path = sys.argv[1]
runs = [
    [verb, path, "--notion", notion] + extra
    for verb, extra in (("check", []), ("propagate", []), ("solve", ["--limit", "1"]))
    for notion in ("domain", "bounds-d", "bounds-z", "bounds-r")
]
for argv in runs + [["analyze-monotone", path]]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps([argv[0], argv[2:], code, err.getvalue()]))
"""


@pytest.mark.parametrize("model", CORPUS, ids=lambda p: p.stem)
def test_hostile_model_ends_in_an_answer_or_a_clean_error(model):
    src = Path(fdlab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(model)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(runs) == 13
    for verb, args, code, err in runs:
        assert code in (0, 1) or code == 2 and "error: internal:" not in err, (verb, args, err)
