"""Golden snapshot of the CLI over the bundled corpus.

Every subcommand runs in text and `--json` form on each corpus file it
applies to, together with usage errors and bad input.  For each invocation
the snapshot keeps the exit code, stdout, the last line of stderr (the
argparse error line, if any) and every file the command wrote.  Commands
run in a temporary directory holding a copy of `corpus/`, so the recorded
text names files as `corpus/<name>`.

Regenerate `cli_snapshot.json` only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_snapshot.py --write
"""

import contextlib
import io
import json
import os
import pathlib
import re
import shutil
import sys
import tempfile
from unittest import mock

import pytest

from mpst.cli import main

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
SNAPSHOT = HERE / "cli_snapshot.json"


def _names(suffix):
    return sorted(p.name for p in CORPUS.glob("*" + suffix))


def _participants(gt):
    """Every participant named in a global type's text, sorted."""
    pairs = re.findall(r"(\w+)\s*->\s*(\w+)", (CORPUS / gt).read_text())
    return sorted({x for pair in pairs for x in pair})


def _cases():
    """id -> (argv, environment overrides)."""
    c = lambda name: f"corpus/{name}"
    gts, sessions, procs = _names(".gt"), _names(".sess"), _names(".proc")
    plain = []
    for gt in gts:
        plain.append(["check", c(gt)])
        for p in _participants(gt) + ["zz"]:
            plain.append(["project", c(gt), "--participant", p])
    for sess in sessions:
        for gt in gts:
            if gt[:-3] == sess[:-5] or gt in ("unbounded.gt", "relay.gt"):
                for mode in ("standard", "plus"):
                    plain.append(["type", c(sess), "--against", c(gt), "--mode", mode])
        plain.append(["lockfree", c(sess)])
        plain.append(["simulate", c(sess)])
        plain.append(["simulate", c(sess), "--steps", "5", "--seed", "3", "--dot", "g.dot"])
    for left in procs:
        for right in procs:
            plain.append(["compat", c(left), c(right)])
    for left, right in (("relay", "right"), ("counter_left", "counter_right"),
                        ("crossed_left", "crossed_right"), ("right", "relay")):
        sessions_only = ["compose", "--left", c(left + ".sess"), "--right", c(right + ".sess"),
                         "--via", "h,k"]
        plain.append(sessions_only)
        plain.append(sessions_only + ["--left-type", c(left + ".gt"),
                                      "--right-type", c(right + ".gt"), "--out", "out"])
    relay_gt, relay_sess = c("relay.gt"), c("relay.sess")
    plain += [
        # bad input: exit 2 with one line
        ["check", c("missing.gt")],
        ["project", c("missing.gt"), "--participant", "p"],
        ["type", c("missing.sess"), "--against", relay_gt],
        ["type", relay_sess, "--against", c("missing.gt")],
        ["type", relay_sess, "--against", c("relay_h.proc")],
        ["compat", c("relay_h.proc"), c("missing.proc")],
        ["compose", "--left", relay_sess, "--right", c("missing.sess"), "--via", "h,k"],
        ["compose", "--left", relay_sess, "--right", c("right.sess"), "--via", "h,k",
         "--left-type", relay_gt],
        ["compose", "--left", relay_sess, "--right", c("right.sess"), "--via", "h,k",
         "--left-type", relay_gt, "--right-type", c("unbounded.gt")],
        ["compose", "--left", relay_sess, "--right", c("right.sess"), "--via", "h,zz"],
        ["simulate", c("missing.sess")],
        ["lockfree", c("relay.gt")],
        ["project", relay_gt, "--participant", "1x"],
        ["project", relay_gt, "--participant", "end"],
    ]
    cases = {}
    for argv in plain:
        for extra in ([], ["--json"]):
            cases[" ".join(argv + extra)] = (argv + extra, {})
    for argv in (["lockfree", c("relay.sess")], ["simulate", c("relay.sess"), "--dot", "g.dot"]):
        for bound in ("2", "x"):
            cases[f"MPST_STATE_BOUND={bound} " + " ".join(argv)] = (argv, {"MPST_STATE_BOUND": bound})
    # usage errors, whose messages do not depend on the Python version
    for argv in ([], ["check"], ["project", relay_gt],
                 ["check", relay_gt, "--mode", "plus"],
                 ["compose", "--left", relay_sess, "--right", relay_sess, "--via", "h"],
                 ["simulate", relay_sess, "--steps", "x"],
                 ["simulate", relay_sess, "--steps", "-3"]):
        cases["usage: " + " ".join(argv)] = (argv, {})
    return cases


def _invoke(root, argv):
    """Run `main(argv)` in `root`: its exit code, stdout, last stderr line
    and the files it wrote, which are then removed; `root` reads <tmp>."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.relative_to(root).parts[0] != "corpus":
            written[str(path.relative_to(root))] = path.read_text()
            path.unlink()
    lines = err.getvalue().splitlines()

    def norm(text):
        return text.replace(str(root), "<tmp>")

    return {"exit": code, "stdout": norm(out.getvalue()),
            "stderr": norm(lines[-1]) if lines else "",
            "files": {name: norm(text) for name, text in written.items()}}


@contextlib.contextmanager
def _sandbox():
    """A temporary working directory with a copy of the corpus."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="mpst_snapshot_") as d:
        root = pathlib.Path(d).resolve()
        shutil.copytree(CORPUS, root / "corpus")
        os.chdir(root)
        try:
            yield root
        finally:
            os.chdir(old)


def _record(root, argv, env):
    """`_invoke` with MPST_STATE_BOUND unset unless `env` sets it."""
    with mock.patch.dict(os.environ, env):
        if "MPST_STATE_BOUND" not in env:
            os.environ.pop("MPST_STATE_BOUND", None)
        return _invoke(root, argv)


CASES = _cases()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(SNAPSHOT.read_text())


@pytest.fixture(scope="module")
def sandbox():
    with _sandbox() as root:
        yield root


def test_snapshot_covers_every_case(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_cli_matches_snapshot(recorded, sandbox, case):
    argv, env = CASES[case]
    assert _record(sandbox, argv, env) == recorded[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with _sandbox() as root:
        snapshot = {case: _record(root, argv, env) for case, (argv, env) in CASES.items()}
    SNAPSHOT.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(snapshot)} cases to {SNAPSHOT}")
