"""Drive the CLI end-to-end over the bundled corpus.

Each step invokes the `mpst` entry point in-process and checks the exit code,
including the two steps whose expected verdict is negative (an unbounded
depth, a deadlocking double connection).  Exits nonzero on the first
unexpected code, so the script doubles as a smoke test for a fresh checkout.
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mpst.cli import main as mpst


def run(expected, *argv):
    shown = " ".join(argv)
    code = mpst(list(argv))
    status = "ok" if code == expected else f"FAIL (exit {code}, wanted {expected})"
    print(f"  [{status}] mpst {shown}")
    return code == expected


def pipeline(corpus, out):
    steps = [
        (0, "check", str(corpus / "relay.gt")),
        (0, "check", str(corpus / "right.gt")),
        (1, "check", str(corpus / "unbounded.gt")),
        (0, "project", str(corpus / "relay.gt"), "--participant", "p"),
        (0, "project", str(corpus / "relay.gt"), "--participant", "q"),
        (0, "project", str(corpus / "relay.gt"), "--participant", "h"),
        (0, "type", str(corpus / "relay.sess"), "--against", str(corpus / "relay.gt")),
        (0, "type", str(corpus / "right.sess"), "--against", str(corpus / "right.gt")),
        (0, "compat", str(corpus / "relay_h.proc"), str(corpus / "alternator_k.proc")),
        (0, "compose", "--left", str(corpus / "relay.sess"),
            "--right", str(corpus / "right.sess"), "--via", "h,k",
            "--left-type", str(corpus / "relay.gt"),
            "--right-type", str(corpus / "right.gt"),
            "--out", str(out / "composed")),
        (0, "check", str(out / "composed.gt")),
        (0, "type", str(out / "composed.sess"), "--against", str(out / "composed.gt")),
        (0, "lockfree", str(out / "composed.sess")),
        (1, "lockfree", str(corpus / "crossed_forwarders.sess")),
        (0, "simulate", str(out / "composed.sess"), "--steps", "30", "--seed", "7"),
    ]
    ok = True
    for expected, *argv in steps:
        ok = run(expected, *argv) and ok
    return ok


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpus", default=None,
                    help="corpus directory (default: ../corpus next to this script)")
    ap.add_argument("--out", default=None,
                    help="directory for composed artifacts (default: a temp dir)")
    args = ap.parse_args()

    corpus = Path(args.corpus) if args.corpus else \
        Path(__file__).resolve().parents[1] / "corpus"
    with tempfile.TemporaryDirectory(prefix="mpst_") as scratch:
        # without --out the artifacts go to a temp dir, removed at exit
        out = Path(args.out or scratch)
        out.mkdir(parents=True, exist_ok=True)
        print(f"corpus: {corpus}")
        print(f"artifacts: {out}")
        good = pipeline(corpus, out)
    print("pipeline ok" if good else "pipeline FAILED")
    sys.exit(0 if good else 1)
