"""Command-line front end.

Every analysis is exposed as a batch subcommand.  Exit codes follow one
convention throughout: 0 means the property holds (or the command simply
succeeded), 1 means the input was understood but the answer is negative,
and 2 means the input itself was bad (parse failure, ill-formed type,
violated precondition such as a `--via` name its session does not bind,
exploration bound).

Each subcommand is declared once, in the command table `_build_parser`,
with its arguments and its handler.  `main` makes the command's one
`NodeStore`, maps bad input to exit 2 in one place, and renders the outcome
as text or, under --json, as JSON.
"""

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from .core import NodeStore, TermError
from .parser import ParseError, parse_global, parse_process, parse_session, print_process, print_session
from .typecheck import IllFormedGlobalType, Mode, ProjectionError, project, typecheck, well_formed
from .semantics import InvalidStateBound, StateSpaceBoundExceeded, explore, lock_free, simulate
from .compose import IncompatibleSessions, NoClauseApplies, compatible, connect_sessions, verify_connection


@dataclass
class CommandOutcome:
    """What a subcommand decided: an exit code, the text to print, and the
    JSON payload to print under --json in its place.  `data` is called only
    then; without it the text is wrapped as {"message": text}."""
    exit_code: int
    text: str
    data: object = None

    def render(self, as_json):
        if not as_json:
            return self.text
        return json.dumps(self.data() if self.data else {"message": self.text}, indent=2)


def _verdict(ok, text, data):
    """Exit 0 if the property holds and 1 if it does not."""
    return CommandOutcome(0 if ok else 1, text, data)


class InputProblem(Exception):
    """Anything that makes the command's input unusable (exit code 2)."""


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputProblem(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputProblem(f"cannot read {path}: {exc}") from exc


def _parse(parse, path, store):
    return parse(_read(path), store, filename=path)


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputProblem(f"cannot write {path}: {exc.strerror}") from exc


def _after(actions):
    return " ; ".join(str(a) for a in actions) or "(initial state)"


# ---------------------------------------------------------------------------
# Subcommands.  Each takes the parsed arguments and the command's one store.

def cmd_check(args, store):
    report = well_formed(_parse(parse_global, args.file, store))
    lines = [f"depth({p})={value}" for p, value in sorted(report.depths.items())]
    lines += [f"projection onto {p} fails: {value}"
              for p, value in report.projections.items() if isinstance(value, ProjectionError)]
    lines.append("well-formed" if report.ok else "not well-formed")
    return _verdict(report.ok, "\n".join(lines), report.to_json)


def cmd_project(args, store):
    G = _parse(parse_global, args.file, store)
    try:
        result = project(G, args.participant)
    except TermError as exc:  # the participant is not an identifier
        raise InputProblem(str(exc)) from exc
    if isinstance(result, ProjectionError):
        return CommandOutcome(1, str(result), result.to_json)
    text = print_process(result)
    return CommandOutcome(0, text, lambda: {"participant": args.participant, "process": text})


def cmd_type(args, store):
    M = _parse(parse_session, args.file, store)
    G = _parse(parse_global, args.against, store)
    mode = Mode(args.mode)
    try:
        report = typecheck(M, G, mode)
    except IllFormedGlobalType as exc:
        raise InputProblem(f"{args.against}: {exc}") from exc
    lines = [f"{'typed' if report.ok else 'not typable'} ({mode.value} mode)"]
    lines += [f"missing participant {p}" for p in report.missing]
    lines += [f"{p}: {print_process(actual)}  is not below  {print_process(expected)}"
              for p, expected, actual in report.failures]
    return _verdict(report.ok, "\n".join(lines), report.to_json)


def cmd_compat(args, store):
    answer = compatible(_parse(parse_process, args.left, store),
                        _parse(parse_process, args.right, store))
    return _verdict(answer, "compatible" if answer else "not compatible",
                    lambda: {"compatible": answer})


def cmd_compose(args, store):
    M = _parse(parse_session, args.left, store)
    M2 = _parse(parse_session, args.right, store)
    h, k = args.via
    for name, session, path in ((h, M, args.left), (k, M2, args.right)):
        if name not in session:
            raise InputProblem(f"{path}: --via names {name!r}, which the session does not bind")
    if (args.left_type is None) != (args.right_type is None):
        raise InputProblem("--left-type and --right-type must be given together")
    out = args.out
    if args.left_type is None:
        try:
            session = print_session(connect_sessions(M, h, M2, k))
        except IncompatibleSessions as exc:
            return CommandOutcome(1, str(exc))
        _write(out + ".sess", session + "\n")
        return CommandOutcome(0, session, lambda: {"session": session, "files": [out + ".sess"]})
    G = _parse(parse_global, args.left_type, store)
    G2 = _parse(parse_global, args.right_type, store)
    try:
        report = verify_connection(M, G, M2, G2, h, k)
    except IncompatibleSessions as exc:
        return CommandOutcome(1, str(exc))
    except IllFormedGlobalType as exc:  # the composed type is in no file
        path = (args.left_type if exc.global_type is G
                else args.right_type if exc.global_type is G2 else None)
        raise InputProblem(f"{path}: {exc}" if path else str(exc)) from exc
    except (ValueError, NoClauseApplies) as exc:
        raise InputProblem(str(exc)) from exc
    data = report.to_json()
    session, global_type = data["composed_session"], data["composed_global"]
    _write(out + ".sess", session + "\n")
    _write(out + ".gt", global_type + "\n")
    _write(out + ".report.json", json.dumps(data, indent=2) + "\n")
    lines = [session, global_type,
             "typing: " + ("ok" if report.typing.ok else "failed"),
             "projections: " + " ".join(f"{p}:{'ok' if holds else 'FAIL'}"
                                        for p, holds in report.projection_checks)]
    return _verdict(report.ok, "\n".join(lines), lambda: data)


def cmd_simulate(args, store):
    M = _parse(parse_session, args.file, store)
    result = simulate(M, args.steps, args.seed)
    if args.dot is not None:
        _write(args.dot, explore(M).to_dot())
    lines = [str(action) for action in result.trace] + [f"status: {result.status}"]
    return CommandOutcome(0, "\n".join(lines), result.to_json)


def cmd_lockfree(args, store):
    report = lock_free(_parse(parse_session, args.file, store))
    lines = ["lock-free" if report.ok else "not lock-free"]
    if report.deadlock_witness is not None:
        lines.append(f"deadlock after: {_after(report.deadlock_witness)}")
    if report.starvation_witness is not None:
        actions, p = report.starvation_witness
        lines.append(f"{p} starves after: {_after(actions)}")
    return _verdict(report.ok, "\n".join(lines), report.to_json)


# ---------------------------------------------------------------------------
# Argument plumbing.

def _via(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise argparse.ArgumentTypeError("expected two participants: h,k")
    return tuple(parts)


class _NotNegative(argparse.Action):
    """Store an int option, rejecting a negative value as a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must not be negative, got {value}")
        setattr(namespace, self.dest, value)


@functools.cache
def _build_parser():
    """The command table: each subcommand with its arguments and handler.
    Built on first use and then kept, since parsing leaves no state in it
    and building it costs more than a small command."""
    top = argparse.ArgumentParser(prog="mpst",
                                  description="analyze multiparty sessions and global types")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(run=run)
        return p

    p = add("check", cmd_check, "well-formedness of a global type")
    p.add_argument("file")

    p = add("project", cmd_project, "project a global type onto a participant")
    p.add_argument("file")
    p.add_argument("--participant", required=True)

    p = add("type", cmd_type, "typecheck a session against a global type")
    p.add_argument("file")
    p.add_argument("--against", required=True)
    p.add_argument("--mode", choices=["standard", "plus"], default="standard")

    p = add("compat", cmd_compat, "interface compatibility of two processes")
    p.add_argument("left")
    p.add_argument("right")

    p = add("compose", cmd_compose, "connect two sessions (and optionally their types)")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--via", required=True, type=_via, metavar="H,K")
    p.add_argument("--left-type")
    p.add_argument("--right-type")
    p.add_argument("--out", default="composed", metavar="PREFIX")

    p = add("simulate", cmd_simulate, "run a random execution of a session")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=20, action=_NotNegative)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dot", metavar="FILE", help="also write the full state graph")

    p = add("lockfree", cmd_lockfree, "exact lock-freedom check of a session")
    p.add_argument("file")
    return top


def main(argv=None):
    """Run one command on a fresh store; bad input of any kind is exit 2."""
    args = _build_parser().parse_args(argv)
    try:
        outcome = args.run(args, NodeStore())
    except (InputProblem, ParseError, InvalidStateBound, StateSpaceBoundExceeded) as exc:
        outcome = CommandOutcome(2, str(exc))
    text = outcome.render(args.json)
    if text:
        print(text)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
