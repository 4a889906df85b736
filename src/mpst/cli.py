"""Command-line front end.

Every analysis is exposed as a batch subcommand.  Exit codes follow one
convention throughout: 0 means the property holds (or the command simply
succeeded), 1 means the input was understood but the answer is negative,
and 2 means the input itself was bad (parse failure, ill-formed type,
violated precondition, exploration bound).
"""

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from .core import NodeStore, TermError
from .parser import ParseError, parse_global, parse_process, parse_session, print_global, print_process, print_session
from .typecheck import IllFormedGlobalType, Mode, ProjectionError, project, typecheck, well_formed
from .semantics import InvalidStateBound, StateSpaceBoundExceeded, explore, lock_free, simulate
from .compose import IncompatibleSessions, NoClauseApplies, compatible, connect_globals, connect_sessions, verify_connection


@dataclass
class CommandOutcome:
    """What a subcommand decided: an exit code and what to print."""
    exit_code: int
    payload: object

    def render(self, as_json):
        if as_json:
            body = self.payload if isinstance(self.payload, dict) else {"message": self.payload}
            return json.dumps(body, indent=2)
        if isinstance(self.payload, dict):
            return json.dumps(self.payload, indent=2)
        return self.payload


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


def _parse(kind, path, store):
    parsers = {"global": parse_global, "session": parse_session, "process": parse_process}
    try:
        return parsers[kind](_read(path), store, filename=path)
    except ParseError as exc:
        raise InputProblem(str(exc)) from exc


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputProblem(f"cannot write {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_check(path, json_out=False):
    store = NodeStore()
    G = _parse("global", path, store)
    report = well_formed(G)
    if json_out:
        return CommandOutcome(0 if report.ok else 1, report.to_json())
    lines = []
    for p, value in sorted(report.depths.items()):
        lines.append(f"depth({p})={value}")
    for p, value in report.projections.items():
        if isinstance(value, ProjectionError):
            lines.append(f"projection onto {p} fails: {value}")
    lines.append("well-formed" if report.ok else "not well-formed")
    return CommandOutcome(0 if report.ok else 1, "\n".join(lines))


def cmd_project(path, participant, json_out=False):
    store = NodeStore()
    G = _parse("global", path, store)
    try:
        result = project(G, participant)
    except TermError as exc:  # the participant is not an identifier
        raise InputProblem(str(exc)) from exc
    if isinstance(result, ProjectionError):
        payload = result.to_json() if json_out else str(result)
        return CommandOutcome(1, payload)
    if json_out:
        return CommandOutcome(0, {"participant": participant,
                                  "process": print_process(result)})
    return CommandOutcome(0, print_process(result))


def cmd_type(session_path, global_path, mode=Mode.Standard, json_out=False):
    store = NodeStore()
    M = _parse("session", session_path, store)
    G = _parse("global", global_path, store)
    try:
        report = typecheck(M, G, mode)
    except IllFormedGlobalType as exc:
        raise InputProblem(f"{global_path}: {exc}") from exc
    if json_out:
        return CommandOutcome(0 if report.ok else 1, report.to_json())
    if report.ok:
        return CommandOutcome(0, f"typed ({mode.value} mode)")
    lines = [f"not typable ({mode.value} mode)"]
    for p in report.missing:
        lines.append(f"missing participant {p}")
    for p, expected, actual in report.failures:
        lines.append(f"{p}: {print_process(actual)}  is not below  {print_process(expected)}")
    return CommandOutcome(1, "\n".join(lines))


def cmd_compat(path_a, path_b, json_out=False):
    store = NodeStore()
    P = _parse("process", path_a, store)
    Q = _parse("process", path_b, store)
    answer = compatible(P, Q)
    if json_out:
        return CommandOutcome(0 if answer else 1, {"compatible": answer})
    return CommandOutcome(0 if answer else 1,
                          "compatible" if answer else "not compatible")


def cmd_compose(left, right, via, left_type=None, right_type=None,
                out_prefix="composed", json_out=False):
    store = NodeStore()
    M = _parse("session", left, store)
    M2 = _parse("session", right, store)
    h, k = via
    if (left_type is None) != (right_type is None):
        raise InputProblem("--left-type and --right-type must be given together")
    if left_type is None:
        try:
            composed = connect_sessions(M, h, M2, k)
        except IncompatibleSessions as exc:
            return CommandOutcome(1, str(exc))
        _write(out_prefix + ".sess", print_session(composed) + "\n")
        payload = {"session": print_session(composed),
                   "files": [out_prefix + ".sess"]}
        return CommandOutcome(0, payload if json_out else print_session(composed))
    G = _parse("global", left_type, store)
    G2 = _parse("global", right_type, store)
    try:
        report = verify_connection(M, G, M2, G2, h, k)
    except IncompatibleSessions as exc:
        return CommandOutcome(1, str(exc))
    except (ValueError, IllFormedGlobalType, NoClauseApplies) as exc:
        raise InputProblem(str(exc)) from exc
    _write(out_prefix + ".sess", print_session(report.composed_session) + "\n")
    _write(out_prefix + ".gt", print_global(report.composed_global) + "\n")
    _write(out_prefix + ".report.json", json.dumps(report.to_json(), indent=2) + "\n")
    if json_out:
        return CommandOutcome(0 if report.ok else 1, report.to_json())
    lines = [print_session(report.composed_session),
             print_global(report.composed_global),
             "typing: " + ("ok" if report.typing.ok else "failed"),
             "projections: " + " ".join(
                 f"{p}:{'ok' if holds else 'FAIL'}"
                 for p, holds in report.projection_checks)]
    return CommandOutcome(0 if report.ok else 1, "\n".join(lines))


def cmd_simulate(path, steps=20, seed=0, dot=None, json_out=False):
    store = NodeStore()
    M = _parse("session", path, store)
    result = simulate(M, steps, seed)
    if dot is not None:
        try:
            graph = explore(M)
        except StateSpaceBoundExceeded as exc:
            raise InputProblem(str(exc)) from exc
        _write(dot, graph.to_dot())
    if json_out:
        return CommandOutcome(0, result.to_json())
    lines = [str(action) for action in result.trace]
    lines.append(f"status: {result.status}")
    return CommandOutcome(0, "\n".join(lines))


def cmd_lockfree(path, json_out=False):
    store = NodeStore()
    M = _parse("session", path, store)
    try:
        report = lock_free(M)
    except StateSpaceBoundExceeded as exc:
        raise InputProblem(str(exc)) from exc
    if json_out:
        return CommandOutcome(0 if report.ok else 1, report.to_json())
    if report.ok:
        return CommandOutcome(0, "lock-free")
    lines = ["not lock-free"]
    if report.deadlock_witness is not None:
        path_text = " ; ".join(str(a) for a in report.deadlock_witness) or "(initial state)"
        lines.append(f"deadlock after: {path_text}")
    if report.starvation_witness is not None:
        actions, p = report.starvation_witness
        path_text = " ; ".join(str(a) for a in actions) or "(initial state)"
        lines.append(f"{p} starves after: {path_text}")
    return CommandOutcome(1, "\n".join(lines))


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
    """The argument parser, built on first use and then kept: parsing
    leaves no state in it, and building it costs more than a small
    command."""
    top = argparse.ArgumentParser(prog="mpst",
                                  description="analyze multiparty sessions and global types")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("check", "well-formedness of a global type")
    p.add_argument("file")

    p = add("project", "project a global type onto a participant")
    p.add_argument("file")
    p.add_argument("--participant", required=True)

    p = add("type", "typecheck a session against a global type")
    p.add_argument("file")
    p.add_argument("--against", required=True)
    p.add_argument("--mode", choices=["standard", "plus"], default="standard")

    p = add("compat", "interface compatibility of two processes")
    p.add_argument("left")
    p.add_argument("right")

    p = add("compose", "connect two sessions (and optionally their types)")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--via", required=True, type=_via, metavar="H,K")
    p.add_argument("--left-type")
    p.add_argument("--right-type")
    p.add_argument("--out", default="composed", metavar="PREFIX")

    p = add("simulate", "run a random execution of a session")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=20, action=_NotNegative)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dot", metavar="FILE", help="also write the full state graph")

    p = add("lockfree", "exact lock-freedom check of a session")
    p.add_argument("file")
    return top


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            outcome = cmd_check(args.file, args.json)
        elif args.command == "project":
            outcome = cmd_project(args.file, args.participant, args.json)
        elif args.command == "type":
            outcome = cmd_type(args.file, args.against, Mode(args.mode), args.json)
        elif args.command == "compat":
            outcome = cmd_compat(args.left, args.right, args.json)
        elif args.command == "compose":
            outcome = cmd_compose(args.left, args.right, args.via,
                                  args.left_type, args.right_type,
                                  args.out, args.json)
        elif args.command == "simulate":
            outcome = cmd_simulate(args.file, args.steps, args.seed,
                                   args.dot, args.json)
        else:
            outcome = cmd_lockfree(args.file, args.json)
    except (InputProblem, InvalidStateBound) as exc:
        outcome = CommandOutcome(2, str(exc))
    text = outcome.render(getattr(args, "json", False))
    if text:
        print(text)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
