import json
import random
import subprocess
import sys

import pytest

import mpst.cli
from mpst.cli import main
from mpst.core import NodeStore
from mpst.parser import (parse_global, parse_process, parse_session, print_global,
                         print_process, print_session)
from mpst.typecheck import project

import randgen


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# check

def test_check_well_formed(cx, capsys):
    code, out = run(capsys, "check", str(cx.path("relay.gt")))
    assert code == 0
    assert "depth(h)=1" in out and "depth(p)=0" in out
    assert out.rstrip().endswith("well-formed")


def test_check_unbounded_depth(cx, capsys):
    code, out = run(capsys, "check", str(cx.path("unbounded.gt")))
    assert code == 1
    assert "depth(r)=inf" in out and "not well-formed" in out


@pytest.mark.parametrize("text, depth_r", [
    # a label named `depth`
    ("p -> q : {depth . r -> q : x . end, b . r -> q : y . end}", "1"),
    # r's depth is unbounded and its projection undefined
    ("rec X . p -> q : {a . X, b . r -> q : x . end, c . r -> q : y . end}", "inf"),
], ids=["label-named-depth", "unbounded-and-undefined"])
def test_check_prints_every_projection_failure(tmp_path, capsys, text, depth_r):
    gt = tmp_path / "g.gt"
    gt.write_text(text)
    code, out = run(capsys, "check", str(gt))
    assert code == 1
    lines = out.splitlines()
    assert f"depth(r)={depth_r}" in lines and lines[-1] == "not well-formed"
    assert lines[-2].startswith("projection onto r fails: UnequalContinuations: ")


def test_check_json(cx, capsys):
    code, out = run(capsys, "check", str(cx.path("relay.gt")), "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"ok", "depths", "projections", "failures"}
    assert data["ok"] is True and data["depths"]["h"] == 1


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.gt"
    bad.write_text("p -> : l . end")
    code, out = run(capsys, "check", str(bad))
    assert code == 2 and "bad.gt" in out


def test_check_non_ascii_label_points_at_it(tmp_path, capsys):
    bad = tmp_path / "bad.gt"
    bad.write_text("p -> q : go .\nq -> p : {ok, é}\n", encoding="utf-8")
    code, out = run(capsys, "check", str(bad))
    assert code == 2 and f"{bad}:2:15: Syntax: unexpected character 'é'" in out


def test_check_missing_file(tmp_path, capsys):
    code, out = run(capsys, "check", str(tmp_path / "nope.gt"))
    assert code == 2 and "cannot read" in out


# ---------------------------------------------------------------------------
# project

def test_project_matches_golden(cx, capsys):
    code, out = run(capsys, "project", str(cx.path("relay.gt")),
                    "--participant", "h")
    assert code == 0
    # the printed process re-parses to the golden projection
    assert parse_process(out, store=cx.store) is cx.proc("relay_h.proc")


def test_project_absent_participant_is_end(cx, capsys):
    code, out = run(capsys, "project", str(cx.path("relay.gt")),
                    "--participant", "zzz")
    assert code == 0 and out.strip() == "0"


def test_project_failure_is_exit_one(cx, capsys, tmp_path):
    bad = tmp_path / "clash.gt"
    bad.write_text("p -> q : {l1 . s -> r : a . end, "
                   "l2 . s -> r : {b . end, a . s -> r : c . end}}")
    code, out = run(capsys, "project", str(bad), "--participant", "r")
    assert code == 1 and "overlapping" in out.lower()


def test_project_json_error_payload(cx, capsys, tmp_path):
    bad = tmp_path / "clash.gt"
    bad.write_text("p -> q : {l1 . r -> s : a . end, l2 . s -> r : a . end}")
    code, out = run(capsys, "project", str(bad), "--participant", "r", "--json")
    assert code == 1
    data = json.loads(out)
    assert set(data) == {"error", "message"}


# ---------------------------------------------------------------------------
# type

def test_type_running_example(cx, capsys):
    code, out = run(capsys, "type", str(cx.path("relay.sess")),
                    "--against", str(cx.path("relay.gt")))
    assert code == 0 and "typed (standard mode)" in out


def test_type_mode_split(cx, capsys):
    sess, gt = str(cx.path("plus_only.sess")), str(cx.path("plus_only.gt"))
    code, out = run(capsys, "type", sess, "--against", gt)
    assert code == 1 and "not typable" in out
    code, out = run(capsys, "type", sess, "--against", gt, "--mode", "plus")
    assert code == 0 and "typed (plus mode)" in out


def test_type_against_ill_formed(cx, capsys):
    code, out = run(capsys, "type", str(cx.path("relay.sess")),
                    "--against", str(cx.path("unbounded.gt")))
    assert code == 2


# ---------------------------------------------------------------------------
# compat

def test_compat_verdicts(cx, capsys):
    code, out = run(capsys, "compat", str(cx.path("relay_h.proc")),
                    str(cx.path("alternator_k.proc")))
    assert code == 0 and "compatible" in out
    code, out = run(capsys, "compat", str(cx.path("send_one.proc")),
                    str(cx.path("recv_two.proc")))
    assert code == 1 and "not compatible" in out


# ---------------------------------------------------------------------------
# compose

def test_compose_sessions_only(cx, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "compose",
                    "--left", str(cx.path("relay.sess")),
                    "--right", str(cx.path("right.sess")),
                    "--via", "h,k", "--out", "c1")
    assert code == 0
    assert (tmp_path / "c1.sess").exists()
    assert "h |>" in (tmp_path / "c1.sess").read_text()


def test_compose_with_types(cx, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "compose",
                    "--left", str(cx.path("relay.sess")),
                    "--right", str(cx.path("right.sess")),
                    "--via", "h,k",
                    "--left-type", str(cx.path("relay.gt")),
                    "--right-type", str(cx.path("right.gt")),
                    "--out", "c2")
    assert code == 0
    for suffix in (".sess", ".gt", ".report.json"):
        assert (tmp_path / ("c2" + suffix)).exists()
    written = parse_global((tmp_path / "c2.gt").read_text(), store=cx.store)
    assert written is cx.gt("composed.gt")
    report = json.loads((tmp_path / "c2.report.json").read_text())
    assert report["typing"]["ok"] is True
    assert "typing: ok" in out


def test_compose_incompatible(cx, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "compose",
                    "--left", str(cx.path("counter_left.sess")),
                    "--right", str(cx.path("counter_right.sess")),
                    "--via", "h,k")
    assert code == 1 and not (tmp_path / "composed.sess").exists()


@pytest.mark.parametrize("left, right", [
    ("h |> k!a . 0", "k |> h?a . 0"),
    ("h |> r!a . 0", "k |> s?a . 0 || r |> 0 || s |> k!a . 0"),
])
def test_compose_with_a_shared_peer_is_exit_one(capsys, tmp_path, monkeypatch, left, right):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "l.sess").write_text(left + "\n")
    (tmp_path / "r.sess").write_text(right + "\n")
    code, out = run(capsys, "compose", "--left", "l.sess", "--right", "r.sess",
                    "--via", "h,k")
    assert code == 1 and "sessions are not compatible" in out
    assert not (tmp_path / "composed.sess").exists()


def test_compose_half_typed_is_usage_error(cx, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "compose",
                    "--left", str(cx.path("relay.sess")),
                    "--right", str(cx.path("right.sess")),
                    "--via", "h,k",
                    "--left-type", str(cx.path("relay.gt")))
    assert code == 2


def test_compose_names_the_ill_formed_left_type(cx, capsys, tmp_path, monkeypatch):
    # the right-hand case is in the golden snapshot
    monkeypatch.chdir(tmp_path)
    bad = str(cx.path("unbounded.gt"))
    code, out = run(capsys, "compose",
                    "--left", str(cx.path("relay.sess")),
                    "--right", str(cx.path("right.sess")), "--via", "h,k",
                    "--left-type", bad, "--right-type", str(cx.path("right.gt")))
    assert code == 2
    assert out == f"{bad}: global type is not well formed (offending: r)\n"


def test_compose_into_a_missing_directory_is_exit_two(cx, capsys, tmp_path):
    out_base = tmp_path / "missing" / "x"
    code, out = run(capsys, "compose",
                    "--left", str(cx.path("relay.sess")),
                    "--right", str(cx.path("right.sess")),
                    "--via", "h,k", "--out", str(out_base))
    assert code == 2
    assert out == f"cannot write {out_base}.sess: No such file or directory\n"


# ---------------------------------------------------------------------------
# simulate

def test_simulate_is_deterministic(cx, capsys):
    target = str(cx.path("right.sess"))
    code_a, out_a = run(capsys, "simulate", target, "--seed", "5")
    code_b, out_b = run(capsys, "simulate", target, "--seed", "5")
    assert code_a == code_b == 0 and out_a == out_b
    assert "status:" in out_a


def test_simulate_writes_dot(cx, capsys, tmp_path):
    dot = tmp_path / "graph.dot"
    code, out = run(capsys, "simulate", str(cx.path("relay.sess")),
                    "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph") and "p:text->q" in text


def test_simulate_dot_into_a_missing_directory_is_exit_two(cx, capsys, tmp_path):
    dot = tmp_path / "missing" / "g.dot"
    code, out = run(capsys, "simulate", str(cx.path("relay.sess")), "--dot", str(dot))
    assert code == 2
    assert out == f"cannot write {dot}: No such file or directory\n"


def test_simulate_json(cx, capsys):
    code, out = run(capsys, "simulate", str(cx.path("relay.sess")),
                    "--steps", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"trace", "final", "status"}
    assert len(data["trace"]) == 3


def test_simulate_rejects_negative_steps(cx, capsys):
    target = str(cx.path("relay.sess"))
    code, out, err = _outcome(capsys, ["simulate", target, "--steps", "-3"])
    assert code == 2 and out == ""
    assert err.startswith("usage: mpst simulate")
    assert "argument --steps: must not be negative, got -3" in err
    assert _outcome(capsys, ["simulate", target, "--steps", "0"]) == (0, "status: bound\n", "")


# ---------------------------------------------------------------------------
# lockfree

def test_lockfree_positive(cx, capsys):
    code, out = run(capsys, "lockfree", str(cx.path("relay.sess")))
    assert code == 0 and out.strip() == "lock-free"


def test_lockfree_deadlock(cx, capsys):
    code, out = run(capsys, "lockfree", str(cx.path("crossed_forwarders.sess")))
    assert code == 1
    assert "not lock-free" in out
    assert "deadlock after: (initial state)" in out


def test_lockfree_starvation(capsys, tmp_path):
    sess = tmp_path / "starving.sess"
    sess.write_text("p |> rec X . q!a . X || q |> rec Y . p?a . Y || r |> s?b . 0\n")
    code, out = run(capsys, "lockfree", str(sess))
    assert code == 1
    assert out == "not lock-free\nr starves after: (initial state)\n"


def test_lockfree_json(cx, capsys):
    code, out = run(capsys, "lockfree", str(cx.path("crossed_forwarders.sess")),
                    "--json")
    assert code == 1
    data = json.loads(out)
    assert set(data) == {"ok", "deadlock_witness", "starvation_witness", "stats"}
    assert data == {"ok": False, "deadlock_witness": [],
                    "starvation_witness": None,
                    "stats": {"states": 1, "edges": 0}}


def test_state_bound_env(cx, capsys, monkeypatch):
    monkeypatch.setenv("MPST_STATE_BOUND", "2")
    code, out = run(capsys, "lockfree", str(cx.path("relay.sess")))
    assert code == 2 and "bound" in out.lower()


def test_state_bound_counts_reachable_states(cx, capsys, monkeypatch, tmp_path):
    # composed.sess reaches 54 states; its node-count product is over 10^5
    monkeypatch.setenv("MPST_STATE_BOUND", "1000")
    code, out = run(capsys, "lockfree", str(cx.path("composed.sess")))
    assert code == 0 and out.strip() == "lock-free"
    # 20 independent ping-pong pairs have 2^20 states, two per pair: the
    # default bound counts the whole session, whether or not it is built
    monkeypatch.delenv("MPST_STATE_BOUND")
    pairs = tmp_path / "pairs.sess"
    pairs.write_text(" || ".join(
        f"a{i} |> rec X . b{i}!ping . b{i}?pong . X || b{i} |> rec Y . a{i}?ping . a{i}!pong . Y"
        for i in range(20)) + "\n")
    code, out = run(capsys, "lockfree", str(pairs))
    assert code == 2
    assert out == ("exploration found more than 1000000 states; "
                   "raise MPST_STATE_BOUND to explore anyway\n")


def test_lockfree_json_reports_explored_size(cx, capsys):
    code, out = run(capsys, "lockfree", str(cx.path("composed.sess")), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["stats"] == {"states": 54, "edges": 78}


@pytest.mark.parametrize("bound", ["abc", "1.5", "0", "-3", ""])
def test_state_bound_env_rejects_non_positive_integers(cx, capsys, monkeypatch, bound):
    monkeypatch.setenv("MPST_STATE_BOUND", bound)
    code, out = run(capsys, "lockfree", str(cx.path("relay.sess")))
    assert code == 2
    assert out.strip() == f"MPST_STATE_BOUND must be a positive integer, got {bound!r}"


# ---------------------------------------------------------------------------
# bad input exits 2 with one line, whatever the subcommand

def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "mpst", *argv],
                          capture_output=True, text=True)


@pytest.mark.parametrize("participant", ["1x", "end"])
def test_project_onto_a_non_identifier_is_exit_two(cx, participant):
    proc = run_module("project", str(cx.path("relay.gt")), "--participant", participant)
    assert proc.returncode == 2
    assert proc.stdout == f"participant must be an identifier, got {participant!r}\n"
    assert "Traceback" not in proc.stderr


def test_non_utf8_input_is_exit_two(cx, tmp_path):
    bad = tmp_path / "bad.gt"
    bad.write_bytes(b"p -> q : a . end\xff")
    for argv in (["check", str(bad)],
                 ["type", str(cx.path("relay.sess")), "--against", str(bad)],
                 ["type", str(bad), "--against", str(cx.path("relay.gt"))]):
        proc = run_module(*argv)
        assert proc.returncode == 2, argv
        assert proc.stdout.startswith(f"cannot read {bad}: ") and proc.stdout.count("\n") == 1
        assert "0xff" in proc.stdout and "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# one argument parser per process

def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of `main(argv)`, an argparse exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _fresh(monkeypatch):
    """Make `main` build a new parser on every call."""
    monkeypatch.setattr(mpst.cli, "_build_parser", mpst.cli._build_parser.__wrapped__)


def test_parser_is_built_once(cx, capsys):
    assert run(capsys, "check", str(cx.path("relay.gt")))[0] == 0
    assert mpst.cli._build_parser() is mpst.cli._build_parser()


@pytest.mark.parametrize("argv", [
    ["--help"], ["check", "--help"], ["compose", "--help"], [], ["bogus"],
    ["check"], ["project", "x.gt"], ["compose", "--left", "a", "--right", "b", "--via", "h"],
    ["type", "a", "--against", "b", "--mode", "loose"], ["simulate", "a", "--steps", "x"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_usage_errors_match_a_fresh_parser(capsys, monkeypatch, argv):
    _outcome(capsys, ["check", "--help"])     # the kept parser has served a call
    kept = _outcome(capsys, argv)
    assert kept[0] in (0, 2) and (kept[1] if kept[0] == 0 else kept[2])
    _fresh(monkeypatch)
    assert _outcome(capsys, argv) == kept


def test_command_after_a_failed_parse(cx, capsys):
    gt = str(cx.path("relay.gt"))
    assert _outcome(capsys, ["check", gt, "--mode", "plus"])[0] == 2
    code, out, err = _outcome(capsys, ["check", gt])
    assert code == 0 and out.rstrip().endswith("well-formed") and err == ""


def test_defaults_do_not_leak_between_calls(cx, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    gt, sess = str(cx.path("relay.gt")), str(cx.path("relay.sess"))
    pairs = [
        (["check", gt, "--json"], ["check", gt]),
        (["type", sess, "--against", gt, "--mode", "plus"], ["type", sess, "--against", gt]),
        (["simulate", sess, "--steps", "3", "--seed", "9"], ["simulate", sess]),
        (["compose", "--left", sess, "--right", str(cx.path("right.sess")),
          "--via", "h,k", "--out", "first"],
         ["compose", "--left", sess, "--right", str(cx.path("right.sess")), "--via", "h,k"]),
    ]
    alone = [_outcome(capsys, then) for _, then in pairs]
    after = [(_outcome(capsys, first), _outcome(capsys, then))[1] for first, then in pairs]
    assert after == alone
    assert after[0][0] == 0 and not after[0][1].startswith("{")
    assert after[1][1] == "typed (standard mode)\n"
    assert (tmp_path / "composed.sess").exists()
    _fresh(monkeypatch)
    assert after == [_outcome(capsys, then) for _, then in pairs]


# ---------------------------------------------------------------------------
# the exit-code contract on garbage: every subcommand, text and --json, over
# printed random terms, about 30% of them mutated

_JUNK = ("->", ":", ".", ",", "{", "}", "!", "?", "|>", "||", "=", "0", "rec", "let",
         "end", "X", "p", "h", "k", " ", "\n", "#", "(", "\u00e9", "\x00")


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 12))
        roll = rng.random()
        if roll < 0.3:
            text = text[:i] + text[j:]
        elif roll < 0.6:
            text = text[:i] + rng.choice(_JUNK) + text[i:]
        elif roll < 0.8:
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i]
    return text


def _garbage_files(rng, d, n):
    """n rounds of printed terms: a compatible pair of global types with
    their self-projected sessions, their interface processes and a random
    global type; about 30% of the files mutated, a few not UTF-8."""
    store = NodeStore()
    rounds = []
    while len(rounds) < n:
        pair = randgen.compatible_global_pair(rng, store, max_nodes=6)
        if pair is None:
            continue
        G, h, G2, k = pair
        texts = {"l.gt": print_global(G), "r.gt": print_global(G2),
                 "l.sess": print_session(randgen.self_projection(store, G)),
                 "r.sess": print_session(randgen.self_projection(store, G2)),
                 "h.proc": print_process(project(G, h)),
                 "k.proc": print_process(project(G2, k)),
                 "x.gt": print_global(randgen.random_global(rng, store, max_nodes=6))}
        files = {}
        for name, text in texts.items():
            path = d / f"{len(rounds)}{name}"
            if rng.random() < 0.3:
                text = _mutate(rng, text)
            if rng.random() < 0.02:
                path.write_bytes(text.encode() + b"\xff")
            else:
                path.write_text(text, encoding="utf-8")
            files[name] = str(path)
        rounds.append(files)
    return rounds


def test_exit_codes_on_garbage(capsys, monkeypatch, tmp_path):
    rng = random.Random(11)
    monkeypatch.chdir(tmp_path)
    codes = {}
    for f in _garbage_files(rng, tmp_path, 120):
        commands = [
            ["check", f["l.gt"]], ["check", f["x.gt"]],
            ["project", f["l.gt"], "--participant", rng.choice("pqhkz")],
            ["type", f["l.sess"], "--against", f["l.gt"], "--mode", rng.choice(("standard", "plus"))],
            ["type", f["r.sess"], "--against", f["x.gt"]],
            ["compat", f["h.proc"], f["k.proc"]],
            ["compose", "--left", f["l.sess"], "--right", f["r.sess"], "--via", "h,k"],
            ["compose", "--left", f["l.sess"], "--right", f["r.sess"], "--via", "h,k",
             "--left-type", f["l.gt"], "--right-type", f["r.gt"]],
            ["simulate", f["l.sess"], "--steps", "8", "--seed", "3", "--dot", "g.dot"],
            ["lockfree", f["r.sess"]], ["lockfree", f["l.sess"]],
        ]
        for argv in commands + [argv + ["--json"] for argv in commands]:
            code, out, err = _outcome(capsys, argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in out + err, argv
            codes[code] = codes.get(code, 0) + 1
    assert min(codes.get(c, 0) for c in (0, 1, 2)) >= 50, codes


# ---------------------------------------------------------------------------
# module entry point and a full corpus pipeline

def test_module_entry_point(cx):
    proc = subprocess.run(
        [sys.executable, "-m", "mpst", "check", str(cx.path("relay.gt"))],
        capture_output=True, text=True)
    assert proc.returncode == 0 and "well-formed" in proc.stdout


def test_pipeline_over_corpus(cx, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    gt, sess = str(cx.path("relay.gt")), str(cx.path("relay.sess"))
    assert run(capsys, "check", gt)[0] == 0
    for p in ("p", "q", "h"):
        assert run(capsys, "project", gt, "--participant", p)[0] == 0
    assert run(capsys, "type", sess, "--against", gt)[0] == 0
    assert run(capsys, "compose",
               "--left", sess, "--right", str(cx.path("right.sess")),
               "--via", "h,k",
               "--left-type", gt, "--right-type", str(cx.path("right.gt")),
               "--out", "full")[0] == 0
    assert run(capsys, "lockfree", "full.sess")[0] == 0


# ---------------------------------------------------------------------------
# 10^4-step chains, in `let` form and nested, through every subcommand

N = 10 ** 4


def _let_chain(name, steps, last):
    return "".join(f"let {name}{i} = {steps(i)} . {name}{i + 1}\n"
                   for i in range(N)) + f"let {name}{N} = {last}\n"


def _nested_chain(steps, last):
    return "".join(f"{steps(i)} . " for i in range(N)) + last


def _chain_step(i):
    return ("p", "q") if i % 2 else ("q", "p")


def _chain_role(x):
    """Role x's part in the chain of steps _chain_step, one prefix a step."""
    def prefix(i):
        s, r = _chain_step(i)
        return f"{r}!a{i % 3}" if s == x else f"{s}?a{i % 3}"

    return prefix


def _deep_texts(nested):
    """File name -> text, with each chain written as one nested term or as
    one `let` equation a step."""
    def chain(name, steps, last):
        """(equations, term) of a chain."""
        if nested:
            return "", _nested_chain(steps, last)
        return _let_chain(name, steps, last), f"{name}0"

    def term(name, steps, last):
        return "".join(chain(name, steps, last)) + "\n"

    def session(*roles):
        """roles: (participant, (equations, term)) pairs."""
        return ("".join(eqs for _, (eqs, _) in roles)
                + " || ".join(f"{x} |> {t}" for x, (_, t) in roles) + "\n")

    return {
        "chain.gt": term("G", lambda i: "{} -> {} : a{}".format(*_chain_step(i), i % 3),
                         "end"),
        "chain.sess": session(("p", chain("P", _chain_role("p"), "0")),
                              ("q", chain("Q", _chain_role("q"), "0"))),
        "h.proc": term("H", lambda i: "p?a", "0"),
        "k.proc": term("K", lambda i: "w!a", "0"),
        # p is left with a long output chain after one exchange: two states
        "stuck.sess": session(("p", chain("P", lambda i: f"q!a{i % 2}", "0")),
                              ("q", ("", "p?a0 . 0"))),
        "left.gt": term("G", lambda i: "p -> q : a", "p -> h : a . end"),
        "left.sess": session(("p", chain("P", lambda i: "q!a", "h!a . 0")),
                             ("q", chain("Q", lambda i: "p?a", "0")), ("h", ("", "p?a . 0"))),
        "right.gt": "k -> w : a . end\n",
        "right.sess": "k |> w!a . 0 || w |> k?a . 0\n",
    }


def _write_deep(d, nested):
    for name, text in _deep_texts(nested).items():
        (d / name).write_text(text)
    return d


@pytest.fixture(scope="module")
def deep_files(tmp_path_factory):
    return _write_deep(tmp_path_factory.mktemp("deep"), nested=False)


@pytest.fixture(scope="module")
def deep_nested_files(tmp_path_factory):
    return _write_deep(tmp_path_factory.mktemp("deep_nested"), nested=True)


_DEEP_ARGVS = pytest.mark.parametrize("argv", [
    ["check", "chain.gt"],
    ["project", "chain.gt", "--participant", "q"],
    ["type", "chain.sess", "--against", "chain.gt"],
    ["type", "chain.sess", "--against", "chain.gt", "--mode", "plus"],
    ["compat", "h.proc", "k.proc"],
    ["simulate", "stuck.sess", "--dot", "stuck.dot"],
    ["lockfree", "chain.sess"],
    ["compose", "--left", "left.sess", "--right", "right.sess", "--via", "h,k",
     "--left-type", "left.gt", "--right-type", "right.gt", "--out", "joined"],
], ids=lambda argv: argv[0] + ("-" + argv[-1] if argv[-2] == "--mode" else ""))
_AS_JSON = pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])


def _run_deep(d, capsys, monkeypatch, argv, as_json):
    monkeypatch.chdir(d)
    code = main(argv + ["--json"] * as_json)
    out, err = capsys.readouterr()
    assert code == 0, out[-300:]
    assert "Traceback" not in out + err


@_DEEP_ARGVS
@_AS_JSON
def test_every_subcommand_takes_deep_let_chains(deep_files, capsys, monkeypatch,
                                                argv, as_json):
    _run_deep(deep_files, capsys, monkeypatch, argv, as_json)


@_DEEP_ARGVS
@_AS_JSON
def test_every_subcommand_takes_deep_nested_chains(deep_nested_files, capsys, monkeypatch,
                                                   argv, as_json):
    _run_deep(deep_nested_files, capsys, monkeypatch, argv, as_json)


def test_deep_chain_forms_parse_to_the_same_nodes(deep_files, deep_nested_files):
    store = NodeStore()
    for name, parse in (("chain.gt", parse_global), ("chain.sess", parse_session),
                        ("h.proc", parse_process)):
        nested = parse((deep_nested_files / name).read_text(), store)
        assert parse((deep_files / name).read_text(), store) == nested, name
    G = parse_global((deep_nested_files / "chain.gt").read_text(), store)
    assert parse_global(print_global(G), store) is G
