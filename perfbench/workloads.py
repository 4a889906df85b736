"""The four workloads, each a closed loop of one client on one thread.

A workload is built from the loaded program, the run's seed and a scratch
directory, and runs in passes: `run_pass(ledger, index)` performs one fixed
mix of ops, in an order drawn from the seed and the pass index, and records
each op in the ledger.  Replaying the same pass indices replays the same ops.
Every op is checked against a known answer that does not come from the
workbench itself.
"""

import gc
import io
import os
import random
import tempfile
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path
from time import perf_counter

import gen
import tracing


class Ledger:
    """One entry per op: its time to verdict, and its cause if it failed.

    An op fails when it raises, is refused, or gives a verdict other than the
    known answer; only the last kind is `wrong`.
    """

    def __init__(self, probe=None):
        self.labels = []
        self.seconds = []
        self.failed_ops = {}  # op index -> (cause, wrong)
        self.probe = probe  # a speed.SpeedProbe, or None when tracing
        self.scaled = []  # with a probe: each op's time at reference speed

    @property
    def attempted(self):
        return len(self.seconds)

    def add(self, label, seconds, cause=None, wrong=False):
        if cause is not None:
            self.failed_ops[len(self.seconds)] = (cause, wrong)
        self.labels.append(label)
        self.seconds.append(seconds)
        if self.probe is not None:
            self.scaled.append(seconds * self.probe.bracket())

    def run(self, label, check):
        """Time `check()`, which returns None or how the verdict was wrong."""
        start = perf_counter()
        try:
            mismatch = check()
        except Exception as exc:  # a crash is a failed op, not the end of the run
            self.add(label, perf_counter() - start, describe(exc))
            return
        self.add(label, perf_counter() - start, mismatch, wrong=mismatch is not None)


class CliCorpus:
    """Every step of scripts/run_pipeline.py, through `mpst.cli.main`.

    The steps and their expected exit codes are the script's own: the pass
    calls its `pipeline()` with the script's `mpst` and `run` globals
    replaced by timing shims, so the table cannot drift from the script.
    """

    def __init__(self, prog, seed, scratch):
        self.prog = prog
        self.corpus = prog.root / "corpus"
        self.out = Path(tempfile.mkdtemp(prefix="cli_", dir=scratch))

    def run_pass(self, ledger, index):
        script = self.prog.run_pipeline
        main, run = script.mpst, script.run
        last = {}

        def timed_main(argv):
            start = perf_counter()
            try:
                last["code"] = main(argv)
            except Exception as exc:  # a crash is a failed op, not the end of the run
                last["code"] = exc
            last["seconds"] = perf_counter() - start
            return last["code"]

        def checked_run(expected, *argv):
            ok = run(expected, *argv)
            code = last["code"]
            label = f"mpst {argv[0]} {Path(argv[-1] if argv[0] == 'compose' else argv[1]).name}"
            if ok:
                ledger.add(label, last["seconds"])
            elif isinstance(code, Exception):
                ledger.add(label, last["seconds"], describe(code))
            else:
                ledger.add(label, last["seconds"], f"exit {code}, wanted {expected}",
                           wrong=code != 2)
            return ok

        script.mpst, script.run = timed_main, checked_run
        try:
            with redirect_stdout(io.StringIO()):
                script.pipeline(self.corpus, self.out)
        finally:
            script.mpst, script.run = main, run


class Audit:
    """The case loop of scripts/composition_audit.py, one shared store per pass.

    One op is one case.  Cases are timed at their boundaries: each call of
    `randgen.compatible_global_pair` opens a case and closes the one before.
    The known answer is that every composition is defined, which holds by
    construction of the pairs.
    """

    CASES = 2000  # per audit() call; the store and its memos grow over them

    def __init__(self, prog, seed, scratch):
        self.prog = prog
        self.seed = seed

    def run_pass(self, ledger, index):
        script, randgen = self.prog.audit, self.prog.randgen
        pair, connect = randgen.compatible_global_pair, script.connect_globals
        case = {"start": None, "cause": None, "n": -1}

        def close(now, cause=None):
            if case["start"] is not None:
                cause = cause or case["cause"]
                ledger.add(f"audit seed {cfg.seed} case {case['n']}", now - case["start"],
                           cause, wrong=cause is not None and cause is case["cause"])
                case["start"] = None

        def next_case(*args, **kwargs):
            close(perf_counter())  # probes the host's speed, if probing
            case.update(start=perf_counter(), cause=None, n=case["n"] + 1)
            return pair(*args, **kwargs)

        def checked_connect(*args):
            try:
                return connect(*args)
            except self.prog.compose.NoClauseApplies as exc:
                case["cause"] = f"composition undefined: {exc}"
                raise

        cfg = script.AuditConfig(seed=self.seed * 1000 + index, cases=self.CASES)
        randgen.compatible_global_pair, script.connect_globals = next_case, checked_connect
        try:
            script.audit(cfg)
        except Exception as exc:  # the case that raised fails; the pass ends
            close(perf_counter(), describe(exc))
        finally:
            randgen.compatible_global_pair, script.connect_globals = pair, connect
            close(perf_counter())


class DeepProtocols:
    """Long three-party relay chains, parsed and checked in a fresh store.

    Known answers follow from the chain's shape: well formed with depths
    0, 0, 1 for the first sender, first receiver and third role; typed; and
    fidelity ok over n+1 pairs.
    """

    REPEATS = {16: 8, 32: 8, 64: 4, 128: 2, 256: 1}  # ladder rung -> ops per pass
    RUNG = 512  # one check per form and pass
    FORMS = ("nested", "let")
    REQUESTS = ("check", "type", "fidelity")

    def __init__(self, prog, seed, scratch):
        self.prog = prog
        self.seed = seed
        rng = random.Random(seed)
        self.inputs = {(n, form): gen.relay_chain(rng, n, form)
                       for n in (*self.REPEATS, self.RUNG) for form in self.FORMS}
        self.ops = [(n, form, req) for n, reps in self.REPEATS.items()
                    for _ in range(reps) for form in self.FORMS for req in self.REQUESTS]
        self.ops += [(self.RUNG, form, "check") for form in self.FORMS]

    def run_pass(self, ledger, index):
        order = list(self.ops)
        random.Random(self.seed * 1000 + index).shuffle(order)
        for n, form, req in order:
            # The last op's store is megabytes of cyclic garbage.  Collect it
            # before the op, as a fresh process would start clean; otherwise
            # its collection lands in whichever op the shuffle puts next.
            gc.collect()
            ledger.run(f"n={n} {form} {req}", partial(self.verdict, n, form, req))

    def verdict(self, n, form, req):
        p = self.prog
        gt, sess, roles = self.inputs[n, form]
        store = p.core.NodeStore()
        G = p.parser.parse_global(gt, store)
        if req == "check":
            report = p.typecheck.well_formed(G)
            depths = {q: d.value for q, d in report.depths.items()}
            want = dict(zip(roles, (0, 0, 1)))
            if not report.ok or depths != want:
                return f"well_formed ok={report.ok} depths={depths}, wanted ok with {want}"
            return None
        M = p.parser.parse_session(sess, store)
        if not p.typecheck.typecheck(M, G).ok:
            return "session not typed by its chain"
        if req == "fidelity":
            v = p.semantics.fidelity_harness(M, G)
            if not v.ok or v.visited != n + 1:
                return f"fidelity ok={v.ok} visited={v.visited}, wanted ok with {n + 1}"
        return None

    def layer_metrics(self, tracer, ledger):
        """Log-log slope of intern self time per op over the ladder rungs."""
        per_op = tracer.op_self_s("core.intern")
        by_n = {}
        for op, label in enumerate(ledger.labels):
            if op not in ledger.failed_ops:
                n = int(label.split()[0][2:])
                by_n.setdefault(n, []).append(per_op.get(op, 0.0))
        points = [(n, sum(ts) / len(ts)) for n, ts in by_n.items()]
        return {"core.intern.growth_exponent": tracing.loglog_slope(points)}


class StateSpaces:
    """`lock_free` on families whose state graphs are small but whose
    products of node counts are large.

    k ping-pong pairs have 2^k reachable states and k-party token rings 2k.
    Fifteen inputs per pass put the p50 and p90 ranks mid-way through a
    group of like ops, not on the edge between two sizes.
    The state count is read from the graph `lock_free` explores, by a shim
    on `semantics.explore`, so each op runs the exploration once.
    """

    PAIRS = range(3, 10)
    RINGS = range(3, 11)

    def __init__(self, prog, seed, scratch):
        self.prog = prog
        self.seed = seed
        rng = random.Random(seed)
        self.inputs = [(f"ping-pong k={k}", *gen.ping_pong_pairs(rng, k)) for k in self.PAIRS]
        self.inputs += [(f"ring k={k}", *gen.token_ring(rng, k)) for k in self.RINGS]

    def run_pass(self, ledger, index):
        semantics = self.prog.semantics
        explore = semantics.explore
        seen = {}

        def counted(*args, **kwargs):
            graph = explore(*args, **kwargs)
            seen["states"] = len(graph.states)
            return graph

        order = list(self.inputs)
        random.Random(self.seed * 1000 + index).shuffle(order)
        semantics.explore = counted
        try:
            for label, text, states in order:
                ledger.run(label, partial(self.verdict, text, states, seen))
        finally:
            semantics.explore = explore

    def verdict(self, text, states, seen):
        p = self.prog
        seen.clear()
        M = p.parser.parse_session(text, p.core.NodeStore())
        report = p.semantics.lock_free(M)
        if not report.ok or seen.get("states") != states:
            return f"lock_free ok={report.ok} states={seen.get('states')}, wanted ok with {states}"
        return None


WORKLOADS = {
    "cli_corpus": CliCorpus,
    "audit": Audit,
    "deep_protocols": DeepProtocols,
    "state_spaces": StateSpaces,
}


def describe(exc):
    """An exception as a one-line cause, with the frame that raised it."""
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    where = ""
    if tb is not None:
        code = tb.tb_frame.f_code
        where = f" in {code.co_name} ({os.path.basename(code.co_filename)}:{tb.tb_lineno})"
    return f"{type(exc).__name__}{where}: {str(exc)[:120]}"
