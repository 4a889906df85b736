"""Audit the connection operations over randomly generated compatible pairs.

For each case the script draws a pair of disjoint well-formed global types
whose interface projections are compatible, composes the types and the
self-projected sessions through a gateway pair, and records:

  * whether the type-level composition is defined at all,
  * whether the composed type is still well formed (a compatible pair can
    compose into a type that no longer projects onto one of the original
    participants; the audit reports the observed rate),
  * whether the composed session is typed by the composed type and lock-free
    (connection prunes interface branches the partner never drives, and a
    participant whose only traffic sat in a pruned branch starves; the audit
    reports that rate too), and its state-space size.

Only a missing composition fails the audit: that would be a real bug.  The
ill-formed and starved cases are known boundaries of branch pruning and are
counted and shown instead.
"""

import argparse
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import randgen
from mpst.compose import NoClauseApplies, connect_globals, connect_sessions
from mpst.core import NodeStore, Session, participants
from mpst.semantics import lock_free
from mpst.typecheck import depth, typecheck, well_formed


@dataclass
class AuditConfig:
    seed: int = 111
    cases: int = 500
    max_nodes: int = 8


def with_binding(M, p, store):
    if p in M:
        return M
    bindings = dict(M.items())
    bindings[p] = store.end_process
    return Session(bindings)


def audit(cfg):
    rng = random.Random(cfg.seed)
    store = NodeStore()
    undefined = 0
    ill_formed = []
    untyped = []
    not_lock_free = []
    max_states = 0
    max_depth = 0

    for case in range(cfg.cases):
        G, h, Gp, k = randgen.compatible_global_pair(rng, store,
                                                     max_nodes=cfg.max_nodes)
        try:
            composed = connect_globals(G, h, Gp, k)
        except NoClauseApplies:
            undefined += 1
            continue

        wf = well_formed(composed)
        if not wf.ok:
            ill_formed.append(case)
        else:
            for p in participants(composed):
                max_depth = max(max_depth, depth(composed, p).value)

        # a side that never mentions its gateway projects it to End; bind it
        # explicitly so the session-level connection still goes through
        M = with_binding(randgen.self_projection(store, G), h, store)
        Mp = with_binding(randgen.self_projection(store, Gp), k, store)
        sess = connect_sessions(M, h, Mp, k)
        if wf.ok and not typecheck(sess, composed).ok:
            untyped.append(case)
        lf = lock_free(sess)
        if not lf.ok:
            not_lock_free.append((case, lf))
        max_states = max(max_states, lf.states)

    return undefined, ill_formed, untyped, not_lock_free, max_states, max_depth


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=AuditConfig.seed)
    ap.add_argument("--cases", type=int, default=AuditConfig.cases)
    ap.add_argument("--max-nodes", type=int, default=AuditConfig.max_nodes)
    args = ap.parse_args()
    cfg = AuditConfig(seed=args.seed, cases=args.cases, max_nodes=args.max_nodes)

    start = time.monotonic()
    undefined, ill_formed, untyped, not_lock_free, max_states, max_depth = audit(cfg)
    elapsed = time.monotonic() - start

    def cases_note(cases):
        return f"  (cases: {cases[:10]}{'...' if len(cases) > 10 else ''})" \
            if cases else ""

    print(f"composition audit: {cfg.cases} cases, seed {cfg.seed}, "
          f"up to {cfg.max_nodes} nodes per side")
    print(f"  type compositions defined:   {cfg.cases - undefined}/{cfg.cases}")
    print(f"  composed types well formed:  {cfg.cases - len(ill_formed)}/{cfg.cases}"
          + cases_note(ill_formed))
    print(f"  composed sessions typed:     {cfg.cases - len(ill_formed) - len(untyped)}"
          f"/{cfg.cases - len(ill_formed)} of the well-formed ones"
          + cases_note(untyped))
    print(f"  composed sessions lock-free: {cfg.cases - len(not_lock_free)}/{cfg.cases}")
    for case, lf in not_lock_free[:10]:
        if lf.deadlock_witness is not None:
            print(f"    case {case}: deadlock after "
                  f"[{', '.join(str(a) for a in lf.deadlock_witness)}]")
        else:
            path, starved = lf.starvation_witness
            print(f"    case {case}: {starved!r} starves after "
                  f"[{', '.join(str(a) for a in path)}]")
    print(f"  largest composed state space: {max_states} states")
    print(f"  deepest well-formed composed depth: {max_depth}")
    print(f"elapsed: {elapsed:.2f}s")

    if undefined:
        print("audit FAILED: some composition was undefined")
        sys.exit(1)
    print("audit ok")
