"""Per-layer tracing of the workbench, installed from outside.

Each traced public function is replaced, in every program module namespace
that binds it, by a wrapper that records a span: layer, op index, start, end
and parent span.  Methods are patched on their classes, so `isinstance`
keeps working.  Spans live in flat arrays while the run lasts and are
written out by `write_spans` at the end.  A layer's self time is its span
minus the spans of its children; calls and inclusive time count only spans
not nested in a span of the same layer.
"""

import functools
import math
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# layer -> (submodule, public functions); wrapped wherever they are bound
FUNCTIONS = {
    "parser.parse": ("parser", ("parse_global", "parse_session", "parse_process")),
    "parser.print": ("parser", ("print_global", "print_session", "print_process")),
    "typecheck.project": ("typecheck", ("project",)),
    "typecheck.depth": ("typecheck", ("depth",)),
    "typecheck.well_formed": ("typecheck", ("well_formed",)),
    "typecheck.leq": ("typecheck", ("leq", "leq_plus")),
    "typecheck.typecheck": ("typecheck", ("typecheck",)),
    "semantics.session_enabled": ("semantics", ("session_enabled",)),
    "semantics.global_enabled": ("semantics", ("global_enabled",)),
    "semantics.explore": ("semantics", ("explore",)),
    "semantics.lock_free": ("semantics", ("lock_free",)),
    "semantics.fidelity": ("semantics", ("fidelity_harness",)),
    "semantics.simulate": ("semantics", ("simulate",)),
    "compose.compatible": ("compose", ("compatible",)),
    "compose.gateway": ("compose", ("gateway",)),
    "compose.connect_sessions": ("compose", ("connect_sessions",)),
    "compose.connect_globals": ("compose", ("connect_globals",)),
    "compose.verify_connection": ("compose", ("verify_connection",)),
    "cli.main": ("cli", ("main",)),
    # the generator calls composition_audit makes, and those they make
    "gen": ("randgen", ("compatible_global_pair", "self_projection",
                        "random_wf_global", "random_global")),
}

# layer -> (core class, method) pairs, patched on the class
METHODS = {
    "core.intern": (("NodeStore", "comm"), ("NodeStore", "adopt"),
                    ("GraphBuilder", "intern")),
    "core.session": (("Session", "__init__"),),
}

LAYERS = ("parser.parse", "parser.print", "core.intern", "core.session",
          *(name for name in FUNCTIONS if name.split(".")[0] != "parser"))

EXTRA_METRICS = (
    ("core.intern.nodes_created", "count"),
    ("core.intern.growth_exponent", "1"),
    ("semantics.explore.states", "count"),
    ("semantics.explore.edges", "count"),
    ("semantics.explore.states_per_s", "1/s"),
    ("semantics.bound_trips", "count"),
    ("semantics.global_enabled.hit_ratio", "ratio"),
    ("semantics.fidelity.visited", "count"),
    ("typecheck.project.hit_ratio", "ratio"),
    ("gen.wf_accept_ratio", "ratio"),
    ("parser.parse.bytes_per_s", "B/s"),
    ("trace.overhead_ratio", "ratio"),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    def __init__(self, ledger):
        self.ledger = ledger            # supplies the index of the running op
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.span_layer = array("H")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []                 # [span index, layer id, child seconds]
        self.depth = [0] * len(LAYERS)  # open spans per layer
        self.self_s = [0.0] * len(LAYERS)
        self.incl_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.op_self = defaultdict(float)  # (layer id, op index) -> self seconds
        self.counts = Counter()
        self._restore = []

    # -- installation --------------------------------------------------------

    def install(self, prog):
        """Wrap every traced function and method of the loaded program."""
        probes = self._probes(prog)
        namespaces = [m for name, m in sys.modules.items()
                      if name.split(".")[0] in prog.module_roots]
        for layer, (submodule, names) in FUNCTIONS.items():
            home = getattr(prog, submodule)
            for name in names:
                original = getattr(home, name)
                traced = self._wrap(layer, original, *probes.get(name, (None, None)))
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, bound, traced)
        for layer, methods in METHODS.items():
            for cls_name, name in methods:
                cls = getattr(prog.core, cls_name)
                self._patch(cls, name, self._wrap(layer, getattr(cls, name),
                                                  *probes.get(name, (None, None))))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _probes(self, prog):
        """Counters read at layer boundaries: name -> (before, after).

        `before(args, nested)` returns a token passed on to
        `after(token, result, exc, nested)`.
        """
        counts = self.counts

        def parse_before(args, nested):
            if not nested:
                counts["parse_bytes"] += len(args[0])

        def memo_probe(memo_name, key_of):
            def before(args, nested):
                key = key_of(args)
                if key is not None:
                    counts[memo_name + "_lookups"] += 1
                    counts[memo_name + "_hits"] += key in args[0].store.memo(memo_name)
            return before

        def explore_after(token, graph, exc, nested):
            if isinstance(exc, prog.semantics.StateSpaceBoundExceeded):
                counts["bound_trips"] += 1
            elif exc is None:
                counts["states"] += len(graph.states)
                counts["edges"] += len(graph.edges)

        def intern_before(args, nested):
            store = getattr(args[0], "store", args[0])
            return None if nested else (store, getattr(store, "_count", None))

        def intern_after(token, result, exc, nested):
            if token is not None and token[1] is not None:
                counts["nodes_created"] += token[0]._count - token[1]

        def tally(key, test=lambda result: True):
            def after(token, result, exc, nested):
                if exc is None and test(result):
                    counts[key] += 1
            return after

        def visited(token, verdict, exc, nested):
            if exc is None:
                counts["visited"] += verdict.visited

        GEnd = prog.core.GEnd
        return {
            "parse_global": (parse_before, None),
            "parse_session": (parse_before, None),
            "parse_process": (parse_before, None),
            "project": (memo_probe("project", lambda a: (a[0].nid, a[1])), None),
            "global_enabled": (memo_probe(
                "global_enabled", lambda a: None if isinstance(a[0], GEnd) else a[0].nid), None),
            "explore": (None, explore_after),
            "fidelity_harness": (None, visited),
            "comm": (intern_before, intern_after),
            "adopt": (intern_before, intern_after),
            "intern": (intern_before, intern_after),
            "random_global": (None, tally("wf_attempts")),
            "random_wf_global": (None, tally("wf_accepted", lambda g: g is not None)),
        }

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer, fn, before, after):
        lid = self.layer_ids[layer]
        depth, stack = self.depth, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = depth[lid] > 0
            token = before(args, nested) if before else None
            frame = [len(self.span_start), lid, 0.0]
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_layer.append(lid)
            self.span_op.append(self.ledger.attempted)
            self.span_parent.append(stack[-1][0] if stack else -1)
            stack.append(frame)
            depth[lid] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, start, nested)
                if after:
                    after(token, None, exc, nested)
                raise
            self._close(frame, start, nested)
            if after:
                after(token, result, None, nested)
            return result

        return traced

    def _close(self, frame, start, nested):
        end = perf_counter()
        index, lid, children = frame
        self.stack.pop()
        self.depth[lid] -= 1
        self.span_start[index] = start
        self.span_end[index] = end
        spent = end - start
        own = spent - children
        self.self_s[lid] += own
        self.op_self[lid, self.ledger.attempted] += own
        if not nested:
            self.calls[lid] += 1
            self.incl_s[lid] += spent
        if self.stack:
            self.stack[-1][2] += spent

    # -- results -------------------------------------------------------------

    def op_self_s(self, layer):
        """{op index: self seconds} of one layer."""
        lid = self.layer_ids[layer]
        return {op: s for (l, op), s in self.op_self.items() if l == lid}

    def metrics(self, scale=1.0):
        """Every per-layer metric this tracer measures, by name, with times
        multiplied by `scale`."""
        c, ids = self.counts, self.layer_ids
        out = {}
        for layer, lid in ids.items():
            out[f"{layer}.self_s"] = self.self_s[lid] * scale
            out[f"{layer}.calls"] = self.calls[lid]

        def ratio(num, den):
            return num / den if den else 0.0

        out.update({
            "core.intern.nodes_created": c["nodes_created"],
            "semantics.explore.states": c["states"],
            "semantics.explore.edges": c["edges"],
            "semantics.explore.states_per_s":
                ratio(c["states"], self.incl_s[ids["semantics.explore"]] * scale),
            "semantics.bound_trips": c["bound_trips"],
            "semantics.global_enabled.hit_ratio":
                ratio(c["global_enabled_hits"], c["global_enabled_lookups"]),
            "semantics.fidelity.visited": c["visited"],
            "typecheck.project.hit_ratio":
                ratio(c["project_hits"], c["project_lookups"]),
            "gen.wf_accept_ratio": ratio(c["wf_accepted"], c["wf_attempts"]),
            "parser.parse.bytes_per_s":
                ratio(c["parse_bytes"], self.incl_s[ids["parser.parse"]] * scale),
        })
        return out

    def write_spans(self, path):
        """All spans as TSV: op, layer, parent span, start and end in ns."""
        names = LAYERS
        with open(path, "w") as fh:
            fh.write("span\top\tlayer\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_op[i]}\t{names[self.span_layer[i]]}\t"
                         f"{self.span_parent[i]}\t{int(self.span_start[i] * 1e9)}\t"
                         f"{int(self.span_end[i] * 1e9)}\n")


def loglog_slope(points):
    """Least-squares slope of log(y) against log(x); 0.0 with < 2 points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0
