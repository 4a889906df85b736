"""Reference implementations of the graph-to-graph maps, for differential tests.

These are the recursive versions of `project`, `gateway`, `connect_globals`,
`standard_witness`, the global-type step functions and the printer that
preceded the worklist maps (now one `NodeStore.map` search each) and the
explicit-stack printer, and the
three-pass parser and recursive `intern_term` that preceded the one-pass
reader, kept verbatim apart from their names and their memo tables
(`ref_project`, `ref_gateway`), so that they share no cache with the
production code.  One rule has changed since: `ref_intern_term` finds a
variable at the head of a body unguarded only for the binders opened since
the last prefix, not for every binder still being resolved, so that
`rec X . p!a . rec Y . X` is read as the contractive term it is.  Each
recurses once per node, so they only suit small inputs.  `ref_depth_raw` is the three-walk depth that preceded the one pass
over `core._sccs`, and `ref_participants` the fold over `core._sccs` that
computed participant sets on demand before each node got its own at
creation.  `ref_leq`, `ref_leq_plus` and `ref_compatible` decide the three
coinductive relations as greatest fixpoints by deletion, with no closure
search and no memo.  `ref_intern_cycle` is the interning kernel that ranked
the shapes themselves, as tuples, and keyed a component by nested tuples;
patched onto `NodeStore` as `_intern_cycle`, it must make the same nodes.  `ref_connect_globals` and `ref_standard_witness`
build their own markers, memo keys and state keys, so that the reference
imports no private helper of the code it checks.
"""

import re

from mpst.compose import NoClauseApplies, ParticipantCollision
from mpst.core import (_KINDS, GComm, GEnd, NodeStore, PEnd, PIn, POut, Session,
                       TermError, UnboundVariable, UnguardedRecursion,
                       _participants_of, _sccs, _split, check_ident, node_branch,
                       node_labels, normalize_session, participants)
from mpst.parser import (DiagKind, ParseDiagnostic, ParseError, SourceSpan,
                         print_process)
from mpst.typecheck import (DepthValue, Mode, ProjectionError, ProjectionErrorKind,
                            typecheck)


class _Reject(Exception):
    def __init__(self, err):
        super().__init__(str(err))
        self.err = err


class _Cell:
    __slots__ = ("draft", "state", "node", "members", "had_self")
    # state: "busy" while the clauses run, "deferred" while the merge waits
    # on other in-flight projections, "done" once the draft is filled.

    def __init__(self, draft, node):
        self.draft = draft
        self.state = "busy"
        self.node = node
        self.members = None
        self.had_self = False


def ref_project(G, p):
    """Process the participant must run to follow G, or a ProjectionError."""
    check_ident(p, "participant")
    cache = G.store.memo("ref_project")
    hit = cache.get((G.nid, p))
    if hit is not None:
        return hit
    try:
        return _ref_project_run(G.store, G, p)
    except _Reject as r:
        cache[(G.nid, p)] = r.err
        return r.err


def _ref_project_run(store, root, p):
    cache = store.memo("ref_project")
    b = store.builder()
    cells = {}
    deferred = []
    checks = []  # (node, ref, ref): projections assumed equal, checked at the end

    def reject(kind, g, msg):
        err = ProjectionError(kind, g, p, msg)
        cache[(g.nid, p)] = err
        raise _Reject(err)

    def desc(target):
        """(shape, refs) of a draft or node; None while the draft is a hole."""
        return b._drafts[target] if isinstance(target, int) else _split(target)

    def decide(cell):
        """Fill the cell's draft, or return False while members are holes."""
        shapes = []
        for m in cell.members:
            d = desc(m)
            if d is None:
                return False
            shapes.append(d[0])
        g, d, ms = cell.node, cell.draft, cell.members
        if not ms:
            raise AssertionError("empty merge despite the participant occurring")
        if len(ms) == 1:
            b.fill_copy(d, ms[0])
            return True
        kinds = {s[0] for s in shapes}
        if len(kinds) > 1:
            words = {"pend": "end", "pin": "in", "pout": "out"}
            reject(ProjectionErrorKind.MixedShapes, g,
                   f"branches of {g!r} project onto {p!r} with different shapes "
                   f"({', '.join(sorted(words[k] for k in kinds))})")
        kind = kinds.pop()
        if kind == "pend":
            b.fill_copy(d, ms[0])
            return True
        if kind == "pout":
            if len({(s[1], s[2]) for s in shapes}) > 1:
                reject(ProjectionErrorKind.UnequalContinuations, g,
                       f"branches of {g!r} project onto {p!r} as different outputs")
            b.fill_copy(d, ms[0])
            checks.extend((g, ms[0], m) for m in ms[1:])
            return True
        senders = {s[1] for s in shapes}
        if len(senders) > 1:
            reject(ProjectionErrorKind.DifferentInputSenders, g,
                   f"branches of {g!r} project onto {p!r} as inputs from "
                   f"{', '.join(sorted(senders))}")
        label_sets = [set(s[2]) for s in shapes]
        if all(ls == label_sets[0] for ls in label_sets):
            b.fill_copy(d, ms[0])
            checks.extend((g, ms[0], m) for m in ms[1:])
            return True
        if all(not (label_sets[i] & label_sets[j])
               for i in range(len(ms)) for j in range(i + 1, len(ms))):
            if cell.had_self:
                reject(ProjectionErrorKind.OverlappingInputLabels, g,
                       f"a branch of {g!r} projects onto {p!r} to the merged input "
                       f"itself, which cannot be disjoint from the union")
            combined = []
            for m in ms:
                shape, refs = desc(m)
                combined.extend(zip(shape[-1], refs))
            b.fill_in(d, senders.pop(), combined)
            return True
        reject(ProjectionErrorKind.OverlappingInputLabels, g,
               f"branches of {g!r} project onto {p!r} as inputs whose label sets "
               f"overlap without being equal")

    def go(g):
        hit = cache.get((g.nid, p))
        if isinstance(hit, ProjectionError):
            raise _Reject(hit)
        if hit is not None:
            return hit
        cell = cells.get(g.nid)
        if cell is not None:
            return cell.draft
        if p not in participants(g):
            cache[(g.nid, p)] = store.end_process
            return store.end_process
        cell = _Cell(b.reserve(), g)
        cells[g.nid] = cell
        d = cell.draft
        if g.sender == p:
            b.fill_out(d, g.receiver, [(l, go(c)) for l, c in g.branches])
        elif g.receiver == p:
            b.fill_in(d, g.sender, [(l, go(c)) for l, c in g.branches])
        else:
            members = []
            for _, c in g.branches:
                m = go(c)
                if m == d:
                    cell.had_self = True
                elif m not in members:
                    members.append(m)
            cell.members = members
            if not decide(cell):
                cell.state = "deferred"
                deferred.append(cell)
                return d
        cell.state = "done"
        return d

    res = go(root)
    pending = [c for c in deferred if c.state != "done"]
    while pending:
        rest = []
        for cell in pending:
            if decide(cell):
                cell.state = "done"
            else:
                rest.append(cell)
        if len(rest) == len(pending):
            # The remaining merges wait on one another in a cycle.  A cyclic
            # union has no consistent label set, so the only reading left is
            # that each such merge equals its members; pick the first member
            # whose shape is known and leave the equalities to the checks.
            # Cells whose members are all still holes unblock on a later
            # sweep once a neighbour is filled.
            progressed = False
            for cell in rest:
                known = [m for m in cell.members if desc(m) is not None]
                if not known:
                    continue
                b.fill_copy(cell.draft, known[0])
                checks.extend((cell.node, known[0], m)
                              for m in cell.members if m != known[0])
                cell.state = "done"
                progressed = True
            if not progressed:
                raise AssertionError("merge cycle with no resolved member")
            rest = [cell for cell in rest if cell.state != "done"]
        pending = rest

    targets = [cell.draft for cell in cells.values()]
    for _, a, c in checks:
        targets.extend((a, c))
    if not isinstance(res, int):
        final = {}
        nodes = []
    else:
        nodes = b.intern(targets)
        final = dict(zip(targets, nodes))
    at = len(cells)
    for g, a, c in checks:
        fa, fc = nodes[at], nodes[at + 1]
        at += 2
        if fa is not fc:
            reject(ProjectionErrorKind.UnequalContinuations, g,
                   f"branches of {g!r} project onto {p!r} differently "
                   f"({print_process(fa)} vs {print_process(fc)})")
    for nid, cell in cells.items():
        cache[(nid, p)] = final[cell.draft]
    return final[res] if isinstance(res, int) else res


def ref_gateway(P, h):
    """Turn P into a forwarder that relays every exchange through h.

    Inputs are kept and re-sent to h; outputs are first requested from h and
    then delivered to the original peer.
    """
    if h in participants(P):
        raise ParticipantCollision(f"{h!r} already occurs in the process")
    store = P.store
    cache = store.memo("ref_gateway")
    hit = cache.get((P.nid, h))
    if hit is not None:
        return hit
    b = store.builder()
    seen = {}

    def go(n):
        if isinstance(n, PEnd):
            return store.end_process
        d = seen.get(n.nid)
        if d is not None:
            return d
        d = seen[n.nid] = b.reserve()
        relay = h if isinstance(n, PIn) else n.peer
        source = n.peer if isinstance(n, PIn) else h
        branches = [(l, b.add_out(relay, [(l, go(cont))])) for l, cont in n.branches]
        b.fill_in(d, source, branches)
        return d

    root = go(P)
    result = b.intern([root])[0] if isinstance(root, int) else root
    cache[(P.nid, h)] = result
    return result


def ref_connect_globals(G, h, G_prime, k):
    """Interleave two global types, wiring h and k as paired forwarders.

    Communications that used to terminate at h (resp. originate at k) are
    spliced with the forwarding steps h->k (resp. k->h); everything else is
    interleaved unchanged, alternating sides so neither type's independent
    interactions pile up before the other's.

    The left type progresses until it ends or blocks on an output of h; only
    then does the right type move.  Callers must supply compatible types
    (disjoint participants, compatible h/k projections): on other inputs the
    dispatch below can reach a dead end and raises NoClauseApplies.
    """
    store = G.store
    G_prime = store.adopt(G_prime)
    b = store.builder()
    cells = {}

    # star is None for `#`, else ("fwd", l) or ("bwd", l)
    def cn(h, k, star, L, R, swapped):
        key = (h, k, star, L.nid, R.nid, swapped)
        hit = cells.get(key)
        if hit is not None:
            return hit
        if star is None and isinstance(L, GEnd):
            cells[key] = R
            return R
        d = cells[key] = b.reserve()
        if star is None:
            if isinstance(L, GComm) and L.receiver == h:
                b.fill_comm(d, L.sender, h,
                            [(l, cn(h, k, ("fwd", l), cont, R, swapped))
                             for l, cont in L.branches])
            elif isinstance(L, GComm) and h not in (L.sender, L.receiver):
                b.fill_comm(d, L.sender, L.receiver,
                            [(l, cn(k, h, None, R, cont, not swapped))
                             for l, cont in L.branches])
            elif isinstance(R, GComm) and R.receiver == k:
                b.fill_comm(d, R.sender, k,
                            [(l, cn(h, k, ("bwd", l), L, cont, swapped))
                             for l, cont in R.branches])
            elif isinstance(R, GComm) and k not in (R.sender, R.receiver):
                b.fill_comm(d, R.sender, R.receiver,
                            [(l, cn(k, h, None, cont, L, not swapped))
                             for l, cont in R.branches])
            else:
                raise NoClauseApplies(key)
        elif star[0] == "fwd":
            # h holds a message for k; the second type must route it onward.
            if isinstance(R, GComm) and R.sender == k:
                cont = dict(R.branches).get(star[1])
                if cont is None:
                    raise NoClauseApplies(key)
                inner = b.add_comm(k, R.receiver,
                                   [(star[1], cn(h, k, None, L, cont, swapped))])
                b.fill_comm(d, h, k, [(star[1], inner)])
            elif isinstance(R, GComm) and R.receiver != k:
                b.fill_comm(d, R.sender, R.receiver,
                            [(l, cn(h, k, star, L, cont, swapped))
                             for l, cont in R.branches])
            else:
                raise NoClauseApplies(key)
        else:
            # k holds a message for h; the first type must route it onward.
            if isinstance(L, GComm) and L.sender == h:
                cont = dict(L.branches).get(star[1])
                if cont is None:
                    raise NoClauseApplies(key)
                inner = b.add_comm(h, L.receiver,
                                   [(star[1], cn(h, k, None, cont, R, swapped))])
                b.fill_comm(d, k, h, [(star[1], inner)])
            elif isinstance(L, GComm) and L.receiver != h:
                b.fill_comm(d, L.sender, L.receiver,
                            [(l, cn(h, k, star, cont, R, swapped))
                             for l, cont in L.branches])
            else:
                raise NoClauseApplies(key)
        return d

    root = cn(h, k, None, G, G_prime, False)
    return b.intern([root])[0] if isinstance(root, int) else root


def ref_can_step(G, action, memo, busy):
    if isinstance(G, GEnd):
        return False
    key = (G.nid, action)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if G.sender == action.sender and G.receiver == action.receiver:
        res = action.label in node_labels(G)
        memo[key] = res
        return res
    if action.involves(G.sender) or action.involves(G.receiver):
        memo[key] = False
        return False
    if key in busy:
        return False
    busy.add(key)
    res = all(ref_can_step(c, action, memo, busy) for _, c in G.branches)
    busy.discard(key)
    memo[key] = res
    return res


def ref_do_step(G, action, memo):
    key = (G.nid, action)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if G.sender == action.sender and G.receiver == action.receiver:
        res = node_branch(G, action.label)
    else:
        res = G.store.comm(G.sender, G.receiver,
                           [(l, ref_do_step(c, action, memo)) for l, c in G.branches])
    memo[key] = res
    return res


def ref_standard_witness(M, G):
    """Global type typing M under the plain preorder, built from a Plus typing.

    Follows the session and the type together, narrowing every root choice to
    the labels the sending process actually offers.
    """
    rep = typecheck(M, G, Mode.Plus)
    if not rep.ok:
        raise ValueError("standard_witness requires a session typed in Plus mode")
    store = G.store
    b = store.builder()
    cells = {}

    def go(state, g):
        if isinstance(g, GEnd):
            return store.end_global
        key = (tuple((p, P.nid) for p, P in state.items()), g.nid)
        if key in cells:
            return cells[key]
        d = b.reserve()
        cells[key] = d
        sender = state[g.sender]
        branches = []
        for l, cont in sender.branches:
            succ = dict(state.items())
            succ[g.sender], succ[g.receiver] = cont, node_branch(state[g.receiver], l)
            branches.append((l, go(normalize_session(Session._trusted(succ)),
                                   node_branch(g, l))))
        b.fill_comm(d, g.sender, g.receiver, branches)
        return d

    root = go(normalize_session(M), G)
    if not isinstance(root, int):
        return root
    return b.intern([root])[0]


def ref_print_node(root, glob):
    counter = [0]
    end_text = "end" if glob else "0"

    def go(n, stack):
        if isinstance(n, (PEnd, GEnd)):
            return end_text
        if n in stack:
            if stack[n] is None:
                stack[n] = f"X{counter[0]}"
                counter[0] += 1
            return stack[n]
        stack[n] = None
        parts = [f"{label} . {go(child, stack)}" for label, child in n.branches]
        if len(parts) == 1:
            body_branches = parts[0]
        else:
            body_branches = "{" + ", ".join(parts) + "}"
        if glob:
            body = f"{n.sender} -> {n.receiver} : {body_branches}"
        else:
            op = "?" if isinstance(n, PIn) else "!"
            body = f"{n.peer}{op}{body_branches}"
        name = stack.pop(n)
        if name is not None:
            body = f"rec {name} . {body}"
        return body

    return go(root, {})


# ---------------------------------------------------------------------------
# The parser that preceded the one-pass reader: a lexer of 4-tuples, a
# recursive descent into nested tuples, and the recursive `intern_term`
# that resolved them (`ref_intern_term`).  Identifiers follow Python's
# `\w`, so a non-ASCII letter passes the lexer and fails at interning,
# unless it only names a `rec` variable.

# One alternative per kind of lexeme, tried in order.  A word starts with a
# letter or "_" and continues with \w (isalnum() or "_"); the word group
# also takes the other non-decimal \w characters, such as "²", as a start,
# and _scan rejects those as unexpected characters.
_REF_TOKEN_RE = re.compile(r"""
    (?P<blanks>[ \t\r]+)
  | (?P<newline>\n)
  | (?P<comment>\#[^\n]*)
  | (?P<word>[^\W\d]\w*)
  | (?P<punct>->|\|>|\|\||[!?{}.,:=0])
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)


class _RefLexer:
    def __init__(self, text, filename):
        self.text = text
        self.filename = filename
        self.tokens = []
        self._scan()
        self.at = 0

    def _fail(self, message, line, col):
        raise ParseError(ParseDiagnostic(SourceSpan(self.filename, line, col),
                                         DiagKind.Syntax, message))

    def _scan(self):
        """Tokens as (kind, text, line, column).

        A comment runs to the end of its line and does not advance the
        column, so the end-of-input column after a trailing comment is the
        comment's own.
        """
        text, tokens = self.text, self.tokens
        line, line_start, comment_at = 1, 0, -1
        for m in _REF_TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "blanks":
                continue
            col = m.start() - line_start + 1
            if kind == "word":
                word = m.group()
                if not (word[0].isalpha() or word[0] == "_"):
                    self._fail(f"unexpected character {word[0]!r}", line, col)
                tokens.append((word if word in ("rec", "let", "end") else "ident",
                               word, line, col))
            elif kind == "punct":
                tokens.append((m.group(), m.group(), line, col))
            elif kind == "newline":
                line += 1
                line_start = m.end()
            elif kind == "comment":
                comment_at = m.start()
            else:
                self._fail(f"unexpected character {m.group()!r}", line, col)
        stop = comment_at if comment_at >= line_start else len(text)
        tokens.append(("eof", "", line, stop - line_start + 1))

    def peek(self):
        return self.tokens[self.at]

    def next(self):
        tok = self.tokens[self.at]
        if tok[0] != "eof":
            self.at += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok[0] != kind:
            got = tok[1] or "end of input"
            raise ParseError(ParseDiagnostic(
                SourceSpan(self.filename, tok[2], tok[3]), DiagKind.Syntax,
                f"expected {what or kind!r}, got {got!r}"))
        return self.next()


class _RefParser:
    def __init__(self, text, filename, glob):
        self.lx = _RefLexer(text, filename)
        self.glob = glob
        self.binder_spans = {}
        self.var_spans = {}

    def _diag(self, span, kind, message, subject=None):
        raise ParseError(ParseDiagnostic(span, kind, message, subject))

    def _tok_span(self, tok):
        return SourceSpan(self.lx.filename, tok[2], tok[3])

    def parse_defs(self):
        defs = {}
        while self.lx.peek()[0] == "let":
            self.lx.next()
            name_tok = self.lx.expect("ident", "definition name")
            if name_tok[1] in defs:
                self._diag(self._tok_span(name_tok), DiagKind.Syntax,
                           f"duplicate definition of {name_tok[1]!r}")
            self.binder_spans.setdefault(name_tok[1], self._tok_span(name_tok))
            self.lx.expect("=")
            defs[name_tok[1]] = self.term()
        return defs

    def term(self):
        tok = self.lx.peek()
        if not self.glob and tok[0] == "0":
            self.lx.next()
            return ("end",)
        if self.glob and tok[0] == "end":
            self.lx.next()
            return ("end",)
        if tok[0] == "rec":
            self.lx.next()
            name_tok = self.lx.expect("ident", "recursion variable")
            self.binder_spans.setdefault(name_tok[1], self._tok_span(name_tok))
            self.lx.expect(".")
            return ("rec", name_tok[1], self.term())
        if tok[0] == "ident":
            self.lx.next()
            nxt = self.lx.peek()
            if self.glob and nxt[0] == "->":
                self.lx.next()
                recv_tok = self.lx.expect("ident", "receiver")
                if recv_tok[1] == tok[1]:
                    self._diag(self._tok_span(recv_tok), DiagKind.SelfCommunication,
                               f"participant {tok[1]!r} sends to itself", subject=tok[1])
                self.lx.expect(":")
                return ("comm", tok[1], recv_tok[1], self.branches())
            if not self.glob and nxt[0] in ("!", "?"):
                self.lx.next()
                branches = self.branches()
                return ("out" if nxt[0] == "!" else "in", tok[1], branches)
            self.var_spans.setdefault(tok[1], self._tok_span(tok))
            return ("var", tok[1])
        got = tok[1] or "end of input"
        self._diag(self._tok_span(tok), DiagKind.Syntax, f"expected a term, got {got!r}")

    def branches(self):
        if self.lx.peek()[0] != "{":
            label, term, _ = self.branch()
            return [(label, term)]
        self.lx.next()
        out = [self.branch()]
        labels = {out[0][0]}
        while self.lx.peek()[0] == ",":
            self.lx.next()
            br = self.branch()
            if br[0] in labels:
                self._diag(br[2], DiagKind.DuplicateLabel,
                           f"branch label {br[0]!r} repeated", subject=br[0])
            labels.add(br[0])
            out.append(br)
        self.lx.expect("}")
        return [(l, t) for l, t, _ in out]

    def branch(self):
        label_tok = self.lx.expect("ident", "branch label")
        span = self._tok_span(label_tok)
        if self.lx.peek()[0] == ".":
            self.lx.next()
            return (label_tok[1], self.term(), span)
        return (label_tok[1], ("end",), span)


def _ref_intern(parser, store, term, defs, glob):
    try:
        return ref_intern_term(store, term, defs, glob)
    except UnboundVariable as e:
        span = parser.var_spans.get(e.name) or SourceSpan(parser.lx.filename, 1, 1)
        raise ParseError(ParseDiagnostic(span, DiagKind.UnboundVar, str(e), e.name)) from e
    except UnguardedRecursion as e:
        span = parser.binder_spans.get(e.name) or SourceSpan(parser.lx.filename, 1, 1)
        raise ParseError(ParseDiagnostic(span, DiagKind.UnguardedRec, str(e), e.name)) from e
    except TermError as e:
        raise ParseError(ParseDiagnostic(SourceSpan(parser.lx.filename, 1, 1),
                                         DiagKind.Syntax, str(e))) from e


def ref_parse_process(text, store=None, filename="<proc>"):
    store = store or NodeStore()
    p = _RefParser(text, filename, glob=False)
    defs = p.parse_defs()
    term = p.term()
    p.lx.expect("eof", "end of input")
    return _ref_intern(p, store, term, defs, glob=False)


def ref_parse_global(text, store=None, filename="<gt>"):
    store = store or NodeStore()
    p = _RefParser(text, filename, glob=True)
    defs = p.parse_defs()
    term = p.term()
    p.lx.expect("eof", "end of input")
    return _ref_intern(p, store, term, defs, glob=True)


def ref_parse_session(text, store=None, filename="<sess>"):
    store = store or NodeStore()
    p = _RefParser(text, filename, glob=False)
    defs = p.parse_defs()
    bindings = []
    spans = {}
    while True:
        part_tok = p.lx.expect("ident", "participant")
        p.lx.expect("|>")
        term = p.term()
        if part_tok[1] in spans:
            raise ParseError(ParseDiagnostic(
                p._tok_span(part_tok), DiagKind.DuplicateParticipant,
                f"participant {part_tok[1]!r} bound twice", part_tok[1]))
        spans[part_tok[1]] = p._tok_span(part_tok)
        bindings.append((part_tok[1], term))
        if p.lx.peek()[0] != "||":
            break
        p.lx.next()
    p.lx.expect("eof", "end of input")
    resolved = [(part, _ref_intern(p, store, term, defs, glob=False))
                for part, term in bindings]
    for part, proc in resolved:
        if part in participants(proc):
            raise ParseError(ParseDiagnostic(
                spans[part], DiagKind.SelfCommunication,
                f"participant {part!r} communicates with itself", part))
    return Session(resolved)


# Terms -> nodes.  Surface terms are nested tuples:
#   ("end",) | ("var", name) | ("rec", name, body)
#   | ("in", peer, [(label, term), ...]) | ("out", peer, [(label, term), ...])
#   | ("comm", sender, receiver, [(label, term), ...])
# `defs` supplies mutually recursive named equations (the `let` form).

class _RefSlot:
    __slots__ = ("draft", "state", "alias")
    # state: 0 = pending, 1 = resolving, 2 = done

    def __init__(self, draft):
        self.draft = draft
        self.state = 0
        self.alias = None


def ref_intern_term(store, term, defs=None, glob=False):
    """Tie a surface term (with optional named equations) into a canonical
    graph: a global type if `glob`, else a process."""
    b = store.builder()
    slots = {}
    if defs:
        for name in defs:
            check_ident(name, "definition name")
            slots[name] = _RefSlot(b.reserve())

    end_node = store.end_global if glob else store.end_process

    def resolve(t, env, guarded, chain=()):
        # chain: the slots of the binders opened since the last prefix
        tag = t[0]
        if tag == "end":
            return end_node
        if tag == "var":
            name = t[1]
            slot = env.get(name)
            if slot is None:
                raise UnboundVariable(name)
            if slot.state == 2:
                return slot.alias if slot.alias is not None else slot.draft
            if not guarded:
                # a cycle of bare aliases never produces a prefix
                if slot in chain:
                    raise UnguardedRecursion(name)
                return ("alias", name, slot)
            return slot.draft
        if tag == "rec":
            _, name, body = t
            slot = _RefSlot(b.reserve())
            inner = dict(env)
            inner[name] = slot
            define(name, slot, body, inner, () if guarded else chain)
            return slot.alias if slot.alias is not None else slot.draft
        if tag == "in" and not glob:
            return b.add_in(t[1], [(l, subref(c, env)) for l, c in t[2]])
        if tag == "out" and not glob:
            return b.add_out(t[1], [(l, subref(c, env)) for l, c in t[2]])
        if tag == "comm" and glob:
            return b.add_comm(t[1], t[2], [(l, subref(c, env)) for l, c in t[3]])
        raise TermError(f"unexpected term {t!r}")

    def subref(t, env):
        r = resolve(t, env, guarded=True)
        if isinstance(r, tuple) and r and r[0] == "alias":
            # guarded position: the slot's draft stands in for the value
            return r[2].draft
        return r

    def define(name, slot, body, env, chain=()):
        slot.state = 1
        r = resolve(body, env, guarded=False, chain=chain + (slot,))
        if isinstance(r, tuple) and r and r[0] == "alias":
            slot.alias = r
            slot.state = 2
            return
        _assign(slot, r)

    def _assign(slot, r):
        b.fill_copy(slot.draft, r)
        slot.alias = None
        slot.state = 2

    if defs:
        for name, body in defs.items():
            slot = slots[name]
            if slot.state == 0:
                define(name, slot, body, slots)
        # chase alias chains left by definitions like `let A = B`
        for name, slot in slots.items():
            if slot.alias is not None:
                seen = {name}
                cur = slot.alias
                while True:
                    _, target_name, target = cur
                    if target.alias is None:
                        _assign(slot, target.draft)
                        break
                    if target_name in seen:
                        raise UnguardedRecursion(target_name)
                    seen.add(target_name)
                    cur = target.alias

    root = resolve(term, slots, guarded=False)
    if isinstance(root, tuple) and root and root[0] == "alias":
        slot = root[2]
        if slot.alias is not None:
            raise UnguardedRecursion(root[1])
        root = slot.draft
    return b.intern([root])[0]


# ---------------------------------------------------------------------------
# Depth.

def ref_depth_raw(G, p):
    if isinstance(G, GEnd) or p not in participants(G):
        return DepthValue.finite(0)
    if p in (G.sender, G.receiver):
        return DepthValue.finite(0)

    def meets(c):
        return isinstance(c, GComm) and p in (c.sender, c.receiver)

    # Communications reachable from G before p gets involved, each with the
    # ones among them that lead to it.
    preds = {G: []}
    stack = [G]
    canreach = set()
    while stack:
        n = stack.pop()
        for _, c in n.branches:
            if meets(c):
                canreach.add(n)
            elif isinstance(c, GComm):
                if c not in preds:
                    preds[c] = []
                    stack.append(c)
                preds[c].append(n)
    # Restrict to nodes from which some path still meets p.
    stack = list(canreach)
    while stack:
        for n in preds[stack.pop()]:
            if n not in canreach:
                canreach.add(n)
                stack.append(n)
    # A cycle that can still reach p makes the prefix unbounded.  Otherwise
    # the longest prefix from a node is known once the search finishes it.
    best = {}
    active = set()
    for start in canreach:
        if start in best:
            continue
        active.add(start)
        stack = [(start, iter(start.branches))]
        while stack:
            n, it = stack[-1]
            for _, c in it:
                if c in active:
                    return DepthValue.infinite()
                if c in canreach and c not in best:
                    active.add(c)
                    stack.append((c, iter(c.branches)))
                    break
            else:
                stack.pop()
                active.remove(n)
                best[n] = max(1 if meets(c) else 1 + best[c]
                              for _, c in n.branches if meets(c) or c in canreach)
    return DepthValue.finite(best.get(G, 0))


# ---------------------------------------------------------------------------
# Participants.

def ref_participants(node):
    """Every participant named anywhere in the regular tree of a node.

    Computed for all uncached nodes below `node` at once, one strongly
    connected component at a time, children first, and cached on the store.
    """
    pt = node.store.memo("ref_participants")
    hit = pt.get(node.nid)
    if hit is not None:
        return hit

    def succ(n):
        return [c for c in _split(n)[1] if c.nid not in pt]

    for scc in _sccs([node], succ):
        inside = {n.nid for n in scc}
        acc = set()
        for n in scc:
            shape, kids = _split(n)
            acc.update(shape[1:-1])  # the names between kind and labels
            for c in kids:
                if c.nid not in inside:
                    acc |= pt[c.nid]
        acc = frozenset(acc)
        for nid in inside:
            pt[nid] = acc
    return pt[node.nid]


# ---------------------------------------------------------------------------
# Interning kernel.

def _ref_ranks(sigs):
    """Each signature's rank among the sorted distinct signatures, and how
    many distinct signatures there are."""
    rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
    return [rank[s] for s in sigs], len(rank)


def _ref_refine(shapes, children):
    """Block of each unit in the coarsest bisimulation partition, each
    round's blocks numbered by the rank of their signature."""
    block, count = _ref_ranks(shapes)
    if count == len(shapes):
        return block
    while True:
        new, n = _ref_ranks([(block[u], tuple([block[c] for c in kids]))
                             for u, kids in enumerate(children)])
        if n == count:
            return block
        block, count = new, n


def _ref_make(store, shape, kids, names):
    node = object.__new__(_KINDS[shape[0]])
    node.store = store
    node.nid = store._count
    node._participants = names
    node.shape = shape
    node.branches = tuple(zip(shape[-1], kids))
    store._count += 1
    return node


def ref_intern_cycle(self, scc, done):
    """Resolve one cyclic component, (key, shape, child keys) triples, into
    `done`: refine it together with the existing nodes it reaches, shapes
    ranked as they are, and look the classes that merge into none of those
    nodes up by one key of (shape, child blocks or ~nid) tuples."""
    k = len(scc)
    unit = {t: u for u, (t, _, _) in enumerate(scc)}
    shapes = [shape for _, shape, _ in scc]
    existing = [None] * k      # unit -> node, for the existing units
    node_unit = {}

    def unit_of(n):
        u = node_unit.get(n.nid)
        if u is None:
            u = node_unit[n.nid] = len(existing)
            existing.append(n)
        return u

    children = [[unit[t] if t in unit else unit_of(done[t]) for t in kids]
                for _, _, kids in scc]
    u = k
    while u < len(existing):
        shape, kids = _split(existing[u])
        shapes.append(shape)
        children.append([unit_of(c) for c in kids])
        u += 1
    block = _ref_refine(shapes, children)

    image = {block[u]: existing[u] for u in range(k, len(existing))}
    rep = {}                   # block of no existing node -> its first unit
    for u in range(k):
        if block[u] not in image:
            rep.setdefault(block[u], u)
    if rep:
        kids_of = {b: [block[c] for c in children[u]] for b, u in rep.items()}
        order = sorted(rep)
        key = tuple([(shapes[rep[b]], *[c if c in rep else ~image[c].nid
                                        for c in kids_of[b]]) for b in order])
        nodes = self._cycles.get(key)
        if nodes is None:
            names = _participants_of(
                [n for b in rep for n in shapes[rep[b]][1:-1]],
                [image[c] for b in rep for c in kids_of[b] if c not in rep])
            for b in rep:       # made first, linked once every class has a node
                image[b] = _ref_make(self, shapes[rep[b]], (), names)
            for b in rep:
                node = image[b]
                kids = [image[c] for c in kids_of[b]]
                node.branches = tuple(zip(node.shape[-1], kids))
                self._cons[(node.shape, tuple([c.nid for c in kids]))] = node
            nodes = self._cycles[key] = tuple([image[b] for b in order])
        image.update(zip(order, nodes))
    for u, (t, _, _) in enumerate(scc):
        done[t] = image[block[u]]


# ---------------------------------------------------------------------------
# Coinductive relations.

def _reachable_set(root):
    seen = {root}
    stack = [root]
    while stack:
        for _, c in stack.pop().branches:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def _greatest_fixpoint(a, b, holds):
    """Whether (a, b) is in the greatest relation R over the nodes reachable
    from a and from b in which every pair satisfies `holds(x, y, R)`: start
    from every pair and delete the pairs that fail until none does."""
    rel = {(x, y) for x in _reachable_set(a) for y in _reachable_set(b)}
    while True:
        failing = {(x, y) for x, y in rel if not holds(x, y, rel)}
        if not failing:
            return (a, b) in rel
        rel -= failing


def _leq_holds(x, y, rel, plus):
    if isinstance(x, PEnd) or isinstance(y, PEnd):
        return isinstance(x, PEnd) and isinstance(y, PEnd)
    if type(x) is not type(y) or x.peer != y.peer:
        return False
    xs, ys = dict(x.branches), dict(y.branches)
    if isinstance(x, PIn):          # the smaller process may accept more
        ok, need = set(ys) <= set(xs), ys
    elif plus:                      # and under <=+ offer fewer
        ok, need = set(xs) <= set(ys), xs
    else:
        ok, need = set(xs) == set(ys), xs
    return ok and all((xs[l], ys[l]) in rel for l in need)


def ref_leq(P, Q):
    return _greatest_fixpoint(P, Q, lambda x, y, rel: _leq_holds(x, y, rel, False))


def ref_leq_plus(P, Q):
    return _greatest_fixpoint(P, Q, lambda x, y, rel: _leq_holds(x, y, rel, True))


def _compatible_holds(x, y, rel):
    if isinstance(x, PEnd) or isinstance(y, PEnd):
        return isinstance(x, PEnd) and isinstance(y, PEnd)
    if isinstance(x, POut) == isinstance(y, POut):
        return False
    xs, ys = dict(x.branches), dict(y.branches)
    inputs, outputs = (xs, ys) if isinstance(x, PIn) else (ys, xs)
    return set(inputs) <= set(outputs) and all((xs[l], ys[l]) in rel for l in inputs)


def ref_compatible(P, Q):
    return _greatest_fixpoint(P, Q, _compatible_holds)
