"""Surface syntax for processes, global types, and sessions.

Grammar (ASCII, one definition per file, optional shared equations):

    file     ::= ("let" ident "=" term)* term
    process  ::= "0" | "rec" ident "." process | ident "!" branches
               | ident "?" branches | ident
    global   ::= "end" | "rec" ident "." global
               | ident "->" ident ":" gbranches | ident
    branches ::= branch | "{" branch ("," branch)* "}"
    branch   ::= ident ["." term]          -- omitted continuation means 0/end
    session  ::= ident "|>" process ("||" ident "|>" process)*
    ident    ::= [A-Za-z_][A-Za-z0-9_]*    -- other than rec, let, end

Text is read in one pass.  One `findall` splits it into token strings, and
a reader with an explicit stack (`_Reader`) fills graph drafts as it goes,
so nothing recurses on the size of a term.  The reader resolves names
through its own `let` and `rec` binder slots as it reads them; a variable
is guarded by any prefix between it and its binder.  Labels, definitions,
participants, variables and the two ends of a communication are checked
once, where their tokens are read; a session participant that talks to
itself is found from the processes, which a session interns in one batch.
Tokens carry no positions: only a failing parse scans the text again, with
`_scan`, to find the line and column of the token at fault, or an
unexpected character before it.  The diagnostic is the first in this
order: an unexpected character, a syntax error, an unbound variable or
unguarded recursion in resolution order, a session participant that talks
to itself.

Pretty-printers introduce `rec X0 . ...` binders at back-edge targets and list
branches in label order, so output always reparses to a bisimilar value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .core import (
    GEnd,
    PEnd,
    PIn,
    NodeStore,
    Session,
    UnboundVariable,
    UnguardedRecursion,
    participants,
)


class DiagKind(Enum):
    Syntax = "Syntax"
    UnboundVar = "UnboundVar"
    UnguardedRec = "UnguardedRec"
    DuplicateLabel = "DuplicateLabel"
    SelfCommunication = "SelfCommunication"
    DuplicateParticipant = "DuplicateParticipant"


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    kind: DiagKind
    message: str
    subject: str | None = None  # offending label or participant, when applicable

    def __str__(self):
        return f"{self.span}: {self.kind.value}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


# _SKIP takes blanks and comments.  Each match of _TOKENS is one token and
# the blanks and comments after it (those at the start of the text are
# skipped first).  A character that starts no token leaves group 1 unset,
# so `findall` reads it as "", as it reads the end of input (`\Z`), and a
# parse stops there; `_scan` walks the same matches and reports it.
_SKIP = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
_SKIP_RE = re.compile(_SKIP)
_TOKENS = re.compile(r"(?:([A-Za-z_][A-Za-z0-9_]*|->|\|>|\|\||[!?{}.,:=0]|\Z)|.)" + _SKIP,
                     re.DOTALL)


def _tokens(text):
    """The tokens of `text` as strings, ending in the end of input ("")."""
    return _TOKENS.findall(text, _SKIP_RE.match(text).end())


# Every token that is not an identifier.
_RESERVED = frozenset(("->", "|>", "||", "!", "?", "{", "}", ".", ",", ":",
                       "=", "0", "rec", "let", "end", ""))

# The token after an identifier that makes it a prefix -> shape kind.
_PREFIXES = {False: {"!": "pout", "?": "pin"}, True: {"->": "gcomm"}}


def _scan(text, filename):
    """(token, line, column) of every token, then ("", line, column) of the
    end of input; raises the ParseError of the first character that starts
    no token.

    The matches of `_TOKENS` are walked again, with the line and column of
    each counted from the newlines between them.  A comment runs to the end
    of its line and does not advance the column, so the end-of-input column
    after a trailing comment is the comment's own.
    """
    out = []
    line, line_start, at = 1, 0, 0
    for m in _TOKENS.finditer(text, _SKIP_RE.match(text).end()):
        start = m.start()
        newlines = text.count("\n", at, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", at, start) + 1
        at = start
        tok = m.group(1)
        if tok is None:
            raise ParseError(ParseDiagnostic(
                SourceSpan(filename, line, start - line_start + 1),
                DiagKind.Syntax, f"unexpected character {text[start]!r}"))
        if not tok:   # the end of input, after the comment on its line if any
            comment = text.find("#", line_start)
            if comment >= 0:
                start = comment
        out.append((tok, line, start - line_start + 1))
    return out


# ---------------------------------------------------------------------------
# Reading.

class _Slot:
    """A `let` name and its draft."""

    __slots__ = ("name", "draft", "state", "alias", "use")
    # state: 0 = not yet defined, 1 = body being read, 2 = done

    def __init__(self, name, draft, use):
        self.name = name
        self.draft = draft
        self.state = 0
        self.alias = None   # (name, slot) while the body is a bare pending name
        self.use = use      # resolution order of a use before the `let`


class _Reader:
    """One parse: the tokens, the drafts they fill, the `let` and `rec`
    binders in scope, and the first unbound variable or unguarded recursion.

    Every body is read with a *target*: the draft its binder reserved.  A
    prefix at the head of the body fills the target itself, and a `rec` at
    the head binds its name to the same draft; a branch continuation has no
    target (None), so its prefix reserves a draft of its own.  Values are
    the refs `GraphBuilder.intern` takes: a draft index, or the end node.

    A `let` name gets its slot at its `let` or at its first use, whichever
    comes first.  A body that is a bare name not yet defined, `let A = B`,
    leaves an alias; `defs` chases each alias chain once, in definition
    order.  Unbound variables and unguarded recursion are found in
    resolution order (the equations in order, then the alias chains, then
    the terms), and `error` keeps the first as (order, exception).
    `binders` and `uses` keep the token index of each name's first binder
    and first use as a variable: the spans of those diagnostics.
    """

    def __init__(self, text, store, filename, glob):
        self.text = text
        self.filename = filename
        self.toks = _tokens(text)
        self.glob = glob
        store = store or NodeStore()
        self.builder = store.builder()
        self.drafts = self.builder._drafts
        self.end = store.end_global if glob else store.end_process
        self.recs = {}          # rec name in scope -> its draft
        self.lets = {}          # let name -> _Slot
        self.current = None     # slot of the `let` whose body is being read
        self.closed = False     # True once no `let` can follow
        self.order = 0          # resolution order of the last variable
        self.error = None
        self.binders = {}
        self.uses = {}

    def fail(self, i, kind, message, subject=None):
        """The ParseError for token i, unless a character that starts no
        token comes first."""
        _, line, column = _scan(self.text, self.filename)[i]
        return ParseError(ParseDiagnostic(SourceSpan(self.filename, line, column),
                                          kind, message, subject))

    def expected(self, i, what):
        got = self.toks[i] or "end of input"
        return self.fail(i, DiagKind.Syntax, f"expected {what!r}, got {got!r}")

    def note_error(self, exc, order=None):
        """Keep `exc` if it is the first in resolution order; returns the
        end node, which stands for the name meanwhile."""
        order = self.order if order is None else order
        if self.error is None or order < self.error[0]:
            self.error = (order, exc)
        return self.end

    def defs(self):
        """Read the `let` equations; returns the index of the next token.
        Then a name used but never defined is unbound, and each alias takes
        the description at the end of its chain."""
        toks, lets, drafts = self.toks, self.lets, self.drafts
        aliased = []   # let slots left with an alias, in definition order
        i = 0
        while toks[i] == "let":
            name = toks[i + 1]
            if name in _RESERVED:
                raise self.expected(i + 1, "definition name")
            slot = lets.get(name)
            if slot is None:
                slot = lets[name] = _Slot(name, self.builder.reserve(), None)
            elif slot.state:
                raise self.fail(i + 1, DiagKind.Syntax, f"duplicate definition of {name!r}")
            slot.state = 1
            self.current = slot
            self.binders.setdefault(name, i + 1)
            if toks[i + 2] != "=":
                raise self.expected(i + 2, "=")
            i = self.term(i + 3, slot.draft)[0]
            slot.state = 2
            self.current = None
            if slot.alias is not None:
                aliased.append(slot)
        self.closed = True
        for slot in lets.values():
            if slot.state == 0:
                self.note_error(UnboundVariable(slot.name), slot.use)
        if self.error is not None:
            return i
        for slot in aliased:
            seen = {slot.name}
            name, target = slot.alias
            while target.alias is not None:
                if name in seen:
                    self.note_error(UnguardedRecursion(name))
                    return i
                seen.add(name)
                name, target = target.alias
            drafts[slot.draft] = drafts[target.draft]
            slot.alias = None
        return i

    def var(self, name, target):
        """Value of a variable read with `target` (None: guarded).

        The binders that share `target` are those opened since the last
        prefix; a variable at the head of a body is unguarded for them
        alone.  Any other binder is separated from it by a prefix, and the
        variable stands for that binder's draft.
        """
        self.order += 1
        d = self.recs.get(name)
        if d is not None:
            if d == target:
                return self.note_error(UnguardedRecursion(name))
            return d
        slot = self.lets.get(name)
        if slot is None:
            if self.closed:
                return self.note_error(UnboundVariable(name))
            slot = self.lets[name] = _Slot(name, self.builder.reserve(), self.order)
        if target is None:
            return slot.draft
        if slot.draft == target:   # the `let` being read, at the head of its body
            return self.note_error(UnguardedRecursion(name))
        if slot.state == 2 and slot.alias is None:   # defined: copy its description
            self.drafts[target] = self.drafts[slot.draft]
            return target
        # not defined yet, or an alias itself: the `let` being read becomes an
        # alias, and a `rec` in a branch stands for the aliased name's draft
        alias = slot.alias or (name, slot)
        cur = self.current
        if cur is not None and cur.draft == target:
            cur.alias = alias
            return target
        return alias[1].draft

    def term(self, i, target):
        """Read the term at token i into `target`, the draft of the binder
        whose body it is (None for a branch continuation); returns the index
        past it and the term's value."""
        toks, drafts, recs, uses, end = self.toks, self.drafts, self.recs, self.uses, self.end
        prefixes = _PREFIXES[self.glob]
        stop = "end" if self.glob else "0"
        frames = []   # (name, shadowed) of an open rec; a list per open prefix
        while True:
            while True:   # down to a leaf, or into a branch continuation
                tok = toks[i]
                if tok not in _RESERVED:
                    kind = prefixes.get(toks[i + 1])
                    if kind is None:
                        uses.setdefault(tok, i)
                        value = self.var(tok, target)
                        i += 1
                        break
                    if kind == "gcomm":
                        receiver = toks[i + 2]
                        if receiver in _RESERVED:
                            raise self.expected(i + 2, "receiver")
                        if receiver == tok:
                            raise self.fail(i + 2, DiagKind.SelfCommunication,
                                            f"participant {tok!r} sends to itself", tok)
                        if toks[i + 3] != ":":
                            raise self.expected(i + 3, ":")
                        head = (kind, tok, receiver)
                        i += 4
                    else:
                        head = (kind, tok)
                        i += 2
                    if target is None:
                        target = len(drafts)
                        drafts.append(None)
                    labels = None   # label -> value, for braced branches
                    if toks[i] == "{":
                        labels = {}
                        i += 1
                    label = toks[i]
                    if label in _RESERVED:
                        raise self.expected(i, "branch label")
                    frames.append([target, head, labels, label, i])
                    if toks[i + 1] != ".":
                        i += 1
                        value = end
                        break
                    i += 2
                    target = None
                elif tok == stop:
                    i += 1
                    if target is None:
                        value = end
                    else:
                        value = self.builder.fill_copy(target, end)
                    break
                elif tok == "rec":
                    name = toks[i + 1]
                    if name in _RESERVED:
                        raise self.expected(i + 1, "recursion variable")
                    self.binders.setdefault(name, i + 1)
                    if toks[i + 2] != ".":
                        raise self.expected(i + 2, ".")
                    i += 3
                    if target is None:
                        target = len(drafts)
                        drafts.append(None)
                    frames.append((name, recs.get(name)))
                    recs[name] = target
                else:
                    got = tok or "end of input"
                    raise self.fail(i, DiagKind.Syntax, f"expected a term, got {got!r}")
            while frames:   # up, handing `value` to the open prefixes
                frame = frames[-1]
                if frame.__class__ is tuple:
                    name, shadowed = frames.pop()
                    if shadowed is None:
                        del recs[name]
                    else:
                        recs[name] = shadowed
                    continue
                d, head, labels, label, at = frame
                if labels is None:
                    drafts[d] = (head + ((label,),), (value,))
                else:
                    if label in labels:
                        raise self.fail(at, DiagKind.DuplicateLabel,
                                        f"branch label {label!r} repeated", label)
                    labels[label] = value
                    if toks[i] == ",":
                        label = toks[i + 1]
                        if label in _RESERVED:
                            raise self.expected(i + 1, "branch label")
                        frame[3:] = label, i + 1
                        if toks[i + 2] == ".":
                            i += 3
                            target = None
                            break
                        i += 2
                        value = end
                        continue
                    if toks[i] != "}":
                        raise self.expected(i, "}")
                    i += 1
                    order = sorted(labels)
                    drafts[d] = (head + (tuple(order),), tuple([labels[l] for l in order]))
                frames.pop()
                value = d
            else:
                return i, value

    def finish(self, i):
        """Check that token i ends the input, then report the first unbound
        variable or unguarded recursion."""
        if i != len(self.toks) - 1:
            raise self.expected(i, "end of input")
        if self.error is not None:
            exc = self.error[1]
            if isinstance(exc, UnboundVariable):
                raise self.fail(self.uses[exc.name], DiagKind.UnboundVar, str(exc), exc.name)
            raise self.fail(self.binders[exc.name], DiagKind.UnguardedRec, str(exc), exc.name)


def _parse(text, store, filename, glob):
    r = _Reader(text, store, filename, glob)
    i, root = r.term(r.defs(), r.builder.reserve())
    r.finish(i)
    return r.builder.intern([root])[0]


def parse_process(text, store=None, filename="<proc>"):
    return _parse(text, store, filename, glob=False)


def parse_global(text, store=None, filename="<gt>"):
    return _parse(text, store, filename, glob=True)


def parse_session(text, store=None, filename="<sess>"):
    r = _Reader(text, store, filename, glob=False)
    toks, builder = r.toks, r.builder
    i = r.defs()
    parts = {}   # participant -> index of its token
    roots = []
    while True:
        part = toks[i]
        if part in _RESERVED:
            raise r.expected(i, "participant")
        if toks[i + 1] != "|>":
            raise r.expected(i + 1, "|>")
        at = i
        i, root = r.term(i + 2, builder.reserve())
        if part in parts:
            raise r.fail(at, DiagKind.DuplicateParticipant,
                         f"participant {part!r} bound twice", part)
        parts[part] = at
        roots.append(root)
        if toks[i] != "||":
            break
        i += 1
    r.finish(i)
    procs = builder.intern(roots)
    for (part, at), proc in zip(parts.items(), procs):
        if part in participants(proc):
            raise r.fail(at, DiagKind.SelfCommunication,
                         f"participant {part!r} communicates with itself", part)
    return Session._trusted(dict(sorted(zip(parts, procs))))


# ---------------------------------------------------------------------------
# Printers.

def _print_node(root, glob):
    """The regular tree below `root` as text, written out with an explicit
    stack.  A node reached again while its own text is still being written
    is a back-edge: the node is named `X<i>` in order of first use, and its
    text, once done, gets the `rec` binder in the slot kept for it."""
    end_text = "end" if glob else "0"
    out = []
    names = {}       # node being written -> its name, once a back-edge needs one
    count = 0
    work = [root]    # nodes, literal text, and (node, slot) to close a node
    while work:
        item = work.pop()
        if item.__class__ is str:
            out.append(item)
        elif item.__class__ is tuple:
            n, slot = item
            name = names.pop(n)
            if name is not None:
                out[slot] = f"rec {name} . "
        elif isinstance(item, (PEnd, GEnd)):
            out.append(end_text)
        elif item in names:
            if names[item] is None:
                names[item] = f"X{count}"
                count += 1
            out.append(names[item])
        else:
            names[item] = None
            out.append("")
            work.append((item, len(out) - 1))
            labels, kids = item.shape[-1], item.kids
            many = len(kids) > 1
            head = (f"{item.sender} -> {item.receiver} : " if glob
                    else f"{item.peer}{'?' if isinstance(item, PIn) else '!'}")
            out.append(head + "{" * many)
            work.append("}" * many)
            for i in reversed(range(len(kids))):
                work += (kids[i], f"{', ' if i else ''}{labels[i]} . ")
    return "".join(out)


def print_process(P):
    return _print_node(P, glob=False)


def print_global(G):
    return _print_node(G, glob=True)


def print_session(M):
    return " || ".join(f"{p} |> {print_process(proc)}" for p, proc in M.items())
