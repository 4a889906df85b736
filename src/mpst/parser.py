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
    TermError,
    UnboundVariable,
    UnguardedRecursion,
    intern_term,
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


# One alternative per kind of lexeme, tried in order.  A word starts with a
# letter or "_" and continues with \w (isalnum() or "_"); the word group
# also takes the other non-decimal \w characters, such as "²", as a start,
# and _scan rejects those as unexpected characters.
_TOKEN_RE = re.compile(r"""
    (?P<blanks>[ \t\r]+)
  | (?P<newline>\n)
  | (?P<comment>\#[^\n]*)
  | (?P<word>[^\W\d]\w*)
  | (?P<punct>->|\|>|\|\||[!?{}.,:=0])
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)


class _Lexer:
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
        for m in _TOKEN_RE.finditer(text):
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


class _Parser:
    def __init__(self, text, filename, glob):
        self.lx = _Lexer(text, filename)
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


def _intern(parser, store, term, defs, glob):
    try:
        return intern_term(store, term, defs, glob)
    except UnboundVariable as e:
        span = parser.var_spans.get(e.name) or SourceSpan(parser.lx.filename, 1, 1)
        raise ParseError(ParseDiagnostic(span, DiagKind.UnboundVar, str(e), e.name)) from e
    except UnguardedRecursion as e:
        span = parser.binder_spans.get(e.name) or SourceSpan(parser.lx.filename, 1, 1)
        raise ParseError(ParseDiagnostic(span, DiagKind.UnguardedRec, str(e), e.name)) from e
    except TermError as e:
        raise ParseError(ParseDiagnostic(SourceSpan(parser.lx.filename, 1, 1),
                                         DiagKind.Syntax, str(e))) from e


def parse_process(text, store=None, filename="<proc>"):
    store = store or NodeStore()
    p = _Parser(text, filename, glob=False)
    defs = p.parse_defs()
    term = p.term()
    p.lx.expect("eof", "end of input")
    return _intern(p, store, term, defs, glob=False)


def parse_global(text, store=None, filename="<gt>"):
    store = store or NodeStore()
    p = _Parser(text, filename, glob=True)
    defs = p.parse_defs()
    term = p.term()
    p.lx.expect("eof", "end of input")
    return _intern(p, store, term, defs, glob=True)


def parse_session(text, store=None, filename="<sess>"):
    store = store or NodeStore()
    p = _Parser(text, filename, glob=False)
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
    resolved = [(part, _intern(p, store, term, defs, glob=False))
                for part, term in bindings]
    for part, proc in resolved:
        if part in participants(proc):
            raise ParseError(ParseDiagnostic(
                spans[part], DiagKind.SelfCommunication,
                f"participant {part!r} communicates with itself", part))
    return Session(resolved)


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
            many = len(item.branches) > 1
            head = (f"{item.sender} -> {item.receiver} : " if glob
                    else f"{item.peer}{'?' if isinstance(item, PIn) else '!'}")
            out.append(head + "{" * many)
            work.append("}" * many)
            for i in reversed(range(len(item.branches))):
                label, child = item.branches[i]
                work += (child, f"{', ' if i else ''}{label} . ")
    return "".join(out)


def print_process(P):
    return _print_node(P, glob=False)


def print_global(G):
    return _print_node(G, glob=True)


def print_session(M):
    return " || ".join(f"{p} |> {print_process(proc)}" for p, proc in M.items())
