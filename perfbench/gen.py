"""Seeded text generators for the scaling families.

The seed picks participant, label and definition names only; sizes are fixed
by the callers.  Every name has the same length, so the text of a family
member has the same size whatever the seed, and each generator also returns
the known answer, derived from the family's shape rather than from the
workbench.
"""

import string

NAME_LENGTH = 4


def fresh_names(rng, count):
    """`count` distinct identifiers of NAME_LENGTH lowercase letters."""
    out = []
    while len(out) < count:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(NAME_LENGTH))
        if name not in out:
            out.append(name)
    return out


def relay_chain(rng, n, form):
    """A three-party relay p->q, q->r, r->p, ... of n communications.

    Returns (global text, session text, roles).  The session is written
    straight from the chain: each role performs, in order, the steps it takes
    part in.  `form` is "nested" (one term) or "let" (one equation per step).
    """
    roles = fresh_names(rng, 3)
    pool = fresh_names(rng, 4)
    steps = [(roles[i % 3], roles[(i + 1) % 3], rng.choice(pool)) for i in range(n)]
    actions = {x: [] for x in roles}
    for s, r, l in steps:
        actions[s].append(f"{r}!{l}")
        actions[r].append(f"{s}?{l}")

    comms = [f"{s} -> {r} : {l}" for s, r, l in steps]
    if form == "nested":
        gt = " . ".join(comms) + " . end\n"
        sess = " || ".join(f"{x} |> " + " . ".join(actions[x]) + " . 0"
                           for x in roles) + "\n"
        return gt, sess, roles
    gt = _chain_equations("G", comms, "end") + "G0\n"
    eqs = "".join(_chain_equations(f"X{j}_", actions[x], "0")
                  for j, x in enumerate(roles))
    sess = eqs + " || ".join(f"{x} |> X{j}_0" for j, x in enumerate(roles)) + "\n"
    return gt, sess, roles


def _chain_equations(prefix, prefixes, last):
    lines = [f"let {prefix}{i} = {a} . {prefix}{i + 1}\n"
             for i, a in enumerate(prefixes[:-1])]
    lines.append(f"let {prefix}{len(prefixes) - 1} = {prefixes[-1]} . {last}\n")
    return "".join(lines)


def ping_pong_pairs(rng, k):
    """k independent pairs looping ping then pong: 2^k reachable states."""
    names = fresh_names(rng, 2 * k)
    ping, pong = fresh_names(rng, 2)
    parts = []
    for i in range(k):
        a, b = names[2 * i], names[2 * i + 1]
        parts.append(f"{a} |> rec X . {b}!{ping} . {b}?{pong} . X")
        parts.append(f"{b} |> rec Y . {a}?{ping} . {a}!{pong} . Y")
    rng.shuffle(parts)
    return " || ".join(parts) + "\n", 2 ** k


def token_ring(rng, k):
    """k parties pass a token round a ring, each hop choosing one of two labels.

    Odd and even laps use different label pairs, so every party has four
    nodes and the ring has 2k reachable states (lap parity times holder).
    """
    names = fresh_names(rng, k)
    a, b, c, d = fresh_names(rng, 4)
    eqs = []
    for i, x in enumerate(names):
        prev, nxt = names[i - 1], names[(i + 1) % k]
        recv1, send1 = f"{prev}?{{{a} . S{i}, {b} . S{i}}}", f"{nxt}!{{{a} . V{i}, {b} . V{i}}}"
        recv2, send2 = f"{prev}?{{{c} . T{i}, {d} . T{i}}}", f"{nxt}!{{{c} . U{i}, {d} . U{i}}}"
        if i == 0:  # the starter sends first on each lap
            recv1, send1 = f"{prev}?{{{a} . T{i}, {b} . T{i}}}", f"{nxt}!{{{a} . U{i}, {b} . U{i}}}"
            recv2, send2 = f"{prev}?{{{c} . S{i}, {d} . S{i}}}", f"{nxt}!{{{c} . V{i}, {d} . V{i}}}"
        eqs += [f"let U{i} = {recv1}\n", f"let S{i} = {send1}\n",
                f"let V{i} = {recv2}\n", f"let T{i} = {send2}\n"]
    rng.shuffle(eqs)
    binds = " || ".join(f"{x} |> {'S' if i == 0 else 'U'}{i}" for i, x in enumerate(names))
    return "".join(eqs) + binds + "\n", 2 * k
