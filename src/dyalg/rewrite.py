"""Normal ordering (straightening) of diagram composites.

A term is a finite acyclic composite of the generators

* coaction  (module line -> bialgebra leg (x) module line)
* action    (bialgebra leg (x) module line -> module line)
* bracket   (two legs -> one leg)
* cobracket (one leg -> two legs)
* decoration idempotents sitting on legs

with endomorphism type: every leg is produced and consumed inside the term.
Straightening rewrites such a term into the canonical basis: per module
line all coactions precede all actions, no bracket or cobracket nodes
remain, and every leg runs from one coaction to one action carrying a
single decoration.

Slice terms (:mod:`dyalg.terms`) are the one way into straightening:
:func:`term_graph` builds the working graph of a slice term in one pass,
type-checking each slice as it goes, and :func:`slices_of_key` gives the
slice form of a basis key.  A product of two basis keys
(``algebra.compose_basis``) is the concatenation of their slice forms, the
same form the matrix evaluator (``bialgebra.evaluate``) runs.

Oriented rules
--------------

``ACT_MU``      an action fed by a bracket expands into the two orderings
                of the bracket's arguments acting in sequence (signs +, -).
``DELTA_COACT`` a cobracket fed by a coaction leg splits the coaction in
                two (signs +, - with the leg swap); stage 3 reads it off
                without rewriting.
``COCYCLE``     a cobracket fed by a bracket is reordered into the four
                terms with the cobracket applied to one argument and the
                bracket recombining one of its halves.
``EXCHANGE``    an action immediately followed by a coaction on the same
                line becomes: swapped pair (+), a bracket term (+) joining
                the action's leg with a fresh coaction's leg, and a
                cobracket term (-) splitting the action's leg.
``PUSH_MU``     a decoration on a bracket's output enumerates two-part
                decompositions onto its inputs.
``PUSH_DELTA``  a decoration on a cobracket's input enumerates two-part
                decompositions onto its outputs; read off like DELTA_COACT.

A term's lines list its action and coaction ports, the tuples that key
its legs; its brackets are the set ``_Term.mus``, which only ``fresh`` and
``drop_node`` change.  Rules change legs only through ``_Term.connect``,
``disconnect`` and ``unplug``, and build their last output on the input.

Every rule term carries the coefficient +1 or -1 (the pushes only +1), so
a straightened term's coefficients are sums of signs: the engine
multiplies and sums Python ints, and :func:`straighten_graph` returns
``dict[key, int]``.  Rational coefficients enter only with the
elements of :mod:`dyalg.algebra`.

Termination
-----------

The single suggested lexicographic measure (bracket/cobracket count,
inversions, size) fails on EXCHANGE, which manufactures a bracket or a
cobracket; the engine therefore runs a staged strategy whose stages each
carry a strict measure.  Node count (actions + coactions + brackets +
cobrackets) is invariant under every rule, which bounds everything else.

One work list runs stage 1, and bracket-free terms are netted:
:func:`straighten_graph` pops a term and resolves one bracket if it has
any (stage 1).  The line walk of :func:`_readout` decides a bracket-free
term's stage: a sorted term adds its coefficient to its readout form
(stage 3); else one walk of :func:`_exchange_form` gives its stage-2
measure P and its node-id-free form, which keys it in the bucket of P, and
equal forms keep the first term and sum the coefficients.  When the work
list is empty, the highest bucket is drained: one EXCHANGE per distinct
term with a nonzero sum, its branches pushed back on the work list.  A
term with a bracket is always resolved first, so each lineage of terms
passes through stages 1, 2 and 3 in order, and each distinct bracket-free
term is rewritten or read out once per call.

Stage 1  While the term has a bracket node, resolve one whose output feeds
         an action or cobracket (:func:`_resolve_bracket`; such exists:
         output chains are finite and end there).  Measure: (bracket
         count, number of bracket-above-cobracket pairs in leg
         reachability, decoration-push potential).  ACT_MU lowers the
         first component; COCYCLE keeps it and lowers the second (the
         resolved pair stops counting, no new pair forms); pushes lower
         the third.  Afterwards every cobracket hangs in a tree rooted at
         a coaction leg, and such trees stay latent until stage 3.

Stage 2  While some action immediately precedes a coaction on a line,
         apply EXCHANGE at a safe pattern: one whose coaction's leg tree
         feeds only inversion-free actions (no coaction after them on
         their line).  :meth:`_Term.safe_patterns` lists them in one scan,
         and any safe pattern will do.  One always exists: the
         pattern whose action is latest in a topological order of the
         node graph (line order and legs) is safe, since any action fed by
         its coaction comes later in that order, and a coaction after it
         on its line would give a pattern with a later action still.
         Measure: the number of pairs (action A, coaction C, A before C on
         a common line) drops by at least one in all three branches: the
         swap removes the pattern pair; the bracket branch deletes the
         action and resolves the spawned bracket against inversion-free
         actions only, whose splitting creates no new pair; the cobracket
         branch deletes the pattern and extends a latent tree.  The
         spawned bracket descends a finite cobracket tree (COCYCLE) and
         vanishes (ACT_MU) before the lineage's next pattern is touched.
         So every term a bucket's EXCHANGEs spawn lands in a lower bucket
         or in stage 3, and all copies of a form have arrived before the
         highest bucket is drained.  Netting is linear, so an order that
         broke this would only miss merges, never change the output.

Stage 3  No inversions remain: every line is sorted, and every cobracket
         hangs in a finite latent tree under a coaction leg.  Nothing more
         is rewritten.  :func:`_readout` nets each sorted term by its
         readout form: the compositions and, per coaction, the options of
         :func:`_leaves`, with actions named by action position.  A split
         coaction's two legs take its place on the line, so
         :func:`_leaves`, a structural recursion over the finite tree,
         gives the leaf orders and signs that DELTA_COACT after PUSH_DELTA
         would.  When the call ends, :func:`_expand` reads the keys off
         each form with a nonzero sum once: it expands undecorated legs
         over the monoid (the identity is the sum of the decoration
         idempotents), drops terms outside the allowed set in quotient
         mode, and sums the canonical basis keys.

Randomized schedules vary the stage-1 resolution order and the stage-2
pattern among the safe ones; all terminate by the same measures and the
canonical output is schedule independent (a tested contract).
"""

from __future__ import annotations

import itertools

from .monoids import DecorationMonoid, RootConeMod
from .permutations import block_starts

# ports: producer ("c", nid) | ("m", nid) | ("d", nid, 0 | 1)
#        consumer ("a", nid) | ("m", nid, 0 | 1) | ("d", nid)


class _Term:
    """Mutable working graph.  A line lists its action and coaction ports;
    the set ``mus`` of bracket ids changes only in :meth:`fresh` and
    :meth:`drop_node`, and legs only in :meth:`connect`, :meth:`disconnect`
    and :meth:`unplug`.  A rule consumes its input: it edits copies for all
    its outputs but the last, which it builds on the input itself, so a
    term handed to a rule must not be used afterwards.  The stage of a
    bracket-free term is read off the walks of :func:`_readout` and
    :func:`_exchange_form`; :meth:`safe_patterns` is the one scan."""

    __slots__ = ("lines", "mus", "wire_to", "wire_from", "dec", "nxt")

    def __init__(self, n_slots: int):
        self.lines: list[list[tuple]] = [[] for _ in range(n_slots)]
        self.mus: set[int] = set()
        self.wire_to: dict[tuple, tuple] = {}
        self.wire_from: dict[tuple, tuple] = {}
        self.dec: dict[tuple, object] = {}
        self.nxt = 0

    def copy(self) -> "_Term":
        t = _Term.__new__(_Term)
        t.lines = [line[:] for line in self.lines]
        t.mus = set(self.mus)
        t.wire_to = dict(self.wire_to)
        t.wire_from = dict(self.wire_from)
        t.dec = dict(self.dec)
        t.nxt = self.nxt
        return t

    def fresh(self, kind: str) -> int:
        nid = self.nxt
        self.nxt += 1
        if kind == "m":
            self.mus.add(nid)
        return nid

    def connect(self, prod: tuple, cons: tuple, decor=None) -> None:
        self.wire_to[prod] = cons
        self.wire_from[cons] = prod
        if decor is not None:
            self.dec[prod] = decor

    def disconnect(self, prod: tuple) -> tuple:
        """Cut the leg leaving ``prod``; returns its (consumer,
        decoration)."""
        cons = self.wire_to.pop(prod)
        del self.wire_from[cons]
        return cons, self.dec.pop(prod, None)

    def unplug(self, cons: tuple) -> tuple:
        """Cut the leg entering ``cons``; returns its (producer,
        decoration)."""
        prod = self.wire_from.pop(cons)
        del self.wire_to[prod]
        return prod, self.dec.pop(prod, None)

    def drop_node(self, mid: int) -> None:
        self.mus.remove(mid)

    # -- inspection helpers -------------------------------------------------

    def safe_patterns(self) -> list[tuple[int, int]]:
        """The safe EXCHANGE patterns of a bracket-free term, as (action,
        coaction) id pairs in line order: an action right before a coaction
        whose leg tree feeds no action with a coaction after it on its
        line.  One pass per line marks those actions and lists the
        adjacent pairs."""
        marked, pairs = set(), []
        for line in self.lines:
            pending = []  # the actions since the last coaction
            for x in line:
                if x[0] == "a":
                    pending.append(x)
                elif pending:
                    pairs.append((pending[-1], x))
                    marked.update(pending)
                    pending = []
        return [(a[1], c[1]) for a, c in pairs
                if marked.isdisjoint(self.leaf_actions(c))]

    def locate(self, port: tuple) -> tuple[int, int]:
        """(line, position) of a port: one scan that stops at it."""
        for li, line in enumerate(self.lines):
            if port in line:
                return li, line.index(port)
        raise AssertionError("node not on any line")

    def leaf_actions(self, prod: tuple) -> list[tuple]:
        """Action ports ultimately consuming a leg, via cobracket trees."""
        cons = self.wire_to[prod]
        if cons[0] == "a":
            return [cons]
        if cons[0] == "d":
            did = cons[1]
            return (self.leaf_actions(("d", did, 0))
                    + self.leaf_actions(("d", did, 1)))
        raise AssertionError("unexpected consumer in latent tree")


def _merge_dec(term: _Term, prod: tuple, decor) -> bool:
    """Compose a decoration onto a leg; False kills the term (orthogonal
    idempotents)."""
    old = term.dec.get(prod)
    if old is None:
        term.dec[prod] = decor
        return True
    return old == decor


# ---------------------------------------------------------------------------
# rule applications: each returns [(term, sign), ...] with sign +1 or -1


def _apply_act_mu(t: _Term, act_id: int) -> list[tuple[_Term, int]]:
    slot, pi = t.locate(("a", act_id))
    mid = t.unplug(("a", act_id))[0][1]
    x = t.unplug(("m", mid, 0))
    y = t.unplug(("m", mid, 1))
    t.drop_node(mid)
    out = []
    for first, second, sgn in ((y, x, 1), (x, y, -1)):
        s = t if sgn == -1 else t.copy()  # the last branch takes t
        a1 = ("a", s.fresh("a"))
        a2 = ("a", s.fresh("a"))
        s.lines[slot][pi:pi + 1] = [a1, a2]
        s.connect(first[0], a1, first[1])
        s.connect(second[0], a2, second[1])
        out.append((s, sgn))
    return out


def _apply_cocycle(t: _Term, did: int) -> list[tuple[_Term, int]]:
    mid = t.unplug(("d", did))[0][1]
    ins = [t.unplug(("m", mid, 0)), t.unplug(("m", mid, 1))]
    outs = [t.disconnect(("d", did, 0)), t.disconnect(("d", did, 1))]
    t.drop_node(mid)
    out = []
    # the cobracket splits input i; output 0 of the new cobracket takes the
    # old output j, the new bracket's output the other one
    for i, j, sgn in ((0, 0, 1), (1, 0, -1), (0, 1, -1), (1, 1, 1)):
        s = t if i == j == 1 else t.copy()  # the last branch takes t
        nd = s.fresh("d")
        nm = s.fresh("m")
        s.connect(ins[i][0], ("d", nd), ins[i][1])
        s.connect(("d", nd, 1), ("m", nm, 0))
        s.connect(ins[1 - i][0], ("m", nm, 1), ins[1 - i][1])
        s.connect(("d", nd, 0), *outs[j])
        s.connect(("m", nm), *outs[1 - j])
        out.append((s, sgn))
    return out


def _apply_exchange(t: _Term, act_id: int, coact_id: int
                    ) -> list[tuple[_Term, int]]:
    slot, pi = t.locate(("a", act_id))
    act, coact = t.lines[slot][pi:pi + 2]
    assert coact == ("c", coact_id)
    swap = t.copy()
    swap.lines[slot][pi:pi + 2] = [coact, act]
    x = t.unplug(act)
    y = t.disconnect(coact)

    s = t.copy()  # bracket term: action and coaction fuse through a bracket
    c2 = ("c", s.fresh("c"))
    nm = s.fresh("m")
    s.lines[slot][pi:pi + 2] = [c2]
    s.connect(x[0], ("m", nm, 0), x[1])
    s.connect(c2, ("m", nm, 1))
    s.connect(("m", nm), *y)

    a2 = ("a", t.fresh("a"))  # cobracket term, built on the input itself
    nd = t.fresh("d")
    t.lines[slot][pi:pi + 2] = [a2]
    t.connect(x[0], ("d", nd), x[1])
    t.connect(("d", nd, 0), *y)
    t.connect(("d", nd, 1), a2)
    return [(swap, 1), (s, 1), (t, -1)]


def _apply_push_mu(t: _Term, mid: int,
                   monoid: DecorationMonoid) -> list[tuple[_Term, int]]:
    alpha = t.dec.pop(("m", mid))
    x_prod = t.wire_from[("m", mid, 0)]
    y_prod = t.wire_from[("m", mid, 1)]
    parts = monoid.decompositions(alpha)
    out = []
    for i, (beta, gamma) in enumerate(parts):
        s = t if i == len(parts) - 1 else t.copy()  # the last takes t
        if _merge_dec(s, x_prod, beta) and _merge_dec(s, y_prod, gamma):
            out.append((s, 1))
    return out


# ---------------------------------------------------------------------------
# scheduling


class Scheduler:
    """Chooses among applicable redexes; the default takes the first of the
    canonically sorted candidates.  ``record`` accumulates a replayable
    trace as (tag, index) pairs."""

    def __init__(self, record: list | None = None):
        self.record = record

    def choose(self, tag: str, candidates: list):
        idx = self.pick(tag, len(candidates))
        if self.record is not None:
            self.record.append((tag, idx))
        return candidates[idx]

    def pick(self, tag: str, n: int) -> int:
        return 0


class RandomScheduler(Scheduler):
    def __init__(self, seed: int, record: list | None = None):
        import random
        super().__init__(record)
        self.rng = random.Random(seed)

    def pick(self, tag: str, n: int) -> int:
        return self.rng.randrange(n)


class ScriptedScheduler(Scheduler):
    """Replays a recorded trace."""

    def __init__(self, script: list):
        super().__init__(None)
        self.script = list(script)
        self.at = 0

    def pick(self, tag: str, n: int) -> int:
        tag0, idx = self.script[self.at]
        if tag0 != tag or not 0 <= idx < n:
            raise ValueError("trace does not match term")
        self.at += 1
        return idx


def _resolve_bracket(t: _Term, mid: int, monoid: DecorationMonoid
                     ) -> list[tuple[_Term, int]]:
    """One stage-1 step: follow the output chain of bracket ``mid`` down to
    the bracket that feeds an action or a cobracket, then push its
    decoration (PUSH_MU) or apply ACT_MU or COCYCLE there."""
    while t.wire_to[("m", mid)][0] == "m":
        mid = t.wire_to[("m", mid)][1]
    if ("m", mid) in t.dec:
        return _apply_push_mu(t, mid, monoid)
    cons = t.wire_to[("m", mid)]
    if cons[0] == "a":
        return _apply_act_mu(t, cons[1])
    return _apply_cocycle(t, cons[1])


def straighten_graph(t0: _Term, monoid: DecorationMonoid,
                     sched: Scheduler | None = None) -> dict[tuple, int]:
    """Run the staged strategy on one work list; returns canonical basis
    keys -> integer coefficients.  Every rule multiplies by +-1, so the
    coefficients are sums of signs, and a zero sum is dropped.  Equal
    bracket-free terms are netted within the call, as the module docstring
    describes: each distinct one is rewritten or read out once."""
    sched = sched or Scheduler()
    work = [(t0, 1)]
    buckets: dict[int, dict[tuple, list]] = {}  # measure -> form -> [t, c]
    exchanges: list = []  # the netted terms of the bucket being rewritten
    forms: dict[tuple, int] = {}
    while True:
        if work:
            t, c = work.pop()
            if t.mus:  # stage 1
                work.extend((s, c * c2) for s, c2 in _resolve_bracket(
                    t, sched.choose("mu", sorted(t.mus)), monoid))
                continue
            if _readout(t, monoid, c, forms):  # stage 3
                continue
            measure, form = _exchange_form(t)  # stage 2: net by form
            buckets.setdefault(measure, {}).setdefault(form, [t, 0])[1] += c
        elif exchanges:
            t, c = exchanges.pop()
            if not c:
                continue
            safe = t.safe_patterns()
            assert safe, "no safe pattern despite inversions"
            work.extend((s, c * c2) for s, c2 in _apply_exchange(
                t, *sched.choose("exchange", safe)))
        elif buckets:
            exchanges = list(buckets.pop(max(buckets)).values())
        else:
            return _expand(forms, monoid)


# ---------------------------------------------------------------------------
# stage 2: netting bracket-free terms


def _exchange_form(t: _Term) -> tuple[int, tuple]:
    """The stage-2 measure of a bracket-free term, the (action, coaction)
    pairs with the action first on a line, and its node-id-free form: each
    line's kinds, then each coaction's latent cobracket tree with its
    decorations, in line order, the leaves naming actions by their order
    along the lines.  Two terms have one form iff they are equal up to node
    ids."""
    wire_to, dec = t.wire_to, t.dec
    name: dict[tuple, int] = {}
    coacts, lines, pairs = [], [], 0
    for line in t.lines:
        first = len(name)  # the actions named before this line
        for x in line:
            if x[0] == "a":
                name[x] = len(name)
            else:
                coacts.append(x)
                pairs += len(name) - first
        lines.append("".join([x[0] for x in line]))

    def tree(prod):
        cons = wire_to[prod]
        if cons[0] == "a":
            return dec.get(prod), name[cons]
        did = cons[1]
        return dec.get(prod), tree(("d", did, 0)), tree(("d", did, 1))

    return pairs, (tuple(lines), tuple([tree(c) for c in coacts]))


# ---------------------------------------------------------------------------
# stage 3: reading keys off sorted terms


def _leaves(t: _Term, prod: tuple, above, monoid: DecorationMonoid,
            ac_pos: dict[tuple, int]) -> list[tuple[tuple, int]]:
    """Resolve the latent cobracket tree under the leg leaving ``prod``.

    Returns ``[(leaves, sign), ...]``: ``leaves`` lists the (action
    position, decoration) pairs in the time order of the coactions that
    DELTA_COACT would split the leg into; ``ac_pos`` maps action ports
    to positions.  The leg's decoration is ``above`` (pushed from the parent
    cobracket, or None) merged with its own; two different decorations
    kill the branch.  A decorated cobracket input enumerates its
    decompositions onto the outputs (PUSH_DELTA).  For leaf lists A of
    output 0 and B of output 1 the split gives ``B + A`` with sign + (the
    coaction first in time feeds output 1) and ``A + B`` with sign -.
    """
    dec = t.dec.get(prod)
    if above is not None:
        if dec is None:
            dec = above
        elif dec != above:
            return []
    cons = t.wire_to[prod]
    if cons[0] == "a":
        return [(((ac_pos[cons], dec),), 1)]
    assert cons[0] == "d", "unexpected consumer in latent tree"
    did = cons[1]
    out = []
    for beta, gamma in (monoid.decompositions(dec) if dec is not None
                        else ((None, None),)):
        right = _leaves(t, ("d", did, 1), gamma, monoid, ac_pos)
        if not right:
            continue
        for a, sa in _leaves(t, ("d", did, 0), beta, monoid, ac_pos):
            for b, sb in right:
                out.append((b + a, sa * sb))
                out.append((a + b, -sa * sb))
    return out


def _readout(t: _Term, monoid: DecorationMonoid, coeff: int,
             acc: dict[tuple, int]) -> bool:
    """Add ``coeff`` to the readout form of a sorted term in ``acc``, and
    say whether the term was sorted.  At the first line with an action
    before a coaction it stops and adds nothing; a sorted term that
    :func:`_leaves` kills adds nothing either, but counts as read.

    The form is (coaction composition, action composition, one tuple of
    :func:`_leaves` options per coaction in line order), with actions named
    by action position: per slot, the last action has the lowest.  It
    holds no node id, so equal sorted terms share it, and :func:`_expand`
    reads the keys off each form once.
    """
    ac_comp, ac_pos, line_coacts = [], {}, []
    total = 0
    for line in t.lines:
        acts = [x for x in line if x[0] == "a"]
        nc = len(line) - len(acts)
        if line[nc:] != acts:
            return False
        line_coacts.append(line[:nc])
        for i, x in enumerate(acts):
            ac_pos[x] = total + len(acts) - i
        total += len(acts)
        ac_comp.append(len(acts))
    factors, co_comp = [], []  # per coaction: its _leaves options
    for coacts in line_coacts:
        width = 0
        for coact in coacts:
            options = _leaves(t, coact, None, monoid, ac_pos)
            if not options:
                return True
            width += len(options[0][0])
            factors.append(tuple(options))
        co_comp.append(width)
    assert sum(co_comp) == total, "unrooted cobracket at extraction"
    form = (tuple(co_comp), tuple(ac_comp), tuple(factors))
    acc[form] = acc.get(form, 0) + coeff
    return True


def _expand(forms: dict[tuple, int], monoid: DecorationMonoid
            ) -> dict[tuple, int]:
    """The canonical basis keys of the netted readout forms, zero sums
    dropped.

    Key layout: (coactions, actions, perm, decor) with compositions per
    slot, the permutation sending coaction position to action position,
    and decorations indexed by action position.  Each coaction contributes
    the leaves of its latent tree in time order; undecorated legs expand
    over the monoid, and quotient mode drops keys outside the allowed set.
    """
    out: dict[tuple, int] = {}
    trivial = monoid.is_trivial()
    if not trivial:
        quotient = isinstance(monoid, RootConeMod)
        elements = monoid.elements()
    for (co_comp, ac_comp, factors), coeff in forms.items():
        if not coeff:
            continue
        total = sum(ac_comp)
        if trivial:
            decors = [(monoid.zero(),) * total]
        for combo in itertools.product(*factors):
            leaves: list = []
            sign = coeff
            for part, s in combo:
                leaves += part
                sign *= s
            perm = tuple([p for p, _ in leaves])
            if not trivial:
                dec = [None] * total
                for p, d in leaves:
                    dec[p - 1] = d
                if quotient and not all(d is None or monoid.is_allowed(d)
                                        for d in dec):
                    continue
                open_positions = [i for i, d in enumerate(dec) if d is None]
                decors = []
                for choice in itertools.product(elements,
                                                repeat=len(open_positions)):
                    for i, d in zip(open_positions, choice):
                        dec[i] = d
                    decors.append(tuple(dec))
            for decor in decors:
                key = (co_comp, ac_comp, perm, decor)
                new = out.get(key, 0) + sign
                if new:
                    out[key] = new
                else:
                    del out[key]
    return out


# ---------------------------------------------------------------------------
# building terms: slice terms (see :mod:`dyalg.terms`) are the one way in


def _check_slot(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"slot {k} out of range 1..{n}")


def slices_of_key(key: tuple, decorated: bool) -> list:
    """The slice form of a basis key (see :mod:`dyalg.algebra`).

    The coactions come first, in slot-block order, so the prefix lists the
    legs by coaction position.  The actions are applied slot by slot and,
    within a slot, from the last action position to the first; since an
    action consumes the rightmost leg, one permutation moves the leg of the
    r-th applied action (counting from 0) to prefix position N - r.  With
    ``decorated`` set, each strand's decoration sits on that position.
    """
    co, ac, perm, dec = key
    N = len(perm)
    applied = [p for start, a in zip(block_starts(ac), ac)
               for p in reversed(range(start, start + a))]
    target = [0] * N  # prefix position of the leg with action position p
    for r, p in enumerate(applied):
        target[p] = N - r
    slices: list = [("coaction", k + 1)
                    for k, c in enumerate(co) for _ in range(c)]
    slices.append(("perm", tuple(target[s - 1] for s in perm)))
    if decorated:
        slices.extend(("decor", target[p], dec[p]) for p in applied)
    slices.extend(("action", k + 1)
                  for k, a in enumerate(ac) for _ in range(a))
    return slices


def term_graph(slices: list, n: int) -> _Term | None:
    """Build the rewriting graph of an endomorphism-typed slice term in
    one pass, checking each slice as it comes.  An ill-typed slice raises,
    and so does a term that leaves legs open; a term in which two different
    decorations meet on one leg is 0 and gives None."""
    t = _Term(n)
    prefix: list = []  # producer port per open leg, leftmost first
    decor: dict = {}
    zero = False
    for sl in slices:
        kind = sl[0]
        if kind == "coaction":
            _check_slot(sl[1], n)
            coact = ("c", t.fresh("c"))
            t.lines[sl[1] - 1].append(coact)
            prefix.append(coact)
        elif kind == "action":
            _check_slot(sl[1], n)
            if not prefix:
                raise ValueError("action with no open leg")
            act = ("a", t.fresh("a"))
            t.lines[sl[1] - 1].append(act)
            prod = prefix.pop()
            t.connect(prod, act, decor.pop(prod, None))
        elif kind == "mu":
            if len(prefix) < 2:
                raise ValueError("bracket needs two open legs")
            mid = t.fresh("m")
            y = prefix.pop()
            x = prefix.pop()
            t.connect(x, ("m", mid, 0), decor.pop(x, None))
            t.connect(y, ("m", mid, 1), decor.pop(y, None))
            prefix.append(("m", mid))
        elif kind == "delta":
            if not prefix:
                raise ValueError("cobracket needs an open leg")
            did = t.fresh("d")
            x = prefix.pop()
            t.connect(x, ("d", did), decor.pop(x, None))
            prefix.extend([("d", did, 0), ("d", did, 1)])
        elif kind == "perm":
            sigma = sl[1]
            if sorted(sigma) != list(range(1, len(prefix) + 1)):
                raise ValueError("permutation does not match leg count")
            new = [None] * len(prefix)
            for q, prod in enumerate(prefix):
                new[sigma[q] - 1] = prod
            prefix = new
        elif kind == "decor":
            if not 1 <= sl[1] <= len(prefix):
                raise ValueError("decoration position out of range")
            prod = prefix[sl[1] - 1]
            old = decor.get(prod)
            if old is not None and old != sl[2]:
                zero = True  # orthogonal idempotents compose to zero
            else:
                decor[prod] = sl[2]
        else:
            raise ValueError(f"unknown slice kind {kind!r}")
    if prefix:
        raise ValueError("term is not an endomorphism of the module slots")
    return None if zero else t
