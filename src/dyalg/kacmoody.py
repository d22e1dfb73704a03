"""Truncated Kac-Moody Borel subalgebras with their bialgebra structure.

From a symmetrizable generalized Cartan matrix A this module builds the
positive Borel of the extended algebra (Cartan enlarged by fundamental
coweight generators, one per node) with root spaces truncated at a height
cap: the nilpotent part is the free Lie algebra on the raising generators
modulo the Serre relations, computed degree by degree inside the free
associative algebra, and brackets that leave the height window are
projected away.

The cobracket comes from the Manin-triple pairing of the two Borels inside
(extended algebra) + (extended Cartan); the normalization is pinned by
[e_i, f_j] = delta_ij h_i together with the bilinear form tables
(h_i, h_j) = a_ij / D_j, (h_i, cw_j) = delta_ij / D_i, (e_i, f_j) =
delta_ij / D_i, which makes delta(e_i) = (1/2) D_i^{-1}-scaled wedge of
e_i with h_i.  Identities are only asserted inside the height window.

Every element of the extended algebra, upper or lower Borel, is one sparse
dict {label: coefficient} over the labels ("h", i), ("cw", i), ("e", w, j)
and ("f", w, j), where j indexes the chosen basis of the root space at
weight w.  There is one bracket: the bilinear extension of a memoized
bracket of two basis labels.  Same-side root vectors bracket through the
Serre-quotient root spaces; an e-label against an f-label goes by the
Jacobi recursion on labels down to [e_i, f_j] = delta_ij h_i.  The root
pairing is read off that bracket, and the cobracket off the bracket and
the blocks of the pairing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import linalg
from .bialgebra import LieBialgebraData, validate_bialgebra
from .freelie import _left_normed, expand_to_assoc, lie_bracket_assoc
from .monoids import RootCone

Weight = tuple  # multidegree over the simple roots


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_gcm(cartan, symmetrizers=None) -> tuple[list[list[int]], list[int]]:
    """The rows of a generalized Cartan matrix A and a positive diagonal D
    making D*A symmetric: the given ``symmetrizers``, or the coprime one.

    Raises ValueError unless A is square of rank at least 1 with integer
    entries, diagonal 2, off-diagonal entries <= 0 and a_ij = 0 exactly when
    a_ji = 0, and D is one positive integer per row with D*A symmetric."""
    if not isinstance(cartan, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and len(row) == len(cartan)
            and all(map(_is_int, row)) for row in cartan):
        raise ValueError("a generalized Cartan matrix is a square integer "
                         "matrix")
    if not cartan:
        raise ValueError("a generalized Cartan matrix has rank at least 1")
    cartan = [list(row) for row in cartan]
    l = len(cartan)
    for i in range(l):
        if cartan[i][i] != 2:
            raise ValueError("diagonal of a generalized Cartan matrix is 2")
        for j in range(l):
            if i != j and (cartan[i][j] > 0 or
                           (cartan[i][j] == 0) != (cartan[j][i] == 0)):
                raise ValueError("not a generalized Cartan matrix")
    ds = (_coprime_symmetrizer(cartan) if symmetrizers is None
          else symmetrizers)
    if not isinstance(ds, (list, tuple)) or len(ds) != l or \
            not all(_is_int(d) and d > 0 for d in ds):
        raise ValueError("symmetrizers are positive integers, one per row")
    for i in range(l):
        for j in range(l):
            if ds[i] * cartan[i][j] != ds[j] * cartan[j][i]:
                raise ValueError("D*A is not symmetric")
    return cartan, list(ds)


def symmetrizer(cartan) -> list[int]:
    """The positive coprime diagonal making D*A symmetric; raises
    ValueError if the matrix is not a symmetrizable GCM."""
    return check_gcm(cartan)[1]


def _coprime_symmetrizer(cartan: list[list[int]]) -> list[int]:
    """Propagate d_j / d_i = a_ij / a_ji along the Dynkin graph."""
    l = len(cartan)
    ratio: dict[int, Fraction] = {}
    for start in range(l):
        if start in ratio:
            continue
        ratio[start] = Fraction(1)
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in range(l):
                if cartan[i][j] == 0 or i == j:
                    continue
                want = ratio[i] * Fraction(cartan[i][j], cartan[j][i])
                if j in ratio:
                    if ratio[j] != want:
                        raise ValueError("GCM is not symmetrizable")
                else:
                    ratio[j] = want
                    frontier.append(j)
    denom = math.lcm(*(r.denominator for r in ratio.values()))
    ds = [int(ratio[i] * denom) for i in range(l)]
    g = math.gcd(*ds)
    return [d // g for d in ds]


def _content(word: tuple, rank: int) -> Weight:
    w = [0] * rank
    for letter in word:
        w[letter - 1] += 1
    return tuple(w)


def _words_of(weight: Weight) -> list[tuple]:
    letters = []
    for i, m in enumerate(weight):
        letters.extend([i + 1] * m)
    return sorted(set(itertools.permutations(letters)))


class _RootSpaces:
    """Serre-quotient graded components of the free Lie algebra on the
    raising generators, with reduction to chosen representatives."""

    def __init__(self, cartan, cap: int):
        self.rank = len(cartan)
        self.cap = cap
        self.cartan = cartan
        self.ideal: dict[Weight, list[dict]] = {}
        self.basis_trees: dict[Weight, list] = {}
        # weight -> (word index, Span of ideal then trees, tree columns)
        self.solvers: dict[Weight, tuple] = {}
        self._build()

    def _serre_relators(self, weight: Weight) -> list[dict]:
        out = []
        for i, j in itertools.product(range(1, self.rank + 1), repeat=2):
            if i == j:
                continue
            k = 1 - self.cartan[i - 1][j - 1]
            target = tuple((k if t == i - 1 else 0) + (1 if t == j - 1 else 0)
                           for t in range(self.rank))
            if target == weight:
                tree = j
                for _ in range(k):
                    tree = (i, tree)
                out.append(expand_to_assoc(tree))
        return out

    def _build(self) -> None:
        for weight in RootCone(self.rank, self.cap).elements()[1:]:
            widx = {w: i for i, w in enumerate(_words_of(weight))}
            ideal_vecs = [dict(v) for v in self._serre_relators(weight)]
            for i in range(1, self.rank + 1):
                prev = tuple(weight[t] - (1 if t == i - 1 else 0)
                             for t in range(self.rank))
                if min(prev) < 0 or sum(prev) == 0:
                    continue
                gen = expand_to_assoc(i)
                for v in self.ideal.get(prev, []):
                    ideal_vecs.append(lie_bracket_assoc(gen, v))
            self.ideal[weight] = ideal_vecs
            span = linalg.Span({widx[w]: c for w, c in vec.items()}
                               for vec in ideal_vecs)
            trees, columns = [], []
            for word in widx:
                tree = _left_normed(word)
                if span.add({widx[w]: c
                             for w, c in expand_to_assoc(tree).items()}):
                    trees.append(tree)
                    columns.append(span.ncols - 1)
            self.basis_trees[weight] = trees
            self.solvers[weight] = (widx, span, columns)

    def dim(self, weight: Weight) -> int:
        return len(self.basis_trees.get(weight, []))

    def coords(self, weight: Weight, vec: dict) -> list[Fraction]:
        """Coordinates of an associative expansion in the chosen root-space
        basis, modulo the Serre ideal.  Unique because the basis trees are
        independent modulo the ideal."""
        widx, span, columns = self.solvers[weight]
        sol = span.coords({widx[w]: c for w, c in vec.items()})
        if sol is None:
            raise ArithmeticError("vector outside Lie span")
        return [sol[j] for j in columns]


class KacMoodyBorel:
    """Truncated extended Borel with exact bracket/cobracket tables.

    Basis order: h_1..h_l, cw_1..cw_l, then root vectors sorted by
    (height, weight).  ``cw`` are the coweight generators of the extended
    Cartan.  ``basis_keys`` lists the upper-Borel labels in basis order and
    ``index`` is its inverse; the lower-Borel basis is the same list with
    "e" replaced by "f".  Brackets of label dicts go through
    :meth:`_basis_bracket`, which covers every pair of labels."""

    def __init__(self, cartan, cap: int, symmetrizers=None):
        self.cartan, self.sym = check_gcm(cartan, symmetrizers)
        self.rank = len(self.cartan)
        self.cap = cap
        self.roots = _RootSpaces(self.cartan, cap)
        self.weights_list = [w for w in RootCone(self.rank, cap).elements()[1:]
                             if self.roots.dim(w) > 0]
        self.index: dict = {}
        names = []
        for i in range(self.rank):
            self.index[("h", i)] = len(names)
            names.append(f"h{i + 1}")
        for i in range(self.rank):
            self.index[("cw", i)] = len(names)
            names.append(f"cw{i + 1}")
        for w in self.weights_list:
            for j in range(self.roots.dim(w)):
                self.index[("e", w, j)] = len(names)
                names.append(f"e[{','.join(map(str, w))}]"
                             + (f"#{j}" if self.roots.dim(w) > 1 else ""))
        self.dim = len(names)
        self.names = names
        self.basis_keys = list(self.index)  # inverse of self.index
        self._cartan_keys = self.basis_keys[:2 * self.rank]
        self._bracket_cache: dict = {}
        # the form is symmetric, so its rows are its columns
        self._form = linalg.Span({j: c for j, c in enumerate(row) if c}
                                 for row in self.cartan_form())

    # -- elements are sparse dicts {label: coefficient} --------------------

    def _alpha(self, cartan_label, weight: Weight) -> int:
        """alpha(h) for a Cartan basis label of the extended Cartan."""
        kind, i = cartan_label
        if kind == "cw":
            return weight[i]
        return sum(weight[j] * self.cartan[i][j] for j in range(self.rank))

    def _basis_bracket(self, x, y) -> dict:
        """[x, y] for two basis labels, truncated at the height cap and
        memoized; the returned dict is shared and must not be mutated."""
        key = (x, y)
        if key in self._bracket_cache:
            return self._bracket_cache[key]
        if x[0] in ("h", "cw"):
            if y[0] in ("h", "cw"):
                out = {}
            else:
                c = self._alpha(x, y[1])
                out = {y: Fraction(c if y[0] == "e" else -c)} if c else {}
        elif y[0] in ("h", "cw") or (x[0], y[0]) == ("f", "e"):
            out = {k: -c for k, c in self._basis_bracket(y, x).items()}
        else:
            tx = self.roots.basis_trees[x[1]][x[2]]
            ty = self.roots.basis_trees[y[1]][y[2]]
            if x[0] == y[0]:
                out = self._root_elt(x[0], (tx, ty))
            elif isinstance(tx, int) and isinstance(ty, int):
                out = {("h", tx - 1): Fraction(1)} if tx == ty else {}
            elif isinstance(tx, int):
                # [e, [fu, fv]] = [[e, fu], fv] - [[e, fv], fu]
                fu, fv = (self._root_elt("f", t) for t in ty)
                out = _difference(self._bracket(self._bracket({x: 1}, fu), fv),
                                  self._bracket(self._bracket({x: 1}, fv), fu))
            else:
                # [[eu, ev], f] = [eu, [ev, f]] - [ev, [eu, f]]
                eu, ev = (self._root_elt("e", t) for t in tx)
                out = _difference(self._bracket(eu, self._bracket(ev, {y: 1})),
                                  self._bracket(ev, self._bracket(eu, {y: 1})))
        self._bracket_cache[key] = out
        return out

    def _bracket(self, a: dict, b: dict) -> dict:
        """The bilinear extension of :meth:`_basis_bracket`."""
        out: dict = {}
        for x, ca in a.items():
            for y, cb in b.items():
                for z, c in self._basis_bracket(x, y).items():
                    out[z] = out.get(z, 0) + ca * cb * c
        return {z: c for z, c in out.items() if c}

    def _root_elt(self, side: str, tree) -> dict:
        """The e-tree (side "e") or f-tree (side "f") in the label basis."""
        w = _content(_tree_word(tree), self.rank)
        if sum(w) > self.cap:
            return {}
        coords = self.roots.coords(w, expand_to_assoc(tree))
        return {(side, w, k): c for k, c in enumerate(coords) if c}

    # -- form and cobracket -------------------------------------------------

    def cartan_form(self):
        """The bilinear form on the extended Cartan (h then cw basis)."""
        l = self.rank
        form = [[Fraction(0)] * (2 * l) for _ in range(2 * l)]
        for i in range(l):
            for j in range(l):
                form[i][j] = Fraction(self.cartan[i][j], self.sym[j])
            form[i][l + i] = Fraction(1, self.sym[i])
            form[l + i][i] = Fraction(1, self.sym[i])
        return form

    def root_pairing(self, weight: Weight):
        """Gram matrix of the raising/lowering pairing at a weight, from
        [x, y] = (x, y) t_weight, t_weight being the Cartan element that
        represents the weight through the (non-degenerate) form."""
        keys = self._cartan_keys
        t_weight = self._form.coords({j: self._alpha(k, weight)
                                      for j, k in enumerate(keys)})
        line = linalg.Span([dict(enumerate(t_weight))])
        dim = self.roots.dim(weight)
        gram = [[Fraction(0)] * dim for _ in range(dim)]
        for i, j in itertools.product(range(dim), repeat=2):
            br = dict(self._basis_bracket(("e", weight, i), ("f", weight, j)))
            hv = {m: br.pop(k) for m, k in enumerate(keys) if k in br}
            assert not br, "mixed bracket left the Cartan"
            c = line.coords(hv)
            assert c is not None, \
                "mixed bracket not proportional to the weight element"
            gram[i][j] = c[0]
        return gram

    # -- assembled bialgebra data -------------------------------------------

    def bialgebra(self) -> LieBialgebraData:
        d = self.dim
        bracket = [[None] * d for _ in range(d)]
        for i, j in itertools.product(range(d), repeat=2):
            row = [Fraction(0)] * d
            for z, c in self._basis_bracket(self.basis_keys[i],
                                            self.basis_keys[j]).items():
                if z[0] == "f":
                    raise ArithmeticError("element leaves the Borel")
                row[self.index[z]] = c
            bracket[i][j] = row
        cobracket = self._cobracket_table()
        weights = [(0,) * self.rank] * (2 * self.rank) + [
            w for w in self.weights_list for _ in range(self.roots.dim(w))]
        return LieBialgebraData(d, bracket, cobracket, weights, self.names)

    def _cobracket_table(self):
        """delta on the Borel from the Manin pairing P: the lower Borel pairs
        with the upper through 2*(Cartan form) on the Cartan block and the
        root pairing on each root block.  Brackets of lower basis elements,
        [x_a, x_b] = sum_k c x_k, give delta(z) = sum P[z][k] c pinv[a] (x)
        pinv[b], pinv the inverse of P."""
        d = self.dim
        # P is block diagonal, so its inverse is too: cols[k] holds the
        # non-zero (row, entry) pairs of column k of P, rows[a] those of
        # row a of the inverse
        blocks = [(range(2 * self.rank),
                   [[2 * c for c in r] for r in self.cartan_form()])]
        blocks += [([self.index[("e", w, j)]
                     for j in range(self.roots.dim(w))], self.root_pairing(w))
                   for w in self.weights_list]
        rows, cols = [None] * d, [None] * d
        for at, block in blocks:
            for a, row in zip(at, linalg.inverse(block)):
                rows[a] = [(at[r], c) for r, c in enumerate(row) if c]
            for k, col in zip(at, zip(*block)):
                cols[k] = [(at[z], c) for z, c in enumerate(col) if c]
        # the lower-Borel basis mirrors the upper one (e -> f)
        lower = [("f",) + k[1:] if k[0] == "e" else k
                 for k in self.basis_keys]
        lower_index = {k: i for i, k in enumerate(lower)}
        cob = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
        for a, xa in enumerate(lower):
            for b, xb in enumerate(lower):
                for xk, c in self._basis_bracket(xa, xb).items():
                    for z, p in cols[lower_index[xk]]:
                        for r, pa in rows[a]:
                            m = p * c * pa
                            target = cob[z][r]
                            for s, pb in rows[b]:
                                target[s] += m * pb
        return cob


def _difference(a: dict, b: dict) -> dict:
    """a - b for label dicts, dropping zero coefficients."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


def _tree_word(tree) -> tuple:
    if isinstance(tree, int):
        return (tree,)
    return _tree_word(tree[0]) + _tree_word(tree[1])


def build_kac_moody_borel(cartan, cap: int,
                          symmetrizers=None) -> LieBialgebraData:
    """Assembled bialgebra data of the truncated extended Borel."""
    cartan, symmetrizers = check_gcm(cartan, symmetrizers)
    if cap < 1:
        raise ValueError("height cap must be at least 1")
    if len(cartan) > 3 or cap > 4:
        raise ValueError("size guard: rank <= 3 and height cap <= 4")
    return KacMoodyBorel(cartan, cap, symmetrizers).bialgebra()


def validate_bialgebra_windowed(a: LieBialgebraData, cap: int) -> list[str]:
    """Bialgebra axioms restricted to instances whose total weight stays
    inside the height window (truncated brackets cannot contaminate them)."""
    return validate_bialgebra(a, max_weight=cap)
