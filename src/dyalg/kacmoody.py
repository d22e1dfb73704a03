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
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import linalg
from .bialgebra import LieBialgebraData, matmul, validate_bialgebra
from .freelie import expand_to_assoc, lie_bracket_assoc
from .monoids import RootCone

Weight = tuple  # multidegree over the simple roots


def symmetrizer(cartan: list[list[int]]) -> list[int]:
    """The positive coprime diagonal making D*A symmetric; raises if the
    matrix is not symmetrizable."""
    l = len(cartan)
    for i in range(l):
        if cartan[i][i] != 2:
            raise ValueError("diagonal of a generalized Cartan matrix is 2")
        for j in range(l):
            if i != j and (cartan[i][j] > 0 or
                           (cartan[i][j] == 0) != (cartan[j][i] == 0)):
                raise ValueError("not a generalized Cartan matrix")
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
    ds = [d // g for d in ds]
    for i in range(l):
        for j in range(l):
            if ds[i] * cartan[i][j] != ds[j] * cartan[j][i]:
                raise ValueError("GCM is not symmetrizable")
    return ds


def _content(word: tuple, rank: int) -> Weight:
    w = [0] * rank
    for letter in word:
        w[letter - 1] += 1
    return tuple(w)


def _left_normed(word: tuple):
    tree = word[0]
    for letter in word[1:]:
        tree = (tree, letter)
    return tree


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
        self.reducers: dict[Weight, tuple] = {}
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
            words = _words_of(weight)
            widx = {w: i for i, w in enumerate(words)}
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

            def sparse(vec: dict) -> dict:
                return {widx[w]: c for w, c in vec.items() if c}

            echelon = linalg.Echelon()
            ideal_cols = []
            for vec in ideal_vecs:
                row = sparse(vec)
                if echelon.insert(row):
                    ideal_cols.append(row)
            trees, tree_cols = [], []
            for word in words:
                tree = _left_normed(word)
                col = sparse(expand_to_assoc(tree))
                if echelon.insert(col):
                    trees.append(tree)
                    tree_cols.append(col)
            self.basis_trees[weight] = trees
            self.reducers[weight] = (widx, tree_cols, ideal_cols)

    def dim(self, weight: Weight) -> int:
        return len(self.basis_trees.get(weight, []))

    def coords(self, weight: Weight, vec: dict) -> list[Fraction]:
        """Coordinates of an associative expansion in the chosen root-space
        basis, modulo the Serre ideal.  Unique because the basis trees are
        independent modulo the ideal."""
        widx, tree_cols, ideal_cols = self.reducers[weight]
        rhs = {widx[w]: c for w, c in vec.items() if c}
        sol = linalg.sparse_solve(tree_cols + ideal_cols, rhs)
        if sol is None:
            raise ArithmeticError("vector outside Lie span")
        return sol[:len(tree_cols)]


class KacMoodyBorel:
    """Truncated extended Borel with exact bracket/cobracket tables.

    Basis order: h_1..h_l, cw_1..cw_l, then root vectors sorted by
    (height, weight).  ``cw`` are the coweight generators of the extended
    Cartan."""

    def __init__(self, cartan, cap: int, symmetrizers=None):
        self.cartan = [list(map(int, row)) for row in cartan]
        self.rank = len(cartan)
        self.cap = cap
        if symmetrizers is not None:
            self.sym = list(map(int, symmetrizers))
            for i in range(self.rank):
                for j in range(self.rank):
                    if (self.sym[i] * self.cartan[i][j]
                            != self.sym[j] * self.cartan[j][i]):
                        raise ValueError("given symmetrizers do not work")
        else:
            self.sym = symmetrizer(self.cartan)
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
        self._mixed_cache: dict = {}
        self._pairing_blocks: dict = {}

    # -- generic elements: (h-vector over 2l, e: weight->coords,
    #    f: weight->coords) ------------------------------------------------

    def _zero(self):
        return ([Fraction(0)] * (2 * self.rank), {}, {})

    def _add(self, a, b, scale=Fraction(1)):
        h = [x + scale * y for x, y in zip(a[0], b[0])]
        e = {w: list(v) for w, v in a[1].items()}
        for w, v in b[1].items():
            cur = e.setdefault(w, [Fraction(0)] * len(v))
            for i, c in enumerate(v):
                cur[i] += scale * c
        f = {w: list(v) for w, v in a[2].items()}
        for w, v in b[2].items():
            cur = f.setdefault(w, [Fraction(0)] * len(v))
            for i, c in enumerate(v):
                cur[i] += scale * c
        e = {w: v for w, v in e.items() if any(v)}
        f = {w: v for w, v in f.items() if any(v)}
        return (h, e, f)

    def _weight_action(self, hvec, weight: Weight) -> Fraction:
        """alpha(h) for h in the extended Cartan."""
        out = Fraction(0)
        for i in range(self.rank):
            out += hvec[i] * sum(Fraction(weight[j] * self.cartan[i][j])
                                 for j in range(self.rank))
            out += hvec[self.rank + i] * weight[i]
        return out

    def _mixed_tree(self, etree, ftree):
        """[e-tree, f-tree] as a generic element, memoized."""
        key = (etree, ftree)
        if key in self._mixed_cache:
            return self._mixed_cache[key]
        if isinstance(etree, int) and isinstance(ftree, int):
            out = self._zero()
            if etree == ftree:
                out[0][etree - 1] = Fraction(1)
        elif isinstance(etree, int):
            u, v = ftree
            t1 = self._br_generic(self._mixed_tree(etree, u),
                                  self._f_elt(v))
            t2 = self._br_generic(self._f_elt(u),
                                  self._mixed_tree(etree, v))
            out = self._add(t1, t2)
        else:
            u, v = etree
            t1 = self._br_generic(self._e_elt(u),
                                  self._mixed_tree(v, ftree))
            t2 = self._br_generic(self._e_elt(v),
                                  self._mixed_tree(u, ftree))
            out = self._add(t1, t2, Fraction(-1))
        self._mixed_cache[key] = out
        return out

    def _e_elt(self, tree):
        w = _content(_tree_word(tree), self.rank)
        if sum(w) > self.cap:
            return self._zero()
        coords = self.roots.coords(w, expand_to_assoc(tree))
        out = self._zero()
        if any(coords):
            out[1][w] = coords
        return out

    def _f_elt(self, tree):
        w = _content(_tree_word(tree), self.rank)
        if sum(w) > self.cap:
            return self._zero()
        coords = self.roots.coords(w, expand_to_assoc(tree))
        out = self._zero()
        if any(coords):
            out[2][w] = coords
        return out

    def _br_generic(self, a, b):
        """Bracket of generic elements, truncated at the height cap."""
        out = self._zero()
        # h against everything
        for w, v in b[1].items():
            c = self._weight_action(a[0], w)
            if c:
                out = self._add(out, ([Fraction(0)] * (2 * self.rank),
                                      {w: [c * x for x in v]}, {}))
        for w, v in b[2].items():
            c = -self._weight_action(a[0], w)
            if c:
                out = self._add(out, ([Fraction(0)] * (2 * self.rank),
                                      {}, {w: [c * x for x in v]}))
        for w, v in a[1].items():
            c = self._weight_action(b[0], w)
            if c:
                out = self._add(out, ([Fraction(0)] * (2 * self.rank),
                                      {w: [-c * x for x in v]}, {}))
        for w, v in a[2].items():
            c = -self._weight_action(b[0], w)
            if c:
                out = self._add(out, ([Fraction(0)] * (2 * self.rank),
                                      {}, {w: [-c * x for x in v]}))
        # e against e, f against f
        for (w1, v1), (w2, v2) in itertools.product(a[1].items(),
                                                    b[1].items()):
            out = self._add(out, self._ee_bracket(w1, v1, w2, v2, side=1))
        for (w1, v1), (w2, v2) in itertools.product(a[2].items(),
                                                    b[2].items()):
            out = self._add(out, self._ee_bracket(w1, v1, w2, v2, side=2))
        # e against f
        for (w1, v1), (w2, v2) in itertools.product(a[1].items(),
                                                    b[2].items()):
            out = self._add(out, self._ef_bracket(w1, v1, w2, v2))
        for (w1, v1), (w2, v2) in itertools.product(a[2].items(),
                                                    b[1].items()):
            out = self._add(out, self._ef_bracket(w2, v2, w1, v1),
                            Fraction(-1))
        return out

    def _ee_bracket(self, w1, v1, w2, v2, side: int):
        target = tuple(x + y for x, y in zip(w1, w2))
        out = self._zero()
        if sum(target) > self.cap:
            return out
        t1 = self.roots.basis_trees[w1]
        t2 = self.roots.basis_trees[w2]
        acc: dict = {}
        for (c1, tr1), (c2, tr2) in itertools.product(
                zip(v1, t1), zip(v2, t2)):
            if not c1 or not c2:
                continue
            vec = lie_bracket_assoc(expand_to_assoc(tr1),
                                    expand_to_assoc(tr2))
            for wd, c in vec.items():
                acc[wd] = acc.get(wd, Fraction(0)) + c1 * c2 * c
        acc = {w: c for w, c in acc.items() if c}
        if not acc:
            return out
        coords = self.roots.coords(target, acc)
        if any(coords):
            out[side][target] = coords
        return out

    def _ef_bracket(self, we, ve, wf, vf):
        out = self._zero()
        te = self.roots.basis_trees[we]
        tf = self.roots.basis_trees[wf]
        for (c1, tr1), (c2, tr2) in itertools.product(
                zip(ve, te), zip(vf, tf)):
            if c1 and c2:
                out = self._add(out, self._mixed_tree(tr1, tr2), c1 * c2)
        return out

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

    def _t_alpha(self, weight: Weight) -> list[Fraction]:
        """The Cartan element representing a weight through the form."""
        l = self.rank
        rhs = []
        for i in range(l):
            rhs.append(sum(Fraction(weight[j] * self.cartan[i][j])
                           for j in range(l)))
        for i in range(l):
            rhs.append(Fraction(weight[i]))
        sol = linalg.solve(self.cartan_form(), rhs)
        if sol is None:
            raise ArithmeticError("degenerate extended Cartan form")
        return sol

    def root_pairing(self, weight: Weight):
        """Gram matrix of the raising/lowering pairing at a weight, from
        [x, y] = (x, y) t_weight."""
        if weight in self._pairing_blocks:
            return self._pairing_blocks[weight]
        t_alpha = self._t_alpha(weight)
        dim = self.roots.dim(weight)
        gram = [[Fraction(0)] * dim for _ in range(dim)]
        trees = self.roots.basis_trees[weight]
        for i, j in itertools.product(range(dim), repeat=2):
            br = self._mixed_tree(trees[i], trees[j])
            assert not br[1] and not br[2], "mixed bracket left the Cartan"
            hv = br[0]
            nonzero = [k for k in range(2 * self.rank) if hv[k] or t_alpha[k]]
            if all(not hv[k] for k in nonzero):
                gram[i][j] = Fraction(0)
                continue
            ratios = {Fraction(hv[k]) / t_alpha[k] for k in nonzero
                      if t_alpha[k]}
            assert len(ratios) == 1 and all(
                hv[k] == 0 for k in nonzero if not t_alpha[k]), \
                "mixed bracket not proportional to the weight element"
            gram[i][j] = next(iter(ratios))
        self._pairing_blocks[weight] = gram
        return gram

    # -- assembled bialgebra data -------------------------------------------

    def _elt_from_basis(self, idx: int):
        key = self.basis_keys[idx]
        out = self._zero()
        if key[0] == "h":
            out[0][key[1]] = Fraction(1)
        elif key[0] == "cw":
            out[0][self.rank + key[1]] = Fraction(1)
        else:
            _, w, j = key
            vec = [Fraction(0)] * self.roots.dim(w)
            vec[j] = Fraction(1)
            out[1][w] = vec
        return out

    def _coords_of_elt(self, elt) -> list[Fraction]:
        vec = [Fraction(0)] * self.dim
        for i in range(self.rank):
            vec[self.index[("h", i)]] = elt[0][i]
            vec[self.index[("cw", i)]] = elt[0][self.rank + i]
        for w, v in elt[1].items():
            for j, c in enumerate(v):
                vec[self.index[("e", w, j)]] = c
        if elt[2]:
            raise ArithmeticError("element leaves the Borel")
        return vec

    def bialgebra(self) -> LieBialgebraData:
        d = self.dim
        basis = [self._elt_from_basis(i) for i in range(d)]
        bracket = [[None] * d for _ in range(d)]
        for i, j in itertools.product(range(d), repeat=2):
            bracket[i][j] = self._coords_of_elt(
                self._br_generic(basis[i], basis[j]))
        cobracket = self._cobracket_table()
        weights = [(0,) * self.rank] * (2 * self.rank) + [
            w for w in self.weights_list for _ in range(self.roots.dim(w))]
        return LieBialgebraData(d, bracket, cobracket, weights, self.names)

    def _cobracket_table(self):
        """delta on the Borel from the Manin pairing: the lower Borel pairs
        with the upper through 2*(Cartan form) on the Cartan block and the
        root pairing on each root block."""
        d = self.dim
        l = self.rank
        pairing = [[Fraction(0)] * d for _ in range(d)]
        cform = self.cartan_form()
        for i in range(2 * l):
            for j in range(2 * l):
                pairing[i][j] = 2 * cform[i][j]
        for w in self.weights_list:
            gram = self.root_pairing(w)
            for a in range(len(gram)):
                for b in range(len(gram)):
                    pairing[self.index[("e", w, a)]][
                        self.index[("e", w, b)]] = gram[a][b]
        pinv = linalg.inverse(pairing)
        pt = tuple(zip(*pinv))
        # lower-Borel basis mirrors the upper one; bracket of lower basis
        # elements, paired against z, gives delta(z)
        lower = []
        for i in range(d):
            elt = self._elt_from_basis(i)
            if elt[1]:
                w = next(iter(elt[1]))
                lower.append(("f", w, elt[1][w]))
            else:
                lower.append(("h", elt[0]))
        brackets = [[self._lower_bracket(xa, xb) for xb in lower]
                    for xa in lower]
        cob = []
        for z in range(d):
            m = [[self._pair_upper(z, br, cform) for br in row]
                 for row in brackets]
            cob.append(matmul(pt, matmul(m, pinv)))
        return cob

    def _lower_bracket(self, xa, xb):
        ea = self._lower_to_generic(xa)
        eb = self._lower_to_generic(xb)
        return self._br_generic(ea, eb)

    def _lower_to_generic(self, x):
        out = self._zero()
        if x[0] == "h":
            for i, c in enumerate(x[1]):
                out[0][i] = c
        else:
            out[2][x[1]] = list(x[2])
        return out

    def _pair_upper(self, z: int, elt, cform) -> Fraction:
        """Pairing of upper basis element z against a generic element of
        the lower Borel (only its f and Cartan parts pair); ``cform`` is
        :meth:`cartan_form`."""
        key = self.basis_keys[z]
        if key[0] in ("h", "cw"):
            i = key[1] if key[0] == "h" else self.rank + key[1]
            return 2 * sum(cform[i][j] * elt[0][j]
                           for j in range(2 * self.rank))
        _, w, j = key
        if w not in elt[2]:
            return Fraction(0)
        gram = self.root_pairing(w)
        return sum(gram[j][b] * elt[2][w][b] for b in range(len(gram)))


def _tree_word(tree) -> tuple:
    if isinstance(tree, int):
        return (tree,)
    return _tree_word(tree[0]) + _tree_word(tree[1])


def build_kac_moody_borel(cartan, cap: int,
                          symmetrizers=None) -> LieBialgebraData:
    """Assembled bialgebra data of the truncated extended Borel."""
    if len(cartan) > 3 or cap > 4:
        raise ValueError("size guard: rank <= 3 and height cap <= 4")
    return KacMoodyBorel(cartan, cap, symmetrizers).bialgebra()


def validate_bialgebra_windowed(a: LieBialgebraData, cap: int) -> list[str]:
    """Bialgebra axioms restricted to instances whose total weight stays
    inside the height window (truncated brackets cannot contaminate them)."""
    return validate_bialgebra(a, max_weight=cap)
