"""Small builders shared across test modules."""

import itertools
from importlib import resources
from math import gcd

from posetlim import derived
from posetlim import intlinalg as la
from posetlim.abgroup import (
    AbHom,
    Subgroup,
    compose,
    cyclic_group,
    direct_sum,
    free_group,
    group_from_invariants,
    identity_hom,
    quotient,
    subquotient,
    zero_hom,
)
from posetlim.diagram import (
    NatTransformation,
    coker_at,
    constant_diagram,
    direct_sum_diagrams,
    im_at,
    ker_at,
    representable_diagram,
    skyscraper_diagram,
    validate_functor,
)
from posetlim.errors import DiamondError, MismatchError, NotNaturalError, PosetlimError
from posetlim.jsonio import parse_diagram
from posetlim.poset import Chain, chains_up_to, validate_graded


def boolean_lattice(n):
    """The subsets of {0, .., n-1} by inclusion, graded by size."""
    name = {s: "s" + "".join(map(str, s)) for k in range(n + 1)
            for s in itertools.combinations(range(n), k)}
    covers = [(name[s], name[tuple(sorted(s + (x,)))]) for s in name
              for x in range(n) if x not in s]
    return validate_graded([(name[s], len(s)) for s in name], covers)


def grid(w, h):
    """The product of a w-chain and an h-chain."""
    covers = ([(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(w - 1) for j in range(h)]
              + [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(w) for j in range(h - 1)])
    return validate_graded([(f"g{i}_{j}", i + j) for i in range(w) for j in range(h)], covers)


SHAPES = {"bool2": (boolean_lattice, 2), "grid2x3": (grid, 2, 3), "bool3": (boolean_lattice, 3),
          "grid3x3": (grid, 3, 3), "bool4": (boolean_lattice, 4), "grid4x4": (grid, 4, 4),
          "bool5": (boolean_lattice, 5), "grid5x5": (grid, 5, 5)}


def shape(name):
    """One of the eight cones of SHAPES, each with a least element."""
    build, *args = SHAPES[name]
    return build(*args)


def crown_tower(levels):
    """Two objects per degree 0..levels-1, each below both objects of
    the next degree: no greatest or least element, and 3^levels - 1
    chains (the octahedron is crown_tower(3))."""
    ids = [[f"c{d}a", f"c{d}b"] for d in range(levels)]
    return validate_graded([(i, d) for d, lv in enumerate(ids) for i in lv],
                           [(x, y) for lo, hi in zip(ids, ids[1:]) for x in lo for y in hi])


def pushout_poset():
    return validate_graded(
        [("a", 0), ("b", 1), ("c", 1)], [("a", "b"), ("a", "c")])


def intro_pushout():
    """Z <-x2- Z -x2-> Z over the pushout poset."""
    P = pushout_poset()
    Z = free_group(1)
    two = AbHom(Z, Z, [[2]])
    return validate_functor(
        P, {"a": Z, "b": Z, "c": Z},
        {("a", "b"): two, ("a", "c"): two})


def pullback_poset():
    return validate_graded(
        [("b", 0), ("c", 0), ("a", 1)], [("b", "a"), ("c", "a")])


def times_two_pullback():
    """Z -x2-> Z <-x2- Z over the pullback poset."""
    P = pullback_poset()
    Z = free_group(1)
    two = AbHom(Z, Z, [[2]])
    return validate_functor(
        P, {i: Z for i in P.ids},
        {("b", "a"): two, ("c", "a"): two})



def bundled_diagrams():
    """(poset, diagram) of each of the nine documents shipped in the package."""
    docs = sorted(p for p in resources.files("posetlim").joinpath("data").iterdir()
                  if p.name.endswith(".json"))
    assert len(docs) == 9
    return [parse_diagram(path.read_text()) for path in docs]


def z2_square():
    """Z/2 on a square whose two paths differ by 2 (1 and 3)."""
    P = validate_graded([("a", 0), ("b", 1), ("c", 1), ("d", 2)],
                        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    T = cyclic_group(2)
    return validate_functor(
        P, {i: T for i in P.ids},
        {("a", "b"): AbHom(T, T, [[1]]), ("a", "c"): AbHom(T, T, [[1]]),
         ("b", "d"): AbHom(T, T, [[1]]), ("c", "d"): AbHom(T, T, [[3]])})

def random_torsion_sum_diagram(rng, P, parts_range=(2, 5)):
    """Sum of standard diagrams with random parameters; functorial by
    construction over any poset, with plenty of torsion."""
    parts = []
    for _ in range(rng.randrange(*parts_range)):
        kind = rng.choice(["representable", "skyscraper", "constant"])
        at = rng.choice(P.ids)
        if kind == "representable":
            parts.append(representable_diagram(P, at))
        elif kind == "skyscraper":
            parts.append(skyscraper_diagram(P, at, cyclic_group(rng.choice([2, 3, 4]))))
        else:
            parts.append(constant_diagram(P, cyclic_group(rng.choice([2, 4, 6]))))
    return direct_sum_diagrams(parts)


def _random_group(rng):
    free = rng.randrange(0, 3)
    factors = []
    d = rng.choice([2, 3, 4, 6, 0, 0])
    if d:
        factors.append(d)
    return group_from_invariants(free, factors)


def _random_hom(rng, A, B):
    for _ in range(25):
        M = la.intmat([[rng.randrange(-2, 3) for _ in range(A.ambient_rank)]
                       for _ in range(B.ambient_rank)])
        try:
            return AbHom(A, B, M)
        except (PosetlimError, ValueError):
            continue
    return zero_hom(A, B)


def random_mixed_diagram(rng, P):
    """A sum of one or two representables (so projective) with
    probability 0.35, else small random groups joined by random homs;
    any cover maps make a functor on a poset without commuting squares,
    such as a pushout or a chain."""
    if rng.random() < 0.35:
        parts = [representable_diagram(P, rng.choice(P.ids))
                 for _ in range(rng.randrange(1, 3))]
        return direct_sum_diagrams(parts)
    groups = {i: _random_group(rng) for i in P.ids}
    maps = {c: _random_hom(rng, groups[c[0]], groups[c[1]]) for c in P.covers}
    return validate_functor(P, groups, maps)


def random_forest_poset(rng, max_objects=7):
    """Each new object either starts a new root or covers an existing
    object; single parents mean no diamonds ever."""
    n = rng.randrange(1, max_objects + 1)
    objects = [("v0", 0)]
    covers = []
    degrees = {"v0": 0}
    for k in range(1, n):
        ident = f"v{k}"
        if rng.random() < 0.25:
            degrees[ident] = 0
            objects.append((ident, 0))
        else:
            parent = rng.choice(sorted(degrees))
            degrees[ident] = degrees[parent] + 1
            objects.append((ident, degrees[ident]))
            covers.append((parent, ident))
    return validate_graded(objects, covers)


def random_free_forest_diagram(rng, P, max_rank=3, max_entry=3):
    """Free groups with arbitrary integer matrices on a forest; unique
    paths make any choice functorial."""
    ranks = {i: rng.randrange(0, max_rank + 1) for i in P.ids}
    groups = {i: free_group(ranks[i]) for i in P.ids}
    maps = {}
    for a, b in P.covers:
        mat = [[rng.randrange(-max_entry, max_entry + 1)
                for _ in range(ranks[a])] for _ in range(ranks[b])]
        maps[(a, b)] = AbHom(groups[a], groups[b], mat)
    return validate_functor(P, groups, maps)


# ------------------------------------------------ the unnormalized nerve

def per_degree_walk(P, n, weak=False):
    """The n-chains, or the weak ones (a vertex may repeat) when weak,
    from a depth-first walk of their own, every shorter prefix walked
    again: the reference for poset.chains_up_to's one walk, and the
    cells of the unnormalized nerve."""
    out = []

    def extend(prefix):
        if len(prefix) == n + 1:
            out.append(tuple(prefix))
            return
        last = prefix[-1]
        for nxt in [last] + P.strictly_above[last] if weak else P.strictly_above[last]:
            extend(prefix + [nxt])

    for start in P.ids:
        extend([start])
    return out


def unnormalized_complex(F, kind, top):
    """The chain ("chain") or cochain ("cochain") complex of F on the weak
    chains of degree 0..top, from the library's face rule and assembler.
    Weak chains exist in every degree, so homology_at is right on it in
    degrees below top only."""
    blocks = {n: [Chain(c) for c in per_degree_walk(F.poset, n, weak=True)]
              for n in range(top + 1)}
    return derived._complex(F, kind, blocks, lambda c: derived._faces(F, kind, c))


# ------------------------------------------------ the eager Morse matching
# reduce_complex as it was before the matching was decided group by
# group: every chain listed, then paired by the sequential element
# matching over the whole list.  The lazy matching must give the same
# critical chains, the same pairs and equal differentials.

def element_matching(P, kind, cells, ends):
    """Sequential element matching inside each group, as a dict sending
    each matched cell to its partner.  ends = (h, f) fixes the first h and
    the last f vertices of every cell (each 0 or 1, not both 0): a cell is
    head + tail + foot, the group is (head, foot), and the elements tried
    are those of the open interval the head and foot bound.  They are
    tried in order of internal degree, descending for chains and
    ascending for cochains (ties by id), so a greatest (least) element of
    the interval pairs off every tail."""
    chain = kind == "chain"
    deg = P.degree
    h, f = ends
    tails = {}
    for c in cells:
        cut = len(c) - f
        tails.setdefault((c[:h], c[cut:]), set()).add(c[h:cut])
    partner = {}
    for (head, foot), free in tails.items():
        if not head:
            inside = P.strictly_below[foot[0]]
        elif not foot:
            inside = P.strictly_above[head[0]]
        else:
            below = set(P.strictly_below[foot[0]])
            inside = [x for x in P.strictly_above[head[0]] if x in below]
        for x in sorted(inside, key=lambda y: (-deg[y] if chain else deg[y], y)):
            if not free:
                break
            pairs = []
            for t in free:
                if x in t:
                    continue
                # tails ascend in degree, so x has one possible place
                k = sum(1 for y in t if deg[y] < deg[x])
                up = t[:k] + (x,) + t[k:]
                if up in free:
                    pairs.append((t, up))
            for t, up in pairs:
                free.discard(t)
                free.discard(up)
                lo, hi = head + t + foot, head + up + foot
                partner[lo] = hi
                partner[hi] = lo
    return partner


def eager_reduce_complex(F, kind, matching="carrier"):
    """The Morse complex of reduce_complex from the whole chain list and
    element_matching."""
    P = F.poset
    cells = [c.vertices for chains in chains_up_to(P, P.length) for c in chains]
    ends = (1, 1) if matching == "ends" else (1, 0) if kind == "chain" else (0, 1)
    partner = element_matching(P, kind, cells, ends)
    critical = [c for c in cells if c not in partner]
    return derived._morse_complex(F, kind, critical, P.length, partner.get,
                                  pairs=lambda: partner)


# ------------------------------------------------ all-pairs functor check

def all_pairs_composites(poset, groups, maps):
    """(composites, paths) of a functor given by its values and cover
    maps, composed along every first cover of p below q for every pair
    p < q and all compared: DiamondError at the first pair, by degree
    gap, whose first covers disagree.  validate_functor compares fewer
    composites and must agree with this."""
    composites = {(i, i): identity_hom(groups[i]) for i in poset.ids}
    paths = {(i, i): (i,) for i in poset.ids}
    pairs = sorted(
        ((p, q) for p in poset.ids for q in poset.strictly_above[p]),
        key=lambda pq: (poset.degree[pq[1]] - poset.degree[pq[0]], pq))
    for p, q in pairs:
        chosen = None
        for x in poset.covers_out[p]:
            if not poset.leq(x, q):
                continue
            comp = compose(composites[(x, q)], maps[(p, x)])
            path = (p,) + paths[(x, q)]
            if chosen is None:
                chosen = (comp, path)
            elif not chosen[0].equal(comp):
                raise DiamondError(
                    f"paths {chosen[1]} and {path} compose to different homs",
                    path_a=chosen[1], path_b=path,
                    matrix_a=chosen[0].matrix, matrix_b=comp.matrix)
        composites[(p, q)] = chosen[0]
        paths[(p, q)] = chosen[1]
    return composites, paths


# ------------------------------------------------ diagram constructions
# Cross-checks and constructions from the paper that only the tests use.

def im_at_all_arrows(F, i0):
    """Same subgroup computed from every non-identity arrow into i0;
    kept as an independent cross-check of the cover reduction."""
    blocks = [F.hom(j, i0).matrix for j in F.poset.strictly_below[i0]]
    rank = F.groups[i0].ambient_rank
    gens = la.hstack(blocks) if blocks else la.zeros(rank, 0)
    return Subgroup(F.groups[i0], gens)


def coim_at(F, i0):
    """F(i0) modulo the joint kernel at i0."""
    Q, _ = quotient(F.groups[i0], ker_at(F, i0))
    return Q


def coker_functor(F):
    """(Coker diagram, sigma).

    The cokernel diagram carries F(i)/Im at each object and zero on
    every non-identity arrow; sigma is the objectwise projection, which
    is natural because each cover map lands inside the image subgroup.
    """
    parts = {i: coker_at(F, i) for i in F.poset.ids}
    groups = {i: parts[i][0] for i in F.poset.ids}
    maps = {c: zero_hom(groups[c[0]], groups[c[1]]) for c in F.poset.covers}
    C = validate_functor(F.poset, groups, maps)
    sigma = NatTransformation(F, C, {i: parts[i][1] for i in F.poset.ids})
    return C, sigma


def coker_prime_functor(F):
    """(Coker' diagram, pi).

    Coker'(i0) sums Coker values over every arrow into i0, identity
    included; in a poset arrows are determined by their source, so
    summands are keyed by source id in sorted order.  Transition maps
    re-index summands along composition (the key is preserved), and pi
    projects onto the identity-arrow summand.
    """
    C, _ = coker_functor(F)
    keys = {i: sorted(F.poset.strictly_below[i] + [i]) for i in F.poset.ids}
    sums = {i: direct_sum([C.groups[k] for k in keys[i]]) for i in F.poset.ids}
    groups = {i: sums[i].group for i in F.poset.ids}
    maps = {}
    for a, b in F.poset.covers:
        M = la.from_blocks(
            groups[b].ambient_rank, groups[a].ambient_rank,
            [(sums[b].offsets[keys[b].index(k)], sums[a].offsets[pos_a], 1,
              la.eye(C.groups[k].ambient_rank)) for pos_a, k in enumerate(keys[a])])
        maps[(a, b)] = AbHom(groups[a], groups[b], M, check=False)
    Cp = validate_functor(F.poset, groups, maps)
    pi = {}
    for i in F.poset.ids:
        r = C.groups[i].ambient_rank
        M = la.from_blocks(r, groups[i].ambient_rank,
                           [(0, sums[i].offsets[keys[i].index(i)], 1, la.eye(r))])
        pi[i] = AbHom(groups[i], C.groups[i], M, check=False)
    return Cp, NatTransformation(Cp, C, pi)


def check_adjunction_instance(F, i0, A, h):
    """Turn h: Coker(i0) -> A into the transformation F => skyscraper
    and verify the bijection both ways.

    Forward: the component at i0 is h after the projection, zero
    elsewhere; naturality is checked.  Backward: the built
    transformation's i0 component kills the image subgroup, so its
    matrix is well defined on the cokernel, and recovering h that way
    must give back the hom we started from.
    """
    Q, proj = coker_at(F, i0)
    if not h.source.same_presentation(Q):
        raise MismatchError("hom source is not the cokernel at i0")
    sky = skyscraper_diagram(F.poset, i0, A)
    comps = {}
    for i in F.poset.ids:
        if i == i0:
            comps[i] = AbHom(F.groups[i0], A, h.matrix @ proj.matrix, check=False)
        else:
            comps[i] = zero_hom(F.groups[i], sky.groups[i])
    eta = NatTransformation(F, sky, comps)
    back = transformation_to_hom(F, i0, eta)
    assert back.equal(h), "adjunction round trip must return the same hom"
    return eta


def transformation_to_hom(F, i0, eta):
    """The hom Coker(i0) -> A induced by a transformation into the
    skyscraper at i0.

    The i0 component must kill the image subgroup at i0 (this is what
    naturality into a skyscraper forces); the same matrix then descends
    to the cokernel.
    """
    Q, _ = coker_at(F, i0)
    A = eta.target.groups[i0]
    comp = eta.component(i0)
    for col in (comp.matrix @ im_at(F, i0).generators).cols:
        if not A.element_is_zero(col):
            raise NotNaturalError(
                "component at the skyscraper object does not kill the image subgroup")
    return AbHom(Q, A, comp.matrix)



# ------------------------------------------------ exact determinant

def det(M):
    """Exact determinant by fraction-free Bareiss elimination."""
    n, n2 = M.shape
    if n != n2:
        raise ValueError("square matrix required")
    if n == 0:
        return 1
    a = M.tolist()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ------------------------------------------------ dense intlinalg reference
# A copy of the dense row-sweep echelon that intlinalg used before its
# columns became sparse, kept so tests can require the sparse core to
# return the same matrices entry for entry.  It works on plain lists and
# returns (shape, rows) pairs, so it shares no code with IntMatrix; its
# inputs are read once through .shape and .tolist().

def _dense_xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _dense_axpy(target, source, c):
    for i in range(len(target)):
        target[i] += c * source[i]


def dense_echelon_cols(cols, m, track):
    """Dense column echelon form: (pivots, live, tcols), as intlinalg's."""
    n = len(cols)
    tcols = [[1 if i == j else 0 for i in range(n)] for j in range(n)] if track else None
    live = list(range(n))
    pivots = []
    for r in range(m):
        active = [j for j in live if cols[j][r] != 0]
        if not active:
            continue
        piv = active[0]
        for j in active[1:]:
            a, b = cols[piv][r], cols[j][r]
            if b % a == 0:
                q = b // a
                _dense_axpy(cols[j], cols[piv], -q)
                if track:
                    _dense_axpy(tcols[j], tcols[piv], -q)
                continue
            g, s, t = _dense_xgcd(a, b)
            u, v = a // g, b // g
            cols[piv], cols[j] = (
                [s * p + t * q_ for p, q_ in zip(cols[piv], cols[j])],
                [-v * p + u * q_ for p, q_ in zip(cols[piv], cols[j])],
            )
            if track:
                tcols[piv], tcols[j] = (
                    [s * p + t * q_ for p, q_ in zip(tcols[piv], tcols[j])],
                    [-v * p + u * q_ for p, q_ in zip(tcols[piv], tcols[j])],
                )
        if cols[piv][r] < 0:
            cols[piv] = [-x for x in cols[piv]]
            if track:
                tcols[piv] = [-x for x in tcols[piv]]
        pivots.append((r, piv))
        live.remove(piv)
    return pivots, live, tcols


def dense_matmul(a, b, width):
    """Product of two lists of rows, the second one width columns wide."""
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(width)]
            for row in a]


def _dense_cols(M):
    rows = M.tolist()
    m, n = M.shape
    return [[rows[i][j] for i in range(m)] for j in range(n)]


def _dense_mat(cols, m):
    """(shape, rows) of the m-row matrix with these columns."""
    return (m, len(cols)), [[col[i] for col in cols] for i in range(m)]


def dense_lattice_basis(M):
    m = M.shape[0]
    cols = _dense_cols(M)
    pivots, _, _ = dense_echelon_cols(cols, m, track=False)
    return _dense_mat([cols[j] for _, j in pivots], m)


def dense_kernel(M):
    m, n = M.shape
    cols = _dense_cols(M)
    _, live, tcols = dense_echelon_cols(cols, m, track=True)
    return _dense_mat([tcols[j] for j in live], n)


def dense_solve(M, X):
    m, n = M.shape
    cols = _dense_cols(M)
    pivots, _, tcols = dense_echelon_cols(cols, m, track=True)
    pivots = [(r, cols[j], tcols[j]) for r, j in pivots]
    ycols = []
    for resid in _dense_cols(X):
        y = [0] * n
        for r, col, tcol in pivots:
            if resid[r] == 0:
                continue
            if resid[r] % col[r]:
                return None
            c = resid[r] // col[r]
            for i in range(r, m):
                resid[i] -= c * col[i]
            for i in range(n):
                y[i] += c * tcol[i]
        if any(resid):
            return None
        ycols.append(y)
    return _dense_mat(ycols, n)


def dense_residue(M, x):
    m = M.shape[0]
    cols = _dense_cols(M)
    pivots, _, _ = dense_echelon_cols(cols, m, track=False)
    y = [int(v) for v in x]
    for r, j in pivots:
        col = cols[j]
        if y[r] == 0:
            continue
        q = y[r] // col[r]
        if q:
            for i in range(r, m):
                y[i] -= q * col[i]
    return y


def dense_diagonal_of_snf(M):
    m = M.shape[0]
    cols = _dense_cols(M)
    while True:
        pivots, _, _ = dense_echelon_cols(cols, m, track=False)
        cols = [cols[j] for _, j in pivots]
        diag = [col[r] for (r, _), col in zip(pivots, cols)]
        if all(d == 1 for d in diag):
            return diag
        if all(sum(1 for x in col if x) == 1 for col in cols):
            break
        m = len(cols)
        cols = [list(row) for row in zip(*cols) if any(row)]
    for a in range(len(diag)):
        for b in range(a + 1, len(diag)):
            g = gcd(diag[a], diag[b])
            diag[a], diag[b] = g, diag[a] // g * diag[b]
    return diag


# ------------------------------------------------ full routes on zero input
# The lattice routines as they were before a matrix with no nonzero
# entry took a short cut: every input runs the full echelon.  The
# short cuts must give the same shape and the same columns.

def full_lattice_basis(M):
    basis = la._basis_cols(la._own_cols(M))
    return la.IntMatrix((M.shape[0], len(basis)), basis)


def full_span_pivots(M):
    """SpanChecker(M).pivots from a tracked echelon."""
    cols = la._own_cols(M)
    pivots, _, tcols = la._echelon_cols(cols, track=True)
    return [(r, cols[j], tcols[j]) for r, j in pivots]


def full_diagonal_of_snf(M):
    return la._smith(la._own_cols(M), M.shape[0], track=False)[0]


def full_preimage_lattice(A, L):
    g = A.shape[1]
    K = la._kernel_cols(la._difference_cols(A, L))
    basis = la._basis_cols([{i: x for i, x in k.items() if i < g} for k in K])
    return la.IntMatrix((g, len(basis)), basis)


# ------------------------------------------------ spectral page references
# The cycle lattices and pages as the spectral module first computed
# them: one lattice preimage and one intersection per key, and every
# page from its own subquotients.  They share no code with
# FilteredComplex beyond its levels and its base complex.

def reference_lambda(X, n, s):
    """Coordinate columns of the blocks of C_n at level <= s, joined with
    the relations of C_n; no clamping, so any integer s works."""
    group = X.base.group_at(n)
    blocks, at = [], 0
    if 0 <= n <= X.base.top:
        for j, (lv, G) in enumerate(zip(X._levels[n], X.base.sums[n].summands)):
            if lv <= s:
                blocks.append((X.base.block_offset(n, j), at, 1, la.eye(G.ambient_rank)))
                at += G.ambient_rank
    blocks.append((0, at, 1, group.relations))
    return la.from_blocks(group.ambient_rank, at + group.relations.shape[1], blocks)


def reference_cycles(X, n, s, star):
    """Z(n, s, star): level-<= s elements of C_n whose differential lies
    at level <= star, both modulo relations, as the preimage of the
    target's level-<= star lattice intersected with the level-<= s one."""
    if not 0 <= n <= X.base.top:
        return la.zeros(0, 0)
    d = X.base.d_from(n)
    pre = la.preimage_lattice(d.matrix, reference_lambda(X, n + X.step, star))
    return la.intersect_lattices(reference_lambda(X, n, s), pre)


def same_lattice(A, B):
    """Mutual containment of two column spans in one ambient space."""
    return (A.shape[0] == B.shape[0] and la.SpanChecker(A).contains_all(B)
            and la.SpanChecker(B).contains_all(A))


def reference_page_entries(X, r):
    """Page r's entries, keyed (level, degree), each the subquotient of
    reference cycles reaching r levels down by those one level deeper and
    the boundaries arriving from r - 1 levels up."""
    out = {}
    for n in range(X.base.top + 1):
        d_in = X.base.d_into(n)
        for s in range(X.span + 1):
            Z = reference_cycles(X, n, s, s - r)
            deeper = reference_cycles(X, n, s - 1, s - r)
            arriving = d_in.matrix @ reference_cycles(X, n - X.step, s + r - 1, s)
            out[(s, n)] = subquotient(Z, la.hstack([deeper, arriving]), f"level {s}, degree {n}")
    return out
