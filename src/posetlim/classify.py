"""Projectivity and injectivity of diagrams, with witnesses.

The pseudo-conditions quantify over families of fixed-degree arrows:
pseudo-projective at (i0, d) means every relation among degree-d
arrows into i0 already lives in the image subgroups; dually for
pseudo-injective.  Projectivity is equivalent to free cokernels plus
pseudo-projectivity, and that equivalence is also checkable directly
through a lifting solver that walks objects in degree order, and on
pushouts and chains through closed-form criteria of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intlinalg as la
from .abgroup import (
    AbHom,
    Subgroup,
    compose,
    direct_sum,
    hom_is_epi,
    hom_is_mono,
    identity_hom,
    kernel,
    trivial_group,
    zero_hom,
)
from .derived import AcyclicityResult, is_acyclic
from .diagram import (
    Diagram,
    NatTransformation,
    constant_diagram,
    coker_at,
    diagrams_equal,
    direct_sum_diagrams,
    im_at,
    ker_at,
    representable_diagram,
)
from .errors import OracleViolation


@dataclass(frozen=True)
class PseudoWitness:
    """A failing family element: ambient components labelled by object.

    For the projective side, outside lists the summands whose component
    escapes its image subgroup; the injective side reports the whole
    tuple as unliftable and leaves outside empty.
    """
    i0: str
    d: int
    components: tuple
    outside: tuple = ()


@dataclass(frozen=True)
class PseudoVerdict:
    ok: bool
    witness: PseudoWitness = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class ConditionVerdict:
    ok: bool
    reason: str = None

    def __bool__(self):
        return self.ok


def _degree_d_sources(P, i0, d):
    return sorted(i for i in P.strictly_below[i0]
                  if P.degree[i0] - P.degree[i] == d)


def _degree_d_targets(P, i0, d):
    return sorted(i for i in P.strictly_above[i0]
                  if P.degree[i] - P.degree[i0] == d)


def _split_by_offsets(vec, ids, ds):
    """vec cut into its components, one (id, element) per summand of ds."""
    return tuple((i, vec[off:off + G.ambient_rank])
                 for i, G, off in zip(ids, ds.summands, ds.offsets))


def _placed(ds, mats):
    """Each mats[k] moved to the rows of summand k, side by side."""
    N = ds.group.ambient_rank
    return la.hstack([la.from_blocks(N, M.shape[1], [(off, 0, 1, M)])
                      for off, M in zip(ds.offsets, mats)])


def is_pseudo_projective_at(F: Diagram, i0: str, d: int):
    """PseudoVerdict for the full family of degree-d arrows into i0.

    The verdict for the full family implies it for every sub-family:
    a sub-family relation extends by zero components and zero lies in
    every image subgroup.
    """
    if d < 1:
        raise ValueError("d-pseudo conditions start at d = 1")
    F.poset._check_id(i0)
    sources = _degree_d_sources(F.poset, i0, d)
    if not sources:
        return PseudoVerdict(True)
    ds = direct_sum([F.groups[i] for i in sources])
    phi = la.hstack([F.hom(i, i0).matrix for i in sources])
    K = la.preimage_lattice(phi, F.groups[i0].relations)
    im_subs = {i: im_at(F, i) for i in sources}
    target = Subgroup(ds.group, _placed(ds, [im_subs[i].generators for i in sources]))
    ok, bad = target.contains_subgroup(Subgroup(ds.group, K))
    if ok:
        return PseudoVerdict(True)
    comps = _split_by_offsets(bad, sources, ds)
    outside = tuple(i for (i, comp) in comps
                    if not im_subs[i].contains_element(comp))
    return PseudoVerdict(False, PseudoWitness(i0, d, comps, outside))


def _pairs(P):
    """Every (object, 1 <= d <= dimension), d outermost: the order in which
    the verdicts are computed and the first failure is picked."""
    return [(i0, d) for d in range(1, P.dimension + 1) for i0 in P.ids]


def _first_failure(verdicts) -> PseudoVerdict:
    """The first failing verdict, looking no further; else a passing one."""
    return next((v for v in verdicts if not v), PseudoVerdict(True))


def is_pseudo_projective(F: Diagram) -> PseudoVerdict:
    """Conjunction over every object and every 1 <= d <= dimension;
    d = 0 always holds (the identity is a monomorphism)."""
    return _first_failure(is_pseudo_projective_at(F, i0, d) for i0, d in _pairs(F.poset))


def is_pseudo_injective_at(F: Diagram, i0: str, d: int):
    """PseudoVerdict for the full family of degree-d arrows out of i0:
    every tuple of joint-kernel elements must lift through F(i0)."""
    if d < 1:
        raise ValueError("d-pseudo conditions start at d = 1")
    F.poset._check_id(i0)
    targets = _degree_d_targets(F.poset, i0, d)
    if not targets:
        return PseudoVerdict(True)
    sums = direct_sum([F.groups[t] for t in targets])
    psi = la.from_blocks(sums.group.ambient_rank, F.groups[i0].ambient_rank,
                         [(off, 0, 1, F.hom(i0, t).matrix)
                          for off, t in zip(sums.offsets, targets)])
    kernels = _placed(sums, [ker_at(F, t).generators for t in targets])
    image = Subgroup(sums.group, psi)
    ok, bad = image.contains_subgroup(Subgroup(sums.group, kernels))
    if ok:
        return PseudoVerdict(True)
    comps = _split_by_offsets(bad, targets, sums)
    return PseudoVerdict(False, PseudoWitness(i0, d, comps))


def is_pseudo_injective(F: Diagram) -> PseudoVerdict:
    return _first_failure(is_pseudo_injective_at(F, i0, d) for i0, d in _pairs(F.poset))


def _condition_verdict(side: str, groups, pseudo) -> ConditionVerdict:
    """groups yields (id, cokernel) for the projective side and (id, joint
    kernel) for the injective side, in poset order; the first that fails
    decides, else pseudo() (called only then) does."""
    for i0, G in groups:
        if side == "projective" and not G.is_free:
            return ConditionVerdict(False, f"cokernel at {i0!r} is {G.describe()}, not free")
        # a finitely generated group is injective (divisible) only when trivial
        if side == "injective" and not G.is_trivial:
            return ConditionVerdict(
                False, f"kernel at {i0!r} is {G.describe()}, not injective as a group")
    v = pseudo()
    if not v:
        return ConditionVerdict(False, f"not pseudo-{side} at ({v.witness.i0!r}, d={v.witness.d})")
    return ConditionVerdict(True)


def is_projective(F: Diagram) -> ConditionVerdict:
    """Free cokernels at every object plus pseudo-projectivity."""
    return _condition_verdict("projective", ((i, coker_at(F, i)[0]) for i in F.poset.ids),
                              lambda: is_pseudo_projective(F))


def is_injective(F: Diagram) -> ConditionVerdict:
    """Joint kernels injective as groups (trivial, for finitely
    generated coefficients) plus pseudo-injectivity."""
    return _condition_verdict("injective", ((i, ker_at(F, i).as_group[0]) for i in F.poset.ids),
                              lambda: is_pseudo_injective(F))


@dataclass(frozen=True)
class TheoremOracleVerdict:
    pseudo_projective: bool
    colim_acyclic: bool
    pseudo_injective: bool
    lim_acyclic: bool
    consistent: bool = True


def oracle_theorem_b(F: Diagram) -> TheoremOracleVerdict:
    """Assert the two guaranteed implications: pseudo-projective forces
    colim-acyclic and pseudo-injective forces lim-acyclic.  A violation
    is an implementation bug, never a property of the input."""
    pp = bool(is_pseudo_projective(F))
    ca = is_acyclic(F, "colim")
    pi = bool(is_pseudo_injective(F))
    lim_a = is_acyclic(F, "lim")
    if pp and not ca:
        raise OracleViolation(
            f"pseudo-projective but colim_{ca.degree} = {ca.group.describe()}")
    if pi and not lim_a:
        raise OracleViolation(
            f"pseudo-injective but lim^{lim_a.degree} = {lim_a.group.describe()}")
    return TheoremOracleVerdict(pp, bool(ca), pi, bool(lim_a))


@dataclass
class ClassificationReport:
    cokernels: dict
    kernels: dict
    pseudo_projective_at: dict
    pseudo_injective_at: dict
    pseudo_projective: PseudoVerdict
    pseudo_injective: PseudoVerdict
    projective: ConditionVerdict
    injective: ConditionVerdict
    colim_acyclic: AcyclicityResult
    lim_acyclic: AcyclicityResult
    consistency: dict = field(default_factory=dict)


def classify_diagram(F: Diagram) -> ClassificationReport:
    """Everything at once: per-object structure, per-(object, d)
    verdicts, the four global verdicts, acyclicity, and the theorem
    implications as consistency flags."""
    cokernels = {i: coker_at(F, i)[0] for i in F.poset.ids}
    kernels = {i: ker_at(F, i).as_group[0] for i in F.poset.ids}
    pairs = _pairs(F.poset)
    pp_at = {(i0, d): is_pseudo_projective_at(F, i0, d) for i0, d in pairs}
    pi_at = {(i0, d): is_pseudo_injective_at(F, i0, d) for i0, d in pairs}
    pp = _first_failure(pp_at.values())
    pi = _first_failure(pi_at.values())
    # is_projective/is_injective, from the groups and verdicts at hand
    proj = _condition_verdict("projective", cokernels.items(), lambda: pp)
    inj = _condition_verdict("injective", kernels.items(), lambda: pi)
    ca = is_acyclic(F, "colim")
    lim_a = is_acyclic(F, "lim")
    consistency = {
        "projective_implies_free_cokernels_and_pseudo_projective": (
            not proj.ok or (pp.ok and all(g.is_free for g in cokernels.values()))),
        "pseudo_projective_implies_colim_acyclic": (not pp.ok) or bool(ca),
        "pseudo_injective_implies_lim_acyclic": (not pi.ok) or bool(lim_a),
    }
    for name, holds in consistency.items():
        if not holds:
            raise OracleViolation(f"consistency check failed: {name}")
    return ClassificationReport(
        cokernels, kernels, pp_at, pi_at, pp, pi, proj, inj, ca, lim_a,
        consistency)


def free_cover(F: Diagram):
    """(A, counit): A sums one representable per ambient generator of
    each value, and the counit evaluates that generator.  The counit is
    epi at every object because the identity summands hit the whole
    ambient basis."""
    P = F.poset
    summands = []
    labels = []
    for i in P.ids:
        for t in range(F.groups[i].ambient_rank):
            summands.append(representable_diagram(P, i))
            labels.append((i, t))
    if not summands:
        A = constant_diagram(P, trivial_group())
        counit = NatTransformation(
            A, F, {j: zero_hom(A.groups[j], F.groups[j]) for j in P.ids})
        return A, counit
    A = direct_sum_diagrams(summands)
    comps = {}
    for j in P.ids:
        # summand (i, t) occupies one column at j exactly when i <= j,
        # in list order, matching the offsets the sum construction used
        cols = [F.hom(i, j).matrix.cols[t] for (i, t) in labels if P.leq(i, j)]
        E = la.IntMatrix((F.groups[j].ambient_rank, len(cols)), cols)
        comps[j] = AbHom(A.groups[j], F.groups[j], E, check=False)
    counit = NatTransformation(A, F, comps)
    return A, counit


def solve_lifting(pi: NatTransformation, sigma: NatTransformation):
    """A lift rho of sigma through the epi pi, or None.

    Objects are solved in increasing degree order; at each one the
    unknown matrix must commute with the already-fixed components over
    incoming covers, descend along the source relations, and project to
    sigma.  Any solution extends whenever the source satisfies the
    free-cokernel and pseudo-projectivity conditions, so a None from a
    diagram passing those checks signals a bug.
    """
    A = pi.source
    B = pi.target
    F = sigma.source
    if sigma.target is not B and not diagrams_equal(sigma.target, B):
        raise ValueError("the two transformations must share their target")
    P = F.poset
    for i in P.ids:
        if not hom_is_epi(pi.component(i)):
            raise ValueError(f"pi is not an epimorphism at {i!r}")
    order = sorted(P.ids, key=lambda i: (P.degree[i], i))
    rho = {}
    for i0 in order:
        R = _solve_component(A, F, pi, sigma, rho, i0)
        if R is None:
            return None
        rho[i0] = AbHom(F.groups[i0], A.groups[i0], R)
    out = NatTransformation(F, A, rho)
    for i in P.ids:
        if not compose(pi.component(i), out.component(i)).equal(sigma.component(i)):
            raise OracleViolation("solved lift does not project to sigma")
    return out


def _solve_component(A, F, pi, sigma, rho, i0):
    """One affine system: unknowns are the entries of R (column per
    ambient generator of F(i0)) plus relation coefficients that absorb
    the mod-relations slack of each constraint."""
    P = F.poset
    a = A.groups[i0].ambient_rank
    f = F.groups[i0].ambient_rank
    rel_a = A.groups[i0].relations
    rel_b = pi.target.groups[i0].relations
    b = pi.target.groups[i0].ambient_rank

    # constraints R @ v = w (mod rel_a), v and w as {row: value} columns
    pairs = []
    for p in P.covers_into[i0]:
        w_block = A.cover_maps[(p, i0)].matrix @ rho[p].matrix
        pairs += zip(F.cover_maps[(p, i0)].matrix.cols, w_block.cols)
    pairs += [(col, {}) for col in F.groups[i0].relations.cols]

    n_pairs = len(pairs)
    ra = rel_a.shape[1]
    rb = rel_b.shape[1]
    blocks = []
    rhs = []
    for c, (v, w) in enumerate(pairs):
        r0 = c * a
        blocks += [(r0, s * a, x, la.eye(a)) for s, x in v.items()]
        blocks.append((r0, a * f + c * ra, -1, rel_a))
        rhs.append((r0, 0, 1, la.IntMatrix((a, 1), [w])))
    proj = pi.component(i0).matrix
    sig = sigma.component(i0).matrix
    base = a * n_pairs
    for s in range(f):
        r0 = base + s * b
        blocks.append((r0, s * a, 1, proj))
        blocks.append((r0, a * f + ra * n_pairs + s * rb, -1, rel_b))
        rhs.append((r0, 0, 1, la.IntMatrix((b, 1), [sig.cols[s]])))
    rows = a * n_pairs + b * f
    M = la.from_blocks(rows, a * f + ra * n_pairs + rb * f, blocks)
    z = la.solve(M, la.from_blocks(rows, 1, rhs))
    if z is None:
        return None
    return la.intmat([[z[s * a + i, 0] for s in range(f)] for i in range(a)], (a, f))


def identity_transformation(F: Diagram) -> NatTransformation:
    return NatTransformation(
        F, F, {i: identity_hom(F.groups[i]) for i in F.poset.ids})


def projective_by_lifting(F: Diagram) -> bool:
    """Independent route to projectivity: a retraction of the free
    cover exists exactly for projective diagrams."""
    A, counit = free_cover(F)
    return solve_lifting(counit, identity_transformation(F)) is not None


def pushout_projectivity_criterion(F: Diagram) -> bool:
    """Independent test for the pushout shape: both legs mono, the
    source value free, both leg cokernels free."""
    f = F.cover_maps[("a", "b")]
    g = F.cover_maps[("a", "c")]
    return (F.groups["a"].is_free
            and coker_at(F, "b")[0].is_free
            and coker_at(F, "c")[0].is_free
            and hom_is_mono(f) and hom_is_mono(g))


def telescope_projectivity_criterion(P, F: Diagram) -> bool:
    """Independent test for chain-shaped posets: bottom value free,
    every cokernel free, and the kernel of every composite of
    consecutive arrows contained in the image of the arrow just below
    its source (trivial at the bottom, which makes the full composites
    monomorphisms)."""
    order = sorted(P.ids, key=lambda i: P.degree[i])
    if not F.groups[order[0]].is_free:
        return False
    steps = [F.cover_maps[(order[k], order[k + 1])]
             for k in range(len(order) - 1)]
    for i in range(1, len(order)):
        if not coker_at(F, order[i])[0].is_free:
            return False
        comp = steps[i - 1]
        for start in range(i - 1, -1, -1):
            # comp: F(order[start]) -> F(order[i])
            K = kernel(comp)[0]
            if start == 0:
                if not K.is_trivial:
                    return False
            else:
                below = steps[start - 1]
                ok, _ = Subgroup(below.target, below.matrix).contains_subgroup(K)
                if not ok:
                    return False
                comp = compose(comp, below)
    return True
