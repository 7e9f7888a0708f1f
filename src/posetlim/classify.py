"""Projectivity and injectivity of diagrams, with witnesses.

The pseudo-conditions quantify over families of fixed-degree arrows:
pseudo-projective at (i0, d) means every relation among degree-d
arrows into i0 already lives in the image subgroups; dually for
pseudo-injective.  Projectivity is equivalent to free cokernels plus
pseudo-projectivity; on pushouts and chains that equivalence is also
checkable through closed-form criteria of their own.  The lifting
solver that checks it on any diagram, walking objects in degree order,
is a test oracle (tests/helpers.py), not part of the library.
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType

from . import intlinalg as la
from .abgroup import Subgroup, compose, direct_sum, hom_is_mono, kernel
from .derived import AcyclicityResult, is_acyclic
from .diagram import Diagram, coker_at, im_at, ker_at
from .errors import OracleViolation


class PseudoWitness(namedtuple("PseudoWitness", "i0 d components outside", defaults=((),))):
    """A failing family element: ambient components labelled by object.

    For the projective side, outside lists the summands whose component
    escapes its image subgroup; the injective side reports the whole
    tuple as unliftable and leaves outside empty.
    """
    __slots__ = ()


class PseudoVerdict(namedtuple("PseudoVerdict", "ok witness", defaults=(None,))):
    __slots__ = ()

    def __bool__(self):
        return self.ok


class ConditionVerdict(namedtuple("ConditionVerdict", "ok reason", defaults=(None,))):
    __slots__ = ()

    def __bool__(self):
        return self.ok


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
    P = F.poset
    P._check_id(i0)
    sources = P.below_among(i0, P.layers.get(P.degree[i0] - d, ()))
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
    P = F.poset
    P._check_id(i0)
    targets = P.above_among(i0, P.layers.get(P.degree[i0] + d, ()))
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


# consistency defaults to one shared read-only empty mapping
ClassificationReport = namedtuple(
    "ClassificationReport",
    "cokernels kernels pseudo_projective pseudo_injective projective injective "
    "colim_acyclic lim_acyclic consistency", defaults=(MappingProxyType({}),))


def classify_diagram(F: Diagram) -> ClassificationReport:
    """Everything at once: per-object structure, the four global
    verdicts, acyclicity, and the theorem implications as consistency
    flags.  Each pseudo verdict stops at its first failing (object, d)."""
    cokernels = {i: coker_at(F, i)[0] for i in F.poset.ids}
    kernels = {i: ker_at(F, i).as_group[0] for i in F.poset.ids}
    pp = is_pseudo_projective(F)
    pi = is_pseudo_injective(F)
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
        cokernels, kernels, pp, pi, proj, inj, ca, lim_a, consistency)


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
        for start in range(i - 1, 0, -1):
            # comp: F(order[start]) -> F(order[i])
            below = steps[start - 1]
            ok, _ = Subgroup(below.target, below.matrix).contains_subgroup(kernel(comp))
            if not ok:
                return False
            comp = compose(comp, below)
        if not hom_is_mono(comp):
            return False
    return True
