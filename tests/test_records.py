"""The library's records are named tuples with the reprs, checks, truth
values and sharing they had as frozen dataclasses; the strings below
were recorded from the dataclass versions."""

import pytest

from posetlim import classify, derived, poset, randgen, spectral
from posetlim.abgroup import direct_sum, free_group, group_from_invariants

from helpers import intro_pushout

REPRS = {
    "PosetObject": "PosetObject(id='a', degree=0)",
    "Chain": "Chain(vertices=('a', 'b'))",
    "DirectSum": ("DirectSum(group=FgAbGroup(2, rels=1: Z + Z/2), summands=[FgAbGroup(1, rels=0: Z), "
                  "FgAbGroup(1, rels=1: Z/2)], offsets=[0, 1])"),
    "ClassificationReport": (
        "ClassificationReport(cokernels={'a': FgAbGroup(1, rels=0: Z), 'b': FgAbGroup(1, rels=1: Z/2), "
        "'c': FgAbGroup(1, rels=1: Z/2)}, kernels={'a': FgAbGroup(0, rels=0: 0), "
        "'b': FgAbGroup(1, rels=0: Z), 'c': FgAbGroup(1, rels=0: Z)}, "
        "pseudo_projective=PseudoVerdict(ok=True, witness=None), "
        "pseudo_injective=PseudoVerdict(ok=False, witness=PseudoWitness(i0='a', d=1, "
        "components=(('b', (1,)), ('c', (0,))), outside=())), "
        "projective=ConditionVerdict(ok=False, reason=\"cokernel at 'b' is Z/2, not free\"), "
        "injective=ConditionVerdict(ok=False, reason=\"kernel at 'b' is Z, not injective as a group\"), "
        "colim_acyclic=AcyclicityResult(acyclic=True, degree=None, group=None), "
        "lim_acyclic=AcyclicityResult(acyclic=True, degree=None, group=None), "
        "consistency={'projective_implies_free_cokernels_and_pseudo_projective': True, "
        "'pseudo_projective_implies_colim_acyclic': True, "
        "'pseudo_injective_implies_lim_acyclic': True})"),
    "PseudoVerdict": "PseudoVerdict(ok=True, witness=None)",
    "PseudoWitness": "PseudoWitness(i0='b', d=1, components=(('a', (1, 0)),), outside=('a',))",
    "ConditionVerdict": "ConditionVerdict(ok=False, reason='why')",
    "AcyclicityResult": "AcyclicityResult(acyclic=False, degree=1, group=FgAbGroup(1, rels=1: Z/2))",
    "GenConfig": "GenConfig(seed=3, max_objects=6, max_degree_span=3, family='layered')",
    "Variant": "Variant(complex='chain', key='last', direction='increasing')",
    "SSPage": ("SSPage(r=1, type='homological', bidegree=(-1, 0), entries={(0, 0): "
               "FgAbGroup(1, rels=0: Z), (1, -1): FgAbGroup(3, rels=3: Z/2 + Z/2)}, "
               "differentials={(0, 0): AbHom(Z -> 0), (1, -1): AbHom(Z/2 + Z/2 -> 0)})"),
    "ConvergenceReport": (
        "ConvergenceReport(ok=True, variant=Variant(complex='chain', key='last', "
        "direction='increasing'), by_degree={0: DegreeComparison(rank_ss=1, rank_target=1, "
        "orders_compared=False, order_ss=None, order_target=None), 1: DegreeComparison("
        "rank_ss=0, rank_target=0, orders_compared=True, order_ss=1, order_target=1)})"),
    "DegreeComparison": ("DegreeComparison(rank_ss=1, rank_target=1, orders_compared=False, "
                         "order_ss=None, order_target=None)"),
}


def one_of_each():
    """{record type name: one instance}, the 13 record types of the library."""
    F = intro_pushout()
    P = F.poset
    v = spectral.Variant("chain", "last", "increasing")
    X = spectral.build_filtered(P, F, v)
    report = spectral.convergence_check(P, F, v)
    return {
        "PosetObject": P.objects[0],
        "Chain": poset.enumerate_chains(P, 1)[0],
        "DirectSum": direct_sum([free_group(1), group_from_invariants(0, [2])]),
        "ClassificationReport": classify.classify_diagram(F),
        "PseudoVerdict": classify.PseudoVerdict(True),
        "PseudoWitness": classify.PseudoWitness("b", 1, (("a", (1, 0)),), ("a",)),
        "ConditionVerdict": classify.ConditionVerdict(False, "why"),
        "AcyclicityResult": derived.AcyclicityResult(False, 1, group_from_invariants(0, [2])),
        "GenConfig": randgen.GenConfig(seed=3, family="layered"),
        "Variant": v,
        "SSPage": spectral.page(X, 1),
        "ConvergenceReport": report,
        "DegreeComparison": report.by_degree[0],
    }


def test_reprs_are_unchanged():
    got = {name: repr(record) for name, record in one_of_each().items()}
    assert got == REPRS


def test_records_are_immutable():
    for record in one_of_each().values():
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("build, message", [
    (lambda: spectral.Variant("chain", "middle", "increasing"),
     "no preset for ('chain', 'middle', 'increasing')"),
    (lambda: randgen.GenConfig(max_objects=0), "max_objects must be at least 1"),
    (lambda: randgen.GenConfig(max_degree_span=-1), "max_degree_span must be at least 0"),
    (lambda: randgen.GenConfig(family="tree"), "unknown poset family 'tree'"),
])
def test_checks_keep_their_messages(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message


def test_verdicts_are_true_exactly_when_they_pass():
    G = group_from_invariants(0, [2])
    witness = classify.PseudoWitness("a", 1, ())
    assert classify.PseudoVerdict(True) and not classify.PseudoVerdict(False, witness)
    assert classify.ConditionVerdict(True) and not classify.ConditionVerdict(False, "why")
    assert derived.AcyclicityResult(True) and not derived.AcyclicityResult(False, 1, G)


def test_late_pages_share_the_stable_page_dicts():
    F = intro_pushout()
    X = spectral.build_filtered(F.poset, F, spectral.Variant("chain", "last", "increasing"))
    stable, late = spectral.page(X, X.span + 1), spectral.page(X, X.span + 3)
    assert late.entries is stable.entries
    assert late.differentials is stable.differentials
    assert (late.r, stable.r) == (X.span + 3, X.span + 1)
