import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from branchpde.mechanism import (
    Code,
    index_product,
    offspring_prob,
    offspring_set,
    sample_offspring,
    sample_offspring_indices,
)
from branchpde.multiindex import MultiIndex, mi_abs
from branchpde.tree import CodeTable
from oracles import dominating_offspring_set


def entry_count(c: Code, d: int) -> int:
    """|M(c)|: 1 for j=-1, else (d+1) prod(1+alpha_k)."""
    if c.j < 0:
        return 1
    return (d + 1) * index_product(c.alpha)


def dominating_offspring_prob(alpha: MultiIndex, entry, d: int) -> Fraction:
    """Offspring law of the dominating mechanism: the mass q_c of the entry
    of the original mechanism with the same kind and beta."""
    first, second = entry.children
    if entry.kind:
        entry = entry._replace(children=(first._replace(j=-1), second))
    return offspring_prob(Code(alpha, second.j - 1), entry, d)


def alphas_upto(total, d):
    return [a for a in product(range(total + 1), repeat=d) if mi_abs(a) <= total]


def test_pure_derivative_code_single_entry():
    c = Code((1,), -1)
    entries = offspring_set(c, 1)
    assert len(entries) == 1
    assert entries[0].weight == 1
    assert entries[0].children == (Code((1,), 0),)
    assert offspring_prob(c, entries[0], 1) == 1


def test_entry_count_matches_cardinality():
    assert len(offspring_set(Code((2,), 0), 1)) == 6  # (d+1) prod(1+alpha) = 2*3
    assert entry_count(Code((2,), 0), 1) == 6
    for d in (1, 2):
        for alpha in alphas_upto(3, d):
            c = Code(alpha, 2)
            assert len(offspring_set(c, d)) == (d + 1) * index_product(alpha)


def test_offspring_set_d2_expansion():
    # direct expansion at alpha = 0, j = 3, d = 2
    entries = offspring_set(Code((0, 0), 3), 2)
    assert len(entries) == 3
    kind0, kind1, kind2 = entries
    assert kind0.weight == 1
    assert kind0.children == (Code((0, 0), 0), Code((0, 0), 4))
    assert kind1.weight == Fraction(-1, 2)
    assert kind1.children == (Code((1, 0), -1), Code((1, 0), 4))
    assert kind2.weight == Fraction(-1, 2)
    assert kind2.children == (Code((0, 1), -1), Code((0, 1), 4))


def test_offspring_prob_values():
    c = Code((2,), 0)
    entries = offspring_set(c, 1)
    for e in entries:
        if e.kind == 0:
            assert offspring_prob(c, e, 1) == Fraction(1, 6)
    directional = [e for e in entries if e.kind == 1 and e.beta == (1,)]
    assert offspring_prob(c, directional[0], 1) == Fraction(1, 5)  # 6*2*2/(2*4*5*3)


def test_offspring_prob_rejects_foreign_entry():
    c = Code((2,), 0)
    other = offspring_set(Code((1,), 0), 1)[0]
    with pytest.raises(ValueError):
        offspring_prob(c, other, 1)


def test_normalization_exact():
    for d in (1, 2, 3):
        for alpha in alphas_upto(5 if d == 1 else 3, d):
            c = Code(alpha, 1)
            total = sum(offspring_prob(c, e, d) for e in offspring_set(c, d))
            assert total == 1


def test_directional_normalizer_closed_form():
    # sum over beta <= alpha of (1+beta_i)(1+alpha_i-beta_i)
    #   == (2+alpha_i)(3+alpha_i)/6 * prod(1+alpha_k), exact
    for d in (1, 2, 3):
        for alpha in alphas_upto(5 if d == 1 else 3, d):
            for i in range(1, d + 1):
                total = sum(
                    (1 + b[i - 1]) * (1 + alpha[i - 1] - b[i - 1])
                    for b in product(*(range(a + 1) for a in alpha))
                )
                closed = Fraction(
                    (2 + alpha[i - 1]) * (3 + alpha[i - 1]) * index_product(alpha), 6
                )
                assert total == closed


def test_weight_over_prob_closed_form():
    # |z1|/q equals (d+1) prod(1+alpha_k) for kind 0 and
    # (d+1)/12 (2+alpha_i)(3+alpha_i) prod(1+alpha_k) for kind i, exactly
    for d in (1, 2, 3):
        for alpha in alphas_upto(5 if d == 1 else 3, d):
            c = Code(alpha, 0)
            for e in offspring_set(c, d):
                ratio = abs(e.weight) / offspring_prob(c, e, d)
                if e.kind == 0:
                    assert ratio == (d + 1) * index_product(alpha)
                else:
                    ai = alpha[e.kind - 1]
                    assert ratio == Fraction(
                        (d + 1) * (2 + ai) * (3 + ai) * index_product(alpha), 12
                    )


def test_sample_offspring_inverse_cdf_layout():
    c = Code((0,), 0)  # masses: kind0 1/2, kind1 1/2
    assert sample_offspring(c, 1, 0.0).kind == 0
    assert sample_offspring(c, 1, 0.75).kind == 1
    unique = offspring_set(Code((3,), -1), 1)[0]
    assert sample_offspring(Code((3,), -1), 1, 0.9) == unique


def test_sample_offspring_matches_enumerated_cdf():
    # lazy digit-walk must agree with explicit inverse CDF over the canonical order
    for d, alpha in ((1, (3,)), (2, (2, 1)), (3, (1, 0, 2))):
        c = Code(alpha, 1)
        entries = offspring_set(c, d)
        probs = [float(offspring_prob(c, e, d)) for e in entries]
        cdf = np.cumsum(probs)
        for u in np.linspace(0.0, 0.9999, 251):
            idx = int(np.searchsorted(cdf, u, side="right"))
            idx = min(idx, len(entries) - 1)
            assert sample_offspring(c, d, float(u)) == entries[idx]


def test_sample_offspring_frequencies():
    rng = np.random.default_rng(42)
    c = Code((2,), 0)
    entries = offspring_set(c, 1)
    counts = dict.fromkeys(range(len(entries)), 0)
    lookup = {e: i for i, e in enumerate(entries)}
    n = 100_000
    for u in rng.random(n):
        counts[lookup[sample_offspring(c, 1, float(u))]] += 1
    for e, i in lookup.items():
        p = float(offspring_prob(c, e, 1))
        bound = 4.0 * math.sqrt(p * (1 - p) / n)
        assert abs(counts[i] / n - p) <= bound


def test_dominating_entries_have_no_pure_derivative_children():
    for d in (1, 2):
        for alpha in alphas_upto(3, d):
            entries = dominating_offspring_set(alpha, 0, d)
            assert len(entries) == (d + 1) * index_product(alpha)
            for e in entries:
                assert all(child.j >= 0 for child in e.children)
                assert len(e.children) == 2


def test_dominating_probabilities_sum_to_one():
    entries = dominating_offspring_set((2, 1), 5, 2)
    total = sum(dominating_offspring_prob((2, 1), e, 2) for e in entries)
    assert total == 1
    # alpha = 0, d = 1: two entries with probability 1/2 each
    small = dominating_offspring_set((0,), 0, 1)
    assert [dominating_offspring_prob((0,), e, 1) for e in small] == [
        Fraction(1, 2),
        Fraction(1, 2),
    ]


def test_dominating_sampler_mirrors_original_layout():
    # the dominating code table picks, for each uniform, the entry that the
    # original table picks
    u = np.linspace(0.0, 0.9999, 97)
    picks = []
    for dominating in (False, True):
        table = CodeTable(2, dominating)
        ids = np.full(u.size, table.intern(Code((2, 1), 0)))
        table.build(ids)
        picks.append(table.sample_entries(ids, u))
    assert picks[0].tolist() == picks[1].tolist()
    entries = dominating_offspring_set((2, 1), 0, 2)
    for v, pick in zip(u.tolist(), picks[1].tolist()):
        orig = sample_offspring(Code((2, 1), 0), 2, v)
        dom = entries[pick]
        assert dom.kind == orig.kind
        assert dom.beta == orig.beta


def _boundary_grid(c, d):
    """Uniforms at, just below and just above every cumulative offspring
    mass of c in canonical order (every kind and digit boundary), plus the
    middle of each entry's interval."""
    entries = offspring_set(c, d)
    cuts = [Fraction(0)]
    for e in entries:
        cuts.append(cuts[-1] + offspring_prob(c, e, d))
    grid = set()
    for lo, hi in zip(cuts, cuts[1:]):
        for v in (float(lo), float((lo + hi) / 2)):
            grid |= {v, math.nextafter(v, 0.0), math.nextafter(v, 1.0)}
    return sorted(u for u in grid if 0.0 <= u < 1.0) + [math.nextafter(1.0, 0.0)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batched_entry_choice_matches_sample_offspring(d):
    alphas = [a for a in product(range(3), repeat=d) if sum(a) <= 4]
    rows, us, expected = [], [], []
    for alpha in alphas:
        c = Code(alpha, 0)
        entries = offspring_set(c, d)
        for u in _boundary_grid(c, d):
            rows.append(alpha)
            us.append(u)
            expected.append(entries.index(sample_offspring(c, d, u)))
    got = sample_offspring_indices(np.array(rows), d, np.array(us))
    assert got.tolist() == expected
    with pytest.raises(ValueError):
        sample_offspring_indices(np.array([alphas[0]]), d, np.array([1.0]))


@pytest.mark.parametrize("d, top", [(1, 9), (2, 5)])
def test_batched_entry_choice_matches_sample_offspring_for_larger_alpha(d, top):
    # the weighted digit counts cumulative weights through a table; check it
    # past the small orders above, at every boundary and on random uniforms
    alphas = [a for a in product(range(top + 1), repeat=d) if sum(a) <= top + 2]
    rng = np.random.default_rng(7)
    rows, us, expected = [], [], []
    for alpha in alphas:
        c = Code(alpha, 1)
        entries = offspring_set(c, d)
        for u in _boundary_grid(c, d) + rng.random(20).tolist():
            rows.append(alpha)
            us.append(u)
            expected.append(entries.index(sample_offspring(c, d, u)))
    got = sample_offspring_indices(np.array(rows), d, np.array(us))
    assert got.tolist() == expected
