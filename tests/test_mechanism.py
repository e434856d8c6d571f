import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from branchpde.mechanism import (
    Code,
    draw_entries,
    index_product,
    offspring_entries,
    offspring_prob,
    offspring_set,
    sample_offspring,
    spawn,
)
from branchpde.multiindex import MultiIndex, mi_abs
from oracles import dominating_offspring_set


def entry_count(c: Code) -> int:
    """|M(c)|: 1 for j=-1, else (d+1) prod(1+alpha_k)."""
    if c.j < 0:
        return 1
    return (len(c.alpha) + 1) * index_product(c.alpha)


def dominating_offspring_prob(alpha: MultiIndex, entry) -> Fraction:
    """Offspring law of the dominating mechanism: the mass q_c of the entry
    of the original mechanism with the same kind and beta."""
    first, second = entry.children
    if entry.kind:
        entry = entry._replace(children=(first._replace(j=-1), second))
    return offspring_prob(Code(alpha, second.j - 1), entry)


def alphas_upto(total, d):
    return [a for a in product(range(total + 1), repeat=d) if mi_abs(a) <= total]


def test_pure_derivative_code_single_entry():
    c = Code((1,), -1)
    entries = offspring_set(c)
    assert len(entries) == 1
    assert entries[0].weight == 1
    assert entries[0].children == (Code((1,), 0),)
    assert offspring_prob(c, entries[0]) == 1


def test_entry_count_matches_cardinality():
    assert len(offspring_set(Code((2,), 0))) == 6  # (d+1) prod(1+alpha) = 2*3
    assert entry_count(Code((2,), 0)) == 6
    for d in (1, 2):
        for alpha in alphas_upto(3, d):
            c = Code(alpha, 2)
            assert len(offspring_set(c)) == (d + 1) * index_product(alpha)


def test_offspring_set_d2_expansion():
    # direct expansion at alpha = 0, j = 3, d = 2
    entries = offspring_set(Code((0, 0), 3))
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
    entries = offspring_set(c)
    for e in entries:
        if e.kind == 0:
            assert offspring_prob(c, e) == Fraction(1, 6)
    directional = [e for e in entries if e.kind == 1 and e.beta == (1,)]
    assert offspring_prob(c, directional[0]) == Fraction(1, 5)  # 6*2*2/(2*4*5*3)


def test_offspring_prob_rejects_foreign_entry():
    c = Code((2,), 0)
    other = offspring_set(Code((1,), 0))[0]
    with pytest.raises(ValueError):
        offspring_prob(c, other)


def test_normalization_exact():
    for d in (1, 2, 3):
        for alpha in alphas_upto(5 if d == 1 else 3, d):
            c = Code(alpha, 1)
            total = sum(offspring_prob(c, e) for e in offspring_set(c))
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
            for e in offspring_set(c):
                ratio = abs(e.weight) / offspring_prob(c, e)
                if e.kind == 0:
                    assert ratio == (d + 1) * index_product(alpha)
                else:
                    ai = alpha[e.kind - 1]
                    assert ratio == Fraction(
                        (d + 1) * (2 + ai) * (3 + ai) * index_product(alpha), 12
                    )


def test_sample_offspring_inverse_cdf_layout():
    c = Code((0,), 0)  # masses: kind0 1/2, kind1 1/2
    assert sample_offspring(c, 0.0).kind == 0
    assert sample_offspring(c, 0.75).kind == 1
    unique = offspring_set(Code((3,), -1))[0]
    assert sample_offspring(Code((3,), -1), 0.9) == unique


def test_sample_offspring_matches_enumerated_cdf():
    # lazy digit-walk must agree with explicit inverse CDF over the canonical order
    for d, alpha in ((1, (3,)), (2, (2, 1)), (3, (1, 0, 2))):
        c = Code(alpha, 1)
        entries = offspring_set(c)
        probs = [float(offspring_prob(c, e)) for e in entries]
        cdf = np.cumsum(probs)
        for u in np.linspace(0.0, 0.9999, 251):
            idx = int(np.searchsorted(cdf, u, side="right"))
            idx = min(idx, len(entries) - 1)
            assert sample_offspring(c, float(u)) == entries[idx]


def test_sample_offspring_frequencies():
    rng = np.random.default_rng(42)
    c = Code((2,), 0)
    entries = offspring_set(c)
    counts = dict.fromkeys(range(len(entries)), 0)
    lookup = {e: i for i, e in enumerate(entries)}
    n = 100_000
    for u in rng.random(n):
        counts[lookup[sample_offspring(c, float(u))]] += 1
    for e, i in lookup.items():
        p = float(offspring_prob(c, e))
        bound = 4.0 * math.sqrt(p * (1 - p) / n)
        assert abs(counts[i] / n - p) <= bound


def test_dominating_entries_have_no_pure_derivative_children():
    for d in (1, 2):
        for alpha in alphas_upto(3, d):
            entries = dominating_offspring_set(alpha, 0)
            assert len(entries) == (d + 1) * index_product(alpha)
            for e in entries:
                assert all(child.j >= 0 for child in e.children)
                assert len(e.children) == 2


def test_dominating_probabilities_sum_to_one():
    entries = dominating_offspring_set((2, 1), 5)
    total = sum(dominating_offspring_prob((2, 1), e) for e in entries)
    assert total == 1
    # alpha = 0, d = 1: two entries with probability 1/2 each
    small = dominating_offspring_set((0,), 0)
    assert [dominating_offspring_prob((0,), e) for e in small] == [
        Fraction(1, 2),
        Fraction(1, 2),
    ]


def test_dominating_sampler_mirrors_original_layout():
    # both chains take, for each uniform, the entry that sample_offspring
    # picks; only the first child of a directional entry is recoded
    u = np.linspace(0.0, 0.9999, 97)
    c = Code((2, 1), 0)
    alpha, j = np.array([c.alpha] * u.size), np.full(u.size, c.j)
    kind, beta, _ = draw_entries(alpha, j, u)
    dominating = {(e.kind, e.beta): e for e in dominating_offspring_set(c.alpha, c.j)}
    spawned = [children_by_row(spawn(alpha, j, kind, beta, chain)) for chain in (False, True)]
    for row, v in enumerate(u.tolist()):
        orig = sample_offspring(c, v)
        assert (kind[row], tuple(beta[row])) == (orig.kind, orig.beta)
        assert spawned[0][row] == orig.children
        assert spawned[1][row] == dominating[orig.kind, orig.beta].children


def children_by_row(children):
    """spawn's children as a list, per row, of the tuple of their codes, after
    checking that each row's children are numbered 1, 2, ... in order."""
    parent, k, alpha, j = children
    out = {}
    for p, kk, a, jj in zip(parent.tolist(), k.tolist(), alpha.tolist(), j.tolist()):
        out.setdefault(p, []).append(Code(tuple(a), jj))
        assert kk == len(out[p])
    assert list(out) == sorted(out)
    return [tuple(out[row]) for row in sorted(out)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_array_entries_equal_the_fraction_mechanism(d):
    # every entry of every code of the grid, drawn by the uniform in the
    # middle of its interval: its kind, beta and z1/q, and its children on
    # both chains
    codes, entries, ratios, us, recoded = [], [], [], [], []
    for alpha in product(range(5), repeat=d):
        for j in (-1, 0, 2):
            c = Code(alpha, j)
            low = Fraction(0)
            for e in offspring_set(c):
                q = offspring_prob(c, e)
                codes.append(c)
                entries.append(e)
                ratios.append(float(e.weight / q))
                us.append(float(low + q / 2))
                low += q
            if j >= 0:  # the dominating chain has no code of j = -1
                recoded += [e.children for e in dominating_offspring_set(alpha, j)]
    alpha, j = np.array([c.alpha for c in codes]), np.array([c.j for c in codes])
    kind, beta, ratio = draw_entries(alpha, j, np.array(us))
    assert kind.tolist() == [e.kind for e in entries]
    assert list(map(tuple, beta.tolist())) == [e.beta for e in entries]
    assert ratio.tolist() == ratios
    assert children_by_row(spawn(alpha, j, kind, beta, False)) == [e.children for e in entries]
    coded = j >= 0
    assert children_by_row(spawn(alpha[coded], j[coded], kind[coded], beta[coded], True)) == recoded


def test_a_large_directional_ratio_is_rounded_once():
    # z1/q of a kind-1 entry of (300000,)/0 is the integer
    # -(d+1) (1+a)(2+a)(3+a)/6 over 2, rounded once; the int64 product
    # (d+1)(2+a)(3+a)(1+a) over 12 rounds twice and reads .5 off
    c, u = Code((300000,), 0), 0.75
    entry = sample_offspring(c, u)
    kind, beta, ratio = draw_entries(np.array([c.alpha]), np.array([c.j]), np.array([u]))
    assert (kind[0], tuple(beta[0])) == (entry.kind, entry.beta) and entry.kind == 1
    assert ratio[0] == float(entry.weight / offspring_prob(c, entry)) == -4500090000550001.0
    assert -(np.int64(2) * 300001 * 300002 * 300003) / 12 != ratio[0]


def _boundary_grid(c):
    """Uniforms at, just below and just above every cumulative offspring
    mass of c in canonical order (every kind and digit boundary), plus the
    middle of each entry's interval."""
    entries = offspring_set(c)
    cuts = [Fraction(0)]
    for e in entries:
        cuts.append(cuts[-1] + offspring_prob(c, e))
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
        for u in _boundary_grid(c):
            rows.append(alpha)
            us.append(u)
            entry = sample_offspring(c, u)
            expected.append((entry.kind, entry.beta))
    assert picked(coded_entries(rows, us)) == expected
    with pytest.raises(ValueError):
        coded_entries([alphas[0]], [1.0])


@pytest.mark.parametrize("d, top", [(1, 9), (2, 5)])
def test_batched_entry_choice_matches_sample_offspring_for_larger_alpha(d, top):
    # the weighted digit counts cumulative weights through a table; check it
    # past the small orders above, at every boundary and on random uniforms
    alphas = [a for a in product(range(top + 1), repeat=d) if sum(a) <= top + 2]
    rng = np.random.default_rng(7)
    rows, us, expected = [], [], []
    for alpha in alphas:
        c = Code(alpha, 1)
        for u in _boundary_grid(c) + rng.random(20).tolist():
            rows.append(alpha)
            us.append(u)
            entry = sample_offspring(c, u)
            expected.append((entry.kind, entry.beta))
    assert picked(coded_entries(rows, us)) == expected


@pytest.mark.parametrize("d", [2, 3])
def test_batched_entry_choice_matches_sample_offspring_at_kind_0_block_boundaries(d):
    # u = (r / prod(1+alpha_k) + eps) / (d+1) puts frac * prod(1+alpha_k)
    # within a few ulps of the integer r, where one digit walk may part
    # from another by an ulp; the batch and the reference must still agree
    rows, us, expected = [], [], []
    for alpha in product(range(4), repeat=d):
        c, total = Code(alpha, 0), index_product(alpha)
        for r in range(total):
            for eps in (0.0, 2.0**-53, -(2.0**-53), 1e-16, -1e-16):
                u = (r / total + eps) / (d + 1)
                if 0.0 <= u < 1.0:
                    rows.append(alpha)
                    us.append(u)
                    entry = sample_offspring(c, u)
                    expected.append((entry.kind, entry.beta))
    assert len(us) == {2: 468, 3: 4872}[d]  # 5340 in all
    assert {kind for kind, _ in expected} == {0}
    assert picked(coded_entries(rows, us)) == expected


def test_a_code_fixes_the_dimension_of_its_offspring_law():
    # d is len(alpha): a d passed beside the code, which gave 8 entries for
    # Code((1, 1), 0) at d = 1, is no parameter any more
    c = Code((1, 1), 0)
    entries = offspring_set(c)
    assert len(entries) == 12 == entry_count(c)
    assert sum(offspring_prob(c, e) for e in entries) == 1
    assert offspring_prob(c, entries[0]) == Fraction(1, 12)
    assert sample_offspring(Code((1,), 0), 0.99) == offspring_set(Code((1,), 0))[-1]
    for call in (
        lambda: offspring_set(c, 1),
        lambda: offspring_prob(c, entries[0], 3),
        lambda: sample_offspring(Code((1,), 0), 2, 0.99),
        lambda: draw_entries(np.array([[1, 1]]), np.array([0]), 1, np.array([0.5])),
    ):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("alpha", [np.array([1, 1]), np.array([[[1, 1]]]), np.array(2)])
def test_batched_entry_choice_refuses_alpha_that_is_not_rows(alpha):
    with pytest.raises(ValueError, match=r"\(n, d\) array"):
        draw_entries(alpha, np.array([0]), np.array([0.5]))


@pytest.mark.parametrize("alpha", [[1] * 62, [1_500_000]], ids=["product", "order"])
def test_batched_entry_choice_refuses_a_law_past_the_int64_range(alpha):
    # prod(1+alpha_k) = 2^62 and (3+a)^3 > 2^62 / 3: the int64 products of
    # the walk and of z1/q would wrap
    with pytest.raises(ValueError, match="int64"):
        coded_entries([alpha], [0.5])


def test_batched_entry_choice_reads_the_dimension_from_the_rows():
    # one row of a two-entry alpha gives one entry, of the d = 2 set
    c = Code((1, 1), 0)
    kind, beta, ratio = coded_entries([c.alpha], [0.5])
    assert (kind.shape, beta.shape, ratio.shape) == ((1,), (1, 2), (1,))
    entry = sample_offspring(c, 0.5)
    assert (kind[0], tuple(beta[0])) == (entry.kind, entry.beta)


def coded_entries(rows, us):
    """draw_entries on codes (row, 0): the walk of sample_offspring."""
    return draw_entries(np.array(rows), np.zeros(len(rows), dtype=np.int64), np.array(us))


def picked(drawn):
    """The (kind, beta) per row of draw_entries' result."""
    kind, beta, _ = drawn
    return list(zip(kind.tolist(), map(tuple, beta.tolist())))


def test_offspring_entries_enumerate_offspring_set():
    # the one enumeration: (kind, beta, children) of each entry, in order
    for d in (1, 2, 3):
        for alpha in alphas_upto(3, d):
            for j in (-1, 0, 2):
                c = Code(alpha, j)
                assert [(e.kind, e.beta, e.children) for e in offspring_set(c)] == list(offspring_entries(c))
