import itertools
from fractions import Fraction

import numpy as np
import pytest

from randomkeys import (
    Evaluator,
    RunBudget,
    TdTspDecoder,
    generate_tdtsp_instance,
)
from randomkeys.keys import KEY_MAX
from randomkeys.localsearch import (
    FAREY_VALUES,
    _nelder_mead,
    farey_moves,
    mirror_moves,
    nelder_mead_moves,
    rvnd,
    swap_moves,
)
from conftest import answer


class QuadraticDecoder:
    """Distance to a fixed target point; minimum cost zero."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)

    @property
    def dimension(self):
        return self.target.shape[0]

    def cost(self, keys):
        return float(np.sum((keys - self.target) ** 2))


class TiedDecoder(QuadraticDecoder):
    """The quadratic rounded to a grid of 0.1, so that many vertices of
    a simplex cost the same and their order rests on how ties break."""

    def cost(self, keys):
        return round(super().cost(keys), 1)


def evaluator_for(decoder, calls=100_000):
    return Evaluator(decoder, RunBudget(decoder_calls=calls))


def test_farey_values_are_order_seven():
    interior = [Fraction(v).limit_denominator(7) for v in FAREY_VALUES[1:-1]]
    expected = sorted(
        {
            Fraction(p, q)
            for q in range(1, 8)
            for p in range(0, q + 1)
        }
    )[1:-1]
    assert interior == expected
    assert FAREY_VALUES[0] == 0.0
    assert FAREY_VALUES[-1] == pytest.approx(1.0, abs=1e-3)
    assert FAREY_VALUES[-1] < 1.0


def test_swap_search_finds_an_improving_exchange():
    decoder = QuadraticDecoder([0.2, 0.8])
    ev = evaluator_for(decoder)
    start = np.array([0.8, 0.2])
    cost = ev.charge(start)
    keys, found = answer(swap_moves(start, cost, np.random.default_rng(1)), ev.charge)
    assert found < cost
    assert found == pytest.approx(0.0)


def test_swap_search_skips_equal_keys():
    decoder = QuadraticDecoder([0.5, 0.5])
    counting = evaluator_for(decoder)
    start = np.array([0.3, 0.3])
    cost = counting.charge(start)
    before = counting.calls
    keys, found = answer(swap_moves(start, cost, np.random.default_rng(1)), counting.charge)
    assert keys is start and found == cost
    assert counting.calls == before  # the only pair was a no-op


def test_mirror_search_improves_when_mirror_is_better():
    decoder = QuadraticDecoder([0.9, 0.5])
    ev = evaluator_for(decoder)
    start = np.array([0.1, 0.5])
    cost = ev.charge(start)
    keys, found = answer(mirror_moves(start, cost, np.random.default_rng(2)), ev.charge)
    assert found < cost
    assert keys[0] == pytest.approx(0.9)


def test_farey_search_snaps_to_a_fraction():
    decoder = QuadraticDecoder([1 / 3, 1 / 2])
    ev = evaluator_for(decoder)
    start = np.array([0.11, 0.48])
    cost = ev.charge(start)
    keys, found = answer(farey_moves(start, cost, np.random.default_rng(3)), ev.charge)
    assert found < cost


def test_nelder_mead_descends_a_quadratic():
    decoder = QuadraticDecoder([0.31, 0.62, 0.47])
    ev = evaluator_for(decoder)
    start = np.array([0.9, 0.1, 0.9])
    cost = ev.charge(start)
    keys, found = answer(nelder_mead_moves(start, cost, np.random.default_rng(4)), ev.charge)
    assert found < 1e-4
    assert np.all(keys >= 0.0) and np.all(keys < 1.0)


def test_budget_ending_mid_descent_keeps_the_best_vertex():
    """The budget ends a descent without a word to it; the run's best
    is then the lowest vertex that Nelder-Mead had decoded."""
    decoder = QuadraticDecoder([0.31, 0.62, 0.47])
    ev = evaluator_for(decoder, calls=10)
    start = np.array([0.9, 0.1, 0.9])
    cost = ev.charge(start)
    vertices = []

    def charge(keys):
        found = ev.charge(keys)
        if found is not None:
            vertices.append((keys.tobytes(), found))
        return found

    assert answer(nelder_mead_moves(start, cost, np.random.default_rng(4)), charge) is None
    assert len(vertices) == 9  # the initial simplex and some steps
    lowest = min(vertices, key=lambda v: v[1])
    assert lowest[1] < cost
    assert (ev.best.keys.tobytes(), ev.best.cost) == lowest
    full = evaluator_for(decoder)
    answer(nelder_mead_moves(start, full.charge(start), None), full.charge)
    assert full.calls > ev.calls  # the budget did cut it short


def test_rvnd_never_worsens_and_reaches_local_optimum():
    decoder = QuadraticDecoder([0.25, 0.75, 0.5, 0.1])
    ev = evaluator_for(decoder)
    start = np.array([0.9, 0.2, 0.1, 0.8])
    cost = ev.charge(start)
    keys, found = answer(rvnd(start, cost, np.random.default_rng(5)), ev.charge)
    assert found <= cost
    assert found < 1e-3


def test_rvnd_key_range_closure():
    decoder = QuadraticDecoder([0.5, 0.5, 0.5])
    ev = evaluator_for(decoder)
    rng = np.random.default_rng(7)
    for _ in range(50):
        start = rng.random(3)
        keys, _ = answer(rvnd(start, ev.charge(start), rng), ev.charge)
        assert np.all(keys >= 0.0)
        assert np.all(keys < 1.0)


# Reference implementations: the swap search over an explicit pair list
# and the simplex kept as a list of (keys, cost) pairs.  The package
# versions must decode the same vectors and return the same result.
# A reference starts from a (keys, cost) pair, decodes through
# ``charge(keys) -> cost`` and returns ``(improved, (keys, cost))``.


def reference_swap_search(current, charge, rng):
    keys, cost = current
    d = keys.shape[0]
    pairs = list(itertools.combinations(range(d), 2))
    for p in rng.permutation(len(pairs)):
        i, j = pairs[p]
        if keys[i] == keys[j]:
            continue
        cand = keys.copy()
        cand[i], cand[j] = cand[j], cand[i]
        trial = charge(cand)
        if trial < cost:
            return True, (cand, trial)
    return False, current


class _ReferenceNmDone(Exception):
    pass


class _Refused(Exception):
    """The harness's evaluator refused a decode: the budget is spent."""


def reference_nelder_mead_search(current, charge, rng, shrinks=None, steps=None):
    """List-based simplex of (keys, cost) pairs; appends the call count
    at each shrink's start to ``shrinks`` and a copy of the sorted
    vertices at each step's start (its convergence test) to ``steps``
    when given."""
    d = current[0].shape[0]
    calls = 0
    limit = 50 * d

    def spend(keys):
        nonlocal calls
        if calls >= limit:
            raise _ReferenceNmDone
        calls += 1
        keys = np.clip(keys, 0.0, KEY_MAX)
        return keys, charge(keys)

    def shrink():
        if shrinks is not None:
            shrinks.append(calls)
        best = simplex[0][0]
        for k in range(1, len(simplex)):
            simplex[k] = spend(best + 0.5 * (simplex[k][0] - best))

    simplex = [current]
    try:
        for i in range(d):
            vertex = current[0].copy()
            step = 0.05 if vertex[i] + 0.05 <= KEY_MAX else -0.05
            vertex[i] += step
            simplex.append(spend(vertex))
        while True:
            simplex.sort(key=lambda v: v[1])
            if steps is not None:
                steps.append(list(simplex))
            spread = max(
                float(np.max(np.abs(keys - simplex[0][0]))) for keys, _ in simplex
            )
            if spread < 1e-4:
                break
            worst, worst_cost = simplex[-1]
            centroid = np.mean([keys for keys, _ in simplex[:-1]], axis=0)
            reflected = spend(centroid + (centroid - worst))
            if reflected[1] < simplex[0][1]:
                expanded = spend(centroid + 2.0 * (centroid - worst))
                simplex[-1] = expanded if expanded[1] < reflected[1] else reflected
            elif reflected[1] < simplex[-2][1]:
                simplex[-1] = reflected
            elif reflected[1] < worst_cost:
                contracted = spend(centroid + 0.5 * (reflected[0] - centroid))
                if contracted[1] <= reflected[1]:
                    simplex[-1] = contracted
                else:
                    shrink()
            else:
                contracted = spend(centroid - 0.5 * (centroid - worst))
                if contracted[1] < worst_cost:
                    simplex[-1] = contracted
                else:
                    shrink()
    except (_ReferenceNmDone, _Refused):
        pass
    best = min(simplex, key=lambda v: v[1])
    if best[1] < current[1]:
        return True, best
    return False, current


def ask_tell(moves):
    """A package search in the references' form: ``search(start,
    charge, rng)`` returns ``(improved, (keys, cost))``."""

    def search(start, charge, rng):
        result = answer(moves(*start, rng), charge)
        return result[1] < start[1], result

    search.__name__ = moves.__name__
    return search


def search_outcome(search, decoder, start_keys, calls=100_000, seed=0):
    """Run one search from ``start_keys`` with ``calls`` decodes left
    after the start; return its result, every key vector it decoded and
    the state it left the generator in.

    A reference meets the end of the budget as ``_Refused``, which the
    harness raises when the evaluator refuses.  The package's
    Nelder-Mead stops itself instead, at its private limit: run
    ``_nelder_mead(keys, cost, calls)`` to stop it where the reference
    is refused.
    """
    ev = evaluator_for(decoder, calls=calls + 1)
    start = start_keys.copy()
    start = (start, ev.charge(start))
    decoded = []

    def charge(keys):
        cost = ev.charge(keys)
        if cost is None:
            raise _Refused
        decoded.append(keys.tobytes())
        return cost

    rng = np.random.default_rng(seed)
    improved, (keys, cost) = search(start, charge, rng)
    return improved, cost, keys.tobytes(), decoded, rng.random()


def decoder_of(kind, d, seed):
    if kind == "quadratic":
        return QuadraticDecoder(np.random.default_rng(seed).random(d))
    if kind == "tied":
        return TiedDecoder(np.random.default_rng(seed).random(d))
    return TdTspDecoder(generate_tdtsp_instance(d, 3, seed=seed))


@pytest.mark.parametrize("kind", ["quadratic", "tied", "tdtsp"])
@pytest.mark.parametrize("d", [1, 2, 5, 20, 50])
def test_local_searches_match_list_references(kind, d):
    decoder = decoder_of(kind, d, seed=d)
    rng = np.random.default_rng(100 + d)
    for trial in range(3):
        keys = rng.random(d)
        for search, reference in (
            (ask_tell(nelder_mead_moves), reference_nelder_mead_search),
            (ask_tell(swap_moves), reference_swap_search),
        ):
            assert search_outcome(search, decoder, keys, seed=trial) == (
                search_outcome(reference, decoder, keys, seed=trial)
            ), (search.__name__, trial)


@pytest.mark.parametrize("kind,d", [("quadratic", 3), ("tdtsp", 5), ("tied", 4)])
def test_nelder_mead_matches_reference_at_every_budget(kind, d):
    """Budgets from zero to a full descent run out in the initial
    simplex, inside steps and, on the route decoder, inside shrinks."""
    decoder = decoder_of(kind, d, seed=7)
    keys = np.random.default_rng(8).random(d)
    shrinks = []
    ev = evaluator_for(decoder)
    costs = []

    def charge(vector):
        cost = ev.charge(vector)
        costs.append(cost)
        return cost

    start = keys.copy()
    reference_nelder_mead_search((start, charge(start)), charge, None, shrinks=shrinks)
    full = ev.calls - 1
    assert full > d + 1
    if kind == "tdtsp":
        assert shrinks and shrinks[0] + d <= full
    if kind == "tied":
        # The first sort already has to break ties.
        assert len(set(costs[: d + 1])) < d + 1
    for calls in range(full + 1):
        search = ask_tell(lambda keys, cost, rng: _nelder_mead(keys, cost, calls))
        assert search_outcome(search, decoder, keys, calls) == (
            search_outcome(reference_nelder_mead_search, decoder, keys, calls)
        ), calls


def ask_rows(moves, decoder):
    """Drive ``moves`` to its end, decoding every vector and block row it
    asks for; return each ask's row count, ``None`` for a vector."""
    counts = []
    reply = None
    try:
        while True:
            keys = moves.send(reply)
            if keys.ndim == 1:
                counts.append(None)
                reply = decoder.cost(keys)
            else:
                counts.append(keys.shape[0])
                reply = [decoder.cost(row) for row in keys]
    except StopIteration:
        return counts


def test_nelder_mead_asks_for_its_initial_simplex_and_shrinks_as_blocks():
    """One (d, d) block for the initial simplex, then one-vector steps
    and (d, d) shrink blocks; a limit cuts a block to the rows left."""
    d = 5
    decoder = decoder_of("tdtsp", d, seed=7)
    keys = np.random.default_rng(8).random(d)
    cost = decoder.cost(keys)
    counts = ask_rows(nelder_mead_moves(keys, cost, None), decoder)
    assert counts[0] == d
    assert set(counts[1:]) == {None, d}
    full = sum(1 if rows is None else rows for rows in counts)
    cut_initial = cut_shrink = 0
    for limit in range(full + 1):
        left = limit
        limited = ask_rows(_nelder_mead(keys, cost, limit), decoder)
        for rows in limited:
            assert 0 < (rows or 1) <= left, limit
            left -= rows or 1
        assert left == 0, limit
        if limited and limited[-1] is not None and limited[-1] < d:
            if len(limited) == 1:
                cut_initial += 1
            else:
                cut_shrink += 1
    # Limits 1 to d - 1 end inside the initial simplex, and some limits
    # inside a shrink.
    assert cut_initial == d - 1 and cut_shrink > 0


def test_a_cut_block_replaces_only_the_vertices_of_its_rows():
    """A limit inside the initial simplex or a shrink ends the descent
    with the vertices that asking row by row leaves: the answered rows'
    vertices replaced in place, the others untouched.  The block's rows
    are the vectors the reference decodes, and the result is the first
    of those vertices in list order with the lowest cost, when it beats
    the start."""
    d = 5
    keys = np.random.default_rng(8).random(d)
    cuts = decided = 0
    for kind in ("tdtsp", "tied", "quadratic"):
        decoder = decoder_of(kind, d, seed=7)
        start = (keys, decoder.cost(keys))
        for limit in range(1, 50 * d):
            descent = _nelder_mead(*start, limit)
            reply, rows = None, 0
            try:
                while True:
                    asked = descent.send(reply)
                    rows = 0 if asked.ndim == 1 else len(asked)
                    if rows:
                        reply = [decoder.cost(row) for row in asked]
                    else:
                        reply = decoder.cost(asked)
            except StopIteration as stop:
                result = stop.value
            if not 0 < rows < d:
                continue
            cuts += 1
            # The reference, refused after ``limit`` decodes, asks row by row.
            ev = evaluator_for(decoder, calls=limit)
            steps, answered = [], []

            def charge(vector):
                cost = ev.charge(vector)
                if cost is None:
                    raise _Refused
                answered.append((vector, cost))
                return cost

            reference_nelder_mead_search(start, charge, None, steps=steps)
            assert [row.tobytes() for row in asked] == (
                [vector.tobytes() for vector, _ in answered[limit - rows:]]
            ), (kind, limit)
            assert reply == [cost for _, cost in answered[limit - rows:]], (kind, limit)
            before = steps[-1] if steps else [start]
            vertices = before[:1] + answered[limit - rows:] + before[1 + rows:]
            best = min(vertices, key=lambda v: v[1])
            expected = best if best[1] < start[1] else start
            assert (result[1], result[0].tobytes()) == (
                expected[1], expected[0].tobytes()
            ), (kind, limit)
            decided += expected is not before[0]
    assert cuts > 2 * d
    # Some results come from an answered row, not the best vertex before.
    assert decided > 0


@pytest.mark.parametrize(
    "kind,d,seed,end",
    [
        ("quadratic", 4, 3, "new-best"),
        ("tied", 4, 4, "shrink"),
        ("quadratic", 4, 6, "witness-dropped"),
    ],
)
def test_nelder_mead_converges_where_the_reference_does(kind, d, seed, end):
    """The package skips the max-norm test while a witness vertex shows
    that it cannot pass.  Each descent here converges right after a
    step that makes the test run again: a new best vertex, a shrink, or
    the drop of the witness, the one vertex still 1e-4 or farther from
    the best.  It must stop where the reference, which tests after
    every step, stops, and below its 50 * d cap."""
    decoder = decoder_of(kind, d, seed)
    keys = np.random.default_rng(1000 + seed).random(d)
    assert search_outcome(ask_tell(nelder_mead_moves), decoder, keys) == (
        search_outcome(reference_nelder_mead_search, decoder, keys)
    )
    shrinks, steps = [], []
    ev = evaluator_for(decoder)
    start = keys.copy()
    reference_nelder_mead_search(
        (start, ev.charge(start)), ev.charge, None, shrinks=shrinks, steps=steps
    )
    full = ev.calls - 1
    assert full < 50 * d
    assert (bool(shrinks) and shrinks[-1] + d == full) == (end == "shrink")
    if end != "shrink":
        # The vertices at the last step's start and where the test passed.
        before, after = steps[-2], steps[-1]
        assert (after[0] is not before[0]) == (end == "new-best")
        if end == "witness-dropped":
            far = [v for v in before if np.abs(v[0] - before[0][0]).max() >= 1e-4]
            assert len(far) == 1 and far[0] is before[-1]
