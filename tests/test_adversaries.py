import hashlib
import os
import random
import re
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from graphquery.adversaries import (
    ContractionAdversary,
    SeparabilityAdversary,
    UnknownCountAdversary,
)
from graphquery.coloring import (
    BudgetExceededError,
    Coloring,
    SEARCH_STATS,
    find_k_coloring,
    proper_partitions,
)
from graphquery.graphs import Graph, connected_components, mask_edges
from graphquery.ledger import replay_matches_partition
from graphquery.learners import learn_partition_all_pairs, learn_partition_representatives
from graphquery.oracles import HonestOracle
from graphquery.partitions import Partition
from graphquery import adversaries, bounds

from conftest import is_refinement, replay_on_session, reset_search_stats

# State midway through the known-count walkthrough: n=6, k=3, six edges
# already recorded, coloring classes {0,1,2} / {3,4} / {5}.
WALKTHROUGH_EDGES = [(2, 3), (1, 3), (1, 4), (1, 5), (0, 5), (2, 5)]
WALKTHROUGH_CHI = (1, 1, 1, 2, 2, 3)


def make_walkthrough_adversary():
    return SeparabilityAdversary(6, 3, initial_coloring=WALKTHROUGH_CHI,
                                 initial_edges=WALKTHROUGH_EDGES)


def test_separability_walkthrough_answers():
    adv = make_walkthrough_adversary()
    # different colors: answer 0 and record the edge
    assert adv.membership_query(0, 4) == 0
    assert (0, 4) in mask_edges(adv.masks)
    # same color but separable: answer 0, record, and re-separate the pair
    assert adv.chi.colors[1] == adv.chi.colors[2]
    assert adv.membership_query(1, 2) == 0
    assert (1, 2) in mask_edges(adv.masks)
    assert adv.chi.colors[1] != adv.chi.colors[2]
    assert adv.membership_query(0, 2) == 0
    # inseparable: answer 1 and contract the pair, keeping every edge
    edges_before = mask_edges(adv.masks)
    assert adv.membership_query(0, 1) == 1
    assert adv.cls == [0, 0, 1, 2, 3, 4]
    assert adv.masks == _quotient_masks(5, edges_before, adv.cls.__getitem__)
    assert adv.ledger.count == 4
    assert [e.answer for e in adv.ledger] == [0, 0, 0, 1]


def test_separability_walkthrough_consistency_replay():
    adv = make_walkthrough_adversary()
    for x, y in [(0, 4), (1, 2), (0, 2), (0, 1)]:
        adv.membership_query(x, y)
        # the coloring's classes answer every query asked so far honestly
        assert replay_matches_partition(adv.ledger.entries, adv.chi_partition())


def test_separability_fresh_first_query():
    adv = SeparabilityAdversary(6, 3)
    assert adv.chi.colors[0] != adv.chi.colors[4]
    assert adv.membership_query(0, 4) == 0
    assert (0, 4) in mask_edges(adv.masks)


def test_separability_repeats_are_consistent_and_ledgered():
    adv = make_walkthrough_adversary()
    adv.membership_query(0, 4)
    assert adv.membership_query(0, 4) == 0  # existing edge answers 0 again
    adv.membership_query(1, 2)
    adv.membership_query(0, 2)
    assert adv.membership_query(0, 1) == 1
    searches, masks = SEARCH_STATS["invocations"], list(adv.masks)
    assert adv.membership_query(0, 1) == 1  # inseparable repeats answer 1
    assert adv.ledger.count == 6
    # a repeat inside one class is answered without a search
    assert SEARCH_STATS["invocations"] == searches and adv.masks == masks
    unknown = UnknownCountAdversary(4, 3)
    for pair in [(2, 3), (0, 2), (0, 3), (1, 2), (1, 3)]:
        unknown.membership_query(*pair)
    assert unknown.membership_query(0, 1) == 1
    searches, masks = SEARCH_STATS["invocations"], list(unknown.masks)
    for _ in range(3):
        assert unknown.membership_query(1, 0) == 1
    assert SEARCH_STATS["invocations"] == searches and unknown.masks == masks
    assert unknown.cls == [0, 0, 1, 2]
    assert [e.answer for e in unknown.ledger][-4:] == [1, 1, 1, 1]


def test_separability_rejects_self_query():
    adv = SeparabilityAdversary(4, 2)
    with pytest.raises(ValueError):
        adv.membership_query(2, 2)


def _session_state(session) -> tuple:
    # the honest oracle's only mutable state is its ledger
    quotient = () if isinstance(session, HonestOracle) else (
        session.masks, session.color, session.classes, session.cls)
    return session.ledger.count, *map(list, quotient)


@pytest.mark.parametrize("make", [lambda: SeparabilityAdversary(5, 3),
                                  lambda: UnknownCountAdversary(5, 3),
                                  lambda: ContractionAdversary(5, 3),
                                  lambda: HonestOracle(Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]))],
                         ids=["separability", "unknown-count", "contraction", "honest"])
def test_rejected_queries_leave_no_trace(make):
    # all four sessions accept and refuse the same pairs, with one message each
    adv = make()
    for pair in [(0, 1), (1, 2), (0, 2), (3, 4), (0, 3)]:
        adv.membership_query(*pair)
    state = _session_state(adv)
    for (x, y), message in [((-1, 2), "vertex -1 out of range for n=5"),
                            ((2, -1), "vertex -1 out of range for n=5"),
                            ((5, 2), "vertex 5 out of range for n=5"),
                            ((2, 5), "vertex 5 out of range for n=5"),
                            ((3, 3), "membership query needs two distinct vertices")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            adv.membership_query(x, y)
        assert _session_state(adv) == state


def test_separability_walkthrough_saturation_forces():
    adv = make_walkthrough_adversary()
    scripted = [(0, 4), (1, 2), (0, 2), (0, 1)]
    answers = {pair: adv.membership_query(*pair) for pair in scripted}
    for pair in combinations(range(6), 2):
        if pair not in answers:
            adv.membership_query(*pair)
    verdict = adv.declare(adv.chi_partition())
    assert verdict.forced
    assert adv.ledger.count >= bounds.membership_known_count(6, 3)


def test_audit_zero_queries_is_refuted():
    adv = SeparabilityAdversary(5, 3)
    verdict = adv.declare(adv.chi_partition())
    assert not verdict.forced
    assert verdict.witness is not None and verdict.witness != adv.chi_partition()


def test_audit_rejects_malformed_partition():
    adv = SeparabilityAdversary(5, 3)
    with pytest.raises(ValueError):
        adv.declare(Partition.from_labels(range(4)))


def test_audit_refutes_wrong_claim_even_when_forced_possible():
    adv = SeparabilityAdversary(4, 2)
    learn_partition_all_pairs(adv, 4)
    wrong = Partition.from_blocks([range(4)])
    verdict = adv.declare(wrong)
    assert not verdict.forced and verdict.witness != wrong


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_separability_random_stream_invariants(seed):
    rng = random.Random(seed)
    n, k = rng.choice([(5, 2), (6, 3), (7, 4)])
    adv = SeparabilityAdversary(n, k)
    for _ in range(25):
        x = rng.randrange(n)
        y = rng.randrange(n)
        if x == y:
            continue
        adv.membership_query(x, y)
        zeros = [e.args for e in adv.ledger if not e.answer]
        assert adv.masks == _quotient_masks(len(adv.masks), zeros, adv.cls.__getitem__)
        assert adv.chi.is_proper(Graph.from_edges(adv.n, zeros))
        assert replay_matches_partition(adv.ledger.entries, adv.chi_partition())
    # edges only ever come from 0-answers
    assert len(mask_edges(adv.masks)) <= sum(1 for e in adv.ledger if e.answer == 0)


def test_separability_forced_runs_up_to_ten_vertices():
    # forced runs carry at least the edge floor, and every auxiliary edge
    # traces back to a 0-answer
    for n in (9, 10):
        for k in (2, 5, n):
            adv = SeparabilityAdversary(n, k)
            result = learn_partition_representatives(adv, n, k_known=k)
            assert adv.declare(result.answer).forced
            floor = bounds.membership_known_count(n, k)
            assert len(mask_edges(adv.masks)) >= floor
            assert len(mask_edges(adv.masks)) <= sum(1 for e in adv.ledger if e.answer == 0)
            assert result.queries_used >= floor


def test_unknown_count_fresh_pair_separates():
    adv = UnknownCountAdversary(4, 2)
    assert adv.chi.colors[0] == adv.chi.colors[1] == 1
    assert adv.membership_query(0, 1) == 0
    assert (0, 1) in mask_edges(adv.masks) and adv.cls == [0, 1, 2, 3]
    assert adv.chi.colors[0] != adv.chi.colors[1]


def test_unknown_count_single_color_always_yes():
    adv = UnknownCountAdversary(3, 1)
    assert adv.membership_query(0, 1) == 1
    assert adv.cls == [0, 0, 1] and adv.masks == [0, 0]


def test_unknown_count_forced_pair_after_near_clique():
    adv = UnknownCountAdversary(4, 3)
    for pair in [(2, 3), (0, 2), (0, 3), (1, 2), (1, 3)]:
        assert adv.membership_query(*pair) == 0
    # the auxiliary graph is now a 4-clique minus {0,1}; the pair is stuck
    assert adv.membership_query(0, 1) == 1
    assert adv.cls == [0, 0, 1, 2]  # contracted into one class
    assert adv.membership_query(0, 1) == 1
    assert adv.cls == [0, 0, 1, 2] and adv.masks == [0b110, 0b101, 0b011]


def test_unknown_count_certificate_and_auxiliary_edges_disjoint():
    # no pair inside a certificate class was answered 0, no class is its own
    # neighbour, and chi colors each class alike
    rng = random.Random(7)
    adv = UnknownCountAdversary(6, 2)
    for _ in range(30):
        x, y = rng.sample(range(6), 2)
        adv.membership_query(x, y)
        assert all(adv.cls[e.args[0]] != adv.cls[e.args[1]] for e in adv.ledger if not e.answer)
        assert not any(nbrs >> i & 1 for i, nbrs in enumerate(adv.masks))
        assert all(adv.chi.colors[v] == adv.chi.colors[adv.cls.index(adv.cls[v])] for v in range(6))
        assert replay_matches_partition(adv.ledger.entries, adv.chi_partition())


def test_unknown_count_refutes_finer_certificate():
    # auxiliary graph a path (uniquely 2-colorable), certificate too fine:
    # the claim matching the certificate is refuted with the 2-partition.
    adv = UnknownCountAdversary(4, 2)
    assert adv.membership_query(0, 1) == 0
    assert adv.membership_query(1, 2) == 0
    assert adv.membership_query(2, 3) == 0
    assert adv.membership_query(0, 2) == 1
    certificate = Partition.from_labels(adv.cls)
    assert certificate.k == 3  # {0,2} plus two singletons
    verdict = adv.declare(certificate)
    assert not verdict.forced
    assert verdict.witness == Partition.from_blocks([[0, 2], [1, 3]])


def test_unknown_count_forced_run():
    adv = UnknownCountAdversary(6, 3)
    result = learn_partition_representatives(adv, 6)
    verdict = adv.declare(result.answer)
    assert verdict.forced
    assert result.queries_used >= bounds.membership_unknown_count(6, 3)
    assert Partition.from_labels(adv.cls) == result.answer


# Contraction walkthrough: n=6, k=3, four edges already down, same coloring
# classes as the separability walkthrough.
CONTRACTION_EDGES = [(0, 3), (0, 5), (1, 5), (1, 4)]


def make_contraction_adversary():
    return ContractionAdversary(6, 3, initial_coloring=WALKTHROUGH_CHI,
                                initial_edges=CONTRACTION_EDGES)


def test_contraction_walkthrough():
    adv = make_contraction_adversary()
    # different colors: plain edge, answer 0
    assert adv.membership_query(2, 3) == 0
    # same color, degree-2 endpoint 1 is big, endpoint 2 small: recolor 2
    assert adv.masks[1].bit_count() == 2 and adv.masks[2].bit_count() == 1
    assert adv.membership_query(1, 2) == 0
    assert adv.color[2] == 3  # recolored away from color 1, avoiding neighbor 3
    # both endpoints now big: contract and answer 1
    assert adv.masks[0].bit_count() == 2 and adv.masks[1].bit_count() == 3
    assert adv.membership_query(0, 1) == 1
    assert adv.cls[0] == adv.cls[1]
    assert [e.answer for e in adv.ledger] == [0, 0, 1]
    assert adv.chi_partition() == Partition.from_blocks([[0, 1], [3, 4], [2, 5]])


def test_contraction_answers_a_reasked_contracted_pair():
    adv = make_contraction_adversary()
    adv.membership_query(2, 3)
    adv.membership_query(1, 2)
    adv.membership_query(0, 1)
    masks, color, cls = list(adv.masks), list(adv.color), list(adv.cls)
    # 0 and 1 share a class: the honest answer is 1, and the state stays
    assert adv.membership_query(1, 0) == 1
    assert [(e.args, e.answer) for e in adv.ledger] == [
        ((2, 3), 0), ((1, 2), 0), ((0, 1), 1), ((1, 0), 1)]
    assert (adv.masks, adv.color, adv.cls) == (masks, color, cls)


def test_contraction_recolors_first_argument_when_both_small():
    adv = ContractionAdversary(4, 3, initial_coloring=(1, 1, 1, 1))
    assert adv.membership_query(0, 1) == 0
    assert adv.color[0] != 1 and adv.color[1] == 1


def test_contraction_never_searches_colorings():
    reset_search_stats()
    for n, k in [(6, 3), (9, 4), (12, 5)]:
        adv = ContractionAdversary(n, k)
        learn_partition_all_pairs(adv, n)
    assert SEARCH_STATS["invocations"] == 0


def test_contraction_contractions_match_yes_answers():
    rng = random.Random(11)
    adv = ContractionAdversary(8, 3)
    contractions = 0
    for _ in range(40):
        x, y = rng.sample(range(8), 2)
        together = adv.cls[x] == adv.cls[y]
        answer = adv.membership_query(x, y)
        assert answer or not together
        contractions += answer and not together
        assert replay_matches_partition(adv.ledger.entries, adv.chi_partition())
    assert len(adv.masks) == len(adv.color) == max(adv.cls) + 1 == 8 - contractions


def _consistent_partitions(n, no_pairs, yes_pairs):
    """Every partition honoring all recorded answers, by brute force."""
    out = []
    for p in proper_partitions([0] * n, n):
        if any(p.same_block(u, v) for u, v in no_pairs):
            continue
        if any(not p.same_block(u, v) for u, v in yes_pairs):
            continue
        out.append(p)
    return out


def test_unknown_count_certificate_refines_every_consistent_partition():
    rng = random.Random(17)
    for trial in range(12):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        adv = UnknownCountAdversary(n, k)
        for _ in range(rng.randint(0, 10)):
            x, y = rng.sample(range(n), 2)
            adv.membership_query(x, y)
        certificate = Partition.from_labels(adv.cls)
        yes_graph = Graph.from_edges(n, [e.args for e in adv.ledger if e.answer])
        assert certificate == connected_components(yes_graph)
        no_pairs = [(e.args[0], e.args[1]) for e in adv.ledger if e.answer == 0]
        yes_pairs = [(e.args[0], e.args[1]) for e in adv.ledger if e.answer == 1]
        consistent = _consistent_partitions(n, no_pairs, yes_pairs)
        assert adv.chi_partition() in consistent
        assert certificate in consistent
        for p in consistent:
            assert is_refinement(certificate, p)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_forced_verdicts_require_the_lower_bound_queries(seed):
    # arbitrary query streams: a run shorter than the bound can never be
    # audited forced (declaring the coloring's classes, the only claim that
    # could possibly be forced)
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    k = rng.randint(2, n)
    for make, bound in [
        (lambda: SeparabilityAdversary(n, k), bounds.membership_known_count(n, k)),
        (lambda: UnknownCountAdversary(n, k), bounds.membership_unknown_count(n, k)),
        (lambda: ContractionAdversary(n, k), bounds.contraction_adversary_lower(n, k)),
    ]:
        adv = make()
        for _ in range(rng.randint(0, 2 * n)):
            x, y = rng.sample(range(n), 2)
            adv.membership_query(x, y)
        if adv.declare(adv.chi_partition()).forced:
            assert adv.ledger.count >= bound


def test_representatives_forced_regardless_of_vertex_order():
    rng = random.Random(23)
    for _ in range(6):
        n = rng.randint(3, 8)
        k = rng.randint(2, n)
        order = list(range(n))
        rng.shuffle(order)
        adv = SeparabilityAdversary(n, k)
        result = learn_partition_representatives(adv, n, k_known=k, order=order)
        assert result.queries_used == bounds.membership_known_count(n, k)
        assert adv.declare(result.answer).forced


def test_adversary_transcript_replays_from_jsonl():
    # a recorded ledger round-trips through JSONL and replays identically
    # on a freshly built adversary with the same construction parameters
    adv = SeparabilityAdversary(6, 3)
    learn_partition_all_pairs(adv, 6)
    text = adv.ledger.to_jsonl()
    from graphquery.ledger import QueryLedger

    restored = QueryLedger.from_jsonl(text)
    assert restored.entries == adv.ledger.entries
    fresh = SeparabilityAdversary(6, 3)
    assert replay_on_session(restored.entries, fresh)


def test_contraction_forced_run_and_audit():
    adv = ContractionAdversary(7, 3)
    result = learn_partition_all_pairs(adv, 7)
    verdict = adv.declare(result.answer)
    assert verdict.forced
    assert result.queries_used >= bounds.contraction_adversary_lower(7, 3)
    wrong = Partition.from_blocks([range(7)])
    bad = adv.declare(wrong)
    assert not bad.forced and bad.witness is not None


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SeparabilityAdversary(6, 3, initial_coloring=(1, 2)),
         "initial coloring has 2 entries for 6 vertices"),
        (lambda: ContractionAdversary(6, 3, initial_coloring=(1, 2)),
         "initial coloring has 2 entries for 6 vertices"),
        (lambda: ContractionAdversary(4, 3, initial_coloring=(1, 2, 3, 4)), "color 4 outside palette 1..3"),
        (lambda: ContractionAdversary(4, 2, initial_edges=[(0, 9)]), "edge (0, 9) invalid for n=4"),
        (lambda: SeparabilityAdversary(4, 1), "need 2 <= k <= n, got k=1, n=4"),
        (lambda: SeparabilityAdversary(4, 5), "need 2 <= k <= n, got k=5, n=4"),
        (lambda: ContractionAdversary(4, 1), "need 2 <= k <= n, got k=1, n=4"),
        (lambda: ContractionAdversary(4, 5), "need 2 <= k <= n, got k=5, n=4"),
        (lambda: UnknownCountAdversary(4, 0), "need 1 <= k <= n, got k=0, n=4"),
        (lambda: UnknownCountAdversary(4, 5), "need 1 <= k <= n, got k=5, n=4"),
        (lambda: SeparabilityAdversary(4, 2, initial_coloring=(1, 1, 2, 2), initial_edges=[(0, 1)]),
         "initial coloring is not proper on the initial edges"),
        (lambda: ContractionAdversary(4, 2, initial_coloring=(1, 2, 2, 1), initial_edges=[(1, 2)]),
         "initial coloring is not proper on the initial edges"),
    ],
    ids=["short-coloring", "contraction-short-coloring", "color-outside-palette", "edge-outside-range",
         "separability-k-below-2", "separability-k-above-n", "contraction-k-below-2",
         "contraction-k-above-n", "unknown-count-k-below-1", "unknown-count-k-above-n",
         "improper-coloring", "contraction-improper-coloring"],
)
def test_initial_arguments_are_validated(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_start_state_checks_survive_optimisation():
    # the constructor table again, in a `python -O` child: the start-state
    # checks are if/raise, so stripping asserts does not strip them
    code = (
        "import test_adversaries as t\n"
        "if __debug__: raise SystemExit('asserts are on')\n"
        "cases = t.test_initial_arguments_are_validated.pytestmark[0].args[1]\n"
        "for make, message in cases:\n"
        "    try:\n"
        "        make()\n"
        "    except ValueError as e:\n"
        "        if str(e) != message: raise SystemExit(f'{e} != {message}')\n"
        "    else:\n"
        "        raise SystemExit(f'no error: {message}')\n"
        "print(len(cases))\n"
    )
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.dirname(os.path.dirname(adversaries.__file__)), tests])
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, cwd=tests)
    assert (out.returncode, out.stdout, out.stderr) == (0, "12\n", "")


def test_hidden_count_takes_no_start_state():
    with pytest.raises(TypeError):
        UnknownCountAdversary(4, 2, initial_coloring=(1, 1, 2, 2))


ADVERSARY_CLASSES = {
    "separability": SeparabilityAdversary,
    "unknown-count": UnknownCountAdversary,
    "contraction": ContractionAdversary,
}
# (variant, n, k, learner, shuffle seed) -> (answer bits, claim, detail of the
# forced verdict, witness and detail for a wrong singletons claim)
_SEP_UNIQUE = "auxiliary graph has a unique consistent partition"
_UNK_UNIQUE = "certificate components and auxiliary graph agree"
_CON_UNIQUE = "contracted graph has a unique consistent partition"
_DIFFERS = "claim differs from the single consistent partition"
_REFINES = "certificate components form a consistent refinement"
_SECOND = "a second consistent partition exists"
_N9 = ((0, 1, 2, 3, 4, 7, 8), (5,), (6,))
_N11 = ((0, 1, 2, 4, 5, 6, 8, 9), (3,), (7,), (10,))
_ALL9 = ((0,), (1,), (2, 3, 4, 5, 6, 7, 8))
FROZEN_TRANSCRIPTS = {
    ("separability", 9, 3, "reps", 1): ("0" * 15, _N9, _SEP_UNIQUE, _N9, _DIFFERS),
    ("separability", 11, 4, "reps", 2): ("0" * 27, _N11, _SEP_UNIQUE, _N11, _DIFFERS),
    ("separability", 9, 3, "all-pairs", None): ("0" * 15 + "1" * 6, _ALL9, _SEP_UNIQUE, _ALL9, _DIFFERS),
    ("unknown-count", 9, 3, "reps", 1): ("000001001001001001001", _N9, _UNK_UNIQUE, _N9, _REFINES),
    ("unknown-count", 11, 4, "reps", 2): (
        "0000000001000100010001000100010001", _N11, _UNK_UNIQUE, _N11, _REFINES),
    ("unknown-count", 9, 3, "all-pairs", None): ("0" * 15 + "1" * 6, _ALL9, _UNK_UNIQUE, _ALL9, _REFINES),
    ("contraction", 9, 3, "reps", 1): ("0" * 15, _N9, _CON_UNIQUE, _N9, _DIFFERS),
    ("contraction", 11, 4, "reps", 2): ("0" * 27, _N11, _CON_UNIQUE, _N11, _DIFFERS),
    ("contraction", 9, 3, "all-pairs", None): ("0" * 15 + "1" * 6, _ALL9, _CON_UNIQUE, _ALL9, _DIFFERS),
}


@pytest.mark.parametrize("case", FROZEN_TRANSCRIPTS, ids=lambda case: "-".join(map(str, case)))
def test_learner_transcripts_are_frozen(case):
    # exact answers and audits on shuffled (non-ascending) vertex orders
    variant, n, k, learner, seed = case
    bits, claim, detail, wrong_witness, wrong_detail = FROZEN_TRANSCRIPTS[case]
    adv = ADVERSARY_CLASSES[variant](n, k)
    if learner == "reps":
        order = list(range(n))
        random.Random(seed).shuffle(order)
        k_known = None if variant == "unknown-count" else k
        result = learn_partition_representatives(adv, n, k_known=k_known, order=order)
    else:
        result = learn_partition_all_pairs(adv, n)
    assert "".join(str(e.answer) for e in adv.ledger) == bits
    assert result.answer.blocks == claim
    verdict = adv.declare(result.answer)
    assert (verdict.forced, verdict.witness, verdict.detail) == (True, None, detail)
    wrong = adv.declare(Partition.from_labels(range(n)))
    assert (wrong.forced, wrong.witness.blocks, wrong.detail) == (False, wrong_witness, wrong_detail)


# variant -> (answer bits, chi classes, witness and detail for the chi claim,
# witness and detail for a wrong singletons claim)
FROZEN_STREAMS = {
    "separability": (
        "0" * 14, ((0, 1, 2, 5), (3, 6, 7, 8), (4,)),
        ((0, 1, 2, 5), (3, 6, 8), (4, 7)), _SECOND,
        ((0, 1, 2, 5), (3, 6, 7, 8), (4,)), _SECOND,
    ),
    "unknown-count": (
        "0" * 14, ((0, 1, 2, 5), (3, 6, 7, 8), (4,)),
        tuple((v,) for v in range(9)), _REFINES,
        ((0, 1, 2, 5), (3, 6, 7, 8), (4,)), _SECOND,
    ),
    "contraction": (
        "00000000010000", ((0, 1, 4, 7), (2, 8), (3, 5, 6)),
        ((0, 1, 4, 5, 7), (2, 6, 8), (3,)), _SECOND,
        ((0, 1, 4, 5, 7), (2, 6, 8), (3,)), _SECOND,
    ),
}


@pytest.mark.parametrize("variant", sorted(FROZEN_STREAMS))
def test_random_pair_stream_transcripts_are_frozen(variant):
    # a short seeded stream leaves several consistent partitions, so both
    # audits must hand back the same witness as before
    bits, chi, witness, detail, wrong_witness, wrong_detail = FROZEN_STREAMS[variant]
    adv = ADVERSARY_CLASSES[variant](9, 3)
    rng = random.Random(4)
    for _ in range(14):
        x, y = rng.sample(range(9), 2)
        adv.membership_query(x, y)
    assert "".join(str(e.answer) for e in adv.ledger) == bits
    assert adv.chi_partition().blocks == chi
    verdict = adv.declare(adv.chi_partition())
    assert (verdict.forced, verdict.witness.blocks, verdict.detail) == (False, witness, detail)
    wrong = adv.declare(Partition.from_labels(range(9)))
    assert (wrong.forced, wrong.witness.blocks, wrong.detail) == (False, wrong_witness, wrong_detail)


# variant -> (answer-search nodes, audit-search nodes), summed over the reps
# learner at n=12, k=3 on the orders random.Random(s).shuffle, s = 0..3
PINNED_SEARCH_NODES = {
    "separability": (0, 1308),
    "unknown-count": (108, 12),
    "contraction": (0, 1308),
}


@pytest.mark.parametrize("variant", sorted(PINNED_SEARCH_NODES))
def test_search_node_counts_are_pinned(variant):
    # a change to the search or to how callers stop it must not move these
    answers = audits = 0
    for seed in range(4):
        order = list(range(12))
        random.Random(seed).shuffle(order)
        adv = ADVERSARY_CLASSES[variant](12, 3)
        k_known = None if variant == "unknown-count" else 3
        reset_search_stats()
        result = learn_partition_representatives(adv, 12, k_known=k_known, order=order)
        answers += SEARCH_STATS["nodes"]
        reset_search_stats()
        assert adv.declare(result.answer).forced
        audits += SEARCH_STATS["nodes"]
    assert (answers, audits) == PINNED_SEARCH_NODES[variant]


# variant -> SHA-256 over each run's JSONL ledger, claim, verdict on the
# claim and chi partition, for the reps learner at n = 8..14, k = 2..4 on the
# orders random.Random(s).shuffle, s = 0..3
PINNED_SHUFFLED_DIGESTS = {
    "separability": "be98c9062af7d49caa42e7e0109a091efd27d9b05ae72ce5df2a85ec5d2a9fac",
    "unknown-count": "521c916474bc8e36cfa0978de4bcb18d5d70129453185cda6966474f92309b5b",
    "contraction": "2cf4e305215dca42f89f803e0225154556059c9c8975ec1c80aed5d6f8295bbd",
}


@pytest.mark.parametrize("variant", sorted(PINNED_SHUFFLED_DIGESTS))
def test_shuffled_adversary_transcripts_are_pinned(variant):
    # a change to how an adversary stores its state must not move a byte
    digest = hashlib.sha256()
    for n in range(8, 15):
        for k in range(2, 5):
            for seed in range(4):
                order = list(range(n))
                random.Random(seed).shuffle(order)
                adv = ADVERSARY_CLASSES[variant](n, k)
                k_known = None if variant == "unknown-count" else k
                result = learn_partition_representatives(adv, n, k_known=k_known, order=order)
                verdict = adv.declare(result.answer)
                digest.update(adv.ledger.to_jsonl().encode())
                digest.update(f"{result.answer.blocks}|{(verdict.forced, verdict.witness, verdict.detail)}"
                              f"|{adv.chi_partition().blocks}\n".encode())
    assert digest.hexdigest() == PINNED_SHUFFLED_DIGESTS[variant]


# variant -> SHA-256 over each raw stream's JSONL ledger, chi partition and
# verdict on chi, at n = 40, k = 7: the stream is a prefix, of a length drawn
# from the same rng, of a random.Random(s) shuffle of all 780 pairs, s = 0..3
PINNED_RAW_STREAM_DIGESTS = {
    "separability": "26b2fb0a5b458f9423f2f4f164f612505136ee32eeaa68a726989ea0da5dfbc0",
    "unknown-count": "61635730f953d132fc627dfb25322a47683460c4902d962ffcd8e910a5f37c7c",
    "contraction": "ecbddea19e2d9684ee89506b36c6a93cc1b73d684b198aff66d5b113b10356fe",
}


@pytest.mark.parametrize("variant", sorted(PINNED_RAW_STREAM_DIGESTS))
def test_raw_query_stream_transcripts_are_pinned(variant):
    # streams no learner would ask: a change to how the adversaries search
    # may move node counts, but not an answer, chi or a verdict
    digest = hashlib.sha256()
    for seed in range(4):
        pairs = list(combinations(range(40), 2))
        rng = random.Random(seed)
        rng.shuffle(pairs)
        stop = rng.randrange(len(pairs) // 4, len(pairs))
        adv = ADVERSARY_CLASSES[variant](40, 7)
        for x, y in pairs[:stop]:
            adv.membership_query(x, y)
        chi = adv.chi_partition()
        verdict = adv.declare(chi)
        witness = verdict.witness and verdict.witness.to_json()
        digest.update(adv.ledger.to_jsonl().encode())
        digest.update(f"{chi.to_json()}|{verdict.forced}|{verdict.detail}|{witness}\n".encode())
    assert digest.hexdigest() == PINNED_RAW_STREAM_DIGESTS[variant]


def test_shuffled_order_contraction_audit_stays_small():
    # the failure frontier of plain backtracking: this audit used to exhaust
    # the default 5M-node budget, and forward checking ends it in ~262k nodes
    order = list(range(21))
    random.Random(1).shuffle(order)
    reset_search_stats()
    adv = ContractionAdversary(21, 3)
    result = learn_partition_representatives(adv, 21, k_known=3, order=order)
    assert adv.declare(result.answer).forced
    assert result.queries_used >= bounds.contraction_adversary_lower(21, 3)
    assert replay_matches_partition(adv.ledger.entries, result.answer)
    assert SEARCH_STATS["nodes"] < 1_000_000


@pytest.mark.parametrize("n,k", [(18, 5), (20, 5), (30, 6)])
def test_hidden_count_answers_on_shuffled_orders_stay_small(n, k):
    # a label-order proof of inseparability places the isolated classes
    # first and exhausts the 5M-node budget on these orders from n = 18 on;
    # high-degree first proves each in a few dozen nodes
    reset_search_stats()
    for seed in range(4):
        order = list(range(n))
        random.Random(seed).shuffle(order)
        adv = UnknownCountAdversary(n, k)
        result = learn_partition_representatives(adv, n, k_known=None, order=order)
        assert adv.declare(result.answer).forced
        assert result.queries_used == bounds.membership_unknown_count(n, k)
        assert replay_matches_partition(adv.ledger.entries, result.answer)
    assert SEARCH_STATS["nodes"] < 2_000


@st.composite
def _adversary_runs(draw):
    variant = draw(st.sampled_from(sorted(ADVERSARY_CLASSES)))
    n = draw(st.integers(2, 12))
    low = 1 if variant == "unknown-count" else 2
    k = draw(st.integers(low, min(4, n)))
    return variant, n, k, draw(st.permutations(range(n)))


@settings(max_examples=100, deadline=None)
@given(_adversary_runs())
def test_representatives_forced_on_any_order(run):
    variant, n, k, order = run
    adv = ADVERSARY_CLASSES[variant](n, k)
    k_known = None if variant == "unknown-count" else k
    result = learn_partition_representatives(adv, n, k_known=k_known, order=order)
    assert adv.declare(result.answer).forced
    if variant == "separability":
        assert result.queries_used == bounds.membership_known_count(n, k)
    elif variant == "unknown-count":
        assert result.queries_used == bounds.membership_unknown_count(n, k)
    else:
        assert result.queries_used >= bounds.contraction_adversary_lower(n, k)
    assert replay_matches_partition(adv.ledger.entries, result.answer)


@st.composite
def _raw_streams(draw):
    variant = draw(st.sampled_from(sorted(ADVERSARY_CLASSES)))
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1 if variant == "unknown-count" else 2, n))
    # either order, repeats, pairs already answered, pairs inside a
    # contracted class: every pair of distinct vertices is a valid query
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    size = draw(st.integers(0, 3 * n * n))
    return variant, n, k, draw(st.lists(pair, min_size=size, max_size=size))


@settings(max_examples=150, deadline=None)
@given(_raw_streams())
def test_any_valid_query_stream(run):
    # after every query the ledger replays on the reported classes and the
    # working coloring is proper on the stored masks; the final audit of those
    # classes is forced iff brute force finds them the only partition that
    # fits the ledger, with at most k blocks when k is public
    variant, n, k, stream = run
    adv = ADVERSARY_CLASSES[variant](n, k)
    for x, y in stream:
        adv.membership_query(x, y)
        assert replay_matches_partition(adv.ledger.entries, adv.chi_partition())
        assert len(adv.color) == len(adv.masks) and all(1 <= c <= k for c in adv.color)
        assert all(adv.color[i] != adv.color[j] for i, j in mask_edges(adv.masks))
    claim = adv.chi_partition()
    no_pairs = [e.args for e in adv.ledger if e.answer == 0]
    yes_pairs = [e.args for e in adv.ledger if e.answer == 1]
    consistent = _consistent_partitions(n, no_pairs, yes_pairs)
    if variant != "unknown-count":
        consistent = [p for p in consistent if p.k <= k]
    assert adv.declare(claim).forced == (consistent == [claim])


def _random_start(n: int, k: int, rng: random.Random):
    """A proper coloring that no search would produce first, and edges it allows."""
    colors = [rng.randint(1, k) for _ in range(n)]
    edges = [(u, v) for u, v in combinations(range(n), 2)
             if colors[u] != colors[v] and rng.random() < 0.3]
    return colors, edges


def _quotient_masks(n: int, pairs, find) -> list[int]:
    """Neighbour bitmasks of the pairs mapped through `find`, a self-loop as
    the vertex's own bit."""
    masks = [0] * n
    for x, y in pairs:
        masks[find(x)] |= 1 << find(y)
        masks[find(y)] |= 1 << find(x)
    return masks


@pytest.mark.parametrize("start", ["separability", "separability-initial", "unknown-count", "contraction"])
def test_live_masks_and_coloring_track_the_auxiliary_graph(start):
    # seeded pair streams with repeats, inseparable pairs and pairs inside a
    # class. After every query each adversary's masks hold the quotient, by
    # the classes `cls`, of the starting edges and the pairs answered 0; the
    # classes are the components of the pairs answered 1; and the working
    # coloring is proper on the masks. The search adversaries answer 0 iff
    # brute force finds the pair separable in the vertex graph G of those
    # edges, and chi is the start coloring up to the first separable pair the
    # start colors alike, and the cold search's first coloring of G from then on.
    rng = random.Random(f"live-masks/{start}")
    repeats = ones = inside = 0
    for _ in range(40):
        n = rng.randint(2, 9)
        edges = []
        if start == "unknown-count":
            k = rng.randint(1, min(4, n))
            adv, start_colors = UnknownCountAdversary(n, k), (1,) * n
        elif start == "separability":
            k = rng.randint(2, min(4, n))
            adv, start_colors = SeparabilityAdversary(n, k), tuple(v % k + 1 for v in range(n))
        elif start == "separability-initial":
            k = rng.randint(2, min(4, n))
            start_colors, edges = _random_start(n, k, rng)
            adv = SeparabilityAdversary(n, k, initial_coloring=start_colors, initial_edges=edges)
        else:
            k = rng.randint(2, min(4, n))
            start_colors, edges = _random_start(n, k, rng) if rng.random() < 0.5 else (None, [])
            adv = ContractionAdversary(n, k, initial_coloring=start_colors, initial_edges=edges)
        start_chi = Coloring(tuple(start_colors), k) if start_colors else None
        # the all-1 start is already the first coloring of the edgeless graph
        switched = start == "unknown-count"
        asked = set()
        for _ in range(3 * n * n):
            x, y = rng.sample(range(n), 2)
            pair = (min(x, y), max(x, y))
            repeats += pair in asked
            asked.add(pair)
            inside += adv.cls[x] == adv.cls[y]
            zeros = edges + [e.args for e in adv.ledger if not e.answer]
            separable = bool(proper_partitions(Graph.from_edges(n, zeros + [pair]), k, limit=1))
            answer = adv.membership_query(x, y)
            ones += answer
            zeros = edges + [e.args for e in adv.ledger if not e.answer]
            assert adv.masks == _quotient_masks(len(adv.masks), zeros, adv.cls.__getitem__)
            assert Partition.from_labels(adv.cls) == connected_components(
                Graph.from_edges(n, [e.args for e in adv.ledger if e.answer]))
            assert len(adv.color) == len(adv.masks) and all(1 <= c <= k for c in adv.color)
            assert all(adv.color[i] != adv.color[j] for i, j in mask_edges(adv.masks))
            if start == "contraction":
                continue
            assert answer == (not separable)
            graph = Graph.from_edges(n, zeros)
            switched = switched or (separable and start_colors[x] == start_colors[y])
            assert adv.chi == (find_k_coloring(graph, k) if switched else start_chi)
            assert adv.chi.is_proper(graph)
    # a stream contracts at most n - 1 times
    assert repeats > 1000 and ones > (50 if start == "contraction" else 100) and inside > 100


@pytest.mark.parametrize("variant", ["separability", "unknown-count"])
def test_chi_read_late_is_the_first_coloring_of_the_auxiliary_graph(variant):
    # chi is read only once a stream ends, so a 0-answer may have made the
    # cached coloring improper and a contraction may since have merged two
    # classes it colors apart; chi must still be the start coloring while
    # that is proper on the vertex graph G, and G's first coloring otherwise
    rng = random.Random(f"late-chi/{variant}")
    stale = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        k = rng.randint(1 if variant == "unknown-count" else 2, min(4, n))
        adv = ADVERSARY_CLASSES[variant](n, k)
        for _ in range(rng.randint(0, n * n)):
            adv.membership_query(*rng.sample(range(n), 2))
        graph = Graph.from_edges(n, [e.args for e in adv.ledger if not e.answer])
        start = Coloring(tuple([1] * n if variant == "unknown-count" else [v % k + 1 for v in range(n)]), k)
        stale += not start.is_proper(graph) and max(adv.cls) < n - 1
        assert adv.chi == (start if start.is_proper(graph) else find_k_coloring(graph, k))
    assert stale > 50


# SHA-256 over every query, its answer and the coloring after it (contraction:
# the class colors lifted to every vertex), then the claim and
# verdict, for each ascending-order duel grid pairing over n <= 10 and every k
FROZEN_GRID_DIGESTS = {
    ("reps-known", "separability"): "98b806388f0bfa134991dc316d84250285c79343998e8fa36ab380b487d822cf",
    ("all-pairs", "separability"): "73080e33e118f7253926db133e97f2deb4451b827b6da86626cf1ab8321feda4",
    ("reps-known", "contraction"): "d18e046aee8afe05a77748afe4fb43b835ff1584f5323511ffde5756d6fc83aa",
    ("all-pairs", "contraction"): "3381361774b4157b32d78155b1e3814e5fc1ee49cdaba50f31c8daf646f3128d",
    ("reps-unknown", "unknown-count"): "06a67c79d82f5d22b4088cc0eb03163f81a271dce076fbadf138d820be2ab929",
}


def _grid_digest(learner: str, variant: str, n_max: int) -> str:
    digest = hashlib.sha256()
    for n in range(2, n_max + 1):
        for k in range(1 if variant == "unknown-count" else 2, n + 1):
            adv = ADVERSARY_CLASSES[variant](n, k)
            ask = adv.membership_query

            def recorded(x, y, adv=adv, ask=ask):
                answer = ask(x, y)
                if variant == "contraction":
                    colors = tuple(adv.color[c] for c in adv.cls)
                else:
                    colors = adv.chi.colors
                digest.update(f"{x},{y},{answer}:{colors};".encode())
                return answer

            adv.membership_query = recorded
            if learner == "all-pairs":
                result = learn_partition_all_pairs(adv, n)
            else:
                k_known = k if learner == "reps-known" else None
                result = learn_partition_representatives(adv, n, k_known=k_known)
            verdict = adv.declare(result.answer)
            digest.update(f"{result.answer.blocks}|{verdict.forced}\n".encode())
    return digest.hexdigest()


def test_ascending_grid_transcripts_are_frozen():
    got = {pairing: _grid_digest(*pairing, n_max=10) for pairing in FROZEN_GRID_DIGESTS}
    assert got == FROZEN_GRID_DIGESTS


def _adversary_at_a_search():
    """SeparabilityAdversary(4, 2) after the queries (0, 1) and (2, 3). Its
    working coloring is (1, 2, 1, 2), so on the next query (0, 2) neither
    endpoint has a free color, and the answer takes the search."""
    adv = SeparabilityAdversary(4, 2)
    adv.membership_query(0, 1)
    adv.membership_query(2, 3)
    assert adv.color == [1, 2, 1, 2]
    return adv


def test_a_search_that_gives_up_leaves_the_state_alone(monkeypatch):
    # a fresh adversary moves 2 to its free color 2, with no search
    reset_search_stats()
    assert SeparabilityAdversary(4, 2).membership_query(0, 2) == 0
    assert SEARCH_STATS["invocations"] == 0

    adv = _adversary_at_a_search()
    state = list(adv.masks), list(adv.color), list(adv.classes), list(adv.cls), adv.chi

    def give_up(*args, **kwargs):
        raise BudgetExceededError("stub search gave up")

    monkeypatch.setattr(adversaries, "find_k_coloring", give_up)
    with pytest.raises(BudgetExceededError):
        adv.membership_query(0, 2)
    assert (adv.masks, adv.color, adv.classes, adv.cls, adv.chi) == state
    assert adv.ledger.count == 2


def test_a_new_coloring_is_checked_against_every_old_edge(monkeypatch):
    adv = _adversary_at_a_search()

    def improper(*args, **kwargs):
        # separates the queried pair 0, 2 but joins the old edge 0-1
        return Coloring((1, 1, 2, 1), 2)

    monkeypatch.setattr(adversaries, "find_k_coloring", improper)
    with pytest.raises(AssertionError):
        adv.membership_query(0, 2)


def test_a_free_color_move_is_checked_against_every_vertex():
    # plant a clash on the edge 0-3, away from the queried pair: both ends
    # keep color 1, so `color` and `classes` still agree with each other
    adv = SeparabilityAdversary(6, 3)
    assert adv.color == [1, 2, 3, 1, 2, 3]
    adv.masks[0] |= 1 << 3
    adv.masks[3] |= 1 << 0
    # 1 and 4 share color 2, and 4 moves to its free color 1: a check of the
    # moved vertex alone sees no clash
    with pytest.raises(AssertionError):
        adv.membership_query(1, 4)
    assert adv.color[4] == 1
