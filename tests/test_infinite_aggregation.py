import random
from fractions import Fraction

import pytest

from finiagg import (
    Dataset,
    IAVoteDistribution,
    LabeledSample,
    LearnerSpec,
    ia_brute_force_check,
    ia_radius,
    ia_vote_distributions,
    ia_votes,
    predict,
    train,
)
from finiagg import cli
from finiagg.datamodel import argmax
from finiagg.errors import DataError, DimensionMismatch, InstanceTooLarge, LimitError

MAJORITY = LearnerSpec("majority-label")
CENTROID = LearnerSpec("nearest-centroid")


def _dataset(pairs, n_classes):
    return Dataset(
        tuple(LabeledSample(tuple(f), lab) for f, lab in pairs),
        n_classes,
        len(pairs[0][0]) if pairs else 1,
    )


def test_empty_dataset_concentrates_on_the_empty_subset_vote():
    empty = Dataset((), 2, 1)
    dist = ia_votes(empty, (5,), k=3, spec=MAJORITY)
    assert dist.per_class == (Fraction(1), Fraction(0))
    assert dist.prediction == 0
    assert dist.conditional == ()


def test_singleton_dataset_splits_by_selection_probability():
    ds = _dataset([(([7]), 1)], 2)
    dist = ia_votes(ds, (7,), k=2, spec=MAJORITY)
    # half the mass trains on {} (predicts 0), half on the one sample
    assert dist.per_class == (Fraction(1, 2), Fraction(1, 2))
    assert dist.prediction == 0  # tie toward the smaller index
    assert dist.conditional[0] == (Fraction(0), Fraction(1))


def test_singleton_tie_to_larger_index_challenger_gives_radius_zero():
    ds = _dataset([(([7]), 1)], 2)
    dist = ia_votes(ds, (7,), k=2, spec=MAJORITY)
    assert ia_radius(dist) == 0


def test_constant_classifier_certifies_floor_k_halves():
    ds = _dataset([(([1]), 0), (([2]), 0)], 2)
    for k in (2, 3, 5, 8):
        dist = ia_votes(ds, (9,), k=k, spec=MAJORITY)
        assert dist.per_class[0] == 1
        assert all(cond == (Fraction(1), Fraction(0)) for cond in dist.conditional)
        assert ia_radius(dist) == k // 2


def test_size_limit():
    ds = _dataset([(([i]), 0) for i in range(6)], 2)
    with pytest.raises(InstanceTooLarge):
        ia_votes(ds, (0,), k=2, spec=MAJORITY, limit=5)


def _random_dataset(rng, max_size=8, n_classes=3, allow_empty=False):
    n = rng.randint(0 if allow_empty else 1, max_size)
    pairs = [([rng.randrange(6), rng.randrange(6)], rng.randrange(n_classes)) for _ in range(n)]
    return _dataset(pairs, n_classes) if pairs else Dataset((), n_classes, 2)


def test_normalization_is_exact(rng):
    for _ in range(25):
        ds = _random_dataset(rng, max_size=7, allow_empty=True)
        k = rng.choice([2, 3, 4])
        spec = rng.choice([MAJORITY, CENTROID])
        dist = ia_votes(ds, (rng.randrange(6), rng.randrange(6)), k, spec)
        assert sum(dist.per_class) == 1
        for cond in dist.conditional:
            assert sum(cond) == 1


def test_decomposition_identity(rng):
    # overall score = (1/k) * conditional + (1 - 1/k) * score without the sample
    for _ in range(20):
        ds = _random_dataset(rng, max_size=6)
        k = rng.choice([2, 3])
        spec = rng.choice([MAJORITY, CENTROID])
        x = (rng.randrange(6), rng.randrange(6))
        dist = ia_votes(ds, x, k, spec)
        drop = rng.randrange(len(ds.samples))
        rest = Dataset(
            tuple(s for i, s in enumerate(ds.samples) if i != drop),
            ds.n_classes,
            ds.feature_dim,
        )
        rest_dist = ia_votes(rest, x, k, spec)
        for c in range(ds.n_classes):
            assert dist.per_class[c] == (
                Fraction(1, k) * dist.conditional[drop][c]
                + (1 - Fraction(1, k)) * rest_dist.per_class[c]
            )


def test_monte_carlo_estimate_agrees():
    rng = random.Random(11)
    ds = _dataset(
        [([1, 0], 0), ([2, 1], 1), ([0, 3], 2), ([4, 4], 1), ([1, 2], 0)], 3
    )
    k = 3
    x = (2, 2)
    dist = ia_votes(ds, x, k, spec=MAJORITY)
    draws = 100_000
    hits = [0] * 3
    from finiagg import predict, train

    for _ in range(draws):
        chosen = [s for s in ds.samples if rng.random() < 1 / k]
        model = train(MAJORITY, chosen[::-1], 3)
        hits[predict(model, x)] += 1
    for c in range(3):
        p = dist.per_class[c]
        se = (float(p * (1 - p)) / draws) ** 0.5
        assert abs(hits[c] / draws - float(p)) <= 4 * se + 1e-12


def _selection_radius(dist):
    # independent evaluator: the best m-element pick from the finite costs
    # plus unlimited bulk copies, found by trying every split explicitly
    c = dist.prediction
    k = dist.k
    radius = k
    for cp in range(len(dist.per_class)):
        if cp == c:
            continue
        gap = dist.per_class[c] - dist.per_class[cp]
        bulk = 1 + gap
        finite = sorted(
            (1 + cond[c] - cond[cp] for cond in dist.conditional), reverse=True
        )
        m = 0
        while m < k:
            best = max(
                sum(finite[:t]) + (m + 1 - t) * bulk
                for t in range(0, min(m + 1, len(finite)) + 1)
            )
            cost = Fraction(best, k)
            if cost > gap or (cp < c and cost == gap):
                break
            m += 1
        radius = min(radius, m)
    return radius


def _stepwise_radius(dist):
    # the merge one poison at a time: take the larger of the next finite cost
    # and the bulk value until the cost passes the margin
    c = dist.prediction
    k = dist.k
    radius = k
    for cp in range(len(dist.per_class)):
        if cp == c:
            continue
        gap = dist.per_class[c] - dist.per_class[cp]
        bulk = 1 + gap
        finite = sorted(
            (1 + cond[c] - cond[cp] for cond in dist.conditional), reverse=True
        )
        total = Fraction(0)
        ptr = 0
        m = 0
        while m < k:
            if ptr < len(finite) and finite[ptr] >= bulk:
                total += finite[ptr]
                ptr += 1
            else:
                total += bulk
            cost = total / k
            if cost > gap or (cp < c and cost == gap):
                break
            m += 1
        radius = min(radius, m)
    return radius


def _random_distribution(rng):
    # small denominators, so margins are often hit exactly and classes tie
    n_classes, n, k = rng.randint(2, 4), rng.randint(0, 5), rng.randint(1, 40)

    def scores():
        den = rng.choice([1, 2, 3, 4, 6, 12])
        return tuple(Fraction(rng.randint(0, den), den) for _ in range(n_classes))

    per_class = scores()
    conditional = tuple(scores() for _ in range(n))
    return IAVoteDistribution(per_class, conditional, k, n, argmax(per_class))


def test_radius_closed_form_matches_the_stepwise_merge():
    rng = random.Random(8)
    for _ in range(3000):
        dist = _random_distribution(rng)
        assert ia_radius(dist) == _stepwise_radius(dist)
    ds = _dataset([(([1]), 0), (([2]), 0), (([4]), 1)], 2)
    for k in (2, 3, 7, 40):
        dist = ia_votes(ds, (1,), k=k, spec=CENTROID)
        assert ia_radius(dist) == _stepwise_radius(dist) == _selection_radius(dist)


def test_radius_of_a_huge_k_takes_no_step_per_unit():
    # a constant classifier certifies floor(k / 2); the scan would take 5 * 10**11 steps
    ds = _dataset([(([1]), 0), (([2]), 0)], 2)
    dist = ia_votes(ds, (9,), k=10**12, spec=MAJORITY)
    assert ia_radius(dist) == 10**12 // 2
    per_class = (Fraction(3, 4), Fraction(1, 4))
    conditional = ((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(1, 2)))
    dist = IAVoteDistribution(per_class, conditional, 10**12, 2, 0)
    # removing the first sample costs 0 (< bulk 3/2), so only bulk copies count:
    # floor((1/2) * 10**12 / (3/2)) = 333,333,333,333
    assert ia_radius(dist) == 333_333_333_333


def test_radius_merge_matches_exhaustive_selection(rng):
    for _ in range(25):
        ds = _random_dataset(rng, max_size=6)
        k = rng.choice([2, 3, 4])
        spec = rng.choice([MAJORITY, CENTROID])
        dist = ia_votes(ds, (rng.randrange(6), rng.randrange(6)), k, spec)
        assert ia_radius(dist) == _selection_radius(dist)


def test_radius_soundness_against_brute_force(rng):
    pool = [LabeledSample((0, 0), 0), LabeledSample((5, 5), 2)]
    for _ in range(12):
        ds = _random_dataset(rng, max_size=5)
        k = rng.choice([2, 3])
        spec = rng.choice([MAJORITY, CENTROID])
        x = (rng.randrange(6), rng.randrange(6))
        dist = ia_votes(ds, x, k, spec)
        radius = ia_radius(dist)
        budget = min(radius, 2)
        assert ia_brute_force_check(ds, x, k, spec, budget, pool)


def test_brute_force_check_trivial_budget():
    ds = _dataset([(([3]), 1)], 2)
    assert ia_brute_force_check(ds, (3,), 2, MAJORITY, 0, [])


def test_brute_force_check_detects_fragile_predictions():
    # one class-1 sample: prediction is the tie toward 0; inserting a second
    # class-1 sample breaks the tie and flips it
    ds = _dataset([(([3]), 1)], 2)
    pool = [LabeledSample((3,), 1)]
    assert not ia_brute_force_check(ds, (3,), 2, MAJORITY, 1, pool)


# ---------------------------------------------------------------------------
# ia_vote_distributions against the per-probe definition: one model per
# subset mask and probe, its vote added to exact weights as it comes


def _per_probe_distribution(dataset, features, k, spec):
    n = len(dataset.samples)
    n_classes = dataset.n_classes
    p = Fraction(1, k)
    q = 1 - p
    weight_by_size = [p**s * q ** (n - s) for s in range(n + 1)]
    per_class = [Fraction(0)] * n_classes
    conditional = [[Fraction(0)] * n_classes for _ in range(n)]
    for mask in range(1 << n):
        chosen = [dataset.samples[i] for i in range(n) if mask >> i & 1]
        voted = predict(train(spec, chosen, n_classes), features)
        per_class[voted] += weight_by_size[len(chosen)]
        for i in range(n):
            if mask >> i & 1:
                conditional[i][voted] += weight_by_size[len(chosen)] * k
    return IAVoteDistribution(
        per_class=tuple(per_class),
        conditional=tuple(tuple(row) for row in conditional),
        k=k,
        n_samples=n,
        prediction=argmax(per_class),
    )


@pytest.mark.parametrize("spec", [MAJORITY, CENTROID], ids=["majority", "centroid"])
def test_batched_distributions_match_the_per_probe_definition(spec):
    rng = random.Random(11)
    for trial in range(40):
        n_classes = rng.randint(1, 4)
        dim = rng.randint(1, 3)
        pool = [(tuple(rng.randint(0, 6) for _ in range(dim)), rng.randrange(n_classes)) for _ in range(4)]
        # drawn from a small pool, so samples repeat; trial 0 has none at all
        pairs = [rng.choice(pool) for _ in range(0 if trial == 0 else rng.randint(1, 8))]
        dataset = Dataset(tuple(LabeledSample(f, lab) for f, lab in pairs), n_classes, dim)
        probes = [tuple(rng.randint(0, 6) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
        k = rng.randint(1, 5)
        expected = tuple(_per_probe_distribution(dataset, x, k, spec) for x in probes)
        assert ia_vote_distributions(dataset, probes, k, spec) == expected
        assert ia_votes(dataset, probes[0], k, spec) == expected[0]
    assert ia_vote_distributions(dataset, [], 2, spec) == ()


BIG = 2**64 + 3

# (samples, n_classes, probes, k) where the per-class states could part from
# the per-probe definition
EDGE_CASES = [
    # classes without samples, and n_classes above the largest label + 1
    ([((1, 2), 2), ((3, 1), 2), ((0, 4), 4)], 7, [(1, 1), (0, 5)], 3),
    ([((2,), 1)], 4, [(0,), (2,)], 2),
    # exact centroid-distance ties across classes, either label on either side
    ([((0,), 0), ((2,), 1)], 2, [(1,)], 2),
    ([((0,), 1), ((2,), 0)], 2, [(1,)], 2),
    ([((0,), 2), ((4,), 2), ((1,), 1), ((3,), 1), ((2,), 0), ((2,), 1)], 3, [(2,), (1,), (3,)], 3),
    ([((0, 0), 1), ((2, 2), 1), ((2, 0), 0), ((0, 2), 0), ((1, 1), 2)], 3, [(1, 1), (0, 1)], 2),
    # equal samples under different labels
    ([((3, 3), 0), ((3, 3), 2), ((3, 3), 1), ((3, 3), 2), ((1, 0), 0)], 3, [(3, 3), (0, 0)], 2),
    # cells past 2^63
    ([((BIG, 1), 0), ((BIG + 2, 5), 1), ((2**63, 2**70), 1), ((0, 2**70), 0)], 2,
     [(BIG, 2**63), (0, 2**70)], 3),
    # k = 1 and k = 10**12
    ([((1,), 0), ((2,), 1), ((5,), 1), ((2,), 0)], 2, [(2,), (4,)], 1),
    ([((1,), 0), ((2,), 1), ((5,), 1), ((2,), 0)], 3, [(2,), (4,)], 10**12),
    # no samples at all, and one class holding every sample
    ([], 3, [(1, 2), (0, 0)], 2),
    ([((i % 3, i % 2), 1) for i in range(12)], 2, [(1, 1), (0, 2)], 3),
]


@pytest.mark.parametrize("spec", [MAJORITY, CENTROID], ids=["majority", "centroid"])
def test_per_class_states_match_the_per_probe_definition_at_the_edges(spec):
    rng = random.Random(18)
    cases = list(EDGE_CASES)
    for n in (11, 12, 13):
        pool = [((rng.randrange(4), rng.randrange(4)), rng.randrange(3)) for _ in range(5)]
        cases.append(([rng.choice(pool) for _ in range(n)], 4, [(1, 2), (3, 0)], rng.randint(2, 4)))
    for pairs, n_classes, probes, k in cases:
        dataset = Dataset(
            tuple(LabeledSample(f, lab) for f, lab in pairs), n_classes, len(probes[0])
        )
        expected = tuple(_per_probe_distribution(dataset, x, k, spec) for x in probes)
        assert ia_vote_distributions(dataset, probes, k, spec) == expected


@pytest.mark.parametrize("spec", [MAJORITY, CENTROID], ids=["majority", "centroid"])
def test_errors_keep_their_order(spec):
    samples = tuple(LabeledSample((i, 1), i % 2) for i in range(6))
    wide, narrow, empty = Dataset(samples, 2**40, 2), Dataset(samples, 2, 2), Dataset((), 2, 2)
    probes = [(1, 1), (1, 1, 1), (2,)]  # the second and third have another width
    with pytest.raises(DataError, match="k must be positive, got 0"):
        ia_vote_distributions(wide, probes, 0, spec, limit=5)
    with pytest.raises(InstanceTooLarge, match="exceeds the exhaustive limit 5"):
        ia_vote_distributions(wide, probes, 2, spec, limit=5)
    with pytest.raises(LimitError, match=f"class scores over {2**40} classes"):
        ia_vote_distributions(wide, probes, 2, spec)
    assert ia_vote_distributions(wide, [], 2, spec) == ()
    for dataset in (empty, narrow) if spec == MAJORITY else (empty,):
        expected = tuple(_per_probe_distribution(dataset, x, 2, spec) for x in probes)
        assert ia_vote_distributions(dataset, probes, 2, spec) == expected
    if spec == CENTROID:
        with pytest.raises(DimensionMismatch) as learner:
            predict(train(spec, samples, 2), probes[1])
        with pytest.raises(DimensionMismatch) as batched:
            ia_vote_distributions(narrow, probes, 2, spec)
        assert str(batched.value) == str(learner.value) == "expected 2 features, got 3"


def _csv(header, rows):
    return ",".join(header) + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


@pytest.mark.parametrize("learner", ["majority", "centroid"])
def test_ia_report_bytes_match_the_per_probe_reference(tmp_path, monkeypatch, learner):
    def reference(dataset, probes, k, spec, limit):
        return tuple(_per_probe_distribution(dataset, x, k, spec) for x in probes)

    rng = random.Random(18)
    for case in range(4):
        n_classes, dim = rng.randint(2, 4), rng.randint(1, 3)
        header = [f"f{j}" for j in range(dim)]
        train_rows = [
            [rng.randrange(n_classes)] + [rng.randrange(6) for _ in range(dim)]
            for _ in range(rng.randint(3, 8))
        ]
        test_rows = [
            [rng.randrange(n_classes)] + [rng.randrange(6) for _ in range(dim)] for _ in range(3)
        ]
        if case % 2:  # an unlabelled test CSV
            test_rows = [row[1:] for row in test_rows]
        (tmp_path / "train.csv").write_text(_csv(["label", *header], train_rows), encoding="utf-8")
        (tmp_path / "test.csv").write_text(
            _csv(header if case % 2 else ["label", *header], test_rows), encoding="utf-8"
        )
        argv = ["ia", "--dataset", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
                "--k", str(rng.randint(1, 4)), "--learner", learner]
        if case >= 2:  # past the largest label + 1
            argv += ["--n-classes", str(n_classes + 2)]
        reports = []
        for patch in (False, True):
            with monkeypatch.context() as m:
                if patch:
                    m.setattr(cli, "ia_vote_distributions", reference)
                out = tmp_path / f"ia_{patch}.json"
                assert cli.main([*argv, "--out", str(out)]) == 0
                reports.append(out.read_bytes())
        assert reports[0] == reports[1]


@pytest.mark.parametrize("k", [0, -2])
def test_nonpositive_k_is_a_data_error(k):
    with pytest.raises(DataError, match=f"k must be positive, got {k}"):
        ia_votes(_dataset([((1,), 0)], 2), (1,), k, MAJORITY)


@pytest.mark.parametrize("spec", [MAJORITY, CENTROID], ids=["majority", "centroid"])
@pytest.mark.parametrize("label", [0, 2])
def test_one_class_of_many_samples_matches_the_per_probe_definition(spec, label):
    # every state but the empty one is the streamed class's, placed among no ranked ones;
    # 13 samples keep the reference's 2^13 models quick
    rng = random.Random(label)
    pairs = [(tuple(rng.randrange(256) for _ in range(4)), label) for _ in range(13)]
    dataset = _dataset(pairs, 3)
    probe = tuple(rng.randrange(256) for _ in range(4))
    expected = _per_probe_distribution(dataset, probe, 3, spec)
    assert ia_vote_distributions(dataset, [probe], 3, spec) == (expected,)
    assert expected.prediction == label
