"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints one pass/fail line (bypassing capture so the lines are
always visible):

    [acceptance] 01 abx-oracle-equivalence: PASS (2.1s)

Run with ``pytest tests/test_acceptance.py -v`` for the full gate.
"""

import itertools
import json
import math
import sys
import time

import numpy as np
import pytest

from conftest import (
    abx_oracle,
    build_mini_benchmark,
    cell_score,
    dtw_oracle_fast,
    pair_costs,
    record_similarities,
    sentence_subset_minimum,
    similarity_score,
    spearman_oracle,
    word_assignment_minimum,
)
from zrc_eval import abx, cli, distance, io_formats, metrics, quantizer, sampler, scoring
from zrc_eval.sampler import AnchorEntry, CandidateSet
from zrc_eval.types import (
    FeatureSequence,
    ScoredPair,
    SimilarityRecord,
    TriphoneToken,
    UnitSequence,
)

CRITERIA = {
    "test_criterion_01": "01 abx-oracle-equivalence",
    "test_criterion_02": "02 abx-degenerate-anchors",
    "test_criterion_03": "03 dtw-oracle",
    "test_criterion_04": "04 span-pp-oracle",
    "test_criterion_05": "05 closed-loop-balance",
    "test_criterion_06": "06 sampler-toy-optimality",
    "test_criterion_07": "07 kmeans",
    "test_criterion_08": "08 spearman",
    "test_criterion_09": "09 metric-invariances",
    "test_criterion_10": "10 end-to-end-smoke",
}


@pytest.fixture(autouse=True)
def criterion_banner(request, capfd):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    rep = getattr(request.node, "rep_call", None)
    status = "PASS" if (rep is not None and rep.passed) else "FAIL"
    key = "_".join(request.node.name.split("[")[0].split("_")[:3])
    label = CRITERIA.get(key, key)
    with capfd.disabled():
        print(f"\n[acceptance] {label}: {status} ({elapsed:.1f}s)",
              file=sys.stdout, flush=True)


def test_criterion_01_abx_oracle_equivalence():
    """200 random cells match direct cell score + exhaustive DTW, 1e-12, <30s."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    oracle_dist = lambda x, y: dtw_oracle_fast(pair_costs(x, y, "angular"))
    for cell in range(200):
        d = int(rng.integers(1, 5))
        a = [rng.standard_normal((int(rng.integers(1, 7)), d))
             for _ in range(int(rng.integers(2, 6)))]
        b = [rng.standard_normal((int(rng.integers(1, 7)), d))
             for _ in range(int(rng.integers(1, 6)))]
        engine = cell_score(a, b, "angular")
        oracle = abx_oracle(a, b, oracle_dist)
        assert engine == pytest.approx(oracle, abs=1e-12)
    assert time.perf_counter() - start < 30.0


def test_criterion_02_abx_degenerate_anchors(tmp_path):
    """Separated one-hot categories -> exactly 0.00; identical -> 50.00."""
    rng = np.random.default_rng(102)
    eye = np.eye(4)

    def write(cats):
        tokens = []
        k = 0
        for center, mats in cats:
            for mat in mats:
                utt = f"t{k:02d}"
                io_formats.write_feature_archive(
                    tmp_path,
                    FeatureSequence(utt, 100.0, mat), "binary")
                tokens.append(TriphoneToken(
                    utt, 0.0, mat.shape[0] / 100.0, center, "A", "T", "s1"))
                k += 1
        return tokens

    separated = write([
        ("B", [eye[[0] * int(rng.integers(2, 5))] for _ in range(4)]),
        ("P", [eye[[1] * int(rng.integers(2, 5))] for _ in range(4)]),
    ])
    result = abx.abx_evaluate(separated, tmp_path, "within", "angular")
    assert result.error_rate == 0.0

    identical_dir = tmp_path / "identical"
    identical_dir.mkdir()
    frames = eye[[2, 2, 2]]
    tokens = []
    for k, center in enumerate(["B"] * 3 + ["P"] * 3):
        utt = f"i{k}"
        io_formats.write_feature_archive(
            identical_dir,
            FeatureSequence(utt, 100.0, frames), "binary")
        tokens.append(TriphoneToken(
            utt, 0.0, 0.03, center, "A", "T", "s1"))
    result = abx.abx_evaluate(tokens, identical_dir, "within", "angular")
    assert result.error_rate == 50.0


def test_criterion_03_dtw_oracle():
    """1000 random pairs match the exhaustive path oracle, 1e-12, <10s."""
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(1000):
        t, s = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        rx = rng.standard_normal((t, d))
        ry = rng.standard_normal((s, d))
        cost = pair_costs(rx, ry, "angular")
        assert distance.dtw_distance(rx, ry, "angular") == pytest.approx(
            dtw_oracle_fast(cost), abs=1e-12)
    assert time.perf_counter() - start < 10.0


def test_criterion_04_span_pp_oracle():
    """Window scoring matches direct product-formula evaluation, 1e-12."""
    rng = np.random.default_rng(104)
    vocab = (0, 1)

    def conditional(table, units, start, stop):
        numer = table.get(tuple(units), 0.0)
        denom = sum(
            table.get(tuple(units[:start]) + w + tuple(units[stop:]), 0.0)
            for w in itertools.product(vocab, repeat=stop - start))
        return math.log(max(numer, 1e-300)) - math.log(max(denom, 1e-300))

    for t in range(1, 9):
        space = list(itertools.product(vocab, repeat=t))
        table = dict(zip(space, rng.dirichlet(np.ones(len(space)))))
        for trial in range(3):
            units = [int(u) for u in rng.integers(0, 2, size=t)]
            seq = UnitSequence(f"x{t}_{trial}", units)
            # every window the model could be asked for, 1-based inclusive
            windows = {(seq.utt_id, i + 1, j): conditional(table, units, i, j)
                       for i in range(t) for j in range(i + 1, t + 1)}
            for m_d, dt in itertools.product(range(1, 5), repeat=2):
                expected = 0.0
                for j in range(0, (t - 1) // dt + 1):
                    i = 1 + j * dt
                    expected += conditional(table, units, i - 1, min(i + m_d, t))
                got = scoring.span_pseudo_logprob(
                    windows, seq, scoring.SpanConfig(m_d, dt))
                assert got.log_score == pytest.approx(expected, abs=1e-12)


def test_criterion_05_closed_loop_balance():
    """Sampler output re-scored by its own n-gram models sits at 50 +/- 3."""
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    vocab_size = 15

    def random_units(length):
        return [int(u) for u in rng.integers(0, vocab_size, size=length)]

    corpus = [UnitSequence(f"c{i}", random_units(int(rng.integers(4, 11))))
              for i in range(300)]
    unigram = scoring.ngram_train(corpus, 1, alpha=1.0)
    bigram = scoring.ngram_train(corpus, 2, alpha=1.0)

    def score_pair(units):
        seq = UnitSequence("tmp", units)
        return (scoring.chain_rule_logprob(unigram, seq).log_score,
                scoring.chain_rule_logprob(bigram, seq).log_score)

    anchors = []
    unit_map = {}
    for i in range(1000):
        length = int(rng.integers(4, 11))
        anchor_units = random_units(length)
        anchor_id = f"w{i:04d}"
        unit_map[anchor_id] = anchor_units
        cands = []
        for k in range(4):
            cand_units = random_units(length)
            cand_id = f"w{i:04d}~{k}"
            unit_map[cand_id] = cand_units
            cands.append((cand_id, score_pair(cand_units)))
        stratum = f"len{length // 3}"
        anchors.append(AnchorEntry(anchor_id, stratum,
                                   score_pair(anchor_units), tuple(cands)))
    cs = CandidateSet(anchors)
    assignment = sampler.sample_word_pairs(cs, seed=31, restarts=8)

    pairs = []
    for anchor in cs.anchors:
        cand_id = anchor.candidates[assignment.chosen[anchor.anchor_id]][0]
        pairs.append(ScoredPair(anchor.anchor_id, anchor.anchor_id, cand_id))
    for m, model in enumerate((unigram, bigram)):
        scores = {utt: scoring.chain_rule_logprob(
            model, UnitSequence(utt, units)).log_score
            for utt, units in unit_map.items()}
        accuracy = metrics.paired_accuracy(pairs, scores, "half").overall
        assert 0.47 <= accuracy <= 0.53, f"score dimension {m}: {accuracy}"
    assert time.perf_counter() - start < 60.0


def test_criterion_06_sampler_toy_optimality():
    """Best of 16 restarts equals the exhaustive minimum on toy instances.

    Only win/tie/loss outcomes against the anchor enter the objective, so
    enumerating every candidate-outcome pattern with N <= 4 and K <= 2
    covers the entire instance space up to score equivalence.
    """
    values = {"w": -1.0, "t": 0.0, "l": 1.0}

    def instance(pattern):
        anchors = []
        for i, cands in enumerate(pattern):
            anchors.append(AnchorEntry(
                f"a{i}", "s", (0.0,),
                tuple((f"a{i}c{k}", (values[o],)) for k, o in enumerate(cands))))
        return CandidateSet(anchors)

    patterns_k1 = [("w",), ("t",), ("l",)]
    patterns_k2 = [tuple(sorted(p))
                   for p in itertools.combinations_with_replacement("wtl", 2)]
    options = patterns_k1 + patterns_k2

    trial = 0
    for n in (1, 2, 3, 4):
        for combo in itertools.product(options, repeat=n):
            cs = instance(list(combo))
            got = sampler.sample_word_pairs(cs, seed=trial, restarts=16)
            assert got.objective == word_assignment_minimum(cs), combo
            trial += 1

    # sentence variant: pool of 8, choose 4, restart budget 70
    for trial in range(50):
        prng = np.random.default_rng(1000 + trial)
        pool = CandidateSet([
            AnchorEntry(f"p{i}", "s", (float(prng.integers(0, 3)),),
                        ((f"p{i}c", (float(prng.integers(0, 3)),)),))
            for i in range(8)])
        got = sampler.sample_sentence_pairs(pool, 4, seed=trial, restarts=70)
        assert got.objective == sentence_subset_minimum(pool, 4)


def test_criterion_07_kmeans():
    """Frozen line-cluster optimum, monotone inertia, bit-identical refits."""
    cb = quantizer.kmeans_fit(np.array([[0.0], [1.0], [10.0], [11.0]]), 2, seed=0)
    assert sorted(cb.centroids[:, 0].tolist()) == [0.5, 10.5]
    assert cb.inertia == 1.0

    rng = np.random.default_rng(107)
    for trial in range(100):
        n = int(rng.integers(10, 60))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(8, n)))
        frames = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
        cb = quantizer.kmeans_fit(frames, k, seed=trial, max_iter=50)
        trace = cb.inertia_trace
        assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))

    frames = rng.standard_normal((300, 6))
    for seed in (0, 1, 99):
        cb1 = quantizer.kmeans_fit(frames, 10, seed=seed)
        cb2 = quantizer.kmeans_fit(frames, 10, seed=seed)
        assert np.array_equal(cb1.centroids, cb2.centroids)
        assert cb1.inertia == cb2.inertia


def test_criterion_08_spearman():
    """Closed form on tie-free input, +/-100 extremes, tie oracle."""
    rng = np.random.default_rng(108)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        a = rng.permutation(n).astype(float)
        b = rng.permutation(n).astype(float)
        ra, rb = a + 1.0, b + 1.0  # permutations are their own ranks
        d2 = float(np.sum((ra - rb) ** 2))
        closed = 100.0 * (1.0 - 6.0 * d2 / (n * (n * n - 1)))
        assert metrics.spearman(a, b) == pytest.approx(closed, abs=1e-12)

    x = np.array([0.5, 1.5, 2.25, 9.0, 12.0])
    assert metrics.spearman(x, np.exp(x)) == pytest.approx(100.0, abs=1e-12)
    assert metrics.spearman(x, -x ** 3) == pytest.approx(-100.0, abs=1e-12)

    for _ in range(100):
        n = int(rng.integers(4, 30))
        a = rng.integers(0, 5, size=n).astype(float)
        b = rng.integers(0, 5, size=n).astype(float)
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        assert metrics.spearman(a, b) == pytest.approx(
            spearman_oracle(a, b), abs=1e-12)


def test_criterion_09_metric_invariances():
    """Scores unchanged under 100 random strictly increasing transforms."""
    rng = np.random.default_rng(109)

    pairs = [ScoredPair(f"p{i}", f"a{i}", f"r{i}") for i in range(40)]
    scores = {}
    for i in range(40):
        scores[f"a{i}"] = float(rng.normal())
        scores[f"r{i}"] = float(rng.normal())
    base_acc = metrics.paired_accuracy(pairs, scores).overall

    records = []
    reprs = {}
    for i in range(12):
        angle = rng.uniform(0, np.pi)
        reprs[f"w{i}"] = np.array([np.cos(angle), np.sin(angle)])
        if i:
            records.append(SimilarityRecord(
                "w0", f"w{i}", float(rng.uniform(0, 10)), "ds",
                (("", "w0"),), (("", f"w{i}"),)))
    base_sim = similarity_score(records, reprs, "synthetic")
    base_model = [record_similarities([r], reprs, "synthetic")[0]
                  for r in records]
    human = [r.human_score for r in records]

    for _ in range(100):
        a = float(rng.uniform(0.05, 3.0))
        b = float(rng.uniform(0.05, 2.0))
        c = float(rng.normal())
        warp = lambda v: a * v ** 3 + b * v + c  # strictly increasing
        warped_scores = {k: warp(v) for k, v in scores.items()}
        assert metrics.paired_accuracy(pairs, warped_scores).overall == base_acc
        assert metrics.spearman([warp(v) for v in base_model], human) == \
            pytest.approx(base_sim, abs=1e-12)


def test_criterion_10_end_to_end_smoke(tmp_path):
    """All 8 subcommands over the bundled mini-benchmark, twice, <20s."""
    start = time.perf_counter()
    mini = build_mini_benchmark(tmp_path / "mini")

    def run_all(out):
        out.mkdir()
        cmds = [
            ["kmeans-train", "--features", str(mini / "features"), "--k", "4",
             "--seed", "7", "--out", str(out / "cb.zrck"),
             "--report", str(out / "kmeans.json")],
            ["quantize", "--codebook", str(out / "cb.zrck"),
             "--features", str(mini / "features"),
             "--out", str(out / "units_q.txt")],
            ["ngram-train", "--units", str(mini / "units.txt"), "--order", "2",
             "--alpha", "1.0", "--out", str(out / "model.json")],
            ["abx", "--items", str(mini / "items.item"),
             "--features", str(mini / "features"), "--mode", "within",
             "--distance", "angular", "--out", str(out / "abx.json")],
            ["abx", "--items", str(mini / "items.item"),
             "--features", str(mini / "features"), "--mode", "across",
             "--distance", "angular", "--out", str(out / "abx_across.tsv")],
            ["score-lexical", "--pairs", str(mini / "pairs.tsv"),
             "--ngram-model", str(out / "model.json"),
             "--units", str(mini / "units.txt"), "--tie", "half",
             "--out", str(out / "lexical.tsv")],
            ["score-syntactic", "--pairs", str(mini / "spairs.tsv"),
             "--scores", str(mini / "sscores.tsv"),
             "--out", str(out / "syntactic.json")],
            ["score-semantic", "--gold", str(mini / "gold.tsv"),
             "--features", str(mini / "hidden0"), str(mini / "hidden1"),
             "--pooling", "sweep", "--subset", "synthetic",
             "--out", str(out / "semantic.json")],
            ["sample-pairs", "--candidates", str(mini / "candidates.tsv"),
             "--seed", "42", "--restarts", "8",
             "--out", str(out / "assignment.tsv"),
             "--report", str(out / "sampler.json")],
        ]
        for cmd in cmds:
            assert cli.main(cmd) == 0, f"subcommand failed: {cmd[0]}"

    run_all(tmp_path / "run1")
    run_all(tmp_path / "run2")

    produced = ["cb.zrck", "units_q.txt", "model.json", "abx.json", "abx_across.tsv",
                "lexical.tsv", "syntactic.json", "semantic.json",
                "assignment.tsv", "kmeans.json", "sampler.json"]
    for name in produced:
        b1 = (tmp_path / "run1" / name).read_bytes()
        b2 = (tmp_path / "run2" / name).read_bytes()
        assert b1 == b2, f"{name} differs between seeded runs"

    out = tmp_path / "run1"
    assert quantizer.read_codebook(out / "cb.zrck").n_clusters == 4
    assert len(io_formats.read_unit_sequences(out / "units_q.txt")) == 40
    assert scoring.load_ngram_model(out / "model.json").order == 2
    reports = {}  # name -> (metric, aggregate, counts)
    for name in ("abx.json", "syntactic.json", "semantic.json", "kmeans.json",
                 "sampler.json"):
        doc = json.loads((out / name).read_text(encoding="utf-8"))
        reports[name] = doc["metric"], doc["aggregate"], doc["counts"]
    for name in ("abx_across.tsv", "lexical.tsv"):
        rows = [line.split("\t") for line in
                (out / name).read_text(encoding="utf-8").splitlines()]
        assert [r[0] for r in rows[:2]] == ["metric", "aggregate"]
        counts = {r[1]: int(r[2]) for r in rows if r[0] == "count"}
        reports[name] = rows[0][1], float(rows[1][1]), counts
    for metric, aggregate, _ in reports.values():
        assert metric and math.isfinite(aggregate)
    for name in ("abx.json", "abx_across.tsv"):
        counts = reports[name][2]
        assert set(counts) == {"cells", "dropped_tokens", "clamped_tokens",
                               "skipped_cells"}
        assert counts["cells"] > 0
    rows = (out / "assignment.tsv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "anchor_id\tcandidate_id\tstratum" and len(rows) == 1 + 60
    assert time.perf_counter() - start < 20.0
