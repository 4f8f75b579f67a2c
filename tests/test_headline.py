"""The paper's headline in miniature, through the command line.

One seeded corpus stands in for speech: 12 phone prototypes in 16 dims,
each phone spoken as 3 frames with a shift per speaker and noise per
frame. A 60-word lexicon of 4-6 phones follows a small grammar: a word
of class c (of 4) opens with phone c, and a sentence runs through the
classes in order. Each nonword swaps two
phones of its word; each ungrammatical sentence swaps two adjacent
words of a grammatical one. The models train on 200 sentences of 8
Zipf-drawn words.

The baseline is kmeans-train -> quantize -> ngram-train over the
features, then score-lexical and score-syntactic; the topline runs the
same n-gram and scorers over the gold phones. Both accuracies must order
chance < baseline <= topline, and ABX within speakers over the features
must err less than half the time.
"""

import json

import numpy as np
import pytest

from zrc_eval import cli, io_formats
from zrc_eval.types import FeatureSequence, UnitSequence

PHONES, DIM, FRAMES_PER_PHONE, SPEAKERS, CLASSES = 12, 16, 3, 4, 4
RATE, NOISE = 100.0, 0.8


def make_corpus(rng) -> dict:
    """Utterances as (utt_id, speaker, phones), and the test pairs."""
    lexicon, seen = [], set()
    while len(lexicon) < 60:
        c = len(lexicon) % CLASSES
        word = (c, *rng.integers(0, PHONES, size=int(rng.integers(3, 6))).tolist())
        if word not in seen:
            seen.add(word)
            lexicon.append(word)
    by_class = [lexicon[c::CLASSES] for c in range(CLASSES)]
    zipf = 1.0 / np.arange(1, len(by_class[0]) + 1)
    zipf /= zipf.sum()

    def sentence(n_words):
        return [by_class[k % CLASSES][rng.choice(len(zipf), p=zipf)]
                for k in range(n_words)]

    def speaker():
        return int(rng.integers(SPEAKERS))

    train = [(f"s{i:03d}", speaker(), [p for w in sentence(8) for p in w])
             for i in range(200)]
    test, lexical, syntactic = [], [], []
    for i, word in enumerate(lexicon):
        swaps = [(a, b) for a in range(len(word)) for b in range(a + 1, len(word))
                 if word[a] != word[b]]
        a, b = swaps[rng.integers(len(swaps))]
        nonword = list(word)
        nonword[a], nonword[b] = word[b], word[a]
        spk = speaker()
        test += [(f"w{i:02d}", spk, list(word)), (f"n{i:02d}", spk, nonword)]
        lexical.append((f"w{i:02d}", f"n{i:02d}"))
    for i in range(40):
        words = sentence(4)
        k = int(rng.integers(3))
        swapped = words[:k] + [words[k + 1], words[k]] + words[k + 2:]
        spk = speaker()
        test += [(f"g{i:02d}", spk, [p for w in words for p in w]),
                 (f"u{i:02d}", spk, [p for w in swapped for p in w])]
        syntactic.append((f"g{i:02d}", f"u{i:02d}"))
    # ABX: triphones l-c-r, 3 tokens per (centre, context, speaker)
    abx = []
    for left, right in ((8, 9), (10, 11), (9, 10)):
        for centre in (0, 5, 10):
            for spk in (0, 1):
                abx += [(f"x{len(abx) + k:02d}", spk, [left, centre, right])
                        for k in range(3)]
    return {"train": train, "test": test, "abx": abx,
            "lexical": lexical, "syntactic": syntactic}


def write_features(directory, utterances, protos, shifts, rng) -> None:
    for utt, spk, phones in utterances:
        frames = (np.repeat(protos[phones], FRAMES_PER_PHONE, axis=0) + shifts[spk]
                  + NOISE * rng.standard_normal((len(phones) * FRAMES_PER_PHONE, DIM)))
        io_formats.write_feature_archive(directory, FeatureSequence(utt, RATE, frames))


def write_pairs(path, pairs) -> None:
    path.write_text("pair_id\taccepted_id\trejected_id\n" + "".join(
        f"p{i}\t{good}\t{bad}\n" for i, (good, bad) in enumerate(pairs)))


def run(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0, argv


def aggregate(path) -> float:
    return json.loads(path.read_text())["aggregate"]


def headline(root, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    corpus = make_corpus(rng)
    protos = rng.standard_normal((PHONES, DIM))
    shifts = 0.4 * rng.standard_normal((SPEAKERS, DIM))
    for name in ("train", "test", "abx"):
        write_features(root / name, corpus[name], protos, shifts, rng)
        io_formats.write_unit_sequences(
            [UnitSequence(utt, phones) for utt, _, phones in corpus[name]],
            root / f"gold_{name}.txt")
    for task in ("lexical", "syntactic"):
        write_pairs(root / f"{task}.tsv", corpus[task])
    (root / "constant.tsv").write_text("".join(
        f"{utt}\t0.0\n" for utt, _, _ in corpus["test"]))

    run("kmeans-train", "--features", root / "train", "--k", 24, "--seed", seed,
        "--max-iter", 20, "--out", root / "cb.zrck")
    for name in ("train", "test"):
        run("quantize", "--codebook", root / "cb.zrck", "--features", root / name,
            "--out", root / f"units_{name}.txt")
    scores = {}
    for system, units in (("baseline", "units"), ("topline", "gold")):
        run("ngram-train", "--units", root / f"{units}_train.txt", "--order", 3,
            "--alpha", 0.1, "--out", root / f"{system}.json")
        for task in ("lexical", "syntactic"):
            out = root / f"{system}_{task}.json"
            run(f"score-{task}", "--pairs", root / f"{task}.tsv", "--ngram-model",
                root / f"{system}.json", "--units", root / f"{units}_test.txt",
                "--out", out)
            scores[system, task] = aggregate(out)
    for task in ("lexical", "syntactic"):
        out = root / f"chance_{task}.json"
        run(f"score-{task}", "--pairs", root / f"{task}.tsv", "--scores",
            root / "constant.tsv", "--out", out)
        scores["chance", task] = aggregate(out)

    items = root / "abx.item"
    items.write_text(io_formats.ITEM_HEADER + "\n" + "".join(
        f"{utt} 0.0 {len(phones) * FRAMES_PER_PHONE / RATE} {phones[1]} "
        f"{phones[0]} {phones[2]} spk{spk}\n" for utt, spk, phones in corpus["abx"]))
    run("abx", "--items", items, "--features", root / "abx", "--mode", "within",
        "--out", root / "abx.json")
    scores["abx"] = aggregate(root / "abx.json")
    return scores


# Seeds 0-3 gave: lexical baseline 0.600-0.733, topline 0.967-0.983;
# syntactic baseline 0.575-0.725, topline 1.000; ABX 0.3-4.8%. The
# margins below (0.05 over chance, 0.2 from baseline to topline) hold
# at every one of them.
@pytest.mark.parametrize("seed", range(4))
def test_baseline_beats_chance_and_topline_beats_baseline(tmp_path, seed):
    scores = headline(tmp_path, seed)
    for task in ("lexical", "syntactic"):
        assert scores["chance", task] == 0.5
        assert scores["chance", task] + 0.05 <= scores["baseline", task]
        assert scores["baseline", task] + 0.2 <= scores["topline", task]
    assert scores["abx"] < 50.0
