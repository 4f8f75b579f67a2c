"""Seeded inputs and subcommand lists for the three benchmark workloads.

Each workload is made in two steps. ``generate(name, seed)`` draws every
random value from the seed with numpy alone; it is not timed. ``write``
then builds the library's own objects from those values and writes them
through the library's writers; that step is the benchmark's set-up time.
The shape of each workload (token counts, lengths, pair counts) is fixed
by the workload and does not depend on the seed, so every seed asks the
program for the same amount of work; the seed changes only the values.

The program sees nothing but the files written here and the argv lists
returned by ``commands``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

WORKLOADS = ("abx-dense", "abx-units", "lm-pipeline")

FRAME_RATE = 100.0

# every subcommand timing, across all workloads
COMMAND_METRICS = ("abx_within_s", "abx_across_s", "kmeans_train_s", "quantize_s",
                   "ngram_train_s", "score_lexical_s", "score_syntactic_s",
                   "score_semantic_s", "sample_words_s", "sample_sentences_s")


@dataclass
class Command:
    """One subcommand invocation of a pass."""

    metric: str            # end-to-end timing name, e.g. "abx_within_s"
    argv: list
    report: str | None = None                 # JSON report to compare
    artifacts: list = field(default_factory=list)  # files compared byte for byte
    # () -> problem text or None: seed-independent facts and recomputations
    checks: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# ABX workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbxShape:
    contexts: int
    centres_per_context: int
    centre_inventory: int
    speakers: int
    tokens_per_category: int
    min_frames: int
    max_frames: int
    distance: str
    contexts_per_utterance: int = 1


ABX_SHAPES = {
    # 64-dim continuous frames, long tokens, 8 centre phones per context
    "abx-dense": AbxShape(contexts=3, centres_per_context=8, centre_inventory=8,
                          speakers=4, tokens_per_category=2,
                          min_frames=8, max_frames=20, distance="angular"),
    # one-hot units (K=50), short tokens, 2 centre phones per context; one
    # utterance per speaker, so that set-up writes few files
    "abx-units": AbxShape(contexts=20, centres_per_context=2, centre_inventory=12,
                          speakers=8, tokens_per_category=3,
                          min_frames=3, max_frames=8, distance="kl",
                          contexts_per_utterance=20),
}

DENSE_DIM = 64
# phone and speaker offsets against unit-variance frame noise: small enough
# that ABX error rates are well above 0 on every seed
PROTO_SCALE = 0.15
SPEAKER_SCALE = 0.15
N_UNITS = 50


def _context_centres(shape: AbxShape, c: int) -> list:
    """Centre phones of context ``c``; fixed by the shape, not the seed."""
    if shape.centres_per_context == shape.centre_inventory:
        return list(range(shape.centre_inventory))
    pairs = list(itertools.combinations(range(shape.centre_inventory),
                                        shape.centres_per_context))
    return list(pairs[(c * 7) % len(pairs)])


def abx_layout(shape: AbxShape) -> list:
    """Token rows ``(utt, start, stop, centre, left, right, speaker)``.

    One utterance per speaker and run of ``contexts_per_utterance``
    contexts holds that speaker's tokens of those contexts back to back.
    Token lengths cycle through [min_frames, max_frames] in a fixed pattern.
    """
    span = shape.max_frames - shape.min_frames + 1
    rows = []
    ends: dict = {}  # utterance -> frames laid out so far
    for c in range(shape.contexts):
        for s in range(shape.speakers):
            first = c - c % shape.contexts_per_utterance
            utt = f"spk{s}_ctx{first:03d}"
            pos = ends.get(utt, 0)
            for p in _context_centres(shape, c):
                for k in range(shape.tokens_per_category):
                    length = shape.min_frames + (7 * k + 5 * p + 3 * s + c) % span
                    rows.append((utt, pos, pos + length, f"ph{p:02d}",
                                 f"L{c:03d}", f"R{c:03d}", f"spk{s}"))
                    pos += length
            ends[utt] = pos
    return rows


def _abx_generate(shape: AbxShape, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    rows = abx_layout(shape)
    n_spk = shape.speakers
    utt_lengths: dict = {}
    for utt, _, stop, *_ in rows:
        utt_lengths[utt] = max(utt_lengths.get(utt, 0), stop)
    utterances = {}
    if shape.distance == "angular":
        proto = PROTO_SCALE * rng.standard_normal((shape.centre_inventory, DENSE_DIM))
        spk_shift = SPEAKER_SCALE * rng.standard_normal((n_spk, DENSE_DIM))
        for utt, length in utt_lengths.items():
            utterances[utt] = rng.standard_normal((length, DENSE_DIM))
        for utt, start, stop, centre, _, _, spk in rows:
            p, s = int(centre[2:]), int(spk[3:])
            utterances[utt][start:stop] += proto[p] + spk_shift[s]
    else:
        pattern = rng.integers(N_UNITS, size=(shape.centre_inventory, 8))
        spk_unit = rng.integers(N_UNITS, size=n_spk)
        for utt, length in utt_lengths.items():
            utterances[utt] = np.zeros(length, dtype=np.int64)
        for utt, start, stop, centre, _, _, spk in rows:
            p, s = int(centre[2:]), int(spk[3:])
            n = stop - start
            units = pattern[p][np.arange(n) % 8].copy()
            draw = rng.random(n)
            units[draw < 0.3] = spk_unit[s]
            noise = draw > 0.8
            units[noise] = rng.integers(N_UNITS, size=int(noise.sum()))
            utterances[utt][start:stop] = units
    return {"rows": rows, "utterances": utterances}


def _abx_write(lib, raw: dict, root: Path, shape: AbxShape) -> None:
    io = lib.io_formats
    feats = root / "features"
    for utt, values in raw["utterances"].items():
        if shape.distance == "angular":
            fs = lib.types.FeatureSequence(utt, FRAME_RATE, values)
        else:
            fs = lib.abx.one_hot_encode(lib.types.UnitSequence(utt, values),
                                        N_UNITS, FRAME_RATE)
        io.write_feature_archive(feats, fs)
    # onset/offset sit mid-frame so floor(time * rate) gives the frame index
    tokens = [lib.types.TriphoneToken(utt, (start + 0.5) / FRAME_RATE,
                                      (stop + 0.5) / FRAME_RATE,
                                      centre, left, right, spk)
              for utt, start, stop, centre, left, right, spk in raw["rows"]]
    io.write_item_file(tokens, root / "items.item")


def _abx_commands(raw: dict, root: Path, out: Path, shape: AbxShape,
                  seed: int) -> list:
    commands = []
    for mode in ("within", "across"):
        report = out / f"abx_{mode}.json"
        pairs = sorted(abx_cells(raw["rows"], mode)["phone_pairs"])
        checks = [functools.partial(_check_report, report, (0.0, 100.0), pairs)]
        if shape.distance == "angular":  # no exact ties: recompute one pair
            checks.append(functools.partial(
                _check_abx_pair, report, raw, mode, pairs[seed % len(pairs)]))
        commands.append(Command(
            f"abx_{mode}_s",
            ["abx", "--items", str(root / "items.item"),
             "--features", str(root / "features"), "--mode", mode,
             "--distance", shape.distance, "--out", str(report)],
            report=str(report), checks=checks))
    return commands


def _check_abx_pair(report, raw, mode, pair):
    error = oracles.abx_pair_error(raw["rows"], raw["utterances"], mode,
                                   tuple(pair.split("-")))
    return oracles.compare(report, {pair: error})


def abx_cells(rows: list, mode: str) -> dict:
    """Cells, distance requests and comparisons an ABX run must make.

    Follows the ABX definition (see ``abx.py``): a within cell needs 2+
    tokens per side and probes each side with its own tokens minus the
    token itself; an across cell pairs every ordered speaker pair that
    both categories share. ``distance_requests`` counts each (token,
    probe) distance a cell asks for, before any reuse.
    """
    groups: dict = {}
    for _, _, _, centre, left, right, spk in rows:
        cat = groups.setdefault((left, right), {}).setdefault(centre, {})
        cat[spk] = cat.get(spk, 0) + 1
    cells = requests = comparisons = 0
    phone_pairs = set()
    for by_centre in groups.values():
        for c1, c2 in itertools.combinations(sorted(by_centre), 2):
            cat1, cat2 = by_centre[c1], by_centre[c2]
            speakers = sorted(set(cat1) & set(cat2))
            if mode == "within":
                for s in speakers:
                    n1, n2 = cat1[s], cat2[s]
                    if n1 < 2 or n2 < 2:
                        continue
                    cells += 1
                    phone_pairs.add(f"{c1}-{c2}")
                    for na, nb in ((n1, n2), (n2, n1)):
                        requests += na * (na - 1 + nb)
                        comparisons += na * (na - 1) * nb
            else:
                for s1, s2 in itertools.permutations(speakers, 2):
                    cells += 1
                    phone_pairs.add(f"{c1}-{c2}")
                    for a, b in ((cat1, cat2), (cat2, cat1)):
                        requests += a[s2] * (a[s1] + b[s1])
                        comparisons += a[s2] * a[s1] * b[s1]
    return {"cells": cells, "distance_requests": requests,
            "comparisons": comparisons, "phone_pairs": phone_pairs}


def _abx_sizes(raw: dict) -> dict:
    rows = raw["rows"]
    sizes = {"tokens": len(rows),
             "token_frames": sum(stop - start for _, start, stop, *_ in rows),
             "utterances": len(raw["utterances"])}
    for mode in ("within", "across"):
        for key, value in abx_cells(rows, mode).items():
            if key != "phone_pairs":
                sizes[f"{mode}.{key}"] = value
    return sizes


# ---------------------------------------------------------------------------
# lm-pipeline: k-means -> quantize -> n-gram -> scorers -> sampler
# ---------------------------------------------------------------------------

LM = {
    "utterances": 200, "frames_per_utt": 200, "dim": DENSE_DIM, "clusters": 50,
    "kmeans_subsample": 8000, "kmeans_iters": 8,
    "lexical_pairs": 1000,
    "syntactic_pairs": 2000, "span": 15, "stride": 5,
    "words": 250, "gold_rows": 1000, "layers": 3, "hidden_dim": 256,
    "word_anchors": 3000, "word_candidates": 6, "scores": 4,
    "sentence_pool": 2000, "sentence_k": 700,
}


def span_windows(length: int, span: int, stride: int) -> list:
    """Windows of the masked-score format: 1-based inclusive (i, j)."""
    return [(start + 1, min(start + span + 1, length))
            for start in range(0, length, stride)]


def _lm_generate(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n_utt, t, d, k = (LM["utterances"], LM["frames_per_utt"], LM["dim"],
                      LM["clusters"])
    centres = 2.5 * rng.standard_normal((k, d))
    steps = rng.choice(np.array([1, 2, 3, 7]), size=(n_utt, t),
                       p=[0.4, 0.3, 0.2, 0.1])
    labels = (rng.integers(k, size=(n_utt, 1)) + np.cumsum(steps, axis=1)) % k
    frames = centres[labels] + rng.standard_normal((n_utt, t, d))

    lex_a = rng.integers(n_utt, size=LM["lexical_pairs"])
    lex_b = (lex_a + rng.integers(1, n_utt, size=LM["lexical_pairs"])) % n_utt

    n_syn = LM["syntactic_pairs"]
    syn_len = [12 + (7 * i) % 19 for i in range(n_syn)]
    syn_units = [rng.integers(k, size=syn_len[i // 2]) for i in range(2 * n_syn)]
    masked = {}
    for i, units in enumerate(syn_units):
        for win in span_windows(len(units), LM["span"], LM["stride"]):
            masked[(f"s{i:05d}",) + win] = -float(rng.exponential(10.0))

    words, layers, hdim = LM["words"], LM["layers"], LM["hidden_dim"]
    word_vec = rng.standard_normal((words, hdim))
    hidden = []  # per layer: utt -> T x hdim
    for layer in range(layers):
        per_utt = {}
        for w in range(words):
            for v, voice in enumerate("AB"):
                n = 6 + (3 * w + v) % 9
                per_utt[f"w{w:03d}_{voice}"] = (
                    (layer + 1) * word_vec[w]
                    + (3 - layer) * rng.standard_normal((n, hdim)))
        hidden.append(per_utt)
    combos = list(itertools.combinations(range(words), 2))
    chosen = rng.choice(len(combos), size=LM["gold_rows"], replace=False)
    unit_vec = word_vec / np.linalg.norm(word_vec, axis=1, keepdims=True)
    gold = []
    for n, idx in enumerate(chosen):
        a, b = combos[int(idx)]
        cos = float(unit_vec[a] @ unit_vec[b]) + 0.1 * float(rng.standard_normal())
        gold.append((a, b, round(min(10.0, max(0.0, 5.0 + 20.0 * cos)), 2),
                     f"ds{n % 2}"))

    m = LM["scores"]
    word_scores = rng.standard_normal((LM["word_anchors"], 1 + LM["word_candidates"], m))
    word_scores[:, 0, :] += 0.3  # anchors win a little more often than chance
    sent_scores = rng.standard_normal((LM["sentence_pool"], 2, m))
    sent_scores[:, 0, :] += 0.3
    return {"frames": frames, "lex": (lex_a, lex_b), "syn_units": syn_units,
            "masked": masked, "hidden": hidden, "gold": gold,
            "word_scores": word_scores, "sent_scores": sent_scores}


def _lm_write(lib, raw: dict, root: Path) -> None:
    io, types, sampler = lib.io_formats, lib.types, lib.sampler
    for u, frames in enumerate(raw["frames"]):
        io.write_feature_archive(root / "features",
                                 types.FeatureSequence(f"u{u:04d}", FRAME_RATE, frames))

    lex_a, lex_b = raw["lex"]
    io.write_pair_manifest(
        [types.ScoredPair(f"lex{i:05d}", f"u{a:04d}", f"u{b:04d}",
                          tags={"paradigm": f"bin{i % 4}", "voice": f"v{i % 2}"})
         for i, (a, b) in enumerate(zip(lex_a.tolist(), lex_b.tolist()))],
        root / "lexical_pairs.tsv")

    io.write_unit_sequences(
        [types.UnitSequence(f"s{i:05d}", units)
         for i, units in enumerate(raw["syn_units"])], root / "syntactic_units.txt")
    io.write_pair_manifest(
        [types.ScoredPair(f"syn{i:05d}", f"s{2 * i:05d}", f"s{2 * i + 1:05d}",
                          tags={"paradigm": f"para{i % 12}"})
         for i in range(LM["syntactic_pairs"])], root / "syntactic_pairs.tsv")
    lib.scoring.write_masked_scores(raw["masked"], root / "masked.tsv")

    for layer, per_utt in enumerate(raw["hidden"]):
        for utt, frames in per_utt.items():
            io.write_feature_archive(root / f"hidden{layer}",
                                     types.FeatureSequence(utt, FRAME_RATE, frames))
    # io_formats has no gold-table writer; the format is a plain TSV
    with open(root / "gold.tsv", "w") as fh:
        fh.write("word_a\tword_b\tscore\tdataset\trefs_a\trefs_b\n")
        for a, b, score, dataset in raw["gold"]:
            fh.write(f"w{a:03d}\tw{b:03d}\t{score}\t{dataset}"
                     f"\tA:w{a:03d}_A,B:w{a:03d}_B\tA:w{b:03d}_A,B:w{b:03d}_B\n")

    def candidate_set(scores, prefix, strata):
        anchors = []
        for i, rows in enumerate(scores.tolist()):
            anchors.append(sampler.AnchorEntry(
                f"{prefix}{i:05d}", f"st{i % strata:02d}", tuple(rows[0]),
                tuple((f"{prefix}{i:05d}_c{c}", tuple(r))
                      for c, r in enumerate(rows[1:]))))
        return sampler.CandidateSet(anchors)

    sampler.write_candidate_set(candidate_set(raw["word_scores"], "w", 16),
                                root / "word_candidates.tsv")
    sampler.write_candidate_set(candidate_set(raw["sent_scores"], "p", 6),
                                root / "sentence_pool.tsv")


def _lm_commands(raw: dict, root: Path, out: Path, seed: int) -> list:
    r, o = (lambda name: str(root / name)), (lambda name: str(out / name))
    lexical_tags = {f"paradigm=bin{i}" for i in range(4)} | {"voice=v0", "voice=v1"}
    syntactic_tags = {f"paradigm=para{i}" for i in range(12)}
    return [
        Command("kmeans_train_s",
                ["kmeans-train", "--features", r("features"),
                 "--k", str(LM["clusters"]), "--seed", str(seed),
                 "--subsample", str(LM["kmeans_subsample"]),
                 "--max-iter", str(LM["kmeans_iters"]), "--tol", "0",
                 "--out", o("codebook.zrck")],
                artifacts=[o("codebook.zrck")]),
        Command("quantize_s",
                ["quantize", "--codebook", o("codebook.zrck"),
                 "--features", r("features"), "--out", o("units.txt")],
                artifacts=[o("units.txt")],
                checks=[functools.partial(_check_units, o("units.txt")),
                        functools.partial(_check_quantize, raw, o("codebook.zrck"),
                                          o("units.txt"))]),
        Command("ngram_train_s",
                ["ngram-train", "--units", o("units.txt"), "--order", "2",
                 "--out", o("model.json")]),
        Command("score_lexical_s",
                ["score-lexical", "--pairs", r("lexical_pairs.tsv"),
                 "--ngram-model", o("model.json"), "--units", o("units.txt"),
                 "--out", o("lexical.json")], report=o("lexical.json"),
                checks=[functools.partial(_check_report, o("lexical.json"),
                                          (0.0, 1.0), lexical_tags),
                        functools.partial(_check_lexical, raw, o("units.txt"),
                                          o("lexical.json"))]),
        Command("score_syntactic_s",
                ["score-syntactic", "--pairs", r("syntactic_pairs.tsv"),
                 "--masked-table", r("masked.tsv"),
                 "--units", r("syntactic_units.txt"),
                 "--span", str(LM["span"]), "--stride", str(LM["stride"]),
                 "--out", o("syntactic.json")], report=o("syntactic.json"),
                checks=[functools.partial(_check_report, o("syntactic.json"),
                                          (0.0, 1.0), syntactic_tags),
                        functools.partial(_check_syntactic, raw,
                                          o("syntactic.json"))]),
        Command("score_semantic_s",
                ["score-semantic", "--gold", r("gold.tsv"), "--features"]
                + [r(f"hidden{i}") for i in range(LM["layers"])]
                + ["--pooling", "sweep", "--out", o("semantic.json")],
                report=o("semantic.json"),
                checks=[functools.partial(_check_report, o("semantic.json"),
                                          (-100.0, 100.0), {"ds0", "ds1"})]),
        Command("sample_words_s",
                ["sample-pairs", "--candidates", r("word_candidates.tsv"),
                 "--mode", "words", "--seed", str(seed),
                 "--out", o("word_assignment.tsv")],
                artifacts=[o("word_assignment.tsv")],
                checks=[functools.partial(_check_rows, o("word_assignment.tsv"),
                                          LM["word_anchors"])]),
        Command("sample_sentences_s",
                ["sample-pairs", "--candidates", r("sentence_pool.tsv"),
                 "--mode", "sentences", "--k-target", str(LM["sentence_k"]),
                 "--per-stratum", "--seed", str(seed),
                 "--out", o("sentence_assignment.tsv")],
                artifacts=[o("sentence_assignment.tsv")],
                checks=[functools.partial(_check_rows, o("sentence_assignment.tsv"),
                                          LM["sentence_k"])]),
    ]


def _lm_sizes(raw: dict) -> dict:
    n_utt, t = LM["utterances"], LM["frames_per_utt"]
    syn_tokens = sum(len(u) for u in raw["syn_units"])
    return {
        "frames": n_utt * t, "utterances": n_utt, "dim": LM["dim"],
        "kmeans_frames": LM["kmeans_subsample"], "k": LM["clusters"],
        "kmeans_max_iter": LM["kmeans_iters"],
        "lexical_pairs": LM["lexical_pairs"], "lexical_tokens": n_utt * t,
        "syntactic_pairs": LM["syntactic_pairs"], "syntactic_tokens": syn_tokens,
        "span_windows": len(raw["masked"]),
        "gold_rows": LM["gold_rows"], "layers": LM["layers"],
        "hidden_utterances": 2 * LM["words"],
        "word_anchors": LM["word_anchors"],
        "word_candidates": LM["word_anchors"] * LM["word_candidates"],
        "sentence_pool": LM["sentence_pool"], "sentence_k": LM["sentence_k"],
    }


# ---------------------------------------------------------------------------
# output facts that hold for every seed
# ---------------------------------------------------------------------------

def report_values(path) -> dict:
    """The parsed ``aggregate`` and ``subsets`` of a JSON report."""
    doc = json.loads(Path(path).read_text())
    return {"aggregate": doc["aggregate"], "subsets": doc["subsets"]}


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_report(path, bounds, subset_keys):
    values = report_values(path)
    lo, hi = bounds
    if not lo <= values["aggregate"] <= hi:
        return f"{path}: aggregate {values['aggregate']} outside [{lo}, {hi}]"
    if set(values["subsets"]) != set(subset_keys):
        return (f"{path}: subsets {sorted(values['subsets'])} "
                f"!= expected {sorted(subset_keys)}")
    return None


def _check_units(path):
    lines = Path(path).read_text().splitlines()
    if len(lines) != LM["utterances"]:
        return f"{path}: {len(lines)} sequences, expected {LM['utterances']}"
    for line in lines:
        units = [int(u) for u in line.split()[1:]]
        if len(units) != LM["frames_per_utt"] or not all(
                0 <= u < LM["clusters"] for u in units):
            return f"{path}: bad unit sequence {line.split()[0]}"
    return None


def _read_units(path) -> dict:
    return {line.split()[0]: [int(u) for u in line.split()[1:]]
            for line in Path(path).read_text().splitlines()}


def _check_quantize(raw, codebook, units):
    frames = oracles.f32(raw["frames"].reshape(-1, LM["dim"]))
    labels = np.concatenate([np.array(u) for _, u in sorted(_read_units(units).items())])
    return oracles.nearest_centroid_problem(frames, oracles.read_codebook(codebook),
                                            labels)


def _lexical_pairs(raw) -> list:
    lex_a, lex_b = raw["lex"]
    return [(f"u{a:04d}", f"u{b:04d}", (f"paradigm=bin{i % 4}", f"voice=v{i % 2}"))
            for i, (a, b) in enumerate(zip(lex_a.tolist(), lex_b.tolist()))]


def _check_lexical(raw, units, report):
    scores = oracles.bigram_scores(_read_units(units))
    overall, per_tag = oracles.accuracy(_lexical_pairs(raw), scores)
    return oracles.compare(report, per_tag, overall)


def _check_syntactic(raw, report):
    scores = {f"s{i:05d}": oracles.span_sum(raw["masked"], f"s{i:05d}", len(units),
                                            LM["span"], LM["stride"])
              for i, units in enumerate(raw["syn_units"])}
    pairs = [(f"s{2 * i:05d}", f"s{2 * i + 1:05d}", (f"paradigm=para{i % 12}",))
             for i in range(LM["syntactic_pairs"])]
    overall, per_tag = oracles.accuracy(pairs, scores)
    return oracles.compare(report, per_tag, overall)


def _check_rows(path, expected):
    rows = len(Path(path).read_text().splitlines()) - 1  # minus the header
    if rows != expected:
        return f"{path}: {rows} assignment rows, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def generate(name: str, seed: int) -> dict:
    if name in ABX_SHAPES:
        return _abx_generate(ABX_SHAPES[name], seed)
    return _lm_generate(seed)


def write(lib, name: str, raw: dict, root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    if name in ABX_SHAPES:
        _abx_write(lib, raw, root, ABX_SHAPES[name])
    else:
        _lm_write(lib, raw, root)


def commands(name: str, raw: dict, root: Path, out: Path, seed: int) -> list:
    if name in ABX_SHAPES:
        return _abx_commands(raw, root, out, ABX_SHAPES[name], seed)
    return _lm_commands(raw, root, out, seed)


def sizes(name: str, raw: dict) -> dict:
    if name in ABX_SHAPES:
        return _abx_sizes(raw)
    return _lm_sizes(raw)
