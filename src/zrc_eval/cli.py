"""Command-line interface: reproducible batch runs over all metrics.

Exit codes: 0 on success, 1 on validation/input errors (single-line
diagnostic on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import abx as abx_mod
from . import io_formats as io
from . import metrics as metrics_mod
from . import quantizer as quant_mod
from . import sampler as sampler_mod
from . import scoring as scoring_mod
from .errors import FormatError, ValidationError, _at
from .types import MetricReport


class UsageError(Exception):
    """Bad flag combinations detected after parsing."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zrc-eval",
        description="Zero-shot evaluation toolkit for spoken language models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("abx", help="phonetic discriminability over an item set")
    p.add_argument("--items", required=True, help="triphone item file")
    p.add_argument("--features", required=True, help="feature archive directory")
    p.add_argument("--mode", choices=("within", "across"), default="within")
    p.add_argument("--distance", choices=("angular", "kl"), default="angular")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("tsv", "json"), default=None)
    p.set_defaults(func=cmd_abx)

    p = sub.add_parser("kmeans-train", help="fit a codebook on pooled frames")
    p.add_argument("--features", required=True, help="feature archive directory")
    p.add_argument("--k", type=int, default=quant_mod.DEFAULT_CLUSTERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--subsample", type=int, default=None,
                   help="cap on training frames (seeded reservoir sampling)")
    p.add_argument("--out", required=True, help="output codebook file")
    p.add_argument("--report", default=None, help="optional training report")
    p.set_defaults(func=cmd_kmeans_train)

    p = sub.add_parser("quantize", help="discretize an archive with a codebook")
    p.add_argument("--codebook", required=True)
    p.add_argument("--features", required=True, help="feature archive directory")
    p.add_argument("--out", required=True, help="output unit-sequence file")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("ngram-train", help="train an n-gram control model")
    p.add_argument("--units", required=True, help="unit-sequence file")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output model JSON")
    p.set_defaults(func=cmd_ngram_train)

    for name, helptext in (("score-lexical", "spot-the-word accuracy"),
                           ("score-syntactic", "acceptability accuracy")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--pairs", required=True, help="pair manifest TSV")
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--scores", help="external utterance score TSV")
        src.add_argument("--ngram-model", help="model JSON; needs --units")
        src.add_argument("--masked-table",
                         help="external masked-window score TSV; needs --units")
        p.add_argument("--units", help="unit-sequence file for model scoring")
        p.add_argument("--span", type=int, help="decoding span size for masked "
                       f"scoring (default {scoring_mod.SpanConfig.m_d})")
        p.add_argument("--stride", type=int, help="temporal sliding size for masked "
                       f"scoring (default {scoring_mod.SpanConfig.delta_t})")
        p.add_argument("--per-token", action="store_true",
                       help="normalize model scores by sequence length")
        p.add_argument("--tie", choices=("half", "zero"), default="half")
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=("tsv", "json"), default=None)
        p.set_defaults(func=cmd_score_pairs, metric_name=name.replace("score-", ""))

    p = sub.add_parser("score-semantic", help="similarity vs human judgments")
    p.add_argument("--gold", required=True, help="similarity gold TSV")
    p.add_argument("--features", required=True, nargs="+",
                   help="hidden-state archive directories, one per layer")
    p.add_argument("--pooling", choices=("mean", "max", "min", "sweep"),
                   default="sweep")
    p.add_argument("--layer", type=int, default=0,
                   help="layer index when not sweeping")
    p.add_argument("--subset", choices=("synthetic", "natural"),
                   default="synthetic")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("tsv", "json"), default=None)
    p.set_defaults(func=cmd_score_semantic)

    p = sub.add_parser("sample-pairs",
                       help="balance paired datasets toward chance accuracy")
    p.add_argument("--candidates", required=True, help="candidate set TSV")
    p.add_argument("--mode", choices=("words", "sentences"), default="words")
    p.add_argument("--k-target", type=int, default=None,
                   help="subset size for sentence mode")
    p.add_argument("--per-stratum", action="store_true",
                   help="stratify sentence sampling by stratum")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--out", required=True, help="output assignment TSV")
    p.add_argument("--report", default=None, help="optional balance report")
    p.set_defaults(func=cmd_sample_pairs)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_abx(args) -> int:
    items = io.read_item_file(args.items)
    result = abx_mod.abx_evaluate(items, args.features, args.mode, args.distance,
                                  where=args.items)
    report = MetricReport(
        metric="abx",
        aggregate=result.error_rate,
        subsets=result.by_phone_pair,
        counts={"cells": result.cell_count,
                "dropped_tokens": result.dropped_tokens,
                "clamped_tokens": result.clamped_tokens,
                "skipped_cells": result.skipped_cells},
        config={"mode": args.mode, "distance": args.distance},
    )
    io.write_report(report, args.out, args.format)
    return 0


def cmd_kmeans_train(args) -> int:
    utt_ids = io.list_archive(args.features)
    if not utt_ids:
        raise ValidationError(f"no feature files under {args.features}")
    sequences = [io.read_feature_archive(args.features, u) for u in utt_ids]
    first = io.feature_file(args.features, utt_ids[0])
    for utt, fs in zip(utt_ids, sequences):
        if fs.dim != sequences[0].dim:
            raise ValidationError(f"{io.feature_file(args.features, utt)}: feature "
                                  f"dim {fs.dim} != {sequences[0].dim} of {first}")
    frame_rate = sequences[0].frame_rate
    with np.errstate(over="ignore"):
        if not 0 < np.float32(frame_rate) < np.inf:  # the codebook's f32
            raise ValidationError(f"{first}: frame rate {frame_rate} is not "
                                  "finite and positive as f32")
    frames = np.concatenate([fs.frames for fs in sequences])
    del sequences  # the fit holds the frames once, concatenated
    codebook = quant_mod.kmeans_fit(
        frames, args.k, seed=args.seed, max_iter=args.max_iter, tol=args.tol,
        frame_rate=frame_rate, subsample=args.subsample)
    quant_mod.write_codebook(codebook, args.out)
    if args.report:
        report = MetricReport(
            metric="kmeans",
            aggregate=codebook.inertia,
            counts={"frames": frames.shape[0], "iterations": codebook.n_iter},
            config={"k": str(args.k), "seed": str(args.seed),
                    "max_iter": str(args.max_iter), "tol": str(args.tol),
                    "subsample": str(args.subsample)},
        )
        io.write_report(report, args.report)
    return 0


def cmd_quantize(args) -> int:
    codebook = quant_mod.read_codebook(args.codebook)
    sequences = []
    for utt in io.list_archive(args.features):
        fs = io.read_feature_archive(args.features, utt)
        if fs.dim != codebook.dim:
            raise ValidationError(
                f"{io.feature_file(args.features, utt)}: feature dim {fs.dim} != "
                f"codebook dim {codebook.dim} of {args.codebook}")
        sequences.append(quant_mod.quantize(codebook, fs))
    if not sequences:
        raise ValidationError(f"no feature files under {args.features}")
    io.write_unit_sequences(sequences, args.out)
    return 0


def cmd_ngram_train(args) -> int:
    corpus = io.read_unit_sequences(args.units)
    model = scoring_mod.ngram_train(corpus, args.order, args.alpha, where=args.units)
    scoring_mod.save_ngram_model(model, args.out)
    return 0


def _pair_scores(args, cfg) -> dict:
    if args.scores:
        return io.read_external_scores(args.scores)
    sequences = io.read_unit_sequences(args.units)
    if args.ngram_model:
        score = functools.partial(scoring_mod.chain_rule_logprob,
                                  scoring_mod.load_ngram_model(args.ngram_model))
        source = f"--ngram-model {args.ngram_model}"
    else:
        score = functools.partial(scoring_mod.span_pseudo_logprob,
                                  scoring_mod.read_masked_scores(args.masked_table),
                                  cfg=cfg)
        source = f"--masked-table {args.masked_table}"
    scores = {}
    for seq in sequences:
        try:
            scores[seq.utt_id] = score(seq, per_token=args.per_token).log_score
        except ValidationError as exc:  # led by the utterance's line
            raise ValidationError(f"{exc} ({source})") from None
    return scores


def cmd_score_pairs(args) -> int:
    if args.scores and (args.units or args.per_token):
        raise UsageError("--units and --per-token do not apply to --scores")
    if not (args.scores or args.units):
        raise UsageError("--units is required with --ngram-model/--masked-table")
    if not args.masked_table and (args.span, args.stride) != (None, None):
        raise UsageError("--span and --stride apply to --masked-table only")
    spans = {"m_d": args.span, "delta_t": args.stride}
    cfg = scoring_mod.SpanConfig(**{k: v for k, v in spans.items() if v is not None})
    pairs = io.read_pair_manifest(args.pairs)
    scores = _pair_scores(args, cfg)
    try:
        acc = metrics_mod.paired_accuracy(pairs, scores, args.tie, where=args.pairs)
    except ValidationError as exc:
        if not pairs:
            raise
        # a pair without a score, led by its line
        source = (f"--scores {args.scores}" if args.scores else
                  f"--units {args.units}" if args.ngram_model else
                  f"--units {args.units} (--masked-table {args.masked_table})")
        raise ValidationError(f"{exc} in {source}") from None
    config = {"tie": args.tie,
              "source": ("scores" if args.scores else
                         "ngram" if args.ngram_model else "masked")}
    if not args.scores:
        config["per_token"] = str(args.per_token)
    if args.masked_table:
        config.update(span=str(cfg.m_d), stride=str(cfg.delta_t))
    report = MetricReport(
        metric=f"{args.metric_name}-accuracy",
        aggregate=acc.overall,
        subsets=acc.per_tag,
        counts=dict(acc.tag_counts, pairs=acc.pair_count, ties=acc.tie_count),
        config=config,
    )
    io.write_report(report, args.out, args.format)
    return 0


def _gold_frames(gold, directory, utt):
    """``utt``'s frames under ``directory``; a missing file is named at the
    first line of ``gold`` that reads ``utt`` (a word without refs reads
    itself, as in ``metrics.record_refs``)."""
    try:
        return io.read_feature_archive(directory, utt).frames
    except FileNotFoundError as exc:
        lineno = next(n for n, row in io._read_tsv(gold, ()) for w in "ab"
                      for _, u in io._parse_refs(row.get(f"refs_{w}", ""))
                      or [("", row[f"word_{w}"])] if u == utt)
        raise _at(f"{gold}: line {lineno}", exc) from None


def cmd_score_semantic(args) -> int:
    sweep = args.pooling == "sweep"
    if not sweep and not (0 <= args.layer < len(args.features)):
        raise UsageError(f"--layer {args.layer} out of range for "
                         f"{len(args.features)} archives")
    records = io.read_similarity_gold(args.gold)
    needed = sorted({utt for record in records
                     for refs in metrics_mod.record_refs(record) for _, utt in refs})
    layers = [{utt: _gold_frames(args.gold, directory, utt) for utt in needed}
              for directory in (args.features if sweep
                                else [args.features[args.layer]])]
    layer, pooling, score, sims = metrics_mod.layer_sweep(
        layers, records, args.subset,
        metrics_mod.POOLINGS if sweep else (args.pooling,), where=args.gold)
    by_dataset: dict = {}  # dataset -> its records' (model, human) similarities
    for record, sim in zip(records, sims):
        by_dataset.setdefault(record.dataset, []).append((sim, record.human_score))
    subsets = {}
    for dataset, pairs in by_dataset.items():
        try:
            subsets[dataset] = metrics_mod.spearman(*zip(*pairs))
        except ValidationError:
            pass  # fewer than 2 records, or constant scores: leave it out
    counts = {dataset: len(pairs) for dataset, pairs in by_dataset.items()}
    report = MetricReport(
        metric="semantic-similarity",
        aggregate=score,
        subsets=subsets,
        counts=dict(counts, records=len(records)),
        config={"pooling": pooling, "layer": str(layer if sweep else args.layer),
                "subset": args.subset, "sweep": str(sweep)},
    )
    io.write_report(report, args.out, args.format)
    return 0


def cmd_sample_pairs(args) -> int:
    if args.mode == "words" and (args.k_target is not None or args.per_stratum):
        raise UsageError("--k-target and --per-stratum apply to sentence mode")
    if args.mode == "sentences" and args.k_target is None:
        raise UsageError("--k-target is required in sentence mode")
    cs = sampler_mod.read_candidate_set(args.candidates)
    if args.mode == "words":
        assignment = sampler_mod.sample_word_pairs(
            cs, seed=args.seed, restarts=args.restarts)
    else:
        assignment = sampler_mod.sample_sentence_pairs(
            cs, args.k_target, seed=args.seed,
            per_stratum=args.per_stratum, restarts=args.restarts)
    sampler_mod.write_assignment(assignment, cs, args.out)
    if args.report:
        by_stratum: dict = {}
        for anchor in cs.anchors:
            if anchor.anchor_id in assignment.chosen:
                by_stratum.setdefault(anchor.stratum, {})[anchor.anchor_id] = \
                    assignment.chosen[anchor.anchor_id]
        report = MetricReport(
            metric="sampler-balance",
            aggregate=assignment.objective,
            subsets=sampler_mod.stratum_objectives(by_stratum, cs),
            counts={s: len(chosen) for s, chosen in sorted(by_stratum.items())},
            config={"mode": args.mode, "seed": str(args.seed),
                    "restarts": str(args.restarts),
                    "restart_index": str(assignment.restart_index),
                    "k_target": str(args.k_target)},
        )
        io.write_report(report, args.report)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
