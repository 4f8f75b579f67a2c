"""CLI wiring: exit codes, report writing, determinism."""

import contextlib
import importlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zrc_eval
from conftest import balance_objective
from zrc_eval import abx, cli, io_formats, metrics, quantizer, sampler, scoring
from zrc_eval.errors import FormatError, ValidationError
from zrc_eval.types import FeatureSequence, MetricReport, TriphoneToken, UnitSequence


def run(argv):
    return cli.main(argv)


def tsv_rows(path):
    """The tab-separated rows of a TSV report or an assignment file."""
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def raised(argv):
    """The exception a subcommand raises, before ``main`` maps it."""
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ValueError) as info:
        args.func(args)
    return info.value


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["abx", "--bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_required_path_is_usage_error(self, capsys):
        assert run(["abx", "--mode", "within"]) == 2

    def test_no_subcommand_is_usage_error(self):
        assert run([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "zrc-eval" in capsys.readouterr().out

    def test_validation_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.item"
        bad.write_text("not a header\n")
        out = tmp_path / "r.json"
        code = run(["abx", "--items", str(bad), "--features", str(tmp_path),
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("distance, bad_frame",
                             [("angular", [0.0, 0.0]), ("kl", [0.5, 0.6])])
    def test_bad_frame_names_its_token(self, tmp_path, capsys, distance, bad_frame):
        # one token whose frames the metric rejects, among valid ones
        features = tmp_path / "features"
        tokens = []
        for k, (center, unit) in enumerate([("B", 0), ("B", 0), ("P", 1), ("P", 1)]):
            frames = np.eye(2)[[unit, unit]]
            utt = "bad_utt" if k == 3 else f"u{k}"
            if k == 3:
                frames[1] = bad_frame
            io_formats.write_feature_archive(
                features, FeatureSequence(utt, 100.0, frames), "binary")
            tokens.append(TriphoneToken(utt, 0.0, 0.02, center, "A", "T", "s1"))
        items = tmp_path / "x.item"
        io_formats.write_item_file(tokens, items)
        code = run(["abx", "--items", str(items), "--features", str(features),
                    "--mode", "within", "--distance", distance,
                    "--out", str(tmp_path / "r.json")])
        assert code == 1
        reason = {"angular": "angular distance undefined for zero-norm frames",
                  "kl": "KL distance requires probability frames"}[distance]
        assert capsys.readouterr().err == (
            f"error: {items}: line 5: token (bad_utt, 0.0, 0.02): {reason}\n")

    def test_all_dropped_items_have_no_valid_cells(self, tmp_path, capsys):
        # every token rounds to an empty frame span: no frame is prepared,
        # and the run ends as the item file's error, not a traceback
        features = tmp_path / "features"
        io_formats.write_feature_archive(
            features, FeatureSequence("u1", 100.0, np.eye(2)[[0, 1, 0, 1]]), "binary")
        items = tmp_path / "x.item"
        io_formats.write_item_file(
            [TriphoneToken("u1", k / 100 + 0.001, k / 100 + 0.002, c, "A", "T", "s1")
             for k, c in enumerate("BBPP")], items)
        code = run(["abx", "--items", str(items), "--features", str(features),
                    "--mode", "within", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {items}: no valid ABX cells in within mode\n")

    @staticmethod
    def phone_items(tmp_path, phones):
        """An item file of one context and speaker, two random 2-frame
        tokens for each centre phone, and their archive."""
        features = tmp_path / "features"
        rng = np.random.default_rng(37)
        tokens = []
        for k, center in enumerate(np.repeat(phones, 2).tolist()):
            io_formats.write_feature_archive(features, FeatureSequence(
                f"u{k}", 100.0, rng.standard_normal((2, 3))), "binary")
            tokens.append(TriphoneToken(f"u{k}", 0.0, 0.02, center, "A", "T", "s1"))
        items = tmp_path / "x.item"
        io_formats.write_item_file(tokens, items)
        return items, features

    def test_phone_pairs_reported_under_one_key_name_both(self, tmp_path, capsys):
        # (a, b-c) and (a-b, c) both print as a-b-c: no score is dropped
        items, features = self.phone_items(tmp_path, ["a", "b-c", "a-b", "c"])
        argv = ["abx", "--items", str(items), "--features", str(features),
                "--mode", "within", "--out", str(tmp_path / "r.json")]
        expected = (f"{items}: phone pairs ('a', 'b-c') and ('a-b', 'c') both "
                    "report as 'a-b-c'")
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        error = raised(argv)
        assert type(error) is ValidationError and str(error) == expected

    def test_hyphenated_phones_without_a_clash_are_reported(self, tmp_path):
        reports = []
        for phones in (["a-b", "c"], ["ab", "c"]):
            items, features = self.phone_items(tmp_path / phones[0], phones)
            out = tmp_path / phones[0] / "r.json"
            assert run(["abx", "--items", str(items), "--features", str(features),
                        "--mode", "within", "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert list(reports[0]["subsets"]) == ["a-b-c"]
        assert reports[0]["subsets"]["a-b-c"] == reports[1]["subsets"]["ab-c"]
        assert reports[0]["aggregate"] == reports[1]["aggregate"]

    def test_angular_frames_of_any_finite_magnitude(self, tmp_path, capsys):
        # a text archive holds any finite value: no frame is taken for a
        # zero one, no squared norm overflows, and each token is scored by
        # its direction alone; B tokens along one axis, P along the other
        features = tmp_path / "features"
        features.mkdir()
        magnitudes = {"B": ("1e200", "5e-324"), "P": ("1e-200", "1e308")}
        tokens = []
        for center, (first, second) in magnitudes.items():
            for k, m in enumerate((first, second)):
                utt = f"{center}{k}"
                row = f"{m} 0" if center == "B" else f"0 -{m}"
                (features / f"{utt}.txt").write_text(f"dim=2 rate=100\n{row}\n{row}\n")
                tokens.append(TriphoneToken(utt, 0.0, 0.02, center, "A", "T", "s1"))
        items = tmp_path / "x.item"
        io_formats.write_item_file(tokens, items)
        out = tmp_path / "r.json"
        assert run(["abx", "--items", str(items), "--features", str(features),
                    "--mode", "within", "--distance", "angular",
                    "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["aggregate"] == 0.0

    def test_mixed_frame_dimensions_name_the_utterance(self, tmp_path, capsys):
        # one 3-dim utterance among 2-dim ones, all in one context
        features = tmp_path / "features"
        tokens = []
        for k, (center, unit) in enumerate([("B", 0), ("B", 0), ("P", 1), ("P", 1)]):
            dim = 3 if k == 2 else 2
            utt = "wide_utt" if k == 2 else f"u{k}"
            io_formats.write_feature_archive(
                features, FeatureSequence(utt, 100.0, np.eye(dim)[[unit, unit]]),
                "binary")
            tokens.append(TriphoneToken(utt, 0.0, 0.02, center, "A", "T", "s1"))
        items = tmp_path / "x.item"
        io_formats.write_item_file(tokens, items)
        code = run(["abx", "--items", str(items), "--features", str(features),
                    "--mode", "within", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {items}: line 4: token (wide_utt, 0.0, 0.02): frame dimension "
            "3 differs from 2 in token (u0, 0.0, 0.02)\n")

    # the codebook stores its rate as an f32: 1e300 overflows it, 1e-50
    # rounds to 0
    @pytest.mark.parametrize("rate", ["1e300", "1e-50"])
    def test_codebook_rate_must_survive_f32(self, tmp_path, capsys, rate):
        features = tmp_path / "features"
        features.mkdir()
        (features / "u1.txt").write_text(f"dim=2 rate={rate}\n0 0\n0 1\n1 0\n")
        out = tmp_path / "c.zrck"
        assert run(["kmeans-train", "--features", str(features), "--k", "2",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {features / 'u1.txt'}: frame rate {float(rate)} is not finite "
            "and positive as f32\n")
        assert not out.exists()

    def test_codebook_values_must_survive_f32(self, tmp_path, capsys):
        # a text archive holds values near 1e39, the codebook's f32 does not
        features = tmp_path / "features"
        features.mkdir()
        (features / "u1.txt").write_text("dim=2 rate=100\n0 0\n0 1e39\n1e39 0\n")
        out = tmp_path / "c.zrck"
        assert run(["kmeans-train", "--features", str(features), "--k", "2",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out}: centroid value beyond the f32 range of codebook files\n")
        assert not out.exists()

    def test_mixed_dimensions_in_kmeans_archive_name_both_files(self, tmp_path,
                                                                 capsys):
        features = tmp_path / "features"
        for utt, dim in (("u1", 2), ("u2", 3)):
            io_formats.write_feature_archive(
                features, FeatureSequence(utt, 100.0, np.eye(dim)), "binary")
        out = tmp_path / "c.zrck"
        assert run(["kmeans-train", "--features", str(features), "--k", "2",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {features / 'u2.zrcf'}: feature dim 3 != 2 of "
            f"{features / 'u1.zrcf'}\n")
        assert not out.exists()

    def test_library_bug_is_not_an_input_error(self, tmp_path, monkeypatch):
        # main maps only FormatError, ValidationError and OSError to exit 1
        pairs = tmp_path / "p.tsv"
        pairs.write_text("pair_id\taccepted_id\trejected_id\np\tu1\tu2\n")
        scores = tmp_path / "s.tsv"
        scores.write_text("u1\t-1.0\nu2\t-2.0\n")

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(metrics, "paired_accuracy", broken)
        with pytest.raises(ValueError, match="operands could not be broadcast"):
            run(["score-lexical", "--pairs", str(pairs), "--scores", str(scores),
                 "--out", str(tmp_path / "r.json")])

    @pytest.mark.parametrize("fmt, name", [("binary", "u1.zrcf"), ("text", "u1.txt")])
    def test_quantize_dim_mismatch_names_both_files(self, tmp_path, capsys, fmt, name):
        codebook = tmp_path / "c.zrck"
        _codebook_file(codebook, np.eye(3))
        features = tmp_path / "features"
        io_formats.write_feature_archive(
            features, FeatureSequence("u1", 100.0, np.ones((4, 2))), fmt)
        code = run(["quantize", "--codebook", str(codebook), "--features",
                    str(features), "--out", str(tmp_path / "u.txt")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {features / name}: feature dim 2 != codebook dim 3 of {codebook}\n")

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = run(["ngram-train", "--units", str(tmp_path / "nope.txt"),
                    "--out", str(tmp_path / "m.json")])
        assert code == 1

    def test_duplicate_utterance_in_units_exits_one(self, tmp_path, capsys):
        pairs = tmp_path / "p.tsv"
        pairs.write_text("pair_id\taccepted_id\trejected_id\np\tu1\tu2\n")
        units = tmp_path / "units.txt"
        units.write_text("u1 1 2\nu2 2 1\nu1 1 1\n")
        model = tmp_path / "m.json"
        scoring.save_ngram_model(scoring.ngram_train(
            [UnitSequence("u", [1, 2, 1])], order=2), model)
        code = run(["score-lexical", "--pairs", str(pairs), "--ngram-model",
                    str(model), "--units", str(units),
                    "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {units}: line 3: duplicate utterance 'u1'\n"

    def test_undecodable_pairs_name_the_file(self, tmp_path, capsys):
        pairs = tmp_path / "p.tsv"
        pairs.write_bytes(b"pair_id\taccepted_id\trejected_id\np\tu\x89\tu2\n")
        scores = tmp_path / "s.tsv"
        scores.write_text("u1\t-1.0\nu2\t-2.0\n")
        code = run(["score-lexical", "--pairs", str(pairs), "--scores", str(scores),
                    "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {pairs}: not UTF-8 text\n"

    @pytest.mark.parametrize("command", ["kmeans-train", "quantize"])
    def test_no_feature_files_names_the_directory(self, tmp_path, capsys, command):
        empty = tmp_path / "empty"
        empty.mkdir()
        codebook = tmp_path / "cb.zrck"
        quantizer.write_codebook(quantizer.Codebook(np.eye(2)), codebook)
        argv = [command, "--features", str(empty), "--out", str(tmp_path / "o")]
        if command == "quantize":
            argv += ["--codebook", str(codebook)]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: no feature files under {empty}\n"
        assert type(raised(argv)) is ValidationError

    @pytest.mark.parametrize("source", ["scores", "ngram-model", "masked-table"])
    def test_unscored_pair_names_manifest_line_and_source(self, tmp_path, capsys,
                                                          source):
        pairs = tmp_path / "p.tsv"
        pairs.write_text("pair_id\taccepted_id\trejected_id\n"
                         "p1\tu1\tu2\n\np2\tu2\tghost\n")
        units = tmp_path / "units.txt"
        units.write_text("u1 1 2\nu2 2 1\n")
        scores = tmp_path / "s.tsv"
        io_formats.write_external_scores({"u1": -1.0, "u2": -2.0}, scores)
        model = tmp_path / "m.json"
        scoring.save_ngram_model(scoring.ngram_train(
            [UnitSequence("u", [1, 2, 1])], order=2), model)
        table = tmp_path / "masked.tsv"
        scoring.write_masked_scores({(u, i, j): -1.0 for u in ("u1", "u2")
                                     for i in (1, 2) for j in (i, 2)}, table)
        argv = ["score-lexical", "--pairs", str(pairs), "--out", str(tmp_path / "r.json")]
        if source == "scores":
            argv += ["--scores", str(scores)]
            where = f"--scores {scores}"
        elif source == "ngram-model":
            argv += ["--ngram-model", str(model), "--units", str(units)]
            where = f"--units {units}"
        else:
            argv += ["--masked-table", str(table), "--units", str(units)]
            where = f"--units {units} (--masked-table {table})"
        expected = (f"{pairs}: line 4: pair p2: no score for utterance 'ghost' "
                    f"in {where}")
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        error = raised(argv)
        assert type(error) is ValidationError and str(error) == expected

    # case -> (argv after the subcommand's inputs, message, library call
    # given the inputs, raised type); the message names the bad value, and
    # a model file's error names the file
    BAD_SETTINGS = {
        "seed-above-u64": (
            ["kmeans-train", "--seed", str(2 ** 64)],
            "seed must be in [0, 2**64), got 18446744073709551616",
            lambda f: quantizer.kmeans_fit(f["frames"], 2, seed=2 ** 64),
            ValidationError),
        "seed-negative": (
            ["kmeans-train", "--seed", "-1"], "seed must be in [0, 2**64), got -1",
            lambda f: quantizer.kmeans_fit(f["frames"], 2, seed=-1),
            ValidationError),
        "sampler-seed-negative": (
            ["sample-pairs", "--seed", "-1"], "seed must be >= 0, got -1",
            lambda f: sampler.sample_word_pairs(f["cs"], seed=-1),
            ValidationError),
        "subsample-negative": (
            ["kmeans-train", "--subsample", "-3"], "subsample must be >= 1, got -3",
            lambda f: quantizer.kmeans_fit(f["frames"], 2, subsample=-3),
            ValidationError),
        "tol-nan": (
            ["kmeans-train", "--tol", "nan"], "tol must be non-negative, got nan",
            lambda f: quantizer.kmeans_fit(f["frames"], 2, tol=float("nan")),
            ValidationError),
        "alpha-inf": (
            ["ngram-train", "--alpha", "inf"],
            "alpha must be finite and positive, got inf",
            lambda f: scoring.ngram_train(f["corpus"], 2, float("inf")),
            ValidationError),
        # alpha over the largest denominator must not round to 0
        "alpha-overflows-the-denominator": (
            ["ngram-train", "--alpha", "1e308"],
            "alpha 1e+308 puts a smoothed probability out of float range",
            lambda f: scoring.ngram_train(f["corpus"], 2, 1e308),
            ValidationError),
        "alpha-underflows": (
            ["ngram-train", "--alpha", "5e-324"],
            "alpha 5e-324 puts a smoothed probability out of float range",
            lambda f: scoring.ngram_train(f["corpus"], 2, 5e-324),
            ValidationError),
        "model-alpha-inf": (
            ["score-lexical"], "{model}: alpha must be finite and positive, got inf",
            lambda f: scoring.load_ngram_model(f["model"]),
            FormatError),
    }

    @pytest.mark.parametrize("case", list(BAD_SETTINGS))
    def test_bad_setting_names_its_value(self, tmp_path, capsys, case):
        features = tmp_path / "features"
        frames = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        io_formats.write_feature_archive(
            features, FeatureSequence("u", 100.0, frames), "binary")
        candidates = tmp_path / "cands.tsv"
        sampler.write_candidate_set(sampler.CandidateSet([sampler.AnchorEntry(
            "a", "s", (0.0,), (("c", (1.0,)),))]), candidates)
        units = tmp_path / "units.txt"
        units.write_text("u1 1 2\nu2 2 1\n")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("pair_id\taccepted_id\trejected_id\np\tu1\tu2\n")
        model = tmp_path / "m.json"
        scoring.save_ngram_model(scoring.ngram_train(
            [UnitSequence("u", [1, 2, 1])], order=2), model)
        model.write_text(model.read_text().replace('"alpha": 1.0', '"alpha": Infinity'))
        inputs = {
            "kmeans-train": ["--features", str(features), "--k", "2"],
            "sample-pairs": ["--candidates", str(candidates)],
            "ngram-train": ["--units", str(units)],
            "score-lexical": ["--pairs", str(pairs), "--ngram-model", str(model),
                              "--units", str(units)],
        }
        extra, message, call, kind = self.BAD_SETTINGS[case]
        message = message.format(model=model)
        argv = [extra[0], *inputs[extra[0]], *extra[1:], "--out", str(tmp_path / "o")]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        library = {"frames": frames, "cs": sampler.read_candidate_set(candidates),
                   "corpus": io_formats.read_unit_sequences(units), "model": model}
        with pytest.raises(ValueError) as info:
            call(library)
        assert type(info.value) is kind and str(info.value) == message

    def test_fixed_layer_reads_only_its_archive(self, mini_benchmark, tmp_path):
        # the unused second archive lacks an utterance the gold table needs
        partial = tmp_path / "partial"
        shutil.copytree(mini_benchmark / "hidden1", partial)
        (partial / "w00_A.zrcf").unlink()
        out = tmp_path / "sem.json"
        assert run(["score-semantic", "--gold", str(mini_benchmark / "gold.tsv"),
                    "--features", str(mini_benchmark / "hidden0"), str(partial),
                    "--pooling", "mean", "--layer", "0", "--out", str(out)]) == 0
        alone = tmp_path / "alone.json"
        assert run(["score-semantic", "--gold", str(mini_benchmark / "gold.tsv"),
                    "--features", str(mini_benchmark / "hidden0"),
                    "--pooling", "mean", "--layer", "0", "--out", str(alone)]) == 0
        assert out.read_bytes() == alone.read_bytes()

    def test_layer_out_of_range_is_usage_error(self, mini_benchmark, tmp_path,
                                               capsys):
        code = run(["score-semantic", "--gold", str(mini_benchmark / "gold.tsv"),
                    "--features", str(mini_benchmark / "hidden0"),
                    str(tmp_path / "missing"), "--pooling", "mean",
                    "--layer", "2", "--out", str(tmp_path / "sem.json")])
        assert code == 2
        assert "--layer 2 out of range for 2 archives" in capsys.readouterr().err

    def test_units_required_with_model_source(self, tmp_path, capsys):
        pairs = tmp_path / "p.tsv"
        pairs.write_text("pair_id\taccepted_id\trejected_id\np\ta\tb\n")
        code = run(["score-lexical", "--pairs", str(pairs),
                    "--ngram-model", str(tmp_path / "m.json"),
                    "--out", str(tmp_path / "r.tsv")])
        assert code == 2
        assert "--units" in capsys.readouterr().err


class TestPipelines:
    def test_kmeans_quantize_ngram_chain(self, mini_benchmark, tmp_path):
        cb_path = tmp_path / "cb.zrck"
        assert run(["kmeans-train", "--features", str(mini_benchmark / "features"),
                    "--k", "4", "--seed", "7", "--out", str(cb_path),
                    "--report", str(tmp_path / "km.json")]) == 0
        codebook = quantizer.read_codebook(cb_path)
        assert codebook.n_clusters == 4 and codebook.dim == 4

        units_path = tmp_path / "units.txt"
        assert run(["quantize", "--codebook", str(cb_path),
                    "--features", str(mini_benchmark / "features"),
                    "--out", str(units_path)]) == 0
        sequences = io_formats.read_unit_sequences(units_path)
        assert len(sequences) == 40
        assert all(u < 4 for seq in sequences for u in seq.units)

        model_path = tmp_path / "model.json"
        assert run(["ngram-train", "--units", str(units_path), "--order", "2",
                    "--out", str(model_path)]) == 0
        assert scoring.load_ngram_model(model_path).order == 2

    def test_hidden_files_are_not_utterances(self, tmp_path):
        # a stray .DS_Store in the archive changes no byte of the codebook
        # or of the units
        frames = np.random.default_rng(5).standard_normal((3, 6, 3))
        written = []
        for name in ("clean", "hidden"):
            features = tmp_path / name / "f"
            for k, utterance in enumerate(frames):
                io_formats.write_feature_archive(
                    features, FeatureSequence(f"u{k}", 100.0, utterance), "binary")
            if name == "hidden":
                (features / ".DS_Store").write_bytes(b"\x00\x00\x00\x01Bud1")
            codebook, units = tmp_path / name / "c.zrck", tmp_path / name / "u.txt"
            assert run(["kmeans-train", "--features", str(features), "--k", "2",
                        "--seed", "7", "--out", str(codebook)]) == 0
            assert run(["quantize", "--codebook", str(codebook), "--features",
                        str(features), "--out", str(units)]) == 0
            written.append((codebook.read_bytes(), units.read_bytes()))
        assert written[0] == written[1]

    def test_abx_report(self, mini_benchmark, tmp_path):
        out = tmp_path / "abx.json"
        assert run(["abx", "--items", str(mini_benchmark / "items.item"),
                    "--features", str(mini_benchmark / "features"),
                    "--mode", "within", "--distance", "angular",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["metric"] == "abx"
        assert report["config"] == {"mode": "within", "distance": "angular"}
        assert 0.0 <= report["aggregate"] <= 100.0
        assert report["subsets"]  # per-phone-pair breakdown present

    def test_score_lexical_with_ngram_source(self, mini_benchmark, tmp_path):
        model_path = tmp_path / "model.json"
        run(["ngram-train", "--units", str(mini_benchmark / "units.txt"),
             "--order", "1", "--out", str(model_path)])
        out = tmp_path / "lex.tsv"
        assert run(["score-lexical", "--pairs", str(mini_benchmark / "pairs.tsv"),
                    "--ngram-model", str(model_path),
                    "--units", str(mini_benchmark / "units.txt"),
                    "--tie", "half", "--out", str(out)]) == 0
        rows = tsv_rows(out)
        assert rows[0] == ["metric", "lexical-accuracy"]
        assert rows[1][0] == "aggregate" and 0.0 <= float(rows[1][1]) <= 1.0
        assert any(r[0] == "subset" and r[1].startswith("paradigm=") for r in rows)

    def test_score_syntactic_with_external_scores(self, mini_benchmark, tmp_path):
        out = tmp_path / "syn.json"
        assert run(["score-syntactic", "--pairs", str(mini_benchmark / "spairs.tsv"),
                    "--scores", str(mini_benchmark / "sscores.tsv"),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["metric"] == "syntactic-accuracy"
        assert report["counts"]["pairs"] == 50

    def test_score_semantic_sweep(self, mini_benchmark, tmp_path):
        out = tmp_path / "sem.json"
        assert run(["score-semantic", "--gold", str(mini_benchmark / "gold.tsv"),
                    "--features", str(mini_benchmark / "hidden0"),
                    str(mini_benchmark / "hidden1"),
                    "--pooling", "sweep", "--subset", "synthetic",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["metric"] == "semantic-similarity"
        assert -100.0 <= report["aggregate"] <= 100.0
        assert report["config"]["pooling"] in ("mean", "max", "min")

    def test_sample_pairs_words(self, mini_benchmark, tmp_path):
        out = tmp_path / "asgn.tsv"
        assert run(["sample-pairs", "--candidates",
                    str(mini_benchmark / "candidates.tsv"),
                    "--seed", "42", "--restarts", "8", "--out", str(out),
                    "--report", str(tmp_path / "samp.json")]) == 0
        rows = tsv_rows(out)
        assert rows[0] == ["anchor_id", "candidate_id", "stratum"]
        assert len(rows[1:]) == 60
        report = json.loads((tmp_path / "samp.json").read_text())
        assert report["metric"] == "sampler-balance"

    def test_sample_pairs_sentences_needs_k(self, mini_benchmark, tmp_path):
        pool = tmp_path / "pool.tsv"
        cs = sampler.read_candidate_set(mini_benchmark / "candidates.tsv")
        single = sampler.CandidateSet([
            sampler.AnchorEntry(a.anchor_id, a.stratum, a.scores,
                                a.candidates[:1]) for a in cs.anchors])
        sampler.write_candidate_set(single, pool)
        assert run(["sample-pairs", "--candidates", str(pool),
                    "--mode", "sentences", "--out", str(tmp_path / "x.tsv")]) == 2
        # a usage error, whatever the candidate file holds
        header_only = tmp_path / "header.tsv"
        header_only.write_text("anchor_id\tstratum\tcandidate_id\ts_1\n")
        assert run(["sample-pairs", "--candidates", str(header_only),
                    "--mode", "sentences", "--out", str(tmp_path / "x.tsv")]) == 2
        assert run(["sample-pairs", "--candidates", str(pool),
                    "--mode", "sentences", "--k-target", "20",
                    "--per-stratum", "--out", str(tmp_path / "x.tsv")]) == 0
        assert len(tsv_rows(tmp_path / "x.tsv")[1:]) == 20


    @pytest.mark.parametrize("flags", [["--k-target", "20"], ["--per-stratum"]])
    def test_sample_pairs_words_rejects_sentence_flags(self, mini_benchmark,
                                                      tmp_path, capsys, flags):
        out = tmp_path / "x.tsv"
        assert run(["sample-pairs", "--candidates",
                    str(mini_benchmark / "candidates.tsv"), "--mode", "words",
                    "--out", str(out)] + flags) == 2
        assert "sentence mode" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows", [
        "a0\ts\t@self\t1.0\na0\ts\tc0\tnan\n",
        "",
        "a0\ts\t@self\t1.0\n",
    ], ids=["non-finite", "header-only", "self-only"])
    def test_sample_pairs_bad_candidates_name_path(self, tmp_path, capsys, rows):
        cands = tmp_path / "cands.tsv"
        cands.write_text("anchor_id\tstratum\tcandidate_id\ts_1\n" + rows)
        assert run(["sample-pairs", "--candidates", str(cands),
                    "--out", str(tmp_path / "x.tsv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{cands}: line " in err

    def test_sentence_pool_anchor_with_two_candidates_names_its_line(self, tmp_path,
                                                                      capsys):
        path = tmp_path / "pool.tsv"
        path.write_text("anchor_id\tstratum\tcandidate_id\ts_1\n"
                        "a0\tx\t@self\t1.0\na0\tx\tc0\t0.5\n"
                        "a1\tx\t@self\t1.0\na1\tx\tc1\t0.5\na1\tx\tc2\t0.2\n")
        argv = ["sample-pairs", "--candidates", str(path), "--mode", "sentences",
                "--k-target", "1", "--out", str(tmp_path / "a.tsv")]
        expected = (f"{path}: line 4: anchor 'a1': sentence pools carry exactly one "
                    "candidate per anchor")
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        error = raised(argv)
        assert type(error) is ValidationError and str(error) == expected

    def test_sample_pairs_report_per_stratum(self, mini_benchmark, tmp_path):
        # the candidate set has six strata; each subset is the stratum's
        # balance_objective, as if computed on its own
        cands = mini_benchmark / "candidates.tsv"
        report = tmp_path / "samp.json"
        out = tmp_path / "asgn.tsv"
        assert run(["sample-pairs", "--candidates", str(cands), "--seed", "5",
                    "--restarts", "4", "--out", str(out),
                    "--report", str(report)]) == 0
        cs = sampler.read_candidate_set(cands)
        assignment = sampler.sample_word_pairs(cs, seed=5, restarts=4)
        by_stratum = {}
        for a in cs.anchors:
            by_stratum.setdefault(a.stratum, {})[a.anchor_id] = \
                assignment.chosen[a.anchor_id]
        assert len(by_stratum) == 6
        expected = tmp_path / "expected.json"
        io_formats.write_report(MetricReport(
            metric="sampler-balance",
            aggregate=assignment.objective,
            subsets={s: balance_objective(chosen, cs)
                     for s, chosen in sorted(by_stratum.items())},
            counts={s: len(chosen) for s, chosen in sorted(by_stratum.items())},
            config={"mode": "words", "seed": "5", "restarts": "4",
                    "restart_index": str(assignment.restart_index),
                    "k_target": "None"}), expected)
        assert report.read_bytes() == expected.read_bytes()


# runs two subcommands in a fresh interpreter, then lists the scipy modules loaded
_NO_SCIPY_SCRIPT = """
import json, sys
from zrc_eval import cli
bench, out = sys.argv[1:]
codes = [
    cli.main(["abx", "--items", f"{bench}/items.item", "--features", f"{bench}/features",
              "--mode", "within", "--distance", "angular", "--out", f"{out}/abx.json"]),
    cli.main(["score-semantic", "--gold", f"{bench}/gold.tsv", "--features",
              f"{bench}/hidden0", f"{bench}/hidden1", "--pooling", "sweep",
              "--out", f"{out}/sem.json"]),
]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


# runs each argv of the JSON list argv[1] through the CLI; prints the exit
# codes and the thread count BLAS reports (None where it cannot be asked)
_THREADS_SCRIPT = """
import ctypes, json, sys
from zrc_eval import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
try:
    with open("/proc/self/maps") as maps:
        path = next(line.split()[-1] for line in maps if "openblas" in line)
    threads = ctypes.CDLL(path).scipy_openblas_get_num_threads64_()
except (OSError, StopIteration, AttributeError):
    threads = None
print(json.dumps({"codes": codes, "threads": threads}))
"""


class TestImports:
    def test_subcommands_never_import_scipy(self, mini_benchmark, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(mini_benchmark), str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300, check=True)
        seen = json.loads(done.stdout.splitlines()[-1])
        assert seen == {"codes": [0, 0], "scipy": []}

    def test_star_import_binds_the_api_and_no_module(self):
        # the stdlib ``types`` stays bound beside the package's public names
        namespace = {"types": types}
        exec("from zrc_eval import *", namespace)
        assert namespace.pop("types") is types
        del namespace["__builtins__"]
        assert [n for n, v in namespace.items() if isinstance(v, types.ModuleType)] == []
        assert sorted(namespace) == [
            "AbxResult", "Assignment", "CandidateSet", "Codebook", "FeatureSequence",
            "FormatError", "MetricReport", "NgramModel", "ScoredPair",
            "SimilarityRecord", "SpanConfig", "TriphoneToken", "UnitSequence",
            "ValidationError", "abx_evaluate", "chain_rule_logprob", "dtw_distance",
            "kmeans_fit", "layer_sweep", "ngram_train", "one_hot_encode",
            "paired_accuracy", "pool", "quantize", "read_codebook",
            "sample_sentence_pairs", "sample_word_pairs", "span_pseudo_logprob",
            "spearman", "stratum_objectives", "write_codebook"]


class TestDeterminism:
    def test_sample_pairs_byte_identical(self, mini_benchmark, tmp_path):
        outs = []
        for name in ("a1.tsv", "a2.tsv"):
            out = tmp_path / name
            run(["sample-pairs", "--candidates",
                 str(mini_benchmark / "candidates.tsv"),
                 "--seed", "42", "--restarts", "8", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_outputs_ignore_blas_thread_count(self, mini_benchmark, tmp_path):
        # each setting is made in a fresh process's environment, before
        # numpy loads: abx (both metrics and modes), kmeans-train, quantize
        # and score-semantic write the same bytes on 1 and 2 BLAS threads
        rng = np.random.default_rng(41)
        features = tmp_path / "features"
        tokens = []
        for k in range(36):
            io_formats.write_feature_archive(features, FeatureSequence(
                f"u{k}", 100.0, rng.dirichlet(np.ones(32), int(rng.integers(20, 40)))),
                "binary")
            tokens.append(TriphoneToken(f"u{k}", 0.0, int(rng.integers(3, 9)) / 100,
                                        "BPD"[k % 3], "AI"[k // 18], "T", f"s{k // 3 % 2}"))
        items = tmp_path / "x.item"
        io_formats.write_item_file(tokens, items)
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            argv = [["abx", "--items", str(items), "--features", str(features),
                     "--mode", mode, "--distance", metric,
                     "--out", str(out / f"{mode}-{metric}.json")]
                    for mode in ("within", "across") for metric in ("angular", "kl")]
            argv += [["kmeans-train", "--features", str(features), "--k", "16",
                      "--seed", "3", "--out", str(out / "c.zrck"),
                      "--report", str(out / "km.json")],
                     ["quantize", "--codebook", str(out / "c.zrck"), "--features",
                      str(features), "--out", str(out / "units.txt")],
                     ["score-semantic", "--gold", str(mini_benchmark / "gold.tsv"),
                      "--features", str(mini_benchmark / "hidden0"),
                      str(mini_benchmark / "hidden1"), "--pooling", "sweep",
                      "--out", str(out / "sem.json")]]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, json.dumps(argv)],
                                  capture_output=True, text=True, env=env, timeout=300,
                                  check=True)
            seen = json.loads(done.stdout.splitlines()[-1])
            assert seen["codes"] == [0] * 7, done.stderr
            assert seen["threads"] in (int(threads), None)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 8 and outputs[1] == outputs[0]


def _codebook_file(path, centroids, rate=100.0):
    """A codebook file holding ``centroids`` and ``rate`` unchecked."""
    centroids = np.asarray(centroids, dtype="<f4")
    path.write_bytes(quantizer._CODEBOOK_HEADER.pack(b"ZRCK", 1, *centroids.shape, rate)
                     + centroids.tobytes() + struct.pack("<Q", 0))


def _beside(text, files):
    """A writer of ``text`` to its path that writes each of ``files`` (name
    -> text) beside it."""
    def write(path):
        path.write_text(text)
        for name, content in files.items():
            (path.parent / name).write_text(content)
    return write


def _one_frame_binary(path, rate):
    header = io_formats._FEATURE_HEADER.pack(b"ZRCF", 1, 2, rate, 1)
    path.write_bytes(header + np.ones(2, dtype="<f4").tobytes())


class TestNamedInputErrors:
    """A check that a type makes on what a reader parsed names the file,
    and the line in row formats, and so does a library rule about the
    whole input read; the library raises ValidationError."""

    ITEM = io_formats.ITEM_HEADER + "\n"
    PAIRS = "pair_id\taccepted_id\trejected_id\n"

    # case -> (file name, writer, subcommand and flags before the path,
    #          reader, message after the path)
    CASES = {
        "item-offset-before-onset": (
            "i.item", ITEM + "u1 0.5 0.2 B A T s1\n", ["abx", "--items"],
            io_formats.read_item_file, "line 2: offset 0.2 <= onset 0.5 in u1"),
        "item-negative-onset": (
            "i.item", ITEM + "u1 -0.5 0.2 B A T s1\n", ["abx", "--items"],
            io_formats.read_item_file, "line 2: negative onset -0.5 in u1"),
        "pair-equal-ids": (
            "p.tsv", PAIRS + "p1\tu1\tu1\n", ["score-lexical", "--pairs"],
            io_formats.read_pair_manifest,
            "line 2: pair p1: accepted and rejected ids are identical"),
        "text-features-rate-0": (
            "f/u1.txt", "dim=2 rate=0\n1 0\n", ["kmeans-train", "--features"],
            lambda p: io_formats.read_feature_archive(p.parent, "u1"),
            "line 1: u1: frame rate must be positive"),
        "binary-features-rate-0": (
            "f/u1.zrcf", lambda p: _one_frame_binary(p, 0.0),
            ["kmeans-train", "--features"],
            lambda p: io_formats.read_feature_archive(p.parent, "u1"),
            "u1: frame rate must be positive"),
        "text-features-rate-inf": (
            "f/u1.txt", "dim=2 rate=inf\n1 0\n", ["kmeans-train", "--features"],
            lambda p: io_formats.read_feature_archive(p.parent, "u1"),
            "line 1: u1: frame rate must be finite"),
        "binary-features-rate-inf": (
            "f/u1.zrcf", lambda p: _one_frame_binary(p, np.inf),
            ["kmeans-train", "--features"],
            lambda p: io_formats.read_feature_archive(p.parent, "u1"),
            "u1: frame rate must be finite"),
        "codebook-rate-inf": (
            "c.zrck", lambda p: _codebook_file(p, [[0.0, 1.0]], np.inf),
            ["quantize", "--codebook"], quantizer.read_codebook,
            "frame rate must be finite and positive"),
        "codebook-nan-centroid": (
            "c.zrck", lambda p: _codebook_file(p, [[0.0, 1.0], [np.nan, 0.0]]),
            ["quantize", "--codebook"], quantizer.read_codebook,
            "non-finite centroid"),
        "codebook-duplicate-centroids": (
            "c.zrck", lambda p: _codebook_file(p, [[0.0, 1.0], [0.0, 1.0]]),
            ["quantize", "--codebook"], quantizer.read_codebook,
            "duplicate centroids in codebook"),
        "codebook-no-centroids": (
            "c.zrck", lambda p: _codebook_file(p, np.zeros((0, 2))),
            ["quantize", "--codebook"], quantizer.read_codebook,
            "centroids must be a non-empty K x D matrix, got shape (0, 2)"),
        "codebook-zero-dim": (
            "c.zrck", lambda p: _codebook_file(p, np.zeros((1, 0))),
            ["quantize", "--codebook"], quantizer.read_codebook,
            "centroids must be a non-empty K x D matrix, got shape (1, 0)"),
        # whole inputs that give nothing to score, read and then scored
        "item-file-without-cells": (
            "i.item", _beside(ITEM + "u1 0.0 0.02 B A T s1\n",
                              {"u1.txt": "dim=2 rate=100\n1 0\n0 1\n"}),
            ["abx", "--items"],
            lambda p: abx.abx_evaluate(io_formats.read_item_file(p), p.parent,
                                       "within", where=p),
            "no valid ABX cells in within mode"),
        "pair-manifest-header-only": (
            "p.tsv", PAIRS, ["score-lexical", "--pairs"],
            lambda p: metrics.paired_accuracy(io_formats.read_pair_manifest(p), {},
                                              where=p),
            "no pairs to score"),
        "gold-one-record": (
            "g.tsv", _beside("word_a\tword_b\tscore\tdataset\na\tb\t5\tD\n",
                             {name: "dim=2 rate=100\n1 0\n" for name in ("a.txt", "b.txt")}),
            ["score-semantic", "--gold"],
            lambda p: metrics.layer_sweep([{}], io_formats.read_similarity_gold(p),
                                          where=p),
            "similarity scoring needs at least 2 records"),
        "units-empty": (
            "u.txt", "", ["ngram-train", "--units"],
            lambda p: scoring.ngram_train(io_formats.read_unit_sequences(p), 2, where=p),
            "cannot train an n-gram model on an empty corpus"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_reader_names_the_file(self, tmp_path, capsys, case):
        name, content, command, reader, message = self.CASES[case]
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        if callable(content):
            content(path)
        else:
            path.write_text(content)
        with pytest.raises(ValueError) as info:
            reader(path)
        assert type(info.value) is ValidationError
        assert str(info.value) == f"{path}: {message}"
        target = path.parent if command[-1] == "--features" else path
        (tmp_path / "s.tsv").write_text("")
        rest = {"abx": ["--features", str(tmp_path)],
                "score-lexical": ["--scores", str(tmp_path / "s.tsv")],
                "score-semantic": ["--features", str(tmp_path)],
                "kmeans-train": [], "ngram-train": [],
                "quantize": ["--features", str(tmp_path)]}[command[0]]
        assert run([*command, str(target), *rest, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_infinite_rate_is_named_before_abx_reads_frames(self, tmp_path, capsys):
        # floor(time * rate) has no integer value for an infinite rate
        path = tmp_path / "u1.txt"
        path.write_text("dim=2 rate=inf\n1 0\n1 0\n")
        items = tmp_path / "i.item"
        items.write_text(self.ITEM + "u1 0.0 0.01 B A T s1\n")
        assert run(["abx", "--items", str(items), "--features", str(tmp_path),
                    "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: u1: frame rate must be finite\n")

    def test_a_frame_count_the_file_cannot_hold_is_its_read_error(self, tmp_path,
                                                                  capsys):
        # the store is sized from the headers: a header claiming 2^40 frames
        # is the error of its file before any store is allocated
        feats = tmp_path / "feats"
        rng = np.random.default_rng(3)
        for utt in ("u1", "u2"):
            io_formats.write_feature_archive(feats, FeatureSequence(
                utt, 100.0, rng.uniform(0.1, 1.0, (40, 4))))
        victim = feats / "u2.zrcf"
        blob = bytearray(victim.read_bytes())
        struct.pack_into("<Q", blob, 16, 2 ** 40)
        victim.write_bytes(bytes(blob))
        items = tmp_path / "i.item"
        items.write_text(self.ITEM + "".join(
            f"{utt} {t / 10} {t / 10 + 0.05} {c} A T {s}\n"
            for utt, s in (("u1", "s1"), ("u2", "s2"))
            for t, c in enumerate("BCBC")))
        out = tmp_path / "r.json"
        assert run(["abx", "--items", str(items), "--features", str(feats),
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {victim}: truncated body, expected 17592186044416 bytes, "
            "got 640\n")
        assert not out.exists()


class TestPairScoreFlags:
    """Flags that the chosen score source does not use are usage errors."""

    @pytest.fixture
    def inputs(self, tmp_path):
        (tmp_path / "p.tsv").write_text("pair_id\taccepted_id\trejected_id\n"
                                        "p1\tu1\tu2\n")
        (tmp_path / "s.tsv").write_text("u1\t-1.0\nu2\t-2.0\n")
        (tmp_path / "u.txt").write_text("u1 1 2\nu2 2 1\n")
        scoring.save_ngram_model(scoring.ngram_train(
            [UnitSequence("u", [1, 2, 1])], order=2), tmp_path / "m.json")
        return tmp_path

    @pytest.mark.parametrize("command", ["score-lexical", "score-syntactic"])
    @pytest.mark.parametrize("flags", [
        ["--scores", "s.tsv", "--span", "0"],
        ["--scores", "s.tsv", "--stride", "-3"],
        ["--scores", "s.tsv", "--per-token"],
        ["--scores", "s.tsv", "--units", "missing.txt"],
        ["--ngram-model", "m.json", "--units", "u.txt", "--span", "0"],
    ], ids=["scores-span", "scores-stride", "scores-per-token", "scores-units",
            "ngram-span"])
    def test_unused_flag_is_usage_error(self, inputs, capsys, command, flags):
        out = inputs / "r.json"
        flags = [str(inputs / f) if f.endswith((".tsv", ".txt", ".json")) else f
                 for f in flags]
        assert run([command, "--pairs", str(inputs / "p.tsv"), *flags,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_masked_defaults_are_kept(self, inputs):
        scoring.write_masked_scores({(u, i, j): -1.0 for u in ("u1", "u2")
                                     for i in (1, 2) for j in (i, 2)},
                                    inputs / "masked.tsv")
        out = inputs / "r.json"
        assert run(["score-lexical", "--pairs", str(inputs / "p.tsv"),
                    "--masked-table", str(inputs / "masked.tsv"),
                    "--units", str(inputs / "u.txt"), "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["span"], config["stride"]) == ("15", "5")


class TestModelScoringErrors:
    """An error met while scoring an utterance names the --units line of
    that utterance and the model file; abx names the item-file line of a
    token whose utterance has no feature file."""

    @pytest.fixture
    def inputs(self, tmp_path):
        (tmp_path / "p.tsv").write_text("pair_id\taccepted_id\trejected_id\n"
                                        "p1\tu1\tu2\n")
        (tmp_path / "units.txt").write_text("u1 1 2\n\nu2 2 9\n")
        return tmp_path

    def _check(self, argv, capsys, expected):
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        error = raised(argv)
        assert type(error) is ValidationError and str(error) == expected

    def test_oov_unit_names_units_line_and_model(self, inputs, capsys):
        model, units = inputs / "m.json", inputs / "units.txt"
        scoring.save_ngram_model(scoring.ngram_train(
            [UnitSequence("u", [1, 2, 1])], order=2), model)
        self._check(["score-lexical", "--pairs", str(inputs / "p.tsv"),
                     "--ngram-model", str(model), "--units", str(units),
                     "--out", str(inputs / "r.json")], capsys,
                    f"{units}: line 3: unit 9 not in the model vocabulary "
                    f"(--ngram-model {model})")

    def test_missing_window_names_units_line_and_table(self, inputs, capsys):
        table, units = inputs / "m.tsv", inputs / "units.txt"
        scoring.write_masked_scores({("u1", 1, 2): -1.0, ("u2", 1, 3): -1.0}, table)
        self._check(["score-syntactic", "--pairs", str(inputs / "p.tsv"),
                     "--masked-table", str(table), "--units", str(units),
                     "--out", str(inputs / "r.json")], capsys,
                    f"{units}: line 3: no masked score for window (u2, 1, 2) "
                    f"(--masked-table {table})")

    # "#file" is also the first column of the item header, on line 1
    @pytest.mark.parametrize("utt", ["ghost", "#file"])
    def test_missing_utterance_names_item_line(self, tmp_path, capsys, utt):
        features = tmp_path / "f"
        io_formats.write_feature_archive(features, FeatureSequence(
            "u1", 100.0, np.ones((10, 2))))
        items = tmp_path / "i.item"
        items.write_text(io_formats.ITEM_HEADER + "\nu1 0.0 0.05 B A T s1\n\n"
                         f"{utt} 0.0 0.05 P A T s1\n{utt} 0.05 0.1 P A T s1\n")
        self._check(["abx", "--items", str(items), "--features", str(features),
                     "--out", str(tmp_path / "r.json")], capsys,
                    f"{items}: line 4: token ({utt}, 0.0, 0.05): no feature file "
                    f"for {utt!r} under {features}")


class TestGoldRefErrors:
    """score-semantic names the gold file and line of a ref it cannot read."""

    HEADER = "word_a\tword_b\tscore\tdataset\trefs_a\trefs_b\n"

    @pytest.fixture
    def layer(self, tmp_path):
        for utt in ("u1", "u2"):
            io_formats.write_feature_archive(tmp_path / "L0", FeatureSequence(
                utt, 100.0, np.eye(2)))
        return tmp_path / "L0"

    # the first row that reads "ghost": by a ref, or by a word without refs;
    # line 2's word "ghost" has refs, so that row does not read it
    @pytest.mark.parametrize("row", ["c\td\t5\tD\t:u1\t:ghost\n",
                                     "ghost\td\t5\tD\t\t:u2\n"], ids=["ref", "word"])
    def test_missing_utterance_names_first_row(self, layer, capsys, row):
        gold = layer.parent / "gold.tsv"
        gold.write_text(self.HEADER + "ghost\tb\t5\tD\t:u1\t:u2\n" + row
                        + "e\tf\t5\tD\t:ghost\t:u2\n")
        argv = ["score-semantic", "--gold", str(gold), "--features", str(layer),
                "--out", str(layer.parent / "r.json")]
        expected = f"{gold}: line 3: no feature file for 'ghost' under {layer}"
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        error = raised(argv)
        assert type(error) is ValidationError and str(error) == expected

    def test_missing_utterance_of_a_merged_row_names_the_record_line(self, layer,
                                                                     capsys):
        # line 4 reverses line 2's words and merges into its record, (c, d);
        # only line 4 reads "ghost", as a ref of d: the record's first line
        # is named
        gold = layer.parent / "gold.tsv"
        gold.write_text(self.HEADER + "c\td\t5\tD\t:u1\t:u2\n"
                        "a\tb\t5\tD\t:u1\t:u2\n" "d\tc\t6\tD\t:ghost\t:u1\n")
        argv = ["score-semantic", "--gold", str(gold), "--features", str(layer),
                "--out", str(layer.parent / "r.json")]
        expected = f"{gold}: line 2: no feature file for 'ghost' under {layer}"
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        error = raised(argv)
        assert type(error) is ValidationError and str(error) == expected

    def test_refs_without_a_shared_voice_name_the_record_line(self, layer, capsys):
        # the record (d, c) merges lines 3 and 4; its first line is named
        gold = layer.parent / "gold.tsv"
        gold.write_text(self.HEADER + "a\tb\t5\tD\tA:u1\tA:u2\n"
                        "c\td\t5\tD\tA:u1\tB:u2\n" "d\tc\t6\tD\tC:u1\tD:u2\n")
        argv = ["score-semantic", "--gold", str(gold), "--features", str(layer),
                "--out", str(layer.parent / "r.json")]
        expected = (f"{gold}: line 3: (c, d): no comparable token pairs for the "
                    "synthetic subset")
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        error = raised(argv)
        assert type(error) is ValidationError and str(error) == expected

    def test_zero_frame_names_the_record_line(self, layer, capsys):
        # word c's only frame is all zeros: its cosine is undefined
        io_formats.write_feature_archive(layer, FeatureSequence(
            "u3", 100.0, np.zeros((1, 2))))
        gold = layer.parent / "gold.tsv"
        gold.write_text(self.HEADER + "a\tb\t5\tD\t:u1\t:u2\n"
                        "a\tc\t6\tD\t:u1\t:u3\n")
        argv = ["score-semantic", "--gold", str(gold), "--features", str(layer),
                "--out", str(layer.parent / "r.json")]
        expected = f"{gold}: line 3: cosine undefined for zero vectors"
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        error = raised(argv)
        assert type(error) is ValidationError and str(error) == expected

    def test_dataset_named_records_names_its_first_line(self, layer, capsys):
        # the report's counts give "records" the total record count
        gold = layer.parent / "gold.tsv"
        gold.write_text(self.HEADER + "a\tb\t5\tD\t:u1\t:u2\n"
                        "c\td\t5\trecords\t:u1\t:u2\n" "e\tf\t6\trecords\t:u2\t:u1\n")
        argv = ["score-semantic", "--gold", str(gold), "--features", str(layer),
                "--out", str(layer.parent / "r.json")]
        expected = f"{gold}: line 3: dataset name 'records' is reserved for the record count"
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        error = raised(argv)
        assert type(error) is ValidationError and str(error) == expected

    def test_empty_utterance_id_names_its_line(self, layer, capsys):
        gold = layer.parent / "gold.tsv"
        gold.write_text(self.HEADER + "a\tb\t5\tD\t:u1\t:u2\n"
                        "c\td\t5\tD\tA:\t:u2\n")
        expected = f"{gold}: line 3: empty utterance id in refs"
        with pytest.raises(FormatError) as exc:
            io_formats.read_similarity_gold(gold)
        assert str(exc.value) == expected
        assert run(["score-semantic", "--gold", str(gold), "--features", str(layer),
                    "--out", str(layer.parent / "r.json")]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"


# single-field replacements: the neighbour row's value is drawn as None
FIELD_VALUES = st.sampled_from(["-1", "nan", "inf", "", None])


def _mutated(rows, row, col, value, sep):
    rows = [list(r) for r in rows]
    row %= len(rows)
    col %= len(rows[row])
    if value is None:
        other = rows[row + 1 if row + 1 < len(rows) else row - 1]
        value = other[col % len(other)]
    rows[row][col] = value
    return "".join(sep.join(r) + "\n" for r in rows)


def _exit_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def _byte_mutated(blob, pos, byte, how):
    """``blob`` with the byte at ``pos`` replaced, or cut there, or grown by
    ``byte`` there."""
    return {"set": blob[:pos] + bytes([byte]) + blob[pos + 1:],
            "cut": blob[:pos],
            "insert": blob[:pos] + bytes([byte]) + blob[pos:]}[how]


def _assert_contract(read, path, argv):
    """``read()`` raises nothing but a FormatError or a ValidationError, and
    ``argv`` exits 0, or 1 with one stderr line naming ``path``."""
    try:
        read()
    except (FormatError, ValidationError):
        pass
    code, err = _exit_and_stderr(argv)
    assert code == 0 or (code == 1 and err.count("\n") == 1 and str(path) in err)


class TestInputContract:
    """Single-field mutations of valid inputs end as exit 0, or as exit 1
    with one stderr line naming the mutated file."""

    @pytest.fixture(scope="class")
    def abx_inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("abx-contract")
        rng = np.random.default_rng(3)
        rows = [io_formats.ITEM_HEADER.split()]
        for speaker in ("s1", "s2"):
            io_formats.write_feature_archive(root, FeatureSequence(
                speaker, 100.0, rng.uniform(0.5, 1.5, (30, 3))), "binary")
            for k in range(6):
                rows.append([speaker, f"{k * 0.05:.2f}", f"{k * 0.05 + 0.05:.2f}",
                             "BP"[k % 2], "A", "T", speaker])
        return root, rows

    @settings(max_examples=60)
    @given(row=st.integers(0, 12), col=st.integers(0, 6), value=FIELD_VALUES)
    def test_item_file_mutation(self, abx_inputs, row, col, value):
        root, rows = abx_inputs
        items = root / "mutated.item"
        items.write_text(_mutated(rows, row, col, value, " "))
        code, err = _exit_and_stderr(["abx", "--items", str(items), "--features",
                                      str(root), "--out", str(root / "r.json")])
        assert code == 0 or (code == 1 and err.count("\n") == 1 and str(items) in err)

    def test_item_time_past_the_frame_index(self, tmp_path):
        # onset 10.0 s at 1e308 frames/s has no finite frame index
        (tmp_path / "u1.txt").write_text("dim=2 rate=1e308\n1 0\n0 1\n")
        items = tmp_path / "i.item"
        items.write_text(io_formats.ITEM_HEADER + "\nu1 0.0 1e-308 B A T s1\n\n"
                         "u1 10.0 10.5 P A T s1\n")
        code, err = _exit_and_stderr(["abx", "--items", str(items), "--features",
                                      str(tmp_path), "--out", str(tmp_path / "r.json")])
        assert (code, err) == (1, f"error: {items}: line 4: token (u1, 10.0, 10.5): "
                                  "no finite frame index at frame rate 1e+308\n")

    @pytest.fixture(scope="class")
    def pair_inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pairs-contract")
        rows = [["pair_id", "accepted_id", "rejected_id", "voice"]]
        scores = {}
        for k in range(4):
            rows.append([f"p{k}", f"u{2 * k}", f"u{2 * k + 1}", f"v{k % 2}"])
            scores.update({f"u{2 * k}": -1.0 - k, f"u{2 * k + 1}": -1.5})
        io_formats.write_external_scores(scores, root / "scores.tsv")
        return root, rows

    @settings(max_examples=60)
    @given(row=st.integers(0, 4), col=st.integers(0, 3), value=FIELD_VALUES)
    def test_pair_manifest_mutation(self, pair_inputs, row, col, value):
        root, rows = pair_inputs
        pairs = root / "mutated.tsv"
        pairs.write_text(_mutated(rows, row, col, value, "\t"))
        code, err = _exit_and_stderr(
            ["score-lexical", "--pairs", str(pairs), "--scores",
             str(root / "scores.tsv"), "--out", str(root / "r.json")])
        assert code == 0 or (code == 1 and err.count("\n") == 1 and str(pairs) in err)

    @pytest.fixture(scope="class")
    def lm_inputs(self, tmp_path_factory):
        # numeric utterance ids: a neighbour's id moved into a unit column
        # is an out-of-vocabulary unit; some utterances span two windows
        root = tmp_path_factory.mktemp("lm-contract")
        units = {"100": [0, 1, 2], "101": [1], "102": [2, 0, 1, 3, 0, 1, 2],
                 "103": [3, 2], "104": [0, 0, 1, 1], "105": [1, 2, 3, 0, 1, 2]}
        sequences = [UnitSequence(u, v) for u, v in units.items()]
        scoring.save_ngram_model(scoring.ngram_train(sequences, 2), root / "m.json")
        table = {(seq.utt_id, start + 1, stop): -1.0 - start
                 for seq in sequences
                 for start, stop in scoring.span_windows(len(seq.units),
                                                         scoring.SpanConfig())}
        scoring.write_masked_scores(table, root / "masked.tsv")
        (root / "p.tsv").write_text("pair_id\taccepted_id\trejected_id\n" + "".join(
            f"p{k}\t{100 + 2 * k}\t{101 + 2 * k}\n" for k in range(3)))
        unit_rows = [[u, *map(str, v)] for u, v in units.items()]
        table_rows = [line.split("\t") for line in
                      (root / "masked.tsv").read_text().splitlines()]
        return root, unit_rows, table_rows

    def _score(self, root, route, units, table):
        source = (["--ngram-model", str(root / "m.json")] if route == "ngram"
                  else ["--masked-table", str(table)])
        return _exit_and_stderr(["score-lexical", "--pairs", str(root / "p.tsv"),
                                 *source, "--units", str(units),
                                 "--out", str(root / "r.json")])

    @pytest.mark.parametrize("route", ["ngram", "masked"])
    @settings(max_examples=60)
    @given(row=st.integers(0, 5), col=st.integers(0, 7), value=FIELD_VALUES)
    def test_units_mutation(self, lm_inputs, route, row, col, value):
        root, unit_rows, _ = lm_inputs
        units = root / f"mutated-{route}.txt"
        units.write_text(_mutated(unit_rows, row, col, value, " "))
        code, err = self._score(root, route, units, root / "masked.tsv")
        assert code == 0 or (code == 1 and err.count("\n") == 1 and str(units) in err)

    @settings(max_examples=60)
    @given(row=st.integers(0, 8), col=st.integers(0, 3), value=FIELD_VALUES)
    def test_masked_table_mutation(self, lm_inputs, row, col, value):
        root, unit_rows, table_rows = lm_inputs
        units = root / "units.txt"
        units.write_text("".join(" ".join(r) + "\n" for r in unit_rows))
        table = root / "mutated.tsv"
        table.write_text(_mutated(table_rows, row, col, value, "\t"))
        code, err = self._score(root, "masked", units, table)
        assert code == 0 or (code == 1 and err.count("\n") == 1 and str(table) in err)

    @pytest.fixture(scope="class")
    def codebook_inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("codebook-contract")
        rng = np.random.default_rng(4)
        io_formats.write_feature_archive(root / "f", FeatureSequence(
            "u1", 100.0, rng.normal(size=(5, 2))), "binary")
        quantizer.write_codebook(quantizer.Codebook(rng.normal(size=(3, 2))),
                                 root / "c.zrck")
        return root, (root / "c.zrck").read_bytes()

    # one byte of a 52-byte codebook replaced, or the file cut or grown there
    @settings(max_examples=80)
    @given(pos=st.integers(0, 52), byte=st.integers(0, 255),
           how=st.sampled_from(["set", "cut", "insert"]))
    def test_codebook_mutation(self, codebook_inputs, pos, byte, how):
        root, blob = codebook_inputs
        path = root / "mutated.zrck"
        path.write_bytes(_byte_mutated(blob, pos, byte, how))
        _assert_contract(lambda: quantizer.read_codebook(path), path,
                         ["quantize", "--codebook", str(path), "--features",
                          str(root / "f"), "--out", str(root / "u.txt")])

    # a value or a key of the model document replaced
    @settings(max_examples=80)
    @given(where=st.integers(0, 200), rename=st.booleans(),
           value=st.sampled_from([-1, 0, 7, 1.9, float("inf"), True, None, "x",
                                  [], {}, "", "</s>", "<s> 9"]))
    def test_ngram_model_mutation(self, lm_inputs, where, rename, value):
        root, unit_rows, _ = lm_inputs
        units = root / "model-units.txt"
        units.write_text("".join(" ".join(r) + "\n" for r in unit_rows))
        doc = json.loads((root / "m.json").read_text())
        paths = [("order",), ("alpha",), ("vocab",), ("counts",)]
        paths += [("vocab", i) for i in range(len(doc["vocab"]))]
        for key, bucket in doc["counts"].items():
            paths += [("counts", key)] + [("counts", key, u) for u in bucket]
        *parents, last = paths[where % len(paths)]
        target = doc
        for step in parents:
            target = target[step]
        if rename and isinstance(last, str) and parents:  # a context or unit key
            target[str(value)] = target.pop(last)
        else:
            target[last] = value
        path = root / "mutated.json"
        path.write_text(json.dumps(doc))
        _assert_contract(lambda: scoring.load_ngram_model(path), path,
                         ["score-lexical", "--pairs", str(root / "p.tsv"),
                          "--ngram-model", str(path), "--units", str(units),
                          "--out", str(root / "r.json")])

    @pytest.fixture(scope="class")
    def feature_inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("feature-contract")
        rng = np.random.default_rng(5)
        fs = FeatureSequence("u1", 100.0, rng.normal(size=(4, 2)).astype(np.float32))
        quantizer.write_codebook(quantizer.Codebook(rng.normal(size=(3, 2))),
                                 root / "c.zrck")
        blob = io_formats.write_feature_archive(root / "b", fs, "binary").read_bytes()
        text = io_formats.write_feature_archive(root / "t", fs, "text").read_text()
        return root, blob, [line.split(" ") for line in text.splitlines()]

    def _quantize(self, root, path):
        _assert_contract(lambda: io_formats.read_feature_archive(path.parent, "u1"),
                         path, ["quantize", "--codebook", str(root / "c.zrck"),
                                "--features", str(path.parent),
                                "--out", str(root / "u.txt")])

    # one byte of a 56-byte .zrcf file replaced, or the file cut or grown there
    @settings(max_examples=80)
    @given(pos=st.integers(0, 56), byte=st.integers(0, 255),
           how=st.sampled_from(["set", "cut", "insert"]))
    def test_binary_features_mutation(self, feature_inputs, pos, byte, how):
        root, blob, _ = feature_inputs
        path = root / "b" / "u1.zrcf"
        path.write_bytes(_byte_mutated(blob, pos, byte, how))
        self._quantize(root, path)

    @settings(max_examples=60)
    @given(row=st.integers(0, 4), col=st.integers(0, 1), value=FIELD_VALUES)
    def test_text_features_mutation(self, feature_inputs, row, col, value):
        root, _, rows = feature_inputs
        path = root / "t" / "u1.txt"
        path.write_text(_mutated(rows, row, col, value, " "))
        self._quantize(root, path)

    @pytest.fixture(scope="class")
    def candidate_rows(self, tmp_path_factory):
        rng = np.random.default_rng(6)
        rows = [["anchor_id", "stratum", "candidate_id", "s_1", "s_2"]]
        for a in range(4):
            for cand in ("@self", "c1", "c2"):
                rows.append([f"a{a}", f"st{a % 2}", cand,
                             *(f"{x:.3f}" for x in rng.normal(size=2))])
        return tmp_path_factory.mktemp("candidate-contract"), rows

    @settings(max_examples=60)
    @given(row=st.integers(0, 12), col=st.integers(0, 4), value=FIELD_VALUES)
    def test_candidate_set_mutation(self, candidate_rows, row, col, value):
        # sentence mode meets anchors with two candidates: an error naming
        # the file too
        root, rows = candidate_rows
        path = root / "mutated.tsv"
        path.write_text(_mutated(rows, row, col, value, "\t"))
        for mode in (["words"], ["sentences", "--k-target", "2"]):
            _assert_contract(lambda: sampler.read_candidate_set(path), path,
                             ["sample-pairs", "--candidates", str(path), "--mode",
                              *mode, "--out", str(root / "assignment.tsv")])

    @pytest.fixture(scope="class")
    def gold_inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("gold-contract")
        rng = np.random.default_rng(7)
        for k in range(6):
            io_formats.write_feature_archive(root / "L0", FeatureSequence(
                f"u{k}", 100.0, rng.normal(size=(3, 2))))
        rows = [["word_a", "word_b", "score", "dataset", "refs_a", "refs_b"]]
        for k in range(4):
            rows.append([f"w{k}", f"x{k}", f"{2 * k + 1.5}", "D", f"v:u{k}",
                         f"v:u{k + 2}"])
        return root, rows

    @settings(max_examples=60)
    @given(row=st.integers(0, 4), col=st.integers(0, 5), value=FIELD_VALUES)
    def test_gold_mutation(self, gold_inputs, row, col, value):
        root, rows = gold_inputs
        path = root / "mutated.tsv"
        path.write_text(_mutated(rows, row, col, value, "\t"))
        _assert_contract(lambda: io_formats.read_similarity_gold(path), path,
                         ["score-semantic", "--gold", str(path), "--features",
                          str(root / "L0"), "--out", str(root / "r.json")])

    @settings(max_examples=60)
    @given(row=st.integers(0, 8), col=st.integers(0, 1), value=FIELD_VALUES)
    def test_external_scores_mutation(self, pair_inputs, row, col, value):
        root, pair_rows = pair_inputs
        pairs = root / "pairs.tsv"
        pairs.write_text("".join("\t".join(r) + "\n" for r in pair_rows))
        score_rows = [line.split("\t") for line in
                      (root / "scores.tsv").read_text().splitlines()]
        path = root / "mutated-scores.tsv"
        path.write_text(_mutated(score_rows, row, col, value, "\t"))
        _assert_contract(lambda: io_formats.read_external_scores(path), path,
                         ["score-lexical", "--pairs", str(pairs), "--scores", str(path),
                          "--out", str(root / "r.json")])


def _shuffled_runs(tmp_path, argv, target, header=True):
    """The ``--out`` bytes of ``argv``, first as given and then with the
    data rows of its input ``target`` in three seeded shuffles, the header
    line kept first."""
    lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
    head, rows = (lines[:1], lines[1:]) if header else ([], lines)
    outputs = []
    for seed in (None, 0, 1, 2):
        source = target
        if seed is not None:
            order = np.random.default_rng(seed).permutation(len(rows))
            source = tmp_path / f"shuffled{seed}{target.suffix}"
            source.write_text("".join(head + [rows[i] for i in order]),
                              encoding="utf-8")
        out = tmp_path / f"out{seed}"
        assert run([str(source) if arg == str(target) else arg for arg in argv]
                   + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    return outputs


class TestRowOrder:
    """Every output but sample-pairs' is independent of the order of its
    inputs' data rows: shuffling them, header kept, leaves its bytes."""

    @pytest.fixture(scope="class")
    def abx_inputs(self, tmp_path_factory):
        # posteriorgram frames, so that both distances apply; within mode
        # sees 2 tokens per phone, speaker and context
        root = tmp_path_factory.mktemp("row-order-abx")
        rng = np.random.default_rng(8)
        lines = [io_formats.ITEM_HEADER]
        for speaker in ("s1", "s2", "s3"):
            io_formats.write_feature_archive(root, FeatureSequence(
                speaker, 100.0, rng.dirichlet(np.ones(4), size=60)), "binary")
            for k in range(12):
                lines.append(f"{speaker} {k * 0.05:.2f} {k * 0.05 + 0.04:.2f} "
                             f"{'BPD'[k % 3]} {'AE'[k // 6]} T {speaker}")
        (root / "items.item").write_text("\n".join(lines) + "\n")
        return root

    @pytest.mark.parametrize("mode", ["within", "across"])
    @pytest.mark.parametrize("metric", ["angular", "kl"])
    def test_abx_items(self, abx_inputs, tmp_path, mode, metric):
        items = abx_inputs / "items.item"
        outputs = _shuffled_runs(tmp_path, ["abx", "--items", str(items), "--features",
                                            str(abx_inputs), "--mode", mode,
                                            "--distance", metric], items)
        assert outputs[1:] == outputs[:1] * 3

    @pytest.fixture(scope="class")
    def lm_inputs(self, mini_benchmark, tmp_path_factory):
        root = tmp_path_factory.mktemp("row-order-lm")
        rng = np.random.default_rng(9)
        sequences = io_formats.read_unit_sequences(mini_benchmark / "units.txt")
        scoring.save_ngram_model(scoring.ngram_train(sequences, 2), root / "m.json")
        scoring.write_masked_scores(
            {(seq.utt_id, start + 1, stop): float(rng.uniform(-9.0, -1.0))
             for seq in sequences for start, stop in scoring.span_windows(
                 len(seq.units), scoring.SpanConfig())}, root / "masked.tsv")
        return root

    def test_ngram_train_units(self, mini_benchmark, tmp_path):
        units = mini_benchmark / "units.txt"
        outputs = _shuffled_runs(tmp_path, ["ngram-train", "--units", str(units)],
                                 units, header=False)
        assert outputs[1:] == outputs[:1] * 3

    @pytest.mark.parametrize("command, source, shuffled", [
        ("score-lexical", "ngram", "pairs"), ("score-lexical", "ngram", "units"),
        ("score-syntactic", "masked", "pairs"),
        ("score-syntactic", "masked", "masked-table"),
        ("score-syntactic", "masked", "units")])
    def test_pair_scoring(self, mini_benchmark, lm_inputs, tmp_path, command, source,
                          shuffled):
        files = {"pairs": mini_benchmark / "pairs.tsv",
                 "units": mini_benchmark / "units.txt",
                 "masked-table": lm_inputs / "masked.tsv"}
        model = (["--ngram-model", str(lm_inputs / "m.json")] if source == "ngram"
                 else ["--masked-table", str(files["masked-table"])])
        outputs = _shuffled_runs(
            tmp_path, [command, "--pairs", str(files["pairs"]), *model,
                       "--units", str(files["units"]), "--format", "tsv"],
            files[shuffled], header=shuffled != "units")
        assert outputs[1:] == outputs[:1] * 3

    def test_score_semantic_gold(self, mini_benchmark, tmp_path):
        gold = mini_benchmark / "gold.tsv"
        outputs = _shuffled_runs(
            tmp_path, ["score-semantic", "--gold", str(gold), "--features",
                       str(mini_benchmark / "hidden0"), str(mini_benchmark / "hidden1"),
                       "--format", "json"], gold)
        assert outputs[1:] == outputs[:1] * 3


class TestUnitRelabelling:
    """Renumbering the units of a one-hot archive leaves the abx report's
    bytes unchanged: equal distances must tie whatever the numbering."""

    @pytest.fixture(scope="class")
    def workloads(self):
        # the benchmark's generator: abx-units inputs at any seed
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
            return importlib.import_module("workloads")

    KL_TIES = pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 1: kl rounds the costs of equally distant one-hot "
               "frames differently, so its ties depend on the unit numbering")

    @pytest.mark.parametrize("metric", ["angular", pytest.param("kl", marks=KL_TIES)])
    def test_abx_reports_ignore_unit_numbering(self, workloads, tmp_path, metric):
        for seed in (0, 3, 5):
            raw = workloads.generate("abx-units", seed)
            rng = np.random.default_rng(seed)
            perms = [np.arange(workloads.N_UNITS)]
            perms += [rng.permutation(workloads.N_UNITS) for _ in range(3)]
            reports = []
            for k, perm in enumerate(perms):
                root = tmp_path / f"{seed}-{k}"
                workloads.write(zrc_eval, "abx-units", dict(raw, utterances={
                    utt: perm[units] for utt, units in raw["utterances"].items()}), root)
                for mode in ("within", "across"):
                    out = root / f"{mode}.json"
                    assert run(["abx", "--items", str(root / "items.item"),
                                "--features", str(root / "features"), "--mode", mode,
                                "--distance", metric, "--out", str(out)]) == 0
                    reports.append(out.read_bytes())
            assert reports[2:] == reports[:2] * 3
