"""File-format readers/writers: round trips, error reporting, merging."""

import json

import numpy as np
import pytest

from zrc_eval import abx, metrics, sampler, scoring
from zrc_eval import io_formats as io
from zrc_eval.errors import FormatError, ValidationError
from zrc_eval.types import (FeatureSequence, MetricReport, ScoredPair, SimilarityRecord,
                            TriphoneToken, UnitSequence)


# ---------------------------------------------------------------------------
# item files
# ---------------------------------------------------------------------------

class TestItemFile:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "dev.item"
        path.write_text(io.ITEM_HEADER + "\ns1.wav 0.21 0.54 B AH P spk1\n")
        tokens = io.read_item_file(path)
        assert len(tokens) == 1
        t = tokens[0]
        assert (t.file_id, t.onset, t.offset) == ("s1.wav", 0.21, 0.54)
        assert (t.center, t.left, t.right, t.speaker) == ("B", "AH", "P", "spk1")

    def test_empty_body(self, tmp_path):
        path = tmp_path / "dev.item"
        path.write_text(io.ITEM_HEADER + "\n")
        assert io.read_item_file(path) == []

    def test_six_columns_cites_line(self, tmp_path):
        path = tmp_path / "dev.item"
        path.write_text(io.ITEM_HEADER + "\ns1.wav 0.21 0.54 B AH P\n")
        with pytest.raises(FormatError, match="line 2"):
            io.read_item_file(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "dev.item"
        path.write_text("#file onset offset\ns1.wav 0.1 0.2 B AH P spk1\n")
        with pytest.raises(FormatError, match="line 1"):
            io.read_item_file(path)

    def test_non_numeric_time_cites_line(self, tmp_path):
        path = tmp_path / "dev.item"
        for times, reason in (("x 0.2", "non-numeric"), ("0.1 inf", "non-finite"),
                              ("nan 0.2", "non-finite")):
            path.write_text(io.ITEM_HEADER + "\ns1.wav 0.1 0.2 B AH P spk1"
                            + f"\ns2.wav {times} B AH P spk1\n")
            with pytest.raises(FormatError, match=f"line 3: {reason}"):
                io.read_item_file(path)

    def test_offset_not_after_onset(self, tmp_path):
        path = tmp_path / "dev.item"
        path.write_text(io.ITEM_HEADER + "\ns1.wav 0.5 0.5 B AH P spk1\n")
        with pytest.raises(ValidationError):
            io.read_item_file(path)
        for onset, offset in ((0.1, float("inf")), (float("nan"), 0.2)):
            with pytest.raises(ValidationError, match="non-finite"):
                TriphoneToken("s1.wav", onset, offset, "B", "AH", "P", "spk1")

    def test_duplicate_token_key(self, tmp_path):
        path = tmp_path / "dev.item"
        line = "s1.wav 0.1 0.2 B AH P spk1"
        path.write_text(io.ITEM_HEADER + f"\n{line}\n{line}\n")
        with pytest.raises(ValidationError, match="duplicate"):
            io.read_item_file(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "dev.item"
        path.write_text(io.ITEM_HEADER + "\ns1.wav 0.21 0.54 B AH P spk1\n")
        tokens = io.read_item_file(path)
        out = tmp_path / "again.item"
        io.write_item_file(tokens, out)
        assert io.read_item_file(out) == tokens


# ---------------------------------------------------------------------------
# feature archives
# ---------------------------------------------------------------------------

class TestFeatureArchive:
    def test_text_format(self, tmp_path):
        (tmp_path / "utt1.txt").write_text("dim=2 rate=100\n1 0\n0 1\n")
        fs = io.read_feature_archive(tmp_path, "utt1")
        assert fs.frame_rate == 100.0
        assert np.array_equal(fs.frames, np.eye(2))

    def test_binary_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(20):
            frames = rng.standard_normal((int(rng.integers(1, 9)),
                                          int(rng.integers(1, 6))))
            frames = frames.astype(np.float32).astype(np.float64)
            fs = FeatureSequence(f"u{i}", 50.0, frames)
            io.write_feature_archive(tmp_path, fs, "binary")
            assert io.read_feature_archive(tmp_path, f"u{i}") == fs

    def test_text_binary_interchange(self, tmp_path):
        frames = np.array([[0.5, -1.25], [3.0, 0.125]])  # exact in f32
        fs = FeatureSequence("x", 100.0, frames)
        io.write_feature_archive(tmp_path / "t", fs, "text")
        io.write_feature_archive(tmp_path / "b", fs, "binary")
        assert (io.read_feature_archive(tmp_path / "t", "x")
                == io.read_feature_archive(tmp_path / "b", "x"))

    def test_truncated_body(self, tmp_path):
        fs = FeatureSequence("u", 100.0, np.ones((4, 3)))
        fpath = io.write_feature_archive(tmp_path, fs, "binary")
        blob = fpath.read_bytes()
        fpath.write_bytes(blob[:-4])
        with pytest.raises(FormatError, match="truncated"):
            io.read_feature_archive(tmp_path, "u")

    def test_bad_magic(self, tmp_path):
        fs = FeatureSequence("u", 100.0, np.ones((2, 2)))
        fpath = io.write_feature_archive(tmp_path, fs, "binary")
        blob = bytearray(fpath.read_bytes())
        blob[:4] = b"NOPE"
        fpath.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            io.read_feature_archive(tmp_path, "u")

    def test_dimension_mismatch_text(self, tmp_path):
        (tmp_path / "u.txt").write_text("dim=3 rate=100\n1 2\n")
        with pytest.raises(FormatError, match="expected 3"):
            io.read_feature_archive(tmp_path, "u")

    def test_non_finite_value(self, tmp_path):
        (tmp_path / "u.txt").write_text("dim=1 rate=100\nnan\n")
        with pytest.raises(ValidationError, match="non-finite"):
            io.read_feature_archive(tmp_path, "u")

    def test_missing_utterance(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            io.read_feature_archive(tmp_path, "ghost")

    @pytest.mark.parametrize("rate, frames, message", [
        (100.0, [[1e308, 0.0], [1.0, 0.0]], "frame value beyond the f32 range of "
         "binary archives (text archives hold any finite value)"),
        (1e300, [[1.0]], "frame rate 1e+300 is not finite and positive as f32 "
         "(text archives hold any finite rate)"),
        (1e-50, [[1.0]], "frame rate 1e-50 is not finite and positive as f32 "
         "(text archives hold any finite rate)"),
    ])
    def test_binary_writer_refuses_what_f32_cannot_hold(self, tmp_path, rate, frames,
                                                        message):
        # f32 would hold inf, or 0 for the rate, or cannot pack the rate:
        # nothing is written, and a text archive holds the sequence
        fs = FeatureSequence("u", rate, frames)
        with pytest.raises(ValidationError) as exc:
            io.write_feature_archive(tmp_path, fs, "binary")
        assert str(exc.value) == f"u: {message}"
        assert io.list_archive(tmp_path) == []
        io.write_feature_archive(tmp_path, fs, "text")
        assert io.read_feature_archive(tmp_path, "u") == fs

    def test_text_rate_header_is_short_and_exact(self, tmp_path):
        # an integral rate is written as its float repr, not as int(rate)
        fs = FeatureSequence("u", 1e300, [[1.0]])
        fpath = io.write_feature_archive(tmp_path, fs, "text")
        assert len(fpath.read_text().splitlines()[0]) <= 32
        assert io.read_feature_archive(tmp_path, "u") == fs

    def test_header_gives_the_shape_and_rate_of_the_read(self, tmp_path):
        # binary, text, bare binary and bare text files; blank lines in
        # text are not frames
        binary_feature_file(tmp_path / "b.zrcf", np.ones((3, 2)), rate=50.0)
        (tmp_path / "t.txt").write_text("dim=2 rate=1e+300\n1 0\n\n0 1\n")
        binary_feature_file(tmp_path / "bb", np.ones((1, 4)), rate=0.5)
        (tmp_path / "bt").write_text("dim=1 rate=100\n4\n5\n6\n")
        for utt, name in (("b", "b.zrcf"), ("t", "t.txt"), ("bb", "bb"), ("bt", "bt")):
            fs = io.read_feature_archive(tmp_path, utt)
            assert io.feature_header(tmp_path, utt) == (len(fs), fs.dim,
                                                        fs.frame_rate)
            # each read keeps its file, which == and repr leave out
            assert fs.where == str(tmp_path / name)
            built = FeatureSequence(utt, fs.frame_rate, fs.frames)
            assert built.where is None and built == fs and repr(built) == repr(fs)
        with pytest.raises(FileNotFoundError, match="no feature file for 'ghost'"):
            io.feature_header(tmp_path, "ghost")

    @pytest.mark.parametrize("name, content", [
        ("u.zrcf", b"ZRCF\x01"),
        ("u.zrcf", b"NOPE" + bytes(20)),
        ("u.txt", b""),
        ("u.txt", b"dim=2 rate=fast\n1 0\n"),
        ("u.txt", b"\xff\n"),
        # a body shorter, or longer, than the header's frame count gives
        ("u.zrcf", io._FEATURE_HEADER.pack(b"ZRCF", 1, 2, 100.0, 2) + bytes(8)),
        ("u.zrcf", io._FEATURE_HEADER.pack(b"ZRCF", 1, 2, 100.0, 1) + bytes(12)),
    ])
    def test_header_errors_are_the_reads(self, tmp_path, name, content):
        (tmp_path / name).write_bytes(content)
        with pytest.raises(FormatError) as header:
            io.feature_header(tmp_path, "u")
        with pytest.raises(FormatError) as read:
            io.read_feature_archive(tmp_path, "u")
        assert str(header.value) == str(read.value)

    def test_list_archive(self, tmp_path):
        io.write_feature_archive(tmp_path, FeatureSequence("b", 1.0, [[1.0]]), "binary")
        io.write_feature_archive(tmp_path, FeatureSequence("a", 1.0, [[1.0]]), "text")
        assert io.list_archive(tmp_path) == ["a", "b"]

    def test_list_archive_skips_hidden_files(self, tmp_path):
        io.write_feature_archive(tmp_path, FeatureSequence("u0", 1.0, [[1.0]]), "binary")
        (tmp_path / ".DS_Store").write_bytes(b"\x00\x00\x00\x01Bud1")
        (tmp_path / ".u1.txt").write_text("dim=1 rate=1\n1\n")
        assert io.list_archive(tmp_path) == ["u0"]


def binary_feature_file(path, frames, rate=100.0, n_frames=None, dim=None):
    """A ZRCF file with the given header fields and f32 body."""
    frames = np.asarray(frames, dtype="<f4")
    t, d = frames.shape
    header = io._FEATURE_HEADER.pack(b"ZRCF", 1, d if dim is None else dim, rate,
                                     t if n_frames is None else n_frames)
    path.write_bytes(header + frames.tobytes())
    return path


class TestFeatureFileChecks:
    """The type checks each value and the reader names the file (and, in
    text files, the line)."""

    def test_non_finite_binary_names_the_file(self, tmp_path):
        fpath = binary_feature_file(tmp_path / "u.zrcf", [[1.0, np.inf]])
        with pytest.raises(ValidationError) as exc:
            io.read_feature_archive(tmp_path, "u")
        assert str(exc.value) == f"{fpath}: u: non-finite value in frames"

    def test_non_finite_text_names_the_file(self, tmp_path):
        (tmp_path / "u.txt").write_text("dim=2 rate=100\n1 2\n3 nan\n")
        with pytest.raises(ValidationError) as exc:
            io.read_feature_archive(tmp_path, "u")
        assert str(exc.value) == f"{tmp_path / 'u.txt'}: line 3: non-finite value"

    def test_truncated_and_oversized_files(self, tmp_path):
        fpath = tmp_path / "u.zrcf"
        fpath.write_bytes(b"ZRCF\x01")
        with pytest.raises(FormatError) as exc:
            io.read_feature_archive(tmp_path, "u")
        assert str(exc.value) == f"{fpath}: truncated header"
        binary_feature_file(fpath, np.ones((2, 3)), n_frames=3)
        with pytest.raises(FormatError) as exc:
            io.read_feature_archive(tmp_path, "u")
        assert str(exc.value) == (
            f"{fpath}: truncated body, expected 36 bytes, got 24")
        binary_feature_file(fpath, np.ones((2, 3)), n_frames=1)
        with pytest.raises(FormatError) as exc:
            io.read_feature_archive(tmp_path, "u")
        assert str(exc.value) == (f"{fpath}: dimension mismatch between header "
                                  "and body (24 bytes for 1x3 f32)")

    def test_sequence_checks_still_run_on_read_frames(self, tmp_path):
        binary_feature_file(tmp_path / "e.zrcf", np.ones((0, 3)))
        with pytest.raises(ValidationError) as exc:
            io.read_feature_archive(tmp_path, "e")
        assert str(exc.value) == (f"{tmp_path / 'e.zrcf'}: "
            "e: frames must be a non-empty T x D matrix, got shape (0, 3)")
        binary_feature_file(tmp_path / "r.zrcf", np.ones((2, 3)), rate=0.0)
        with pytest.raises(ValidationError) as exc:
            io.read_feature_archive(tmp_path, "r")
        assert str(exc.value) == f"{tmp_path / 'r.zrcf'}: r: frame rate must be positive"

    def test_direct_construction_keeps_every_check(self):
        with pytest.raises(ValidationError) as exc:
            FeatureSequence("u", 100.0, [[1.0, np.nan]])
        assert str(exc.value) == "u: non-finite value in frames"
        with pytest.raises(ValidationError, match="non-empty T x D"):
            FeatureSequence("u", 100.0, [1.0, 2.0])
        with pytest.raises(ValidationError, match="frame rate must be positive"):
            FeatureSequence("u", -1.0, [[1.0]])
        fs = FeatureSequence("u", 100, np.array([[1, 2]], dtype=np.int32))
        assert fs.frames.dtype == np.float64 and fs.frame_rate == 100.0

    def test_infinite_rate_has_its_own_message(self):
        with pytest.raises(ValidationError) as exc:
            FeatureSequence("u", np.inf, [[1.0]])
        assert str(exc.value) == "u: frame rate must be finite"
        with pytest.raises(ValidationError) as exc:
            FeatureSequence("u", -np.inf, [[1.0]])
        assert str(exc.value) == "u: frame rate must be positive"

    def test_missing_utterance_message(self, tmp_path):
        with pytest.raises(FileNotFoundError) as exc:
            io.read_feature_archive(tmp_path, "ghost")
        assert str(exc.value) == f"no feature file for 'ghost' under {tmp_path}"
        with pytest.raises(FileNotFoundError, match="no feature file"):
            io.read_feature_archive(tmp_path / "absent", "ghost")

    def test_file_precedence_zrcf_then_txt_then_bare(self, tmp_path):
        binary_feature_file(tmp_path / "u.zrcf", [[1.0]])
        (tmp_path / "u.txt").write_text("dim=1 rate=100\n2\n")
        binary_feature_file(tmp_path / "u", [[3.0]])
        assert io.read_feature_archive(tmp_path, "u").frames.tolist() == [[1.0]]
        (tmp_path / "u.zrcf").unlink()
        assert io.read_feature_archive(tmp_path, "u").frames.tolist() == [[2.0]]
        (tmp_path / "u.txt").unlink()
        assert io.read_feature_archive(tmp_path, "u").frames.tolist() == [[3.0]]
        (tmp_path / "u").write_text("dim=1 rate=100\n4\n")  # bare text, sniffed
        assert io.read_feature_archive(tmp_path, "u").frames.tolist() == [[4.0]]

    def test_directory_named_like_a_feature_file_is_skipped(self, tmp_path):
        (tmp_path / "u.zrcf").mkdir()
        (tmp_path / "u.txt").write_text("dim=1 rate=100\n5\n")
        assert io.read_feature_archive(tmp_path, "u").frames.tolist() == [[5.0]]


# ---------------------------------------------------------------------------
# unit sequences
# ---------------------------------------------------------------------------

class TestUnitSequences:
    def test_parse(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("utt1 3 3 17 4\n")
        seqs = io.read_unit_sequences(path)
        assert seqs == [UnitSequence("utt1", [3, 3, 17, 4])]

    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        seqs = [UnitSequence(f"utt{i}", rng.integers(0, 100, size=rng.integers(1, 30)))
                for i in range(1000)]
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        io.write_unit_sequences(seqs, p1)
        io.write_unit_sequences(io.read_unit_sequences(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_units_is_error(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("utt2\n")
        with pytest.raises(ValidationError) as exc:
            io.read_unit_sequences(path)
        assert str(exc.value) == f"{path}: line 1: utt2: empty unit sequence"

    def test_negative_unit_is_error(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("utt1 3 -1\n")
        with pytest.raises(ValidationError, match="negative"):
            io.read_unit_sequences(path)

    def test_duplicate_utterance_is_error(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("u1 3 4\nu2 5\nu1 6\n")
        with pytest.raises(ValidationError) as exc:
            io.read_unit_sequences(path)
        assert str(exc.value) == f"{path}: line 3: duplicate utterance 'u1'"


class TestUnitChecks:
    """The type parses and range-checks each unit, and the reader names
    the line."""

    def test_reader_messages_name_the_line(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("a 1 2\nb 3 -1 4\n")
        with pytest.raises(ValidationError) as exc:
            io.read_unit_sequences(path)
        assert str(exc.value) == f"{path}: line 2: b: negative unit index"
        path.write_text("a 1 2\n\nb 3 1.5\n")
        with pytest.raises(FormatError) as exc:
            io.read_unit_sequences(path)
        assert str(exc.value) == f"{path}: line 3: non-integer unit"

    def test_reader_units_are_int_tuples(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("a 0 12 +3 007\n")
        seq, = io.read_unit_sequences(path)
        assert seq.units == (0, 12, 3, 7)
        assert all(type(u) is int for u in seq.units)
        assert seq == UnitSequence("a", [0, 12, 3, 7])

    def test_direct_construction_messages(self):
        with pytest.raises(ValidationError) as exc:
            UnitSequence("x", [])
        assert str(exc.value) == "x: empty unit sequence"
        with pytest.raises(ValidationError) as exc:
            UnitSequence("x", [4, -2, 1])
        assert str(exc.value) == "x: negative unit index"
        with pytest.raises(ValueError):
            UnitSequence("x", ["a"])
        seq = UnitSequence("x", np.array([3, 1], dtype=np.int16))
        assert seq.units == (3, 1) and all(type(u) is int for u in seq.units)


# ---------------------------------------------------------------------------
# manifests, gold tables, score tables
# ---------------------------------------------------------------------------

class TestPairManifest:
    def test_parse_with_tags(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("pair_id\taccepted_id\trejected_id\tparadigm\n"
                        "p1\tw1\tn1\tagr\n")
        pairs = io.read_pair_manifest(path)
        assert pairs == [ScoredPair("p1", "w1", "n1", {"paradigm": "agr"})]

    def test_duplicate_pair_id(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("pair_id\taccepted_id\trejected_id\n"
                        "p1\tw1\tn1\np1\tw2\tn2\n")
        with pytest.raises(ValidationError, match="duplicate pair_id"):
            io.read_pair_manifest(path)

    def test_round_trip(self, tmp_path):
        pairs = [ScoredPair("p1", "a", "b", {"k": "v"}),
                 ScoredPair("p2", "c", "d", {"k": "w"})]
        path = tmp_path / "p.tsv"
        io.write_pair_manifest(pairs, path)
        assert io.read_pair_manifest(path) == pairs

    @pytest.mark.parametrize("reader, header, row", [
        (io.read_pair_manifest, "pair_id\taccepted_id\trejected_id\tpar\tpar",
         "p1\tw1\tn1\tagr\tnum"),
        (io.read_similarity_gold, "word_a\tword_b\tscore\tdataset\tscore",
         "a\tb\t4\tds\t9"),
    ], ids=["manifest", "gold"])
    def test_repeated_header_column_is_error(self, tmp_path, reader, header, row):
        # the last of two same-named columns used to win silently
        path = tmp_path / "p.tsv"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(FormatError) as exc:
            reader(path)
        assert str(exc.value).startswith(f"{path}: line 1: header repeats columns")


class TestSimilarityGold:
    def test_table_row(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("word_a\tword_b\tscore\tdataset\n"
                        "abduct\tkidnap\t8.63\tsimverb-3500\n"
                        "abduct\ttap\t0.5\tsimverb-3500\n")
        records = io.read_similarity_gold(path)
        assert records[0].human_score == 8.63
        assert records[0].dataset == "simverb-3500"
        assert records[1].human_score == 0.5

    def test_opposite_order_rows_average(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("word_a\tword_b\tscore\tdataset\n"
                        "a\tb\t4.0\tds\n"
                        "b\ta\t6.0\tds\n")
        records = io.read_similarity_gold(path)
        assert len(records) == 1
        assert records[0].human_score == 5.0
        assert (records[0].word_a, records[0].word_b) == ("a", "b")

    def test_merge_keeps_refs_per_word(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("word_a\tword_b\tscore\tdataset\trefs_a\trefs_b\n"
                        "a\tb\t4.0\tds\tA:ua1\tA:ub1\n"
                        "b\ta\t6.0\tds\tA:ub2\tA:ua1\n")
        (record,) = io.read_similarity_gold(path)
        assert record.refs_a == (("A", "ua1"),)
        assert record.refs_b == (("A", "ub1"), ("A", "ub2"))

    def test_same_pair_different_datasets_kept(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("word_a\tword_b\tscore\tdataset\n"
                        "a\tb\t4.0\tds1\na\tb\t6.0\tds2\n")
        assert len(io.read_similarity_gold(path)) == 2

    def test_score_out_of_range(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("word_a\tword_b\tscore\tdataset\na\tb\t11.0\tds\n")
        with pytest.raises(ValidationError):
            io.read_similarity_gold(path)


class TestExternalScores:
    def test_round_trip(self, tmp_path):
        scores = {"u1": -3.5, "u2": 0.25}
        path = tmp_path / "s.tsv"
        io.write_external_scores(scores, path)
        assert io.read_external_scores(path) == scores

    def test_duplicate_utt(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("u1\t-1.0\nu1\t-2.0\n")
        with pytest.raises(ValidationError, match="duplicate"):
            io.read_external_scores(path)


# ---------------------------------------------------------------------------
# metric reports
# ---------------------------------------------------------------------------

class TestMetricReport:
    REPORT = MetricReport(
        metric="lexical-accuracy",
        aggregate=0.625,
        subsets={"paradigm=b": 0.5, "paradigm=a": 0.75},
        counts={"paradigm=b": 2, "paradigm=a": 2, "pairs": 4},
        config={"tie": "half", "seed": "42"},
    )

    WRITTEN = {
        "tsv": "metric\tlexical-accuracy\n"
               "aggregate\t0.625000\n"
               "config\tseed\t42\n"
               "config\ttie\thalf\n"
               "subset\tparadigm=a\t0.750000\t2\n"
               "subset\tparadigm=b\t0.500000\t2\n"
               "count\tpairs\t4\n",
        "json": '{\n  "aggregate": 0.625,\n'
                '  "config": {\n    "seed": "42",\n    "tie": "half"\n  },\n'
                '  "counts": {\n    "pairs": 4,\n    "paradigm=a": 2,\n'
                '    "paradigm=b": 2\n  },\n'
                '  "metric": "lexical-accuracy",\n'
                '  "subsets": {\n    "paradigm=a": 0.75,\n    "paradigm=b": 0.5\n  }\n'
                '}\n',
    }

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_round_trip(self, tmp_path, fmt):
        # the exact bytes: nothing in the package reads a report back
        path = tmp_path / f"r.{fmt}"
        io.write_report(self.REPORT, path, fmt)
        assert path.read_bytes() == self.WRITTEN[fmt].encode()

    def test_format_inferred_from_extension(self, tmp_path):
        path = tmp_path / "r.json"
        io.write_report(self.REPORT, path)
        assert path.read_text().lstrip().startswith("{")

    def test_keys_sorted_and_six_decimals(self, tmp_path):
        path = tmp_path / "r.tsv"
        io.write_report(self.REPORT, path, "tsv")
        text = path.read_text()
        assert "0.625000" in text
        assert text.index("paradigm=a") < text.index("paradigm=b")

    def test_byte_identical_rewrites(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        io.write_report(self.REPORT, p1, "json")
        io.write_report(self.REPORT, p2, "json")
        assert p1.read_bytes() == p2.read_bytes()

    # the aggregate as each format's parser yields it from the text shown
    @pytest.mark.parametrize("aggregate", [
        pytest.param(float("nan"), id="tsv-nan"),
        pytest.param(json.loads("NaN"), id="json-nan"),
        pytest.param(float("inf"), id="tsv-inf"),
    ])
    def test_non_finite_aggregate_is_rejected(self, aggregate):
        with pytest.raises(ValidationError) as exc:
            MetricReport(metric="m", aggregate=aggregate)
        assert str(exc.value) == "m: non-finite aggregate score"


# ---------------------------------------------------------------------------
# the contract every text reader shares
# ---------------------------------------------------------------------------

def _read_text_features(path):
    return io.read_feature_archive(path.parent, path.stem)


# reader, a valid file, and for fixed-width tables a row one column short
# with the width it should have
TEXT_READERS = {
    "item": (io.read_item_file,
             io.ITEM_HEADER + "\nf1 0.0 0.1 a b c s1\nf1 0.1 0.2 b c d s1\n",
             ("f1 0.2 0.3 c d e", 7)),
    "text-features": (_read_text_features, "dim=2 rate=100\n1 2\n3 4\n", None),
    "units": (io.read_unit_sequences, "u1 1 2\nu2 3\n", None),
    "pair-manifest": (io.read_pair_manifest,
                      "pair_id\taccepted_id\trejected_id\np1\ta\tb\np2\tc\td\n",
                      ("p3\te", 3)),
    "gold": (io.read_similarity_gold,
             "word_a\tword_b\tscore\tdataset\na\tb\t4.0\tds\nc\td\t5.0\tds\n",
             ("e\tf\t1.0", 4)),
    "external-scores": (io.read_external_scores, "u1\t-1.0\nu2\t-2.0\n",
                        ("u3", 2)),
    "masked-scores": (scoring.read_masked_scores,
                      "utt_id\ti\tj\tlog_p\nu1\t1\t2\t-0.5\nu1\t2\t3\t-0.25\n",
                      ("u1\t3\t4", 4)),
    "candidate-set": (sampler.read_candidate_set,
                      "anchor_id\tstratum\tcandidate_id\ts_1\n"
                      "a1\tst\t@self\t0.5\na1\tst\tc1\t0.25\n",
                      ("a1\tst\tc2", 4)),
}
NGRAM_JSON = '{"alpha": 1.0, "counts": {"": {"1": 2}}, "order": 1, "vocab": [1]}\n'
LINE_READERS = [pytest.param(reader, text, id=name)
                for name, (reader, text, _) in TEXT_READERS.items()]
FIXED_WIDTH = [pytest.param(reader, text, short, id=name)
               for name, (reader, text, short) in TEXT_READERS.items() if short]


class TestReaderContract:
    @pytest.mark.parametrize("reader, text", LINE_READERS + [
        pytest.param(scoring.load_ngram_model, NGRAM_JSON, id="ngram-json")])
    def test_undecodable_bytes_name_the_file(self, tmp_path, reader, text):
        path = tmp_path / "u.txt"
        path.write_text(text)
        assert reader(path) is not None
        path.write_bytes(text.encode() + b"\x89\n")
        with pytest.raises(FormatError) as exc:
            reader(path)
        assert str(exc.value) == f"{path}: not UTF-8 text"

    @pytest.mark.parametrize("reader, text", LINE_READERS)
    def test_whitespace_only_line_is_skipped(self, tmp_path, reader, text):
        path = tmp_path / "u.txt"
        path.write_text(text)
        expected = reader(path)
        first, rest = text.split("\n", 1)
        path.write_text(f"{first}\n \t \n{rest}")
        assert reader(path) == expected

    @pytest.mark.parametrize("reader, text, short", FIXED_WIDTH)
    def test_short_row_names_line_and_width(self, tmp_path, reader, text, short):
        row, width = short
        path = tmp_path / "u.txt"
        path.write_text(text + row + "\n")
        lineno = text.count("\n") + 1
        with pytest.raises(FormatError) as exc:
            reader(path)
        assert str(exc.value) == (
            f"{path}: line {lineno}: expected {width} columns, got {width - 1}")


# ---------------------------------------------------------------------------
# where a record was read from
# ---------------------------------------------------------------------------

def _scored(name, tmp_path):
    """A library call over records read from a file, and the same call over
    the same records built in code: ``(file, line, call, records read,
    records built, message)``; the call fails on the record of ``line``."""
    root = tmp_path
    if name == "abx":
        io.write_feature_archive(root, FeatureSequence("u1", 100.0, np.eye(2)))
        built = [TriphoneToken("u1", 0.0, 0.02, "B", "A", "T", "s1"),
                 TriphoneToken("ghost", 0.0, 0.02, "P", "A", "T", "s1")]
        path = root / "i.item"
        io.write_item_file(built, path)
        return (path, 3, lambda tokens: abx.abx_evaluate(tokens, root, "within"),
                io.read_item_file(path), built,
                f"token (ghost, 0.0, 0.02): no feature file for 'ghost' under {root}")
    if name == "pairs":
        built = [ScoredPair("p1", "u1", "u2"), ScoredPair("p2", "u2", "ghost")]
        path = root / "p.tsv"
        io.write_pair_manifest(built, path)
        return (path, 3, lambda pairs: metrics.paired_accuracy(
                    pairs, {"u1": -1.0, "u2": -2.0}),
                io.read_pair_manifest(path), built,
                "pair p2: no score for utterance 'ghost'")
    if name == "gold":
        # the record (c, d) merges lines 3 and 4: its first is named
        path = root / "g.tsv"
        path.write_text("word_a\tword_b\tscore\tdataset\trefs_a\trefs_b\n"
                        "a\tb\t5\tD\tA:u1\tA:u2\n" "c\td\t5\tD\tA:u1\tB:u2\n"
                        "d\tc\t6\tD\tC:u1\tD:u2\n")
        built = [SimilarityRecord("a", "b", 5.0, "D", (("A", "u1"),), (("A", "u2"),)),
                 SimilarityRecord("c", "d", 5.5, "D", (("A", "u1"), ("D", "u2")),
                                  (("B", "u2"), ("C", "u1")))]
        layers = [{"u1": np.eye(2), "u2": np.ones((2, 2))}]
        return (path, 3, lambda records: metrics.layer_sweep(layers, records),
                io.read_similarity_gold(path), built,
                "(c, d): no comparable token pairs for the synthetic subset")
    if name == "candidates":
        built = sampler.CandidateSet([
            sampler.AnchorEntry("a0", "s", (0.0,), (("c0", (1.0,)),)),
            sampler.AnchorEntry("a1", "s", (1.0,), (("c1", (0.0,)), ("c2", (2.0,))))])
        path = root / "c.tsv"
        sampler.write_candidate_set(built, path)
        return (path, 4, lambda cs: sampler.sample_sentence_pairs(cs, 1),
                sampler.read_candidate_set(path), built,
                "anchor 'a1': sentence pools carry exactly one candidate per anchor")
    # units: an out-of-vocabulary unit
    model = scoring.ngram_train([UnitSequence("t", [1, 2])], 2)
    built = [UnitSequence("u1", [1, 2]), UnitSequence("u2", [2, 9])]
    path = root / "u.txt"
    io.write_unit_sequences(built, path)
    return (path, 2, lambda seqs: [scoring.chain_rule_logprob(model, s) for s in seqs],
            io.read_unit_sequences(path), built, "unit 9 not in the model vocabulary")


class TestRecordWhere:
    """Records read from a file keep ``"<path>: line N"`` in ``where``, and
    the library's errors about one record lead with it."""

    @pytest.mark.parametrize("name", ["abx", "pairs", "gold", "candidates", "units"])
    def test_library_error_names_the_line(self, tmp_path, name):
        path, line, call, read, built, message = _scored(name, tmp_path)
        assert read == built
        with pytest.raises(ValidationError) as info:
            call(read)
        assert str(info.value) == f"{path}: line {line}: {message}"
        # records built in code keep the message without a place
        with pytest.raises(ValidationError) as info:
            call(built)
        assert str(info.value) == message

    # a pair's tags dict and a mutable gold record are not hashable
    @pytest.mark.parametrize("make, hashable", [
        (lambda where: TriphoneToken("u", 0.0, 0.1, "B", "A", "T", "s", where), True),
        (lambda where: UnitSequence("u", [1, 2], where), True),
        (lambda where: ScoredPair("p", "a", "b", {"k": "v"}, where), False),
        (lambda where: SimilarityRecord("a", "b", 5.0, "D", where=where), False),
        (lambda where: sampler.AnchorEntry("a", "s", (1.0,), (("c", (0.0,)),), where),
         True),
    ], ids=["token", "units", "pair", "gold", "anchor"])
    def test_where_is_left_out_of_eq_hash_and_repr(self, make, hashable):
        built, read = make(None), make("f.tsv: line 2")
        assert read.where == "f.tsv: line 2" and built.where is None
        assert built == read and repr(built) == repr(read)
        if hashable:
            assert hash(built) == hash(read)
