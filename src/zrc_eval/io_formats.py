"""Readers and writers for every artifact boundary.

Every text file is UTF-8; undecodable bytes are a FormatError naming the
file. Whitespace-only lines are ignored in every line-oriented format
(in a TSV table a tab-only line is skipped, not read as a row of empty
fields). Every row error names the file and the line, and every record
read from a row keeps that ``"<path>: line N"`` as its ``where`` (a
merged gold record and a candidate anchor keep their first row's).

Formats
-------
item file        : whitespace columns with the literal header
                   ``#file onset offset #phone prev-phone next-phone speaker``
feature archive  : one file per utterance inside a directory, either text
                   (``dim=<D> rate=<R>`` header then one row of floats per
                   frame) or binary (magic ``ZRCF``, version u32=1, D u32,
                   rate f32, T u64, then T*D little-endian f32, row-major);
                   ``<utt_id>`` is read from ``<utt_id>.zrcf`` (binary),
                   else ``<utt_id>.txt`` (text), else a bare ``<utt_id>``
                   file, binary if it starts with the magic; hidden files
                   (names starting with ``.``) are not listed as utterances
unit sequences   : one line per utterance, ``<utt_id> u1 u2 ... uT``, ids unique
pair manifest    : TSV with header ``pair_id accepted_id rejected_id`` plus
                   arbitrary extra columns, which become tags
similarity gold  : TSV with header ``word_a word_b score dataset`` plus
                   optional ``refs_a refs_b`` columns (comma-separated
                   ``voice:utt_id`` entries)
external scores  : ``<utt_id>\\t<log_score>`` per line
report           : TSV (row-typed, keys sorted; a count whose key is not
                   a subset gets its own ``count`` row) or JSON (keys
                   sorted); floats printed with 6 decimals in both

All scores are exchanged in the natural-log domain. Parsing is
locale-independent: decimal point only.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError, _at, _named
from .types import (FeatureSequence, MetricReport, ScoredPair, SimilarityRecord,
                    TriphoneToken, UnitSequence)

ITEM_HEADER = "#file onset offset #phone prev-phone next-phone speaker"

_FEATURE_MAGIC = b"ZRCF"
_FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<4sIIfQ")


def _rows(path, sep="\t", width=None, header=False):
    """Yield ``(lineno, columns)`` for each row of a UTF-8 text table.

    Lines are streamed and whitespace-only lines skipped; ``sep=None``
    splits on runs of whitespace. With ``header``, line 1 is yielded
    first as it stands (columns ``None`` for an empty file) and ``width``
    defaults to the header's. A row of another width than ``width`` is a
    FormatError naming the line; undecodable bytes name the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            start = 1
            if header:
                first = fh.readline()
                cols = first.rstrip("\n").split(sep) if first else None
                yield 1, cols
                if width is None and cols is not None:
                    width = len(cols)
                start = 2
            for lineno, line in enumerate(fh, start):
                if line.isspace():
                    continue
                cols = line.rstrip("\n").split(sep)
                if width is not None and len(cols) != width:
                    raise FormatError(f"{path}: line {lineno}: expected {width} "
                                      f"columns, got {len(cols)}")
                yield lineno, cols
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None


# ---------------------------------------------------------------------------
# item files
# ---------------------------------------------------------------------------

def read_item_file(path) -> list[TriphoneToken]:
    """Parse a triphone item file into tokens, preserving file order."""
    rows = _rows(path, sep=None, width=7, header=True)
    if next(rows)[1] != ITEM_HEADER.split():
        raise FormatError(
            f"{path}: line 1: expected item header {ITEM_HEADER!r}")
    line = f"{path}: line "
    tokens = []
    seen = set()
    for lineno, cols in rows:
        file_id, onset_s, offset_s, center, left, right, speaker = cols
        try:
            onset, offset = float(onset_s), float(offset_s)
        except ValueError:
            raise FormatError(f"{line}{lineno}: non-numeric onset/offset") from None
        if not (math.isfinite(onset) and math.isfinite(offset)):
            raise FormatError(f"{line}{lineno}: non-finite onset/offset")
        token = TriphoneToken(file_id, onset, offset, center, left, right, speaker,
                              f"{line}{lineno}")
        key = (file_id, onset, offset)
        if key in seen:
            raise _at(token.where, f"duplicate token {key}")
        seen.add(key)
        tokens.append(token)
    return tokens


def write_item_file(tokens, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ITEM_HEADER + "\n")
        for t in tokens:
            fh.write(f"{t.file_id} {t.onset} {t.offset} "
                     f"{t.center} {t.left} {t.right} {t.speaker}\n")


# ---------------------------------------------------------------------------
# feature archives
# ---------------------------------------------------------------------------

def _locate(path, utt_id: str, count: int = -1) -> tuple:
    """``(file, head, size)`` of the feature file of ``utt_id`` under the
    archive directory ``path``: for a binary file its first ``count``
    bytes (every byte for -1) and its size in bytes, for a text file
    None and None. A ``.zrcf`` file is opened without a ``stat`` first."""
    root = Path(path)
    try:
        return _head(root / f"{utt_id}.zrcf", count)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        pass
    if (root / f"{utt_id}.txt").is_file():
        return root / f"{utt_id}.txt", None, None
    if not (root / utt_id).is_file():
        raise FileNotFoundError(f"no feature file for {utt_id!r} under {root}")
    file, head, size = _head(root / utt_id, count)
    return (file, head, size) if head[:4] == _FEATURE_MAGIC else (file, None, None)


def _head(file: Path, count: int) -> tuple:
    """``(file, head, size)``: the first ``count`` bytes of ``file`` (every
    byte for -1) and its size, the bytes read or one ``fstat`` of the
    handle."""
    with open(file, "rb") as fh:
        head = fh.read(count)
        return file, head, len(head) if count < 0 else os.fstat(fh.fileno()).st_size


def read_feature_archive(path, utt_id: str) -> FeatureSequence:
    """Load one utterance from an archive directory. ``.zrcf`` files must
    be binary and ``.txt`` files text; a bare file is sniffed by its
    leading magic bytes. The sequence's ``where`` is the file."""
    fpath, blob, size = _locate(path, utt_id)
    if blob is None:
        return _read_feature_text(fpath, utt_id)
    n_frames, dim, rate = _binary_header(fpath, blob, size)
    frames = np.frombuffer(blob, dtype="<f4", count=n_frames * dim,
                           offset=_FEATURE_HEADER.size)
    return _named(fpath, FeatureSequence, utt_id, rate,
                  frames.reshape(n_frames, dim), str(fpath))


def feature_header(path, utt_id: str) -> tuple:
    """``(frames, dim, rate)`` of the utterance ``read_feature_archive``
    reads, without reading its frames: a binary file's header, or a text
    file's header and its number of rows. Raises what that read raises
    for a missing file, a malformed header and, in a binary file, a body
    of another size than the header gives; the frame values and the
    rate's range are checked only by the full read."""
    fpath, head, size = _locate(path, utt_id, _FEATURE_HEADER.size)
    if head is None:
        dim, rate, rows = _text_header(fpath)
        return sum(1 for _ in rows), dim, rate
    return _binary_header(fpath, head, size)


def _text_header(fpath: Path) -> tuple:
    """The ``dim`` and ``rate`` of a text feature file's header, and its
    frame rows still to be read, as ``_rows`` yields them."""
    rows = _rows(fpath, sep=None)
    lineno, head = next(rows, (1, None))
    if head is None:
        raise FormatError(f"{fpath}: empty feature file")
    bad_header = FormatError(f"{fpath}: line 1: expected 'dim=<D> rate=<R>'")
    if lineno != 1 or not all("=" in tok for tok in head):
        raise bad_header
    fields = dict(tok.split("=", 1) for tok in head)
    try:
        return int(fields["dim"]), float(fields["rate"]), rows
    except (KeyError, ValueError):
        raise bad_header from None


def _read_feature_text(fpath: Path, utt_id: str) -> FeatureSequence:
    dim, rate, rows = _text_header(fpath)
    values = []
    for lineno, cols in rows:
        if len(cols) != dim:
            raise FormatError(
                f"{fpath}: line {lineno}: expected {dim} values, got {len(cols)}")
        try:
            row = [float(c) for c in cols]
        except ValueError:
            raise FormatError(f"{fpath}: line {lineno}: non-numeric value") from None
        if not all(map(math.isfinite, row)):
            raise ValidationError(f"{fpath}: line {lineno}: non-finite value")
        values.append(row)
    if not values:
        raise FormatError(f"{fpath}: no frames after header")
    return _named(f"{fpath}: line 1", FeatureSequence, utt_id, rate, values,
                  str(fpath))


def _binary_header(fpath: Path, head: bytes, size: int) -> tuple:
    """``(frames, dim, rate)`` from ``head``, the leading bytes of the
    binary feature file ``fpath`` of ``size`` bytes, once the header and
    the body's size are checked."""
    if len(head) < _FEATURE_HEADER.size:
        raise FormatError(f"{fpath}: truncated header")
    magic, version, dim, rate, n_frames = _FEATURE_HEADER.unpack_from(head)
    if magic != _FEATURE_MAGIC:
        raise FormatError(f"{fpath}: bad magic {magic!r}, expected {_FEATURE_MAGIC!r}")
    if version != _FEATURE_VERSION:
        raise FormatError(f"{fpath}: unsupported version {version}")
    if dim < 1:
        raise FormatError(f"{fpath}: non-positive dimension {dim}")
    body = size - _FEATURE_HEADER.size
    expected = n_frames * dim * 4
    if body < expected:
        raise FormatError(
            f"{fpath}: truncated body, expected {expected} bytes, got {body}")
    if body > expected:
        raise FormatError(
            f"{fpath}: dimension mismatch between header and body "
            f"({body} bytes for {n_frames}x{dim} f32)")
    return n_frames, dim, float(rate)


def write_feature_archive(path, fs: FeatureSequence, fmt: str = "binary") -> Path:
    """Write one utterance into an archive directory; returns the file path.

    The binary format stores 32-bit floats: values are rounded to f32
    precision, and a frame value or rate that f32 cannot hold (a value
    that would overflow, a rate that is not finite and positive) is a
    ValidationError naming the utterance, raised before any file is
    opened. Text archives hold any finite value.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    if fmt == "binary":
        with np.errstate(over="ignore"):
            frames = np.ascontiguousarray(fs.frames, dtype="<f4")
            rate = np.float32(fs.frame_rate)
        if not 0 < rate < math.inf:
            raise ValidationError(f"{fs.utt_id}: frame rate {fs.frame_rate} is not "
                                  "finite and positive as f32 (text archives hold "
                                  "any finite rate)")
        if not np.isfinite(frames).all():
            raise ValidationError(f"{fs.utt_id}: frame value beyond the f32 range of "
                                  "binary archives (text archives hold any finite "
                                  "value)")
        fpath = root / f"{fs.utt_id}.zrcf"
        t, d = fs.frames.shape
        with open(fpath, "wb") as fh:
            fh.write(_FEATURE_HEADER.pack(
                _FEATURE_MAGIC, _FEATURE_VERSION, d, rate, t))
            fh.write(frames.tobytes())
    elif fmt == "text":
        fpath = root / f"{fs.utt_id}.txt"
        with open(fpath, "w", encoding="utf-8") as fh:
            fh.write(f"dim={fs.dim} rate={fs.frame_rate!r}\n")
            for row in fs.frames:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    else:
        raise ValueError(f"unknown feature format {fmt!r}")
    return fpath


def list_archive(path) -> list[str]:
    """Sorted utterance ids present in an archive directory; hidden files
    (names starting with ``.``) are not utterances."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"feature archive directory {root} not found")
    ids = set()
    for p in root.iterdir():
        if p.is_file() and not p.name.startswith("."):
            ids.add(p.stem if p.suffix in (".zrcf", ".txt") else p.name)
    return sorted(ids)


# ---------------------------------------------------------------------------
# unit sequences
# ---------------------------------------------------------------------------

def read_unit_sequences(path) -> list:
    """Parse ``<utt_id> u1 u2 ... uT`` lines into UnitSequence values."""
    line = f"{path}: line "
    sequences = []
    seen = set()
    for lineno, cols in _rows(path, sep=None):
        utt_id = cols[0]
        if utt_id in seen:
            raise _at(f"{line}{lineno}", f"duplicate utterance {utt_id!r}")
        seen.add(utt_id)
        try:
            sequences.append(UnitSequence(utt_id, cols[1:], f"{line}{lineno}"))
        except ValidationError:
            raise
        except ValueError:  # from int()
            raise FormatError(f"{line}{lineno}: non-integer unit") from None
    return sequences


def write_unit_sequences(sequences, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(seq.utt_id + " " + " ".join(map(str, seq.units)) + "\n")


# ---------------------------------------------------------------------------
# pair manifests, gold tables, score tables
# ---------------------------------------------------------------------------

def _read_tsv(path, required: tuple[str, ...]):
    """Yield (lineno, row-dict) from a TSV with a declared header row."""
    rows = _rows(path, header=True)
    header = next(rows)[1]
    if header is None:
        raise FormatError(f"{path}: empty file, expected a header row")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise FormatError(f"{path}: line 1: header repeats columns {repeated}")
    missing = [c for c in required if c not in header]
    if missing:
        raise FormatError(f"{path}: header is missing columns {missing}")
    for lineno, cols in rows:
        yield lineno, dict(zip(header, cols))


def read_pair_manifest(path) -> list[ScoredPair]:
    """Read a pair manifest; extra columns become tags."""
    line = f"{path}: line "
    pairs = []
    seen = set()
    for lineno, row in _read_tsv(path, ("pair_id", "accepted_id", "rejected_id")):
        pair_id = row.pop("pair_id")
        if pair_id in seen:
            raise _at(f"{line}{lineno}", f"duplicate pair_id {pair_id!r}")
        seen.add(pair_id)
        accepted = row.pop("accepted_id")
        rejected = row.pop("rejected_id")
        pairs.append(ScoredPair(pair_id, accepted, rejected, row, f"{line}{lineno}"))
    return pairs


def write_pair_manifest(pairs, path) -> None:
    tag_keys = sorted({k for p in pairs for k in p.tags})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["pair_id", "accepted_id", "rejected_id"] + tag_keys) + "\n")
        for p in pairs:
            row = [p.pair_id, p.accepted_id, p.rejected_id]
            row += [p.tags.get(k, "") for k in tag_keys]
            fh.write("\t".join(row) + "\n")


def _parse_refs(field: str) -> tuple:
    """``voice:utt_id`` entries, comma separated; bare entries get voice ''."""
    refs = []
    for chunk in field.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        voice, sep, utt = chunk.partition(":")
        refs.append((voice, utt) if sep else ("", chunk))
    return tuple(refs)


def read_similarity_gold(path) -> list[SimilarityRecord]:
    """Read a similarity gold table, merging opposite-order duplicates.

    Rows naming the same unordered word pair within one dataset collapse to
    a single record whose score is the mean of the duplicates, and whose
    ``where`` is the first of those rows.
    """
    merged: dict = {}  # in first-seen order
    for lineno, row in _read_tsv(path, ("word_a", "word_b", "score", "dataset")):
        try:
            score = float(row["score"])
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-numeric score") from None
        word_a, word_b, dataset = row["word_a"], row["word_b"], row["dataset"]
        refs_a = _parse_refs(row.get("refs_a", ""))
        refs_b = _parse_refs(row.get("refs_b", ""))
        if any(not utt for _, utt in refs_a + refs_b):
            raise FormatError(f"{path}: line {lineno}: empty utterance id in refs")
        if not (0.0 <= score <= 10.0):
            raise ValidationError(
                f"{path}: line {lineno}: score {score} outside [0, 10]")
        key = (dataset,) + tuple(sorted((word_a, word_b)))
        if key not in merged:
            merged[key] = [word_a, word_b, [score], refs_a, refs_b,
                           f"{path}: line {lineno}"]
        else:
            entry = merged[key]
            entry[2].append(score)
            extra_a, extra_b = ((refs_a, refs_b) if word_a == entry[0]
                                else (refs_b, refs_a))
            entry[3] += tuple(r for r in extra_a if r not in entry[3])
            entry[4] += tuple(r for r in extra_b if r not in entry[4])
    records = []
    for key, (word_a, word_b, scores, refs_a, refs_b, where) in merged.items():
        records.append(SimilarityRecord(
            word_a, word_b, sum(scores) / len(scores), key[0], refs_a, refs_b, where))
    return records


def read_external_scores(path) -> dict[str, float]:
    """Read a ``<utt_id>\\t<log_score>`` table into a dict."""
    scores: dict[str, float] = {}
    for lineno, cols in _rows(path, width=2):
        if lineno == 1 and cols == ["utt_id", "log_score"]:
            continue
        utt_id, raw = cols
        try:
            value = float(raw)
        except ValueError:
            raise FormatError(
                f"{path}: line {lineno}: non-numeric score") from None
        if not math.isfinite(value):
            raise ValidationError(
                f"{path}: line {lineno}: non-finite score for {utt_id!r}")
        if utt_id in scores:
            raise ValidationError(
                f"{path}: line {lineno}: duplicate utterance {utt_id!r}")
        scores[utt_id] = value
    return scores


def write_external_scores(scores: dict[str, float], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("utt_id\tlog_score\n")
        for utt_id in sorted(scores):
            fh.write(f"{utt_id}\t{_fmt(scores[utt_id])}\n")


# ---------------------------------------------------------------------------
# metric reports
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6f}"


def write_report(report: MetricReport, path, fmt: str | None = None) -> None:
    """Write a MetricReport; keys sorted, floats with 6 decimals.

    ``fmt`` is 'tsv' or 'json'; unset, it is inferred from the extension
    (.json means JSON, anything else TSV).
    """
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix == ".json" else "tsv"
    if fmt == "json":
        doc = {
            "metric": report.metric,
            "aggregate": float(_fmt(report.aggregate)),
            "subsets": {k: float(_fmt(v)) for k, v in sorted(report.subsets.items())},
            "counts": {k: int(v) for k, v in sorted(report.counts.items())},
            "config": {k: str(v) for k, v in sorted(report.config.items())},
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    elif fmt == "tsv":
        lines = [f"metric\t{report.metric}", f"aggregate\t{_fmt(report.aggregate)}"]
        for key in sorted(report.config):
            lines.append(f"config\t{key}\t{report.config[key]}")
        for key in sorted(report.subsets):
            count = report.counts.get(key, "")
            lines.append(f"subset\t{key}\t{_fmt(report.subsets[key])}\t{count}")
        for key in sorted(report.counts.keys() - report.subsets.keys()):
            lines.append(f"count\t{key}\t{report.counts[key]}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
