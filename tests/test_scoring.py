"""N-gram training, chain-rule scoring and masked span scoring."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from zrc_eval import scoring
from zrc_eval.errors import FormatError, ValidationError
from zrc_eval.types import UnitSequence


def seqs(*unit_lists):
    return [UnitSequence(f"u{i}", units) for i, units in enumerate(unit_lists)]


def term_oracle(model, unit, history):
    """log P(unit | history) straight from the counts, as the chain rule's
    per-token loop computed it before the model kept a table."""
    target = -1 if unit is None else unit
    for u in ([] if unit is None else [unit]) + list(history)[-(model.order - 1):]:
        if u not in model.vocab:
            raise ValidationError(f"unit {u} not in the model vocabulary")
    tail = list(history)[-(model.order - 1):] if model.order > 1 else []
    ctx = tuple([-2] * (model.order - 1 - len(tail)) + tail)
    bucket = model.counts.get(ctx, {})
    denom = sum(bucket.values()) + model.alpha * (len(model.vocab) + 1)
    return math.log((bucket.get(target, 0) + model.alpha) / denom)


class TestNgramTrain:
    def test_unigram_hand_count(self):
        # tokens seen: 0 x2, 1 x2, end x2; alphabet = {0, 1, end}
        alpha = 1e-9
        model = scoring.ngram_train(seqs([0, 1], [0, 1]), 1, alpha)
        expected = math.log((2 + alpha) / (6 + alpha * 3))
        assert term_oracle(model, 0, []) == pytest.approx(expected, abs=1e-15)
        assert term_oracle(model, 1, []) == pytest.approx(expected, abs=1e-15)
        # mass splits evenly between 0 and 1 once the end symbol is set aside
        p0 = math.exp(term_oracle(model, 0, []))
        p_end = math.exp(term_oracle(model, None, []))
        assert p0 / (1.0 - p_end) == pytest.approx(0.5, abs=1e-9)

    def test_bigram_prefers_observed_continuation(self):
        model = scoring.ngram_train(seqs([0, 1, 0, 1]), 2, 0.5)
        p_1 = term_oracle(model, 1, [0])
        assert p_1 > term_oracle(model, 0, [0])
        assert p_1 > term_oracle(model, None, [0])
        # hand count: context (0,) saw 1 twice and nothing else
        assert p_1 == pytest.approx(math.log((2 + 0.5) / (2 + 0.5 * 3)), abs=1e-15)

    def test_conditionals_normalize(self):
        rng = np.random.default_rng(0)
        for order in (1, 2, 3):
            corpus = seqs(*[rng.integers(0, 5, size=rng.integers(1, 10)).tolist()
                            for _ in range(20)])
            model = scoring.ngram_train(corpus, order, alpha=0.7)
            histories = [[], [0], [1, 2], [4, 4, 3]]
            for hist in histories:
                total = sum(math.exp(term_oracle(model, u, hist)) for u in model.vocab)
                total += math.exp(term_oracle(model, None, hist))
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_large_alpha_flattens_to_uniform(self):
        corpus = seqs([0, 0, 0, 0, 1])
        probs_by_alpha = []
        for alpha in (1.0, 1e3, 1e9):
            model = scoring.ngram_train(corpus, 1, alpha)
            probs = [math.exp(term_oracle(model, u, [])) for u in model.vocab]
            probs.append(math.exp(term_oracle(model, None, [])))
            probs_by_alpha.append(max(probs) / min(probs))
        assert probs_by_alpha[0] > probs_by_alpha[1] > probs_by_alpha[2]
        assert probs_by_alpha[2] == pytest.approx(1.0, abs=1e-6)
        model = scoring.ngram_train(corpus, 1, 1e9)
        assert math.exp(term_oracle(model, 0, [])) == pytest.approx(1 / 3, abs=1e-6)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_counts_equal_the_per_position_loop(self, order):
        # every (context, target) count, as one slice per position tallied it
        rng = np.random.default_rng(50 + order)
        corpus = [rng.integers(0, 6, size=rng.integers(1, 9)).tolist()
                  for _ in range(30)]
        want: dict = {}
        for units in corpus:
            tokens = [-2] * (order - 1) + units + [-1]
            for i in range(order - 1, len(tokens)):
                bucket = want.setdefault(tuple(tokens[i - order + 1:i]), {})
                bucket[tokens[i]] = bucket.get(tokens[i], 0) + 1
        model = scoring.ngram_train(seqs(*corpus), order, 1.0)
        assert model.counts == want
        assert list(model.counts) == list(want)  # first-seen order

    def test_empty_corpus_is_error(self):
        with pytest.raises(ValidationError, match="empty corpus"):
            scoring.ngram_train([], 1)

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        corpus = seqs(*[rng.integers(0, 6, size=5).tolist() for _ in range(10)])
        model = scoring.ngram_train(corpus, 3, alpha=0.25)
        path = tmp_path / "model.json"
        scoring.save_ngram_model(model, path)
        loaded = scoring.load_ngram_model(path)
        assert loaded.order == 3 and loaded.alpha == 0.25
        assert loaded.vocab == model.vocab
        assert loaded.counts == model.counts
        probe = UnitSequence("p", rng.integers(0, 6, size=7).tolist())
        assert (scoring.chain_rule_logprob(loaded, probe).log_score
                == scoring.chain_rule_logprob(model, probe).log_score)

    def _write_model(self, tmp_path, **fields):
        path = tmp_path / "model.json"
        doc = {"order": 2, "alpha": 1.0, "vocab": [0, 1], "counts": {"<s>": {"0": 1}}}
        path.write_text(json.dumps(dict(doc, **fields)))
        return path

    def test_non_object_counts_names_path(self, tmp_path):
        path = self._write_model(tmp_path, counts=[])
        with pytest.raises(FormatError, match=re.escape(f"{path}: 'counts' is not")):
            scoring.load_ngram_model(path)

    def test_empty_counts_names_path(self, tmp_path):
        # an order is bounded by its contexts' length; no context, no bound
        path = self._write_model(tmp_path, order=2 ** 62, counts={})
        with pytest.raises(FormatError) as exc:
            scoring.load_ngram_model(path)
        assert str(exc.value) == f"{path}: 'counts' is not a non-empty JSON object"

    def test_non_object_bucket_names_path(self, tmp_path):
        path = self._write_model(tmp_path, counts={"<s>": [1, 2]})
        with pytest.raises(FormatError, match=re.escape(f"{path}: counts for context '<s>'")):
            scoring.load_ngram_model(path)

    def test_non_integer_token_names_path(self, tmp_path):
        path = self._write_model(tmp_path, counts={"x y": {"0": 1}})
        with pytest.raises(FormatError, match=re.escape(f"{path}: non-integer token 'x'")):
            scoring.load_ngram_model(path)

    # a JSON value that int(...) would truncate, coerce or overflow on, or
    # a count that float(...) would overflow on
    @pytest.mark.parametrize("order, vocab, count, message", [
        ("1e999", "1", "1", "order: expected an integer >= 1, got Infinity"),
        ("1.9", "1", "1", "order: expected an integer >= 1, got 1.9"),
        ("true", "1", "1", "order: expected an integer >= 1, got true"),
        ("2", "1", "1e999", 'counts["<s>"]["0"]: expected an integer >= 0, got Infinity'),
        ("2", "1", "1.9", 'counts["<s>"]["0"]: expected an integer >= 0, got 1.9'),
        ("2", "1", "true", 'counts["<s>"]["0"]: expected an integer >= 0, got true'),
        ("2", "1", "-3", 'counts["<s>"]["0"]: expected an integer >= 0, got -3'),
        ("2", "1e999", "1", "vocab: expected an integer >= 0, got Infinity"),
        ("3", "1", "1", "context '<s>' is not 2 tokens long"),
        ("2", "1", "1" + "0" * 400, "a context's total count is out of float range"),
    ], ids=["order-overflow", "order-float", "order-bool", "count-overflow",
            "count-float", "count-bool", "count-negative", "vocab-overflow",
            "order-unlike-contexts", "count-above-float-range"])
    def test_non_integer_json_value_names_path(self, tmp_path, order, vocab, count,
                                               message):
        path = tmp_path / "model.json"
        path.write_text(f'{{"order": {order}, "alpha": 1.0, "vocab": [0, {vocab}], '
                        f'"counts": {{"<s>": {{"0": {count}}}}}}}')
        with pytest.raises(FormatError) as exc:
            scoring.load_ngram_model(path)
        assert str(exc.value) == f"{path}: {message}"

    # a count no conditional predicts would still enter its context's total
    @pytest.mark.parametrize("target", ["9", "<s>", "-2"])
    def test_count_target_outside_vocab_names_key(self, tmp_path, target):
        path = self._write_model(tmp_path, vocab=[0, 1],
                                 counts={"<s>": {"0": 1, target: 100}})
        with pytest.raises(FormatError) as exc:
            scoring.load_ngram_model(path)
        assert str(exc.value) == (f'{path}: counts["<s>"][{json.dumps(target)}]: '
                                  "target is neither in vocab nor </s>")

    @pytest.mark.parametrize("field, value", [("counts", {"<s>": {"0": None}}),
                                              ("order", "x"), ("vocab", 5)])
    def test_malformed_field_names_path(self, tmp_path, field, value):
        path = self._write_model(tmp_path, **{field: value})
        with pytest.raises(FormatError, match=re.escape(f"{path}: ")):
            scoring.load_ngram_model(path)


class TestChainRule:
    def test_unigram_additivity(self):
        model = scoring.ngram_train(seqs([0, 1, 2], [2, 1]), 1, 1.0)
        score = scoring.chain_rule_logprob(model, UnitSequence("x", [0, 1]))
        expected = (term_oracle(model, 0, []) + term_oracle(model, 1, [])
                    + term_oracle(model, None, []))
        assert score.log_score == pytest.approx(expected, abs=1e-15)

    def test_bigram_hand_computed(self):
        model = scoring.ngram_train(seqs([0, 1, 2], [0, 1, 0]), 2, 0.5)
        got = scoring.chain_rule_logprob(model, UnitSequence("x", [0, 1, 2]))
        v1 = 3 + 1  # vocab {0,1,2} plus end symbol
        # counts: (start)->0 twice; (0)->{1: 2, end: 1}; (1)->{2: 1, 0: 1};
        # (2)->{end: 1}
        expected = (math.log((2 + 0.5) / (2 + 0.5 * v1))    # P(0 | start)
                    + math.log((2 + 0.5) / (3 + 0.5 * v1))  # P(1 | 0)
                    + math.log((1 + 0.5) / (2 + 0.5 * v1))  # P(2 | 1)
                    + math.log((1 + 0.5) / (1 + 0.5 * v1)))  # P(end | 2)
        assert got.log_score == pytest.approx(expected, abs=1e-12)

    def test_explicit_product_oracle(self):
        rng = np.random.default_rng(2)
        for order in (1, 2, 3):
            corpus = seqs(*[rng.integers(0, 4, size=rng.integers(2, 9)).tolist()
                            for _ in range(15)])
            model = scoring.ngram_train(corpus, order, alpha=0.3)
            for _ in range(20):
                units = rng.integers(0, 4, size=rng.integers(1, 11)).tolist()
                prob = 1.0
                hist = []
                for u in units:
                    prob *= math.exp(term_oracle(model, u, hist))
                    hist.append(u)
                prob *= math.exp(term_oracle(model, None, hist))
                got = scoring.chain_rule_logprob(model, UnitSequence("x", units))
                assert got.log_score == pytest.approx(math.log(prob), abs=1e-12)

    def test_long_sequence_matches_explicit_sum(self):
        rng = np.random.default_rng(3)
        corpus = seqs(*[rng.integers(0, 6, size=50).tolist() for _ in range(20)])
        model = scoring.ngram_train(corpus, 3, alpha=0.5)
        units = rng.integers(0, 6, size=5000).tolist()
        expected = 0.0
        for t, u in enumerate(units):
            expected += term_oracle(model, u, units[:t])
        expected += term_oracle(model, None, units)
        got = scoring.chain_rule_logprob(model, UnitSequence("x", units))
        assert got.log_score == expected

    def test_unigram_concatenation_property(self):
        model = scoring.ngram_train(seqs([0, 1, 1, 2]), 1, 1.0)
        end = term_oracle(model, None, [])
        sx, sy = [0, 1], [2, 2, 1]
        score = lambda u: scoring.chain_rule_logprob(
            model, UnitSequence("t", u)).log_score
        assert score(sx + sy) - end == pytest.approx(
            score(sx) + score(sy) - 2 * end, abs=1e-12)

    def test_oov_unit_is_error(self):
        model = scoring.ngram_train(seqs([0, 1]), 2, 1.0)
        with pytest.raises(ValidationError, match="vocabulary"):
            scoring.chain_rule_logprob(model, UnitSequence("x", [0, 9]))

    def test_per_token_normalization_flag(self):
        model = scoring.ngram_train(seqs([0, 1, 2], [2, 1]), 1, 1.0)
        seq = UnitSequence("x", [0, 1, 2, 1])
        raw = scoring.chain_rule_logprob(model, seq).log_score
        normed = scoring.chain_rule_logprob(model, seq, per_token=True).log_score
        assert normed == pytest.approx(raw / 4, abs=1e-15)


def chain_oracle(model, units, per_token=False):
    """The per-token loop, summed left to right from 0.0."""
    total = 0.0
    for t, u in enumerate(units):
        total += term_oracle(model, u, units[:t])
    total += term_oracle(model, None, units)
    return total / len(units) if per_token else total


class TestChainRuleTable:
    """The n-gram chain rule reads its terms from the model's table; every
    score is == to the per-token loop, and errors are the loop's."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("per_token", [False, True])
    def test_equals_per_token_loop(self, order, per_token):
        rng = np.random.default_rng(40 + order)
        corpus = seqs(*[rng.integers(0, 5, size=rng.integers(1, 12)).tolist()
                        for _ in range(25)])
        model = scoring.ngram_train(corpus, order, alpha=0.7)
        for _ in range(30):
            units = rng.integers(0, 5, size=rng.integers(1, 15)).tolist()
            got = scoring.chain_rule_logprob(model, UnitSequence("x", units),
                                             per_token=per_token)
            assert got.log_score == chain_oracle(model, units, per_token)

    def test_table_entries_are_the_logprob_expression(self):
        rng = np.random.default_rng(44)
        corpus = seqs(*[rng.integers(0, 4, size=8).tolist() for _ in range(10)])
        model = scoring.ngram_train(corpus, 2, alpha=0.25)
        scoring.chain_rule_logprob(model, UnitSequence("x", [0, 1, 2, 3, 3, 0]))
        assert model._logprobs
        for (h, u), value in model._logprobs.items():
            history = [] if h == -2 else [h]
            assert value == term_oracle(model, None if u == -1 else u, history)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_oov_target_raises_at_the_first_one_met(self, order):
        model = scoring.ngram_train(seqs([0, 1, 2, 1, 0]), order, 1.0)
        for units, oov in (([7], 7), ([0, 1, 8, 2], 8), ([0, 9, 1, 7], 9),
                           ([2, 1, 0, 6], 6)):
            with pytest.raises(ValidationError) as got:
                scoring.chain_rule_logprob(model, UnitSequence("x", units))
            with pytest.raises(ValidationError) as want:
                chain_oracle(model, units)
            assert str(got.value) == str(want.value) == (
                f"unit {oov} not in the model vocabulary")

    def test_oov_in_history_is_checked_after_the_target(self):
        # every history unit of the chain rule was checked as an earlier
        # target: the first out-of-vocabulary unit met raises
        model = scoring.ngram_train(seqs([0, 1, 2]), 3, 1.0)
        with pytest.raises(ValidationError, match="unit 9 not"):
            scoring.chain_rule_logprob(model, UnitSequence("x", [0, 9, 1]))
        with pytest.raises(ValidationError, match="unit 8 not"):
            scoring.chain_rule_logprob(model, UnitSequence("x", [0, 8, 9]))
        # only the last order - 1 history tokens enter the context
        scoring.chain_rule_logprob(model, UnitSequence("x", [0, 2, 1]))
        assert model._logprobs[(0, 2, 1)] == term_oracle(model, 1, [9, 0, 2])
        # a failed lookup leaves nothing in the table
        assert all(9 not in key and 8 not in key for key in model._logprobs)

    def test_scores_shorter_and_longer_than_the_order(self):
        model = scoring.ngram_train(seqs([0, 1, 2, 0, 1], [2, 2]), 3, 0.5)
        for units in ([1], [2, 0], [0, 1, 2, 0, 1, 2, 2, 1]):
            got = scoring.chain_rule_logprob(model, UnitSequence("x", units))
            assert got.log_score == chain_oracle(model, units)


# ---------------------------------------------------------------------------
# span scoring
# ---------------------------------------------------------------------------

def random_joint_table(length, vocab, rng):
    """A normalized joint distribution over all sequences of one length."""
    space = list(itertools.product(vocab, repeat=length))
    probs = rng.dirichlet(np.ones(len(space)))
    return dict(zip(space, probs))


def conditional_logprob(table, vocab, units, start, stop):
    """Independent conditional: joint / marginal over the window slots."""
    numer = table.get(tuple(units), 0.0)
    denom = sum(table.get(tuple(units[:start]) + filler + tuple(units[stop:]), 0.0)
                for filler in itertools.product(vocab, repeat=stop - start))
    return math.log(max(numer, 1e-300)) - math.log(max(denom, 1e-300))


def window_table(table, vocab, seq):
    """Every (utt_id, i, j) window of ``seq``, 1-based and inclusive, scored
    by ``conditional_logprob``: span scoring picks which ones it sums."""
    t = len(seq.units)
    return {(seq.utt_id, i + 1, j): conditional_logprob(table, vocab, seq.units, i, j)
            for i in range(t) for j in range(i + 1, t + 1)}


def span_oracle(table, vocab, units, m_d, dt):
    """Direct window enumeration of the span pseudo-probability."""
    total = 0.0
    t = len(units)
    for j in range(0, (t - 1) // dt + 1):
        i = 1 + j * dt  # 1-based first token of the window
        stop = min(i + m_d, t)  # 1-based last token, clamped
        total += conditional_logprob(table, vocab, units, i - 1, stop)
    return total


class TestSpanConfig:
    def test_defaults(self):
        cfg = scoring.SpanConfig()
        assert (cfg.m_d, cfg.delta_t) == (15, 5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            scoring.SpanConfig(0, 5)


class TestSpanScoring:
    def test_single_window_covers_short_sequence(self):
        rng = np.random.default_rng(3)
        vocab = (0, 1)
        table = random_joint_table(3, vocab, rng)
        seq = UnitSequence("x", [1, 0, 1])
        got = scoring.span_pseudo_logprob(window_table(table, vocab, seq), seq,
                                          scoring.SpanConfig(15, 5))
        # one window spanning everything, conditioned on nothing
        assert got.log_score == pytest.approx(
            math.log(table[(1, 0, 1)]), abs=1e-12)

    def test_two_window_example(self):
        rng = np.random.default_rng(4)
        vocab = (0, 1)
        table = random_joint_table(6, vocab, rng)
        units = [0, 1, 1, 0, 1, 0]
        seq = UnitSequence("x", units)
        got = scoring.span_pseudo_logprob(
            window_table(table, vocab, seq), seq, scoring.SpanConfig(1, 5))
        expected = (conditional_logprob(table, vocab, units, 0, 2)
                    + conditional_logprob(table, vocab, units, 5, 6))
        assert got.log_score == pytest.approx(expected, abs=1e-12)

    def test_matches_window_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        vocab = (0, 1)
        tables = {t: random_joint_table(t, vocab, rng) for t in range(1, 7)}
        for t in range(1, 7):
            units = rng.integers(0, 2, size=t).tolist()
            seq = UnitSequence("x", units)
            windows = window_table(tables[t], vocab, seq)
            for m_d, dt in itertools.product(range(1, 5), repeat=2):
                got = scoring.span_pseudo_logprob(
                    windows, seq, scoring.SpanConfig(m_d, dt))
                assert got.log_score == pytest.approx(
                    span_oracle(tables[t], vocab, units, m_d, dt), abs=1e-12)

    def test_wide_config_reduces_to_single_joint_term(self):
        rng = np.random.default_rng(6)
        vocab = (0, 1)
        for t in range(1, 6):
            table = random_joint_table(t, vocab, rng)
            units = rng.integers(0, 2, size=t).tolist()
            seq = UnitSequence("x", units)
            cfg = scoring.SpanConfig(m_d=max(t - 1, 1), delta_t=t + 3)
            got = scoring.span_pseudo_logprob(window_table(table, vocab, seq), seq, cfg)
            assert got.log_score == pytest.approx(
                conditional_logprob(table, vocab, units, 0, t), abs=1e-12)

    def test_external_table_scorer(self, tmp_path):
        windows = {("utt1", 1, 3): -1.5, ("utt1", 6, 6): -0.25}
        path = tmp_path / "masked.tsv"
        scoring.write_masked_scores(windows, path)
        seq = UnitSequence("utt1", [0, 1, 0, 1, 0, 1])
        got = scoring.span_pseudo_logprob(scoring.read_masked_scores(path), seq,
                                          scoring.SpanConfig(2, 5))
        assert got.log_score == pytest.approx(-1.75, abs=1e-12)

    @pytest.mark.parametrize("value", ["nan", "-inf", "inf"])
    def test_non_finite_window_cites_line(self, tmp_path, value):
        path = tmp_path / "masked.tsv"
        path.write_text("utt_id\ti\tj\tlog_p\n"
                        "utt1\t1\t3\t-1.5\n"
                        f"utt1\t4\t6\t{value}\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: line 3: non-finite")):
            scoring.read_masked_scores(path)

    def test_missing_window_names_it(self):
        seq = UnitSequence("utt1", [0, 1, 0, 1, 0, 1])
        with pytest.raises(ValidationError) as info:
            scoring.span_pseudo_logprob({("utt1", 1, 3): -1.5}, seq,
                                        scoring.SpanConfig(2, 5))
        assert str(info.value) == "no masked score for window (utt1, 6, 6)"
