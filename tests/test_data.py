"""Data pipeline: tokenizer, synthetic generators, ingestion, batching."""
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from tavat.data import (CLS, CUES_PER_CLASS, FILLER_COUNT, PAD, SEP, UNK, Batch,
                        DatasetFormatError, DatasetSpec, build_dataset, build_tokenizer,
                        encode_examples, generate_synthetic_classification,
                        generate_synthetic_tagging, label_histogram, load_delimited,
                        make_batches, span_f1, spans_from_tags, synthetic_vocabulary,
                        tagging_tag_names, tagging_vocabulary)
from oracles import cue_majority_oracle


class TestTokenizer:
    def test_vocabulary_from_corpus(self):
        tok = build_tokenizer(["a", "b", "a"])
        assert tok.vocab_size == 6
        assert tok.token_to_id["a"] == 4
        assert tok.token_to_id["b"] == 5

    def test_unseen_token_maps_to_unk(self):
        tok = build_tokenizer(["a", "b", "a"])
        assert tok.encode(["a", "c"], max_len=8) == [CLS, tok.token_to_id["a"], UNK, SEP]

    def test_fingerprint_stable(self):
        tokens = ["red", "green", "blue"]
        assert build_tokenizer(tokens).fingerprint() == build_tokenizer(tokens).fingerprint()
        assert build_tokenizer(["red", "blue"]).fingerprint() != \
            build_tokenizer(tokens).fingerprint()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_tokenizer([])

    def test_truncation_keeps_sep_last(self):
        words = list("abcdefgh")
        tok = build_tokenizer(words)
        ids = tok.encode(words, max_len=5)
        assert len(ids) == 5
        assert ids[0] == CLS and ids[-1] == SEP


class TestSyntheticClassification:
    def test_noise_zero_oracle_is_perfect(self):
        examples = generate_synthetic_classification(500, seed=1, noise=0.0)
        hits = sum(cue_majority_oracle(ex.tokens) == ex.label for ex in examples)
        assert hits == len(examples)

    def test_noise_point_three_oracle_near_seventy_percent(self):
        examples = generate_synthetic_classification(10_000, seed=2, noise=0.3)
        hits = sum(cue_majority_oracle(ex.tokens) == ex.label for ex in examples)
        assert abs(hits / len(examples) - 0.7) <= 0.02

    def test_same_seed_identical_dataset(self):
        a = generate_synthetic_classification(100, seed=3, noise=0.2)
        b = generate_synthetic_classification(100, seed=3, noise=0.2)
        assert [(ex.tokens, ex.label) for ex in a] == [(ex.tokens, ex.label) for ex in b]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic_classification(0, seed=0, noise=0.0)
        with pytest.raises(ValueError):
            generate_synthetic_classification(10, seed=0, noise=0.6)


class TestSyntheticTagging:
    def test_zero_entity_sequences_all_o(self):
        examples = generate_synthetic_tagging(200, seed=4)
        plain = [ex for ex in examples if not any(ex.tags)]
        assert plain, "expected some sequences without entities"
        for ex in plain:
            assert all(t == 0 for t in ex.tags)

    def test_planted_spans_are_bio_shaped(self):
        names = tagging_tag_names()
        examples = generate_synthetic_tagging(200, seed=5)
        found_multi = False
        for ex in examples:
            for start, end, kind in spans_from_tags(ex.tags):
                assert names[ex.tags[start]] == f"B-{kind}"
                for inner in range(start + 1, end):
                    assert names[ex.tags[inner]] == f"I-{kind}"
                if end - start >= 2:
                    found_multi = True
        assert found_multi

    def test_surface_form_recovers_spans_exactly(self):
        """Planting oracle: spans recomputed from tokens score F1 = 1.0."""
        examples = generate_synthetic_tagging(300, seed=6)
        names = tagging_tag_names()
        tag_id = {n: i for i, n in enumerate(names)}
        predicted = []
        for ex in examples:
            tags = []
            prev_kind = None
            for tok in ex.tokens:
                if tok.startswith("ent"):
                    kind = tok[3: tok.index("_")]
                    tags.append(tag_id[f"I-{kind}"] if prev_kind == kind
                                else tag_id[f"B-{kind}"])
                    prev_kind = kind
                else:
                    tags.append(tag_id["O"])
                    prev_kind = None
            predicted.append(tags)
        _, _, f1 = span_f1([ex.tags for ex in examples], predicted)
        assert f1 == 1.0


def examples_sha256(examples) -> str:
    blob = json.dumps([[ex.tokens, ex.label, ex.tags] for ex in examples])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestSyntheticDraws:
    """The generated examples are pinned by a sha256 of their tokens, labels
    and tags, so any change to the generators' draws or words shows."""

    @pytest.mark.parametrize("n, seed, noise, classes, digest", [
        (300, 1, 0.0, 2, "643d79162aba6f9eb22200ccbe753190203aa6ce2b35409b6fc47e18a1b516dd"),
        (300, 2, 0.2, 3, "54dee090a7903c2ae4bafa0653de701c60c4d97ea86bb4902518e38f41ec9e19"),
        (3000, 7, 0.1, 2, "068d2981bcb0afae8324094d3ac99f26e293abbdb8325d1b4d1959548866421e"),
        (500, 7, 0.3, 3, "28f443a28960e37368d1eac6a732920d345c727bc18340e4d4835623a3a47132"),
    ])
    def test_classification(self, n, seed, noise, classes, digest):
        examples = generate_synthetic_classification(n, seed, noise, classes)
        assert examples_sha256(examples) == digest

    @pytest.mark.parametrize("n, seed, digest", [
        (300, 1, "6414c34cb7a80adcf69333737ef3f7b246bb560a19b516ea20af91a984429c3c"),
        (2000, 7, "10760c5ab46a04b5529f6611e62554035d2a7c12603f7dd023f2ed6896657bf8"),
    ])
    def test_tagging(self, n, seed, digest):
        assert examples_sha256(generate_synthetic_tagging(n, seed)) == digest


class TestDrawRule:
    """The generators take a run of same-range draws in one call. Their pinned
    examples rely on numpy's ``integers(k, size=m)`` giving the values of m
    calls of ``integers(k)`` and leaving the generator in the state those
    calls leave it in, for the ranges and run lengths the generators use."""

    PRELUDES = {
        "random": lambda rng: rng.random(),
        "one scalar draw": lambda rng: rng.integers(7),
        "three scalar draws": lambda rng: [rng.integers(7) for _ in range(3)],
    }

    @pytest.mark.parametrize("prelude", list(PRELUDES))
    @pytest.mark.parametrize("k", [CUES_PER_CLASS, FILLER_COUNT])
    def test_one_call_draws_what_scalar_calls_draw(self, k, prelude):
        for m in range(15):
            for seed in range(4):
                bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                self.PRELUDES[prelude](bulk)
                self.PRELUDES[prelude](scalar)
                got = bulk.integers(k, size=m).tolist()
                want = [int(scalar.integers(k)) for _ in range(m)]
                rule = (f"numpy {np.__version__} breaks the generators' draw rule: "
                        f"integers({k}, size={m}) after {prelude} (seed {seed}) must equal "
                        f"{m} calls of integers({k}) and leave the same generator state")
                assert got == want, rule
                assert bulk.bit_generator.state == scalar.bit_generator.state, rule


class TestDelimited:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("hello world\t0\nbye now\t1\n", encoding="utf-8")
        examples = load_delimited(path, {"text": 0, "label": 1})
        assert len(examples) == 2
        assert [ex.label for ex in examples] == [0, 1]
        assert examples[0].tokens == ["hello", "world"]

    def test_row_count_matches_line_count_minus_header(self, tmp_path):
        path = tmp_path / "data.csv"
        lines = ["text,label"] + [f"tok{i} tok{i + 1},{i % 2}" for i in range(25)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        examples = load_delimited(path, {"text": "text", "label": "label"},
                                  delimiter=",", has_header=True)
        assert len(examples) == 25

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("good text\t0\nonly-one-column\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="bad.tsv:2"):
            load_delimited(path, {"text": 0, "label": 1})

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("some text\tmaybe\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="unknown label"):
            load_delimited(path, {"text": 0, "label": 1})

    def test_named_column_without_header_rejected(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("hello world\t0\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError,
                           match="column 'text' is named but the file has no header"):
            load_delimited(path, {"text": "text", "label": 1})

    def test_header_without_named_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,target\nhello world,0\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="has no column 'label'"):
            load_delimited(path, {"text": "text", "label": "label"},
                           delimiter=",", has_header=True)


class TestBatching:
    def encoded(self, lengths):
        tok = build_tokenizer([f"w{i}" for i in range(10)])
        from tavat.data import Example
        examples = [Example(tokens=[f"w{i % 10}" for i in range(n)], label=0)
                    for n in lengths]
        return encode_examples(tok, examples, max_len=16)

    def test_batch_sizes_with_remainder(self):
        batches = make_batches(self.encoded([3, 4, 5, 6, 7]), batch_size=2)
        assert [b.size for b in batches] == [2, 2, 1]

    def test_mask_sum_equals_unpadded_length(self):
        lengths = [3, 6, 2]
        batches = make_batches(self.encoded(lengths), batch_size=3)
        np.testing.assert_array_equal(batches[0].mask.sum(axis=1),
                                      [n + 2 for n in lengths])  # + cls/sep

    def test_mask_matches_pad_id(self):
        for b in make_batches(self.encoded([4, 7, 1]), batch_size=2):
            np.testing.assert_array_equal(b.mask, b.token_ids != PAD)

    def test_shuffle_deterministic(self):
        enc = self.encoded(list(range(1, 11)))
        a = make_batches(enc, 3, seed=42, shuffle=True)
        b = make_batches(enc, 3, seed=42, shuffle=True)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.token_ids, y.token_ids)

    @pytest.mark.parametrize("task, shuffle, digest", [
        ("classification", False,
         "4cac3b685359c21b608ce96de5af79122749d1084ff75a27bbee961541085854"),
        ("classification", True,
         "929ac8114c17a13a05b818a7b3da0e30d02b626aabc4fb8073920b3f347acd24"),
        ("tagging", False, "741ebf9f34a8ceb36dd29715747de50139668985d92454150ce64f8725f99b7b"),
        ("tagging", True, "d7c93b4b252d7a30960a0cbda14d4e3ed36c35349952b3942b2998b1fcead948"),
    ])
    def test_batch_bytes_pinned(self, task, shuffle, digest):
        """A sha256 of every batch's arrays (dtype, shape, bytes), on sets whose
        longest rows are cut at max_len and whose last batch is partial."""
        if task == "classification":
            tok = build_tokenizer(synthetic_vocabulary(3))
            examples = generate_synthetic_classification(103, seed=3, noise=0.2, classes=3)
            batch_size = 16
        else:
            tok = build_tokenizer(tagging_vocabulary())
            examples = generate_synthetic_tagging(77, seed=4)
            batch_size = 10
        batches = make_batches(encode_examples(tok, examples, max_len=12), batch_size,
                               seed=5, shuffle=shuffle)
        assert batches[-1].size == 7
        h = hashlib.sha256()
        for b in batches:
            for a in (b.token_ids, b.mask, b.labels):
                h.update(f"{a.dtype.str}{a.shape}".encode())
                h.update(a.tobytes())
        assert h.hexdigest() == digest

    def test_batch_invariants_enforced(self):
        with pytest.raises(ValueError, match="real token"):
            Batch(token_ids=np.array([[5, 0], [0, 0]]), labels=np.array([0, 0]))
        batch = Batch(token_ids=np.array([[5, 0]]), labels=np.array([0]))
        assert batch.mask.tolist() == [[True, False]]


class TestDatasetAssembly:
    def test_splits_disjoint_and_deterministic(self):
        spec = DatasetSpec(n=200, noise=0.1, dev_fraction=0.2, test_fraction=0.1)
        tok1, train1, dev1, test1 = build_dataset(spec, seed=21)
        tok2, train2, dev2, test2 = build_dataset(spec, seed=21)
        assert len(train1) == 140 and len(dev1) == 40 and len(test1) == 20
        key = lambda exs: [tuple(ex.tokens) for ex in exs]
        assert key(train1) == key(train2)
        ids = lambda exs: {id(ex) for ex in exs}
        assert not ids(train1) & ids(dev1)
        assert not ids(train1) & ids(test1)
        assert not ids(dev1) & ids(test1)
        assert len(ids(train1) | ids(dev1) | ids(test1)) == 200
        assert tok1.fingerprint() == tok2.fingerprint()

    def test_spec_is_frozen(self):
        """build_dataset trusts the checks a spec passed at construction."""
        spec = DatasetSpec(source="delimited", path="rows.tsv")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.path = None

    def test_label_histogram(self):
        examples = generate_synthetic_classification(100, seed=23, noise=0.0)
        hist = label_histogram(examples)
        assert sum(hist.values()) == 100
        assert set(hist) <= {0, 1}
