import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylabels import (
    DataFormatError,
    Dataset,
    Instance,
    LabelSet,
    SplitSpec,
    ValidationError,
    evaluate,
    generate_synthetic_corpus,
    load_dataset,
    save_dataset,
    split_dataset,
    synthetic_class_vocabularies,
    train_vanilla,
)


class TestLoadSave:
    def test_tsv_roundtrip_small(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("id\ttext\tlabel\nr1\thello world\ta\nr2\tbye\tb\n"
                        "r3\tagain\ta\n", encoding="utf-8")
        d = load_dataset(path, "tsv")
        assert len(d.label_set) == 2
        assert len(d) == 3
        assert d.instances[0].observed_label == 0
        assert d.instances[1].observed_label == 1

    def test_label_not_in_sidecar(self, tmp_path):
        (tmp_path / "labels.txt").write_text("a\nb\n", encoding="utf-8")
        path = tmp_path / "corpus.tsv"
        path.write_text("id\ttext\tlabel\nr1\thello\tc\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="'c'"):
            load_dataset(path, "tsv")

    @pytest.mark.parametrize("fmt, body, line", [
        ("jsonl", b'{"id": "r1", "text": "a", "label": "x"}\r\n'
                  b'{"id": "r2", "text": "b \xed\xa0\x80", "label": "y"}\n', 2),
        ("tsv", b"id\ttext\tlabel\nr1\ta\tx\rr2\tb\ty\nr3\tc \xff\tx\n", 4),
    ], ids=["jsonl", "tsv"])
    def test_bytes_not_utf8_name_the_line(self, tmp_path, fmt, body, line):
        path = tmp_path / f"corpus.{fmt}"
        path.write_bytes(body)
        with pytest.raises(DataFormatError,
                           match=f"^line {line}: corpus.{fmt} is not UTF-8") as info:
            load_dataset(path, fmt)
        assert info.value.line == line

    def test_sidecar_not_utf8_is_named(self, tmp_path):
        (tmp_path / "labels.txt").write_bytes(b"a\nb\xed\xa0\x80\n")
        path = tmp_path / "corpus.tsv"
        path.write_text("id\ttext\tlabel\nr1\thello\ta\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="^line 2: labels.txt is not UTF-8"):
            load_dataset(path, "tsv")

    def test_jsonl_annotator_labels(self, tmp_path):
        # round-trip oracle: write known instances, read back, compare
        path = tmp_path / "corpus.jsonl"
        rows = [
            {"id": "x1", "text": "t one", "label": "b", "gold_label": "a",
             "annotator_labels": ["b", "a", "b"]},
            {"id": "x2", "text": "t two", "label": "a"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                        encoding="utf-8")
        d = load_dataset(path, "jsonl")
        assert d.label_set.names == ("b", "a")
        assert d.instances[0].annotator_labels == (0, 1, 0)
        out = tmp_path / "copy.jsonl"
        save_dataset(d, out, "jsonl")
        assert load_dataset(out, "jsonl") == d

    def test_jsonl_integer_ids_and_labels_load_as_decimal_strings(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [{"id": 7, "text": "t one", "label": 1, "gold_label": 0,
                 "annotator_labels": [1, "0", 0]},
                {"id": "8", "text": "t two", "label": "0"}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                        encoding="utf-8")
        d = load_dataset(path, "jsonl")
        assert d.label_set.names == ("1", "0")
        assert [i.id for i in d.instances] == ["7", "8"]
        assert d.instances[0].gold_label == 1
        assert d.instances[0].annotator_labels == (0, 1, 1)

    def test_tsv_refuses_annotator_labels_with_nothing_written(self, tmp_path):
        corpus = generate_synthetic_corpus(3, 30, seed=1, annotators_per_instance=3)
        # one instance with annotator labels among ones without is refused too
        labels = LabelSet(("a", "b"))
        one = Dataset(labels, (Instance("r1", "x", 0),
                               Instance("r2", "y", 1, annotator_labels=(1, 0))))
        for dataset in (corpus, one):
            with pytest.raises(ValidationError,
                               match="TSV cannot store annotator labels"):
                save_dataset(dataset, tmp_path / "corpus.tsv", "tsv")
            assert list(tmp_path.iterdir()) == []

    def test_save_load_save_byte_stable(self, tmp_path, small_splits):
        train = small_splits[0].with_split(None)
        for fmt in ("jsonl", "tsv"):
            p1 = tmp_path / f"one.{fmt}"
            save_dataset(train, p1, fmt)
            reloaded = load_dataset(p1, fmt)
            p2 = tmp_path / f"two.{fmt}"
            save_dataset(reloaded, p2, fmt)
            assert p1.read_bytes() == p2.read_bytes()

    def test_duplicate_id_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x", "label": "l1"}\n'
                        '{"id": "b", "text": "y", "label": "l2"}\n'
                        '{"id": "a", "text": "z", "label": "l1"}\n',
                        encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3"):
            load_dataset(path, "jsonl")

    def test_malformed_rows(self, tmp_path):
        bad_json = tmp_path / "bad.jsonl"
        bad_json.write_text('{"id": "a", "text": "x", "label": "l1"}\nnot json\n',
                            encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(bad_json, "jsonl")
        bad_tsv = tmp_path / "bad.tsv"
        bad_tsv.write_text("id\ttext\tlabel\nr1\tonly-two-columns\n",
                           encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(bad_tsv, "tsv")

    def test_missing_file(self):
        with pytest.raises(ValidationError, match="no such file"):
            load_dataset("/nonexistent/corpus.jsonl")

    @pytest.mark.parametrize("field", ["id", "text", "label", "gold_label"])
    def test_lone_surrogate_rejected_on_load(self, tmp_path, field):
        rows = [{"id": "a", "text": "x", "label": "l1"},
                {"id": "b", "text": "y", "label": "l2", "gold_label": "l1"}]
        rows[1][field] += "\ud800"
        path = tmp_path / "corpus.jsonl"
        # json.dumps escapes the surrogate, so the file itself is valid UTF-8
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 2: invalid unicode"):
            load_dataset(path, "jsonl")

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    @pytest.mark.parametrize("where", ["id", "text", "label name"])
    def test_lone_surrogate_rejected_on_save_with_nothing_written(
            self, tmp_path, fmt, where):
        names = ("a", "b\udfff" if where == "label name" else "b")
        row_id = "r\ud800" if where == "id" else "r"
        text = "x \ud800 y" if where == "text" else "x y"
        dataset = Dataset(LabelSet(names), (Instance(row_id, text, 0),))
        with pytest.raises(ValidationError, match="cannot be saved as UTF-8"):
            save_dataset(dataset, tmp_path / f"corpus.{fmt}", fmt)
        assert list(tmp_path.iterdir()) == []


# Label names the labels.txt sidecar and a TSV row can hold: no control
# characters or line breaks, and no edge whitespace, which the reader strips.
SAVEABLE_NAMES = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
                         min_size=1, max_size=6).filter(lambda name: name == name.strip())
# Any label name, among them the kinds neither can hold: empty, edge
# whitespace, line breaks of every kind, tabs.
LABEL_NAMES = SAVEABLE_NAMES | st.text(st.characters(blacklist_categories=("Cs",)),
                                       max_size=6) \
    | st.sampled_from(["", " b", "b ", "b\u2028c", "b\x85", "b\x1cc", "b\tc", "\r"])


def saveable(name: str, fmt: str) -> bool:
    """Whether a label name survives the sidecar, which is read line by line
    with edge whitespace stripped, and in TSV a tab-separated row."""
    return name.strip() == name and name.splitlines() == [name] \
        and not (fmt == "tsv" and "\t" in name)


TSV_FREE_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                      blacklist_characters="\t\n\r"), max_size=30)


@st.composite
def corpora(draw, fmt, label_names=LABEL_NAMES):
    names = draw(st.lists(label_names, min_size=2, max_size=4, unique=True))
    ids = draw(st.lists(TSV_FREE_TEXT, min_size=1, max_size=8, unique=True))
    text = st.text(max_size=30) if fmt == "jsonl" else TSV_FREE_TEXT
    label = st.integers(0, len(names) - 1)
    annotators = st.none()
    if fmt == "jsonl":
        annotators = st.none() | st.lists(label, min_size=1, max_size=3).map(tuple)
    instances = [Instance(row_id, draw(text), draw(label), draw(st.none() | label),
                          draw(annotators)) for row_id in ids]
    return Dataset(LabelSet(tuple(names)), tuple(instances))


def save_load_save(dataset, fmt):
    """Bytes of the corpus file and its sidecar after each of two saves,
    with a load in between, plus the loaded dataset."""
    with tempfile.TemporaryDirectory() as tmp:
        saved = []
        for name in ("one", "two"):
            directory = Path(tmp) / name
            directory.mkdir()
            path = directory / f"corpus.{fmt}"
            save_dataset(dataset, path, fmt)
            saved.append((path.read_bytes(), (directory / "labels.txt").read_bytes()))
            dataset = load_dataset(path, fmt)
    return saved, dataset


class TestRoundTripProperties:
    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_save_load_save_byte_stable(self, fmt, data):
        dataset = data.draw(corpora(fmt))
        if not all(saveable(name, fmt) for name in dataset.label_set.names):
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / f"corpus.{fmt}"
                with pytest.raises(ValidationError, match="label names"):
                    save_dataset(dataset, path, fmt)
                assert list(Path(tmp).iterdir()) == []
            return
        (first, second), loaded = save_load_save(dataset, fmt)
        assert first == second
        assert loaded == dataset

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(corpora("tsv", SAVEABLE_NAMES), st.data())
    def test_tsv_rejects_tabs_and_line_breaks_in_texts(self, dataset, data):
        i = data.draw(st.integers(0, len(dataset) - 1))
        text = dataset.instances[i].text
        at = data.draw(st.integers(0, len(text)))
        bad = text[:at] + data.draw(st.sampled_from("\t\n\r")) + text[at:]
        rows = list(dataset.instances)
        rows[i] = replace(rows[i], text=bad)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.tsv"
            with pytest.raises(ValidationError, match="TSV"):
                save_dataset(Dataset(dataset.label_set, tuple(rows)), path, "tsv")
            assert not path.exists()


class TestValidation:
    def test_label_out_of_range(self):
        labels = LabelSet(("a", "b"))
        with pytest.raises(ValidationError, match="out of range"):
            Dataset(labels, (Instance("i", "t", 2),))

    def test_duplicate_instance_ids(self):
        labels = LabelSet(("a", "b"))
        with pytest.raises(ValidationError, match="duplicate"):
            Dataset(labels, (Instance("i", "t", 0), Instance("i", "u", 1)))

    def test_with_observed_label_out_of_range(self):
        corpus = generate_synthetic_corpus(3, 12, 5, 0.0, seed=1)
        with pytest.raises(ValidationError, match="out of range"):
            corpus.with_observed([3] + corpus.observed().tolist()[1:])

    def test_label_set_needs_two(self):
        with pytest.raises(ValidationError):
            LabelSet(("only",))
        with pytest.raises(ValidationError, match="unique"):
            LabelSet(("a", "a"))


class TestSplit:
    def test_sizes_10_8_1_1(self):
        corpus = generate_synthetic_corpus(2, 10, 5, 0.0, seed=1)
        tr, va, te = split_dataset(corpus, SplitSpec(0.8, 0.1, 0.1, seed=7))
        assert (len(tr), len(va), len(te)) == (8, 1, 1)
        assert (tr.split, va.split, te.split) == ("train", "validation", "test")

    def test_deterministic(self):
        corpus = generate_synthetic_corpus(2, 10, 5, 0.0, seed=1)
        a = split_dataset(corpus, SplitSpec(0.8, 0.1, 0.1, seed=7))
        b = split_dataset(corpus, SplitSpec(0.8, 0.1, 0.1, seed=7))
        assert a == b

    def test_partition_property(self):
        # disjoint and jointly exhaustive for random sizes/fractions
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(3, 200))
            cuts = np.sort(rng.random(2))
            fracs = (float(cuts[0]), float(cuts[1] - cuts[0]),
                     float(1.0 - cuts[1]))
            if min(fracs) * n < 1:
                continue
            corpus = generate_synthetic_corpus(2, n, 5, 0.0,
                                               seed=int(rng.integers(1 << 30)))
            spec = SplitSpec(*fracs, seed=int(rng.integers(1 << 30)))
            parts = split_dataset(corpus, spec)
            ids = [inst.id for part in parts for inst in part]
            assert len(ids) == n
            assert set(ids) == {inst.id for inst in corpus}

    def test_empty_required_split_errors(self):
        corpus = generate_synthetic_corpus(2, 4, 5, 0.0, seed=1)
        with pytest.raises(ValidationError, match="empty"):
            split_dataset(corpus, SplitSpec(0.9, 0.05, 0.05, seed=0))

    def test_resplitting_test_split_rejected(self, small_splits):
        with pytest.raises(ValidationError):
            split_dataset(small_splits[2], SplitSpec(0.5, 0.25, 0.25, seed=0))


class TestSyntheticCorpus:
    def test_disjoint_vocabularies_at_zero_overlap(self):
        corpus = generate_synthetic_corpus(4, 200, 10, 0.0, seed=3)
        by_class = {}
        for inst in corpus:
            by_class.setdefault(inst.gold_label, set()).update(inst.text.split())
        classes = sorted(by_class)
        for i in classes:
            for j in classes:
                if i < j:
                    assert not (by_class[i] & by_class[j])

    def test_full_overlap_shares_one_vocabulary(self):
        vocabs = synthetic_class_vocabularies(4, 10, 1.0)
        assert all(set(v) == set(vocabs[0]) for v in vocabs)

    def test_separable_corpus_trains_to_99(self, small_splits, tiny_featurizer,
                                           fast_config):
        train, val, test = small_splits
        params, _ = train_vanilla(train, val, fast_config, tiny_featurizer)
        assert evaluate(params, test, tiny_featurizer) >= 0.99

    def test_full_overlap_accuracy_near_chance(self, tiny_featurizer, fast_config):

        corpus = generate_synthetic_corpus(5, 2000, 20, 1.0, seed=9)
        train, val, test = split_dataset(corpus, SplitSpec(0.6, 0.2, 0.2, seed=9))
        accs = []
        for seed in range(3):
            params, _ = train_vanilla(train, val, replace(fast_config, seed=seed),
                                      tiny_featurizer)
            accs.append(evaluate(params, test, tiny_featurizer))
        assert abs(np.mean(accs) - 0.2) <= 0.05

    def test_same_seed_identical(self, tmp_path):
        kwargs = dict(n_classes=3, n_instances=50, vocab_per_class=8,
                      overlap=0.25, seed=42, annotators_per_instance=2)
        a = generate_synthetic_corpus(**kwargs)
        b = generate_synthetic_corpus(**kwargs)
        assert a == b
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(a, pa, "jsonl")
        save_dataset(b, pb, "jsonl")
        assert pa.read_bytes() == pb.read_bytes()

    def test_gold_equals_observed_initially(self):
        corpus = generate_synthetic_corpus(3, 60, 8, 0.3, seed=2)
        assert all(i.observed_label == i.gold_label for i in corpus)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            generate_synthetic_corpus(1, 50, 8, 0.0, seed=0)
        with pytest.raises(ValidationError):
            generate_synthetic_corpus(3, 2, 8, 0.0, seed=0)
        with pytest.raises(ValidationError):
            generate_synthetic_corpus(3, 50, 3, 0.0, seed=0)
        with pytest.raises(ValidationError):
            generate_synthetic_corpus(3, 50, 8, 1.5, seed=0)


class TestWithObserved:
    def test_equals_replace_based_reference(self):
        corpus = generate_synthetic_corpus(4, 120, 8, 0.25, seed=5,
                                           annotators_per_instance=3)
        rng = np.random.default_rng(0)
        observed = np.where(rng.random(len(corpus)) < 0.4,
                            rng.integers(0, 4, len(corpus)), corpus.observed())
        reference = replace(corpus, instances=tuple(
            replace(inst, observed_label=int(lab))
            for inst, lab in zip(corpus.instances, observed)))
        got = corpus.with_observed(observed)
        assert got == reference
        assert [type(i.observed_label) for i in got] == [int] * len(got)

    def test_reuses_unchanged_instances(self):
        corpus = generate_synthetic_corpus(3, 30, 5, 0.0, seed=2)
        observed = corpus.observed()
        observed[0] = (observed[0] + 1) % 3
        got = corpus.with_observed(observed)
        assert got.instances[0] is not corpus.instances[0]
        assert got.instances[0].observed_label == observed[0]
        assert all(a is b for a, b in zip(got.instances[1:], corpus.instances[1:]))
