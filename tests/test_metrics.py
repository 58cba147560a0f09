import itertools

import pytest

from dppnet.errors import DataFormatError, TaxonomyError
from dppnet.metrics import (
    Taxonomy,
    plain_accuracy,
    thresholded_mu,
    vqa_accuracy,
    wu_palmer,
    wups,
)

TOY = """
animal entity
cat animal
dog animal
plant entity
tree plant
flower plant
"""


@pytest.fixture
def toy():
    return Taxonomy.from_text(TOY)


class TestTaxonomy:
    def test_depths(self, toy):
        assert toy.depth("entity") == 1
        assert toy.depth("animal") == 2
        assert toy.depth("cat") == 3

    def test_from_shipped_file(self, toy_taxonomy_path):
        tax = Taxonomy.from_file(toy_taxonomy_path)
        assert tax.root == "entity"

    def test_two_roots_rejected(self):
        with pytest.raises(TaxonomyError, match="root"):
            Taxonomy.from_text("a roots1\nb roots2")

    def test_cycle_rejected(self):
        with pytest.raises(TaxonomyError, match="cycle"):
            Taxonomy.from_text("a b\nb a\nc root")

    def test_duplicate_parent_rejected(self):
        with pytest.raises(TaxonomyError, match="already has a parent"):
            Taxonomy.from_text("cat animal\ncat plant\nanimal root\nplant root")

    def test_self_edge_rejected(self):
        with pytest.raises(TaxonomyError, match="itself"):
            Taxonomy.from_text("a a")

    def test_empty_rejected(self):
        with pytest.raises(TaxonomyError, match="no edges"):
            Taxonomy.from_text("# only a comment\n")

    def test_bad_line_rejected(self):
        with pytest.raises(TaxonomyError, match="line 1"):
            Taxonomy.from_text("one two three")


class TestWuPalmer:
    def test_identity_is_one(self, toy):
        assert wu_palmer("cat", "cat", toy) == 1.0

    def test_siblings_hand_value(self, toy):
        # deepest shared ancestor sits at depth 2, both terms at depth 3
        assert wu_palmer("cat", "dog", toy) == pytest.approx(2 * 2 / 6, abs=1e-12)

    def test_cross_branch(self, toy):
        assert wu_palmer("cat", "tree", toy) == pytest.approx(2 * 1 / 6, abs=1e-12)

    def test_symmetry_all_pairs(self, toy):
        terms = ["entity", "animal", "cat", "dog", "plant", "tree", "flower"]
        for a, b in itertools.combinations(terms, 2):
            assert wu_palmer(a, b, toy) == wu_palmer(b, a, toy)

    def test_unresolvable_scores_zero(self, toy):
        assert wu_palmer("cat", "spaceship", toy) == 0.0

    def test_case_insensitive(self, toy):
        assert wu_palmer("CAT", "Dog", toy) == pytest.approx(2 / 3, abs=1e-12)

    def test_multi_sense_maximizes(self):
        tax = Taxonomy.from_text(
            "animal thing\nobject thing\nbat.1 animal\nbat.2 object\ncat animal"
        )
        direct = 2 * 2 / (3 + 3)  # the animal sense wins against cat
        assert wu_palmer("bat", "cat", tax) == pytest.approx(direct, abs=1e-12)
        assert wu_palmer("bat", "bat", tax) == 1.0


class TestThresholdedMu:
    def test_exact_match_any_threshold(self, toy):
        for t in (0.0, 0.5, 0.9, 1.0):
            assert thresholded_mu("cat", "cat", toy, t) == 1.0

    def test_below_threshold_downweighted(self, toy):
        assert thresholded_mu("cat", "dog", toy, 0.9) == pytest.approx(0.1 * 2 / 3, abs=1e-12)

    def test_zero_threshold_is_identity(self, toy):
        assert thresholded_mu("cat", "dog", toy, 0.0) == pytest.approx(2 / 3, abs=1e-12)

    def test_bad_threshold(self, toy):
        with pytest.raises(DataFormatError):
            thresholded_mu("cat", "dog", toy, 1.5)

    @pytest.mark.parametrize("threshold", [1.5, -0.1, float("nan")])
    def test_wups_checks_the_threshold_before_any_record(self, toy, threshold):
        # a record with no prediction never reaches thresholded_mu
        with pytest.raises(DataFormatError, match="threshold"):
            wups([([], ["cat"])], toy, threshold)


def brute_force_record(preds, truths, tax, threshold):
    forward = 1.0
    for a in preds:
        forward *= max(thresholded_mu(a, t, tax, threshold) for t in truths)
    backward = 1.0
    for t in truths:
        backward *= max(thresholded_mu(a, t, tax, threshold) for a in preds)
    return min(forward, backward)


class TestWups:
    def test_all_exact_matches(self, toy):
        records = [(["cat"], ["cat"]), (["tree"], ["tree"])]
        assert wups(records, toy, 0.9).score == 1.0

    def test_single_pair_reduction(self, toy):
        report = wups([(["cat"], ["dog"])], toy, 0.0)
        assert report.score == pytest.approx(2 / 3, abs=1e-12)

    def test_multi_answer_brute_force(self, toy):
        records = [(["cat", "dog"], ["cat"])]
        expected = brute_force_record(["cat", "dog"], ["cat"], toy, 0.0)
        assert wups(records, toy, 0.0).score == pytest.approx(expected, abs=1e-12)
        # hand value: forward 1.0 * (2/3); backward max(1.0, 2/3) = 1 -> 2/3
        assert expected == pytest.approx(2 / 3, abs=1e-12)

    def test_random_sets_match_brute_force(self, toy):
        import random

        terms = ["cat", "dog", "tree", "flower", "animal", "plant"]
        rng = random.Random(0)
        for _ in range(25):
            preds = rng.sample(terms, rng.randint(1, 3))
            truths = rng.sample(terms, rng.randint(1, 3))
            for threshold in (0.0, 0.9):
                expected = brute_force_record(preds, truths, toy, threshold)
                got = wups([(preds, truths)], toy, threshold).score
                assert got == pytest.approx(expected, abs=1e-12)

    def test_threshold_zero_dominates(self, toy):
        records = [(["cat"], ["dog"]), (["tree"], ["flower"]), (["cat"], ["cat"])]
        assert wups(records, toy, 0.0).score >= wups(records, toy, 0.9).score

    def test_empty_prediction_scores_zero_and_logged(self, toy):
        report = wups([([], ["cat"]), (["cat"], ["cat"])], toy, 0.0)
        assert report.score == pytest.approx(0.5)
        assert report.empty_prediction_records == 1

    def test_empty_truth_rejected(self, toy):
        with pytest.raises(DataFormatError):
            wups([(["cat"], [])], toy, 0.0)

    def test_unresolved_terms_recorded(self, toy):
        report = wups([(["warp drive"], ["cat"])], toy, 0.0)
        assert report.score == 0.0
        assert "warp drive" in report.unresolved_terms

    def test_flat_taxonomy_constant_similarity(self):
        tax = Taxonomy.from_text("a root\nb root\nc root")
        # distinct leaves: ancestor depth 1, leaves depth 2 -> 2*1/4
        assert wu_palmer("a", "b", tax) == pytest.approx(0.5, abs=1e-12)
        records = [(["a"], ["b"]), (["b"], ["c"])]
        assert wups(records, tax, 0.0).score == pytest.approx(0.5, abs=1e-12)


class TestVqaAccuracy:
    @pytest.mark.parametrize("n,expected", [(n, min(n / 3, 1.0)) for n in range(11)])
    def test_agreement_schedule(self, n, expected):
        annotators = ["yes"] * n + ["no"] * (10 - n)
        assert vqa_accuracy(["yes"], [annotators]) == pytest.approx(expected, abs=1e-12)

    def test_mean_over_examples(self):
        score = vqa_accuracy(["a", "b"], [["a"] * 10, ["x"] * 10])
        assert score == pytest.approx(0.5)

    def test_normalization(self):
        assert vqa_accuracy(["Yes "], [["yes", "YES", "yes", "no"]]) == 1.0

    def test_none_prediction_scores_zero(self):
        assert vqa_accuracy([None], [["yes"] * 10]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataFormatError):
            vqa_accuracy(["a"], [])


class TestPlainAccuracy:
    def test_extremes_and_half(self):
        assert plain_accuracy(["a", "b"], ["a", "b"]) == 1.0
        assert plain_accuracy(["a", "b"], ["x", "y"]) == 0.0
        assert plain_accuracy(["a", "b"], ["a", "y"]) == 0.5

    def test_none_counts_wrong(self):
        assert plain_accuracy([None, "a"], ["a", "a"]) == 0.5
