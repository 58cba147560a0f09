"""Evaluation metrics: plain accuracy, taxonomy-relaxed WUPS, consensus accuracy.

The taxonomy is a plain text file with one `child parent` edge per line and a
single root.  A node named like `bat.2` is a sense of the term `bat`; term
similarity maximizes over sense pairs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .data import normalize_answer
from .errors import DataFormatError, TaxonomyError

_SENSE_SUFFIX = re.compile(r"\.\d+$")

# below-threshold similarities are down-weighted by this factor, following
# the metric's established convention
DOWNWEIGHT = 0.1


def _term_of(node: str) -> str:
    return _SENSE_SUFFIX.sub("", node)


class Taxonomy:
    """Rooted tree over answer terms; root depth is 1."""

    def __init__(self, parent: dict[str, str]):
        nodes = set(parent) | set(parent.values())
        roots = sorted(n for n in nodes if n not in parent)
        if len(roots) != 1:
            raise TaxonomyError(f"taxonomy must have exactly one root, found {roots}")
        self.root = roots[0]
        self._parent = parent
        self._depth: dict[str, int] = {self.root: 1}
        for node in nodes:
            self._depth_of(node, trail=set())
        self._senses: dict[str, list[str]] = {}
        for node in sorted(nodes):
            self._senses.setdefault(normalize_answer(_term_of(node)), []).append(node)

    def _depth_of(self, node: str, trail: set) -> int:
        if node in self._depth:
            return self._depth[node]
        if node in trail:
            raise TaxonomyError(f"cycle through {node!r}")
        trail.add(node)
        d = self._depth_of(self._parent[node], trail) + 1
        self._depth[node] = d
        return d

    @classmethod
    def from_text(cls, text: str) -> "Taxonomy":
        parent: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise TaxonomyError(f"line {lineno}: expected 'child parent', got {line!r}")
            child, par = parts
            if child == par:
                raise TaxonomyError(f"line {lineno}: node {child!r} cannot parent itself")
            if child in parent:
                raise TaxonomyError(f"line {lineno}: node {child!r} already has a parent")
            parent[child] = par
        if not parent:
            raise TaxonomyError("taxonomy file has no edges")
        return cls(parent)

    @classmethod
    def from_file(cls, path) -> "Taxonomy":
        path = Path(path)
        if not path.exists():
            raise TaxonomyError(f"taxonomy file not found: {path}")
        try:
            text = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as e:
            raise TaxonomyError(f"{path}: not UTF-8 ({e})") from e
        return cls.from_text(text)

    def depth(self, node: str) -> int:
        return self._depth[node]

    def resolve(self, term: str) -> list[str]:
        """Node senses for a term; empty when unresolvable."""
        return self._senses.get(normalize_answer(term), [])

    def _ancestor_depths(self, node: str) -> dict[str, int]:
        out = {}
        while True:
            out[node] = self._depth[node]
            if node == self.root:
                return out
            node = self._parent[node]


def wu_palmer(a: str, b: str, taxonomy: Taxonomy) -> float:
    """Taxonomy similarity in [0, 1]: twice the deepest common ancestor's
    depth over the sum of node depths, maximized over senses.

    An unresolvable term scores 0.
    """
    best = 0.0
    for na in taxonomy.resolve(a):
        anc_a = taxonomy._ancestor_depths(na)
        for nb in taxonomy.resolve(b):
            common = 0
            for node, depth in taxonomy._ancestor_depths(nb).items():
                if node in anc_a and depth > common:
                    common = depth
            sim = 2.0 * common / (taxonomy.depth(na) + taxonomy.depth(nb))
            if sim > best:
                best = sim
    return best


def thresholded_mu(a: str, t: str, taxonomy: Taxonomy, threshold: float) -> float:
    """Wu-Palmer similarity, down-weighted by 0.1 below the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise DataFormatError(f"threshold must be in [0, 1], got {threshold}")
    sim = wu_palmer(a, t, taxonomy)
    return sim if sim >= threshold else DOWNWEIGHT * sim


@dataclass
class WupsReport:
    threshold: float
    score: float
    n_records: int
    empty_prediction_records: int = 0
    unresolved_terms: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "score": self.score,
            "records": self.n_records,
            "empty_prediction_records": self.empty_prediction_records,
            "unresolved_terms": self.unresolved_terms,
        }


def wups(records, taxonomy: Taxonomy, threshold: float) -> WupsReport:
    """Set-to-set relaxed accuracy.

    Per record, every predicted answer is scored against its best ground
    truth and vice versa; the two max-products are combined pessimistically
    (min) and averaged over records.  A record with no predictions scores 0.
    """
    records = list(records)
    if not records:
        raise DataFormatError("wups needs at least one record")
    unresolved = set()
    empty = 0
    total = 0.0
    for i, (preds, truths) in enumerate(records):
        if not truths:
            raise DataFormatError(f"record {i}: ground-truth answer set is empty")
        for term in list(preds) + list(truths):
            if not taxonomy.resolve(term):
                unresolved.add(normalize_answer(term))
        if not preds:
            empty += 1
            continue
        forward = 1.0
        for a in preds:
            forward *= max(thresholded_mu(a, t, taxonomy, threshold) for t in truths)
        backward = 1.0
        for t in truths:
            backward *= max(thresholded_mu(a, t, taxonomy, threshold) for a in preds)
        total += min(forward, backward)
    return WupsReport(
        threshold=threshold,
        score=total / len(records),
        n_records=len(records),
        empty_prediction_records=empty,
        unresolved_terms=sorted(unresolved),
    )


def vqa_accuracy(predictions, annotator_answers) -> float:
    """Consensus accuracy: an answer is fully right once three annotators
    agree; fewer agreements earn proportional credit."""
    predictions = list(predictions)
    annotator_answers = list(annotator_answers)
    if len(predictions) != len(annotator_answers):
        raise DataFormatError(
            f"{len(predictions)} predictions vs {len(annotator_answers)} answer lists"
        )
    if not predictions:
        raise DataFormatError("vqa_accuracy needs at least one example")
    total = 0.0
    for pred, annotators in zip(predictions, annotator_answers):
        if not annotators:
            raise DataFormatError("an example has no annotator answers")
        p = normalize_answer(pred) if pred is not None else None
        matches = sum(1 for t in annotators if normalize_answer(t) == p)
        total += min(matches / 3.0, 1.0)
    return total / len(predictions)


def plain_accuracy(predictions, truths) -> float:
    """Exact-match fraction against single ground-truth answers."""
    predictions = list(predictions)
    truths = list(truths)
    if len(predictions) != len(truths):
        raise DataFormatError(f"{len(predictions)} predictions vs {len(truths)} truths")
    if not predictions:
        raise DataFormatError("plain_accuracy needs at least one example")
    hits = sum(
        1
        for p, t in zip(predictions, truths)
        if p is not None and normalize_answer(p) == normalize_answer(t)
    )
    return hits / len(predictions)
