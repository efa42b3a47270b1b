//! Per-unit score containers with additive subtree aggregation.
//!
//! IC, QIC and MQIC all share the same shape: every organizational unit
//! has an *own* score (from its own text), and a unit's total score is
//! the sum over its subtree — the paper's additive rule
//! `p_j = Σ_k p_{j,k}`. [`ContentScores`] stores the own scores aligned
//! with a [`DocumentIndex`](mrtweb_textproc::index::DocumentIndex)'s
//! entries and aggregates on demand.

use mrtweb_docmodel::lod::Lod;
use mrtweb_docmodel::unit::UnitPath;

/// The score of one unit (own text only).
#[derive(Debug, Clone, PartialEq)]
pub struct UnitScore {
    /// Path from the document root.
    pub path: UnitPath,
    /// The unit's level of detail.
    pub kind: Lod,
    /// Whether the unit is a normalization artifact.
    pub synthetic: bool,
    /// Score contributed by the unit's own text.
    pub own: f64,
}

/// Own-scores for every unit of a document, in preorder.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentScores {
    scores: Vec<UnitScore>,
}

impl ContentScores {
    /// Wraps per-unit own scores.
    pub fn new(scores: Vec<UnitScore>) -> Self {
        ContentScores { scores }
    }

    /// The per-unit own scores in preorder.
    pub fn scores(&self) -> &[UnitScore] {
        &self.scores
    }

    /// The own score at an exact path (0 if the path is unknown).
    pub fn own_at(&self, path: &UnitPath) -> f64 {
        self.scores
            .iter()
            .find(|s| &s.path == path)
            .map_or(0.0, |s| s.own)
    }

    /// The additive subtree score at `path`: own score plus all
    /// descendants. The root path returns [`ContentScores::total`].
    pub fn subtree_at(&self, path: &UnitPath) -> f64 {
        self.scores
            .iter()
            .filter(|s| path.is_prefix_of(&s.path))
            .map(|s| s.own)
            .sum()
    }

    /// Sum of every own score — 1.0 for a normalized measure over a
    /// document with any keyword mass.
    pub fn total(&self) -> f64 {
        self.scores.iter().map(|s| s.own).sum()
    }

    /// Paths of units at exactly `lod`, with their subtree scores.
    pub fn at_lod(&self, lod: Lod) -> Vec<(UnitPath, f64)> {
        self.scores
            .iter()
            .filter(|s| s.kind == lod)
            .map(|s| (s.path.clone(), self.subtree_at(&s.path)))
            .collect()
    }

    /// Ranks the given paths by descending subtree score; ties keep the
    /// input (document) order, making the sort stable and deterministic.
    pub fn rank(&self, paths: &[UnitPath]) -> Vec<UnitPath> {
        let mut scored: Vec<(UnitPath, f64)> = paths
            .iter()
            .map(|p| (p.clone(), self.subtree_at(p)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.into_iter().map(|(p, _)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores() -> ContentScores {
        let mk = |idx: &[usize], kind, own| UnitScore {
            path: UnitPath::from_indices(idx.iter().copied()),
            kind,
            synthetic: false,
            own,
        };
        ContentScores::new(vec![
            mk(&[], Lod::Document, 0.0),
            mk(&[0], Lod::Section, 0.1),
            mk(&[0, 0], Lod::Paragraph, 0.2),
            mk(&[1], Lod::Section, 0.3),
            mk(&[1, 0], Lod::Paragraph, 0.4),
        ])
    }

    #[test]
    fn subtree_is_additive() {
        let s = scores();
        assert!((s.subtree_at(&UnitPath::from_indices([0])) - 0.3).abs() < 1e-12);
        assert!((s.subtree_at(&UnitPath::from_indices([1])) - 0.7).abs() < 1e-12);
        assert!((s.subtree_at(&UnitPath::root()) - 1.0).abs() < 1e-12);
        assert!((s.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn own_at_exact_path() {
        let s = scores();
        assert_eq!(s.own_at(&UnitPath::from_indices([1, 0])), 0.4);
        assert_eq!(s.own_at(&UnitPath::from_indices([9])), 0.0);
    }

    #[test]
    fn at_lod_returns_subtree_scores() {
        let s = scores();
        let sections = s.at_lod(Lod::Section);
        assert_eq!(sections.len(), 2);
        assert!((sections[0].1 - 0.3).abs() < 1e-12);
        assert!((sections[1].1 - 0.7).abs() < 1e-12);
    }

    #[test]
    fn rank_sorts_descending_stable() {
        let s = scores();
        let paths: Vec<UnitPath> = vec![UnitPath::from_indices([0]), UnitPath::from_indices([1])];
        let ranked = s.rank(&paths);
        assert_eq!(ranked[0], UnitPath::from_indices([1]));
        assert_eq!(ranked[1], UnitPath::from_indices([0]));
    }

    #[test]
    fn rank_preserves_order_on_ties() {
        let mk = |idx: &[usize]| UnitPath::from_indices(idx.iter().copied());
        let s = ContentScores::new(vec![
            UnitScore {
                path: mk(&[0]),
                kind: Lod::Section,
                synthetic: false,
                own: 0.5,
            },
            UnitScore {
                path: mk(&[1]),
                kind: Lod::Section,
                synthetic: false,
                own: 0.5,
            },
        ]);
        let ranked = s.rank(&[mk(&[0]), mk(&[1])]);
        assert_eq!(ranked, vec![mk(&[0]), mk(&[1])]);
    }
}
