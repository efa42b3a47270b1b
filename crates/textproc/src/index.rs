//! The keyword-based logical index of a document.
//!
//! "A keyword-based logical index is established for each organizational
//! unit. The SC is created by deriving the information content of each
//! organizational unit from the logical index" (§3.3). The index stores
//! per-unit keyword occurrence counts (*own* text only — interior units
//! aggregate their descendants through the additive rule downstream in
//! `mrtweb-content`).

use std::collections::BTreeMap;

use mrtweb_docmodel::lod::Lod;
use mrtweb_docmodel::unit::UnitPath;

/// Index entry for one organizational unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitEntry {
    /// Path from the document root.
    pub path: UnitPath,
    /// The unit's level of detail.
    pub kind: Lod,
    /// Whether the unit was synthesized during normalization.
    pub synthetic: bool,
    /// The unit's title, if any.
    pub title: Option<String>,
    /// Keyword stem → occurrences in the unit's own text.
    pub counts: BTreeMap<String, u64>,
    /// The unit's own content bytes (for packetization budgeting).
    pub own_bytes: usize,
}

impl UnitEntry {
    /// Occurrences of `stem` in this unit's own text.
    pub fn count(&self, stem: &str) -> u64 {
        self.counts.get(stem).copied().unwrap_or(0)
    }

    /// Total keyword occurrences in this unit's own text.
    pub fn total_occurrences(&self) -> u64 {
        self.counts.values().sum()
    }
}

/// The logical index of a whole document.
///
/// Entries appear in preorder; entry 0 is the document root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocumentIndex {
    entries: Vec<UnitEntry>,
    totals: BTreeMap<String, u64>,
}

impl DocumentIndex {
    /// Assembles an index from per-unit entries.
    ///
    /// Document-wide totals are derived by summation.
    pub fn new(entries: Vec<UnitEntry>) -> Self {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for e in &entries {
            for (stem, n) in &e.counts {
                *totals.entry(stem.clone()).or_insert(0) += n;
            }
        }
        DocumentIndex { entries, totals }
    }

    /// Per-unit entries in preorder.
    pub fn entries(&self) -> &[UnitEntry] {
        &self.entries
    }

    /// The entry for an exact path, if present.
    pub fn entry_at(&self, path: &UnitPath) -> Option<&UnitEntry> {
        self.entries.iter().find(|e| &e.path == path)
    }

    /// Document-wide occurrence counts (the vector `V_D`).
    pub fn totals(&self) -> &BTreeMap<String, u64> {
        &self.totals
    }

    /// Occurrences of `stem` in the whole document (`|a_D|`).
    pub fn total_count(&self, stem: &str) -> u64 {
        self.totals.get(stem).copied().unwrap_or(0)
    }

    /// The largest whole-document occurrence count — the infinity norm
    /// `‖V_D‖∞` used by the keyword weight formula.
    pub fn max_count(&self) -> u64 {
        self.totals.values().copied().max().unwrap_or(0)
    }

    /// Number of distinct keywords (`|A_D|`).
    pub fn distinct_keywords(&self) -> usize {
        self.totals.len()
    }

    /// Sum of all keyword occurrences in the document.
    pub fn total_occurrences(&self) -> u64 {
        self.totals.values().sum()
    }

    /// Aggregated counts over a unit *subtree*: the unit's own counts
    /// plus all descendants (entries whose path has `path` as prefix).
    pub fn subtree_counts(&self, path: &UnitPath) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for e in &self.entries {
            if path.is_prefix_of(&e.path) {
                for (stem, n) in &e.counts {
                    *out.entry(stem.clone()).or_insert(0) += n;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(path: &[usize], kind: Lod, counts: &[(&str, u64)]) -> UnitEntry {
        UnitEntry {
            path: UnitPath::from_indices(path.iter().copied()),
            kind,
            synthetic: false,
            title: None,
            counts: counts.iter().map(|(s, n)| (s.to_string(), *n)).collect(),
            own_bytes: 0,
        }
    }

    fn index() -> DocumentIndex {
        DocumentIndex::new(vec![
            entry(&[], Lod::Document, &[]),
            entry(&[0], Lod::Section, &[("alpha", 2)]),
            entry(&[0, 0], Lod::Paragraph, &[("alpha", 1), ("beta", 3)]),
            entry(&[1], Lod::Section, &[("beta", 1)]),
        ])
    }

    #[test]
    fn totals_sum_entries() {
        let idx = index();
        assert_eq!(idx.total_count("alpha"), 3);
        assert_eq!(idx.total_count("beta"), 4);
        assert_eq!(idx.total_count("gamma"), 0);
        assert_eq!(idx.max_count(), 4);
        assert_eq!(idx.distinct_keywords(), 2);
        assert_eq!(idx.total_occurrences(), 7);
    }

    #[test]
    fn subtree_counts_aggregate_prefix() {
        let idx = index();
        let sec0 = idx.subtree_counts(&UnitPath::from_indices([0]));
        assert_eq!(sec0.get("alpha"), Some(&3));
        assert_eq!(sec0.get("beta"), Some(&3));
        let root = idx.subtree_counts(&UnitPath::root());
        assert_eq!(root.get("beta"), Some(&4));
    }

    #[test]
    fn entry_lookup() {
        let idx = index();
        let e = idx.entry_at(&UnitPath::from_indices([0, 0])).unwrap();
        assert_eq!(e.count("beta"), 3);
        assert_eq!(e.total_occurrences(), 4);
        assert!(idx.entry_at(&UnitPath::from_indices([9])).is_none());
    }

    #[test]
    fn empty_index() {
        let idx = DocumentIndex::new(Vec::new());
        assert_eq!(idx.max_count(), 0);
        assert_eq!(idx.distinct_keywords(), 0);
    }
}
