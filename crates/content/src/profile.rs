//! User profiles with relevance feedback.
//!
//! The paper surveys profile-based filtering (§2: profiles "capture
//! individual users' interests", updated through relevance feedback)
//! and proposes "intelligent prefetching based on information content
//! and user-profiling" as future work (§6). [`UserProfile`] is that
//! component: a weighted stem vector that
//!
//! * accumulates the keyword statistics of documents the user accepted
//!   (positive feedback) and discards those of rejected ones (negative
//!   feedback),
//! * decays exponentially so stale interests fade, and
//! * exports a standing [`Query`] so the whole QIC machinery — unit
//!   ranking, prefetch priorities — can run against the profile when
//!   the user has typed no explicit query.

use std::collections::BTreeMap;

use mrtweb_textproc::index::DocumentIndex;

use crate::query::Query;

/// A weighted interest vector over keyword stems.
///
/// # Example
///
/// ```
/// use mrtweb_content::profile::UserProfile;
/// use mrtweb_docmodel::document::Document;
/// use mrtweb_textproc::pipeline::ScPipeline;
///
/// # fn main() -> Result<(), mrtweb_docmodel::xml::ParseError> {
/// let pipeline = ScPipeline::default();
/// let read = Document::parse_xml(
///     "<document><paragraph>mobile wireless bandwidth mobile</paragraph></document>")?;
/// let mut profile = UserProfile::new(0.9, 1.0);
/// profile.accept(&pipeline.run(&read));
/// assert!(profile.interest("mobil") > profile.interest("bandwidth"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// stem → interest weight (may not go below zero).
    interests: BTreeMap<String, f64>,
    /// Multiplicative decay applied to every weight per feedback event.
    decay: f64,
    /// Learning rate for new evidence.
    rate: f64,
    /// Feedback events recorded.
    events: u64,
}

impl UserProfile {
    /// Creates an empty profile.
    ///
    /// `decay ∈ (0, 1]` fades old interests at every feedback event;
    /// `rate > 0` scales how strongly one document shifts the profile.
    ///
    /// # Panics
    ///
    /// Panics on parameters outside those ranges.
    pub fn new(decay: f64, rate: f64) -> Self {
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
        assert!(rate > 0.0, "learning rate must be positive");
        UserProfile {
            interests: BTreeMap::new(),
            decay,
            rate,
            events: 0,
        }
    }

    /// Positive feedback: the user read/kept this document.
    pub fn accept(&mut self, index: &DocumentIndex) {
        self.feedback(index, 1.0);
    }

    /// Negative feedback: the user discarded this document early.
    pub fn reject(&mut self, index: &DocumentIndex) {
        self.feedback(index, -0.5);
    }

    fn feedback(&mut self, index: &DocumentIndex, sign: f64) {
        // Normalize by document mass so long documents don't dominate.
        let total = index.total_occurrences().max(1) as f64;
        for w in self.interests.values_mut() {
            *w *= self.decay;
        }
        for (stem, &count) in index.totals() {
            let delta = sign * self.rate * count as f64 / total;
            let entry = self.interests.entry(stem.clone()).or_insert(0.0);
            *entry = (*entry + delta).max(0.0);
        }
        self.interests.retain(|_, w| *w > 1e-9);
        self.events += 1;
    }

    /// Current interest weight of a stem (0 if unknown).
    pub fn interest(&self, stem: &str) -> f64 {
        self.interests.get(stem).copied().unwrap_or(0.0)
    }

    /// Number of feedback events absorbed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Number of stems with positive interest.
    pub fn len(&self) -> usize {
        self.interests.len()
    }

    /// Whether the profile has learned nothing yet.
    pub fn is_empty(&self) -> bool {
        self.interests.is_empty()
    }

    /// The `top` most-interesting stems, strongest first.
    pub fn top_stems(&self, top: usize) -> Vec<(&str, f64)> {
        let mut v: Vec<(&str, f64)> = self
            .interests
            .iter()
            .map(|(s, &w)| (s.as_str(), w))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v.truncate(top);
        v
    }

    /// Exports a standing query from the `top` strongest interests.
    ///
    /// Weights are quantized to occurrence counts (the strongest stem
    /// maps to its proportional share of `granularity` occurrences), so
    /// the result plugs into the exact QIC formulas.
    pub fn to_query(&self, top: usize, granularity: u64) -> Query {
        let stems = self.top_stems(top);
        let max = stems.first().map_or(0.0, |&(_, w)| w);
        if max <= 0.0 {
            return Query::new();
        }
        Query::from_stems(stems.into_iter().map(|(s, w)| {
            let count = ((w / max) * granularity as f64).round() as u64;
            (s.to_owned(), count.max(1))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrtweb_docmodel::document::Document;
    use mrtweb_textproc::pipeline::ScPipeline;

    fn index(text: &str) -> DocumentIndex {
        let doc = Document::parse_xml(&format!(
            "<document><paragraph>{text}</paragraph></document>"
        ))
        .unwrap();
        ScPipeline::default().run(&doc)
    }

    #[test]
    fn accept_raises_interest() {
        let mut p = UserProfile::new(0.95, 1.0);
        p.accept(&index("mobile wireless mobile"));
        assert!(p.interest("mobil") > 0.0);
        assert!(p.interest("mobil") > p.interest("wireless"));
        assert_eq!(p.events(), 1);
    }

    #[test]
    fn reject_lowers_interest_but_not_below_zero() {
        let mut p = UserProfile::new(0.95, 1.0);
        p.accept(&index("database storage"));
        let before = p.interest("databas");
        p.reject(&index("database storage"));
        let after = p.interest("databas");
        assert!(after < before);
        p.reject(&index("database storage"));
        p.reject(&index("database storage"));
        assert!(p.interest("databas") >= 0.0);
    }

    #[test]
    fn decay_fades_stale_interests() {
        let mut p = UserProfile::new(0.5, 1.0);
        p.accept(&index("vintage topic"));
        let early = p.interest("vintag");
        for _ in 0..6 {
            p.accept(&index("fresh subject"));
        }
        assert!(
            p.interest("vintag") < early * 0.1,
            "old interest should fade"
        );
        assert!(p.interest("fresh") > p.interest("vintag"));
    }

    #[test]
    fn standing_query_reflects_top_interests() {
        let mut p = UserProfile::new(1.0, 1.0);
        for _ in 0..3 {
            p.accept(&index("mobile web mobile web mobile"));
        }
        p.accept(&index("gardening"));
        let q = p.to_query(2, 4);
        assert!(q.count("mobil") >= q.count("web"));
        assert_eq!(q.count("garden"), 0, "only the top-2 stems export");
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_profile_exports_empty_query() {
        let p = UserProfile::new(0.9, 1.0);
        assert!(p.is_empty());
        assert!(p.to_query(5, 4).is_empty());
        assert!(p.top_stems(3).is_empty());
    }

    #[test]
    fn long_documents_do_not_dominate() {
        let mut p = UserProfile::new(1.0, 1.0);
        p.accept(&index(&"niche ".repeat(3)));
        p.accept(&index(&"verbose ".repeat(300)));
        // Both normalized: equal single-stem documents get equal weight.
        assert!((p.interest("nich") - p.interest("verbos")).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "decay must be in")]
    fn bad_decay_panics() {
        let _ = UserProfile::new(0.0, 1.0);
    }
}
