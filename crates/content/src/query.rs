//! Keyword queries.
//!
//! A query `Q` is treated symmetrically to a document (§3.2): its words
//! form an occurrence vector `V_Q`, and "a user might want to emphasize
//! a particular keyword by repeating it in order to give it a higher
//! weight". Querying words pass through the *same* lemmatize-and-filter
//! stages as document words so the two meet in one stem space.

use std::collections::BTreeMap;

use mrtweb_textproc::pipeline::ScPipeline;
use mrtweb_textproc::recognizer::tokenize;

use crate::weights::keyword_weight;

/// A keyword-based search query.
///
/// # Example
///
/// ```
/// use mrtweb_content::query::Query;
/// use mrtweb_textproc::pipeline::ScPipeline;
///
/// let pipeline = ScPipeline::default();
/// // Repeating "mobile" emphasizes it; "the" is filtered as a stop word.
/// let q = Query::parse("mobile mobile the web", &pipeline);
/// assert_eq!(q.count("mobil"), 2);
/// assert_eq!(q.count("web"), 1);
/// assert_eq!(q.count("the"), 0);
/// // The most frequent querying word weighs 1; rarer ones more.
/// assert_eq!(q.weight("mobil"), 1.0);
/// assert_eq!(q.weight("web"), 2.0);
/// assert_eq!(q.weight("absent"), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Query {
    counts: BTreeMap<String, u64>,
}

impl Query {
    /// An empty query (matches nothing; all QIC become 0).
    pub fn new() -> Self {
        Query::default()
    }

    /// Parses free text through the pipeline's normalization: stop words
    /// are dropped and the rest stemmed, exactly as document words are.
    pub fn parse(text: &str, pipeline: &ScPipeline) -> Self {
        let mut counts = BTreeMap::new();
        for word in tokenize(text) {
            if let Some(stem) = pipeline.normalize_word(&word) {
                *counts.entry(stem).or_insert(0u64) += 1;
            }
        }
        Query { counts }
    }

    /// Builds a query directly from `(stem, occurrences)` pairs —
    /// useful when the caller already normalized the words.
    pub fn from_stems<I, S>(stems: I) -> Self
    where
        I: IntoIterator<Item = (S, u64)>,
        S: Into<String>,
    {
        let mut counts = BTreeMap::new();
        for (s, n) in stems {
            if n > 0 {
                *counts.entry(s.into()).or_insert(0u64) += n;
            }
        }
        Query { counts }
    }

    /// Occurrences `|a_Q|` of a stem in the query.
    pub fn count(&self, stem: &str) -> u64 {
        self.counts.get(stem).copied().unwrap_or(0)
    }

    /// The infinity norm `‖V_Q‖∞` of the query occurrence vector.
    pub fn max_count(&self) -> u64 {
        self.counts.values().copied().max().unwrap_or(0)
    }

    /// Total occurrences `Σ_a |a_Q|` across the query.
    pub fn total_occurrences(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The querying-word weight `ω^Q_a`: the document weight formula
    /// applied to the query vector, and 0 for absent words.
    pub fn weight(&self, stem: &str) -> f64 {
        keyword_weight(self.count(stem), self.max_count().max(1))
    }

    /// Whether the query has no words.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The distinct querying stems.
    pub fn stems(&self) -> impl Iterator<Item = &str> {
        self.counts.keys().map(String::as_str)
    }

    /// Iterates `(stem, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(s, n)| (s.as_str(), *n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> ScPipeline {
        ScPipeline::default()
    }

    #[test]
    fn parse_normalizes_like_documents() {
        let q = Query::parse("Browsing browsed the WEB", &pipeline());
        assert_eq!(q.count("brows"), 2);
        assert_eq!(q.count("web"), 1);
        assert!(q.count("the") == 0);
    }

    #[test]
    fn repetition_emphasizes() {
        let q = Query::parse("cache cache cache network", &pipeline());
        assert_eq!(q.max_count(), 3);
        assert_eq!(q.weight("cach"), 1.0);
        assert!(q.weight("network") > 1.0);
    }

    #[test]
    fn empty_query_weights_are_zero() {
        let q = Query::new();
        assert!(q.is_empty());
        assert_eq!(q.weight("anything"), 0.0);
        assert_eq!(q.max_count(), 0);
    }

    #[test]
    fn from_stems_skips_zero_counts() {
        let q = Query::from_stems([("a", 2u64), ("b", 0), ("c", 1)]);
        assert_eq!(q.stems().count(), 2);
        assert_eq!(q.total_occurrences(), 3);
    }

    #[test]
    fn paper_table1_query_shape() {
        // Q = {browsing, mobile, web}: all distinct, so all weigh 1.
        let q = Query::parse("browsing mobile web", &pipeline());
        assert_eq!(q.stems().count(), 3);
        for (stem, _) in q.iter() {
            assert_eq!(q.weight(stem), 1.0);
        }
    }
}
