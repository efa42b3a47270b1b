//! The structural characteristic (SC).
//!
//! "The structural organization of a document could be modeled by a
//! tree-like indexing structure, called a structural characteristic"
//! (§3). The SC couples every organizational unit with its information
//! contents — static IC plus, when a query is given, QIC and MQIC — and
//! is what the server consults to order units for transmission and what
//! the paper's Table 1 prints.

use std::fmt;
use std::fmt::Write as _;

use mrtweb_docmodel::lod::Lod;
use mrtweb_docmodel::unit::UnitPath;
use mrtweb_textproc::index::DocumentIndex;

use crate::query::Query;
use crate::weights::keyword_weight;

/// Which content measure orders the transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Measure {
    /// Static information content (no query context).
    #[default]
    Ic,
    /// Query-based information content (product form).
    Qic,
    /// Modified query-based information content (sum form).
    Mqic,
}

impl fmt::Display for Measure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Measure::Ic => "IC",
            Measure::Qic => "QIC",
            Measure::Mqic => "MQIC",
        })
    }
}

/// A string did not name a content measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMeasureError(String);

impl fmt::Display for ParseMeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown content measure: {:?} (ic, qic, or mqic)",
            self.0
        )
    }
}

impl std::error::Error for ParseMeasureError {}

impl std::str::FromStr for Measure {
    type Err = ParseMeasureError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ic" => Ok(Measure::Ic),
            "qic" => Ok(Measure::Qic),
            "mqic" => Ok(Measure::Mqic),
            other => Err(ParseMeasureError(other.to_owned())),
        }
    }
}

/// One row of the structural characteristic.
#[derive(Debug, Clone, PartialEq)]
pub struct ScEntry {
    /// Path from the document root.
    pub path: UnitPath,
    /// The unit's level of detail.
    pub kind: Lod,
    /// Whether the unit is a normalization artifact.
    pub synthetic: bool,
    /// The unit's title, if any.
    pub title: Option<String>,
    /// Subtree information content `p_i`.
    pub ic: f64,
    /// Subtree QIC `q^Q_i` (0 without a query).
    pub qic: f64,
    /// Subtree MQIC `q̃^Q_i` (equals IC without a query).
    pub mqic: f64,
    /// Content bytes of the unit subtree.
    pub bytes: usize,
}

/// The structural characteristic of a document.
#[derive(Debug, Clone, PartialEq)]
pub struct StructuralCharacteristic {
    entries: Vec<ScEntry>,
}

/// The per-keyword factors of the three measures, computed once per
/// distinct stem of the document.
#[derive(Debug, Clone, Copy)]
struct StemWeights {
    /// `ω_a`.
    doc: f64,
    /// `ω^Q_a`.
    query: f64,
    /// `ω_a + λ·ω^Q_a`.
    combined: f64,
}

impl StemWeights {
    fn new(stem: &str, doc_count: u64, max: u64, query: &Query, lambda: f64) -> Self {
        let doc = keyword_weight(doc_count, max);
        let query = query.weight(stem);
        StemWeights {
            doc,
            query,
            combined: doc + lambda * query,
        }
    }

    /// The IC, QIC and MQIC terms of `n` occurrences, evaluated exactly
    /// as [`crate::ic`], [`crate::qic`] and [`crate::mqic`] write them.
    fn terms(self, n: u64) -> [f64; 3] {
        let n = n as f64;
        let nw = n * self.doc;
        [nw, nw * self.query, n * self.combined]
    }
}

/// Column-wise sums of term triples, each column folded left to right
/// from the value `Iterator::sum` starts at. Every column is therefore
/// bit-identical to summing it alone with `.sum()`, down to the sign of
/// an empty sum — which `rank` and the planner see through `total_cmp`.
fn column_sums(terms: impl Iterator<Item = [f64; 3]>) -> [f64; 3] {
    let zero: f64 = std::iter::empty::<f64>().sum();
    terms.fold([zero; 3], |acc, t| {
        [acc[0] + t[0], acc[1] + t[1], acc[2] + t[2]]
    })
}

impl StructuralCharacteristic {
    /// Builds the SC from a logical index, with an optional query for
    /// the QIC/MQIC columns.
    ///
    /// One pass: the keyword weights are computed once per distinct
    /// stem, each unit's own IC, QIC and MQIC come from one walk over
    /// its postings, and each subtree column sums the contiguous
    /// preorder run of the unit and its descendants. Every value is
    /// bit-identical to composing [`InformationContent`],
    /// [`QueryContent`] and [`ModifiedQueryContent`] with
    /// [`ContentScores::subtree_at`] — the paper's definitions, which
    /// the property tests keep as the oracle.
    ///
    /// [`InformationContent`]: crate::ic::InformationContent
    /// [`QueryContent`]: crate::qic::QueryContent
    /// [`ModifiedQueryContent`]: crate::mqic::ModifiedQueryContent
    /// [`ContentScores::subtree_at`]: crate::scores::ContentScores::subtree_at
    pub fn from_index(index: &DocumentIndex, query: Option<&Query>) -> Self {
        // No query is the empty query: every ω^Q_a is 0, so QIC is 0
        // everywhere and MQIC (λ = 0) reduces to IC term for term.
        let no_query = Query::new();
        let query = query.unwrap_or(&no_query);
        let max = index.max_count().max(1);
        let lambda = if query.total_occurrences() > 0 {
            index.total_occurrences() as f64 / query.total_occurrences() as f64
        } else {
            0.0
        };
        let stems: Vec<&str> = index.totals().keys().map(String::as_str).collect();
        let weights: Vec<StemWeights> = index
            .totals()
            .iter()
            .map(|(stem, &n)| StemWeights::new(stem, n, max, query, lambda))
            .collect();
        let denom = column_sums(
            weights
                .iter()
                .zip(index.totals().values())
                .map(|(w, &n)| w.terms(n)),
        );

        let units = index.entries();
        let own: Vec<[f64; 3]> = units
            .iter()
            .map(|e| {
                // A unit's stems are sorted like the totals: merge-walk.
                let mut at = 0;
                let num = column_sums(e.counts.iter().map(|(stem, &n)| {
                    while stems.get(at).is_some_and(|s| *s < stem.as_str()) {
                        at += 1;
                    }
                    let w = match stems.get(at) {
                        Some(s) if *s == stem => weights[at],
                        // Not reached: the totals are summed from the units.
                        _ => StemWeights::new(stem, 0, max, query, lambda),
                    };
                    w.terms(n)
                }));
                std::array::from_fn(|c| {
                    if denom[c] > 0.0 {
                        num[c] / denom[c]
                    } else {
                        0.0
                    }
                })
            })
            .collect();

        let entries = units
            .iter()
            .enumerate()
            .map(|(i, e)| {
                // Preorder: the descendants directly follow the unit.
                let end = i
                    + 1
                    + units[i + 1..]
                        .iter()
                        .take_while(|d| e.path.is_prefix_of(&d.path))
                        .count();
                let [ic, qic, mqic] = column_sums(own[i..end].iter().copied());
                ScEntry {
                    path: e.path.clone(),
                    kind: e.kind,
                    synthetic: e.synthetic,
                    title: e.title.clone(),
                    ic,
                    qic,
                    mqic,
                    bytes: units[i..end].iter().map(|d| d.own_bytes).sum(),
                }
            })
            .collect();
        StructuralCharacteristic { entries }
    }

    /// All rows in preorder (the root first).
    pub fn entries(&self) -> &[ScEntry] {
        &self.entries
    }

    /// The row for an exact path.
    pub fn entry_at(&self, path: &UnitPath) -> Option<&ScEntry> {
        self.entries.iter().find(|e| &e.path == path)
    }

    /// The chosen measure of a row.
    pub fn value(entry: &ScEntry, measure: Measure) -> f64 {
        match measure {
            Measure::Ic => entry.ic,
            Measure::Qic => entry.qic,
            Measure::Mqic => entry.mqic,
        }
    }

    /// Ranks the given unit paths in descending order of the measure
    /// (ties keep document order) — the transmission order of §4.2.
    pub fn rank(&self, paths: &[UnitPath], measure: Measure) -> Vec<UnitPath> {
        let mut scored: Vec<(UnitPath, f64)> = paths
            .iter()
            .map(|p| {
                let v = self.entry_at(p).map_or(0.0, |e| Self::value(e, measure));
                (p.clone(), v)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.into_iter().map(|(p, _)| p).collect()
    }

    /// Renders the Table 1 layout: one row per non-root unit with its
    /// label and the three content columns.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("Sect./Subsect./Para.      IC p       QIC q^Q    MQIC q~Q\n");
        for e in &self.entries {
            if e.path.is_root() {
                continue;
            }
            let indent = "  ".repeat(e.path.depth().saturating_sub(1));
            let label = format!("{indent}{}", e.path);
            let _ = writeln!(
                out,
                "{label:<25} {ic:.5}    {qic:.5}    {mqic:.5}",
                ic = e.ic,
                qic = e.qic,
                mqic = e.mqic,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrtweb_docmodel::document::Document;
    use mrtweb_textproc::pipeline::ScPipeline;

    fn sc(xml: &str, query: Option<&str>) -> StructuralCharacteristic {
        let doc = Document::parse_xml(xml).unwrap();
        let pipeline = ScPipeline::default();
        let idx = pipeline.run(&doc);
        let q = query.map(|q| Query::parse(q, &pipeline));
        StructuralCharacteristic::from_index(&idx, q.as_ref())
    }

    const DOC: &str = "<document>\
        <section><title>Mobile</title><paragraph>mobile web browsing</paragraph></section>\
        <section><title>Other</title><paragraph>database storage engines</paragraph></section>\
        </document>";

    #[test]
    fn measure_parses_case_insensitively_and_round_trips() {
        for (s, m) in [
            ("ic", Measure::Ic),
            ("IC", Measure::Ic),
            ("qic", Measure::Qic),
            ("QIC", Measure::Qic),
            ("MqIc", Measure::Mqic),
        ] {
            assert_eq!(s.parse::<Measure>().unwrap(), m);
        }
        for m in [Measure::Ic, Measure::Qic, Measure::Mqic] {
            assert_eq!(m.to_string().parse::<Measure>().unwrap(), m);
        }
        assert!("quality".parse::<Measure>().is_err());
        assert!("".parse::<Measure>().is_err());
    }

    #[test]
    fn root_row_sums_to_one() {
        let sc = sc(DOC, Some("mobile"));
        let root = sc.entry_at(&UnitPath::root()).unwrap();
        assert!((root.ic - 1.0).abs() < 1e-9);
        assert!((root.qic - 1.0).abs() < 1e-9);
        assert!((root.mqic - 1.0).abs() < 1e-9);
    }

    #[test]
    fn without_query_qic_is_zero_and_mqic_equals_ic() {
        let sc = sc(DOC, None);
        for e in sc.entries() {
            assert_eq!(e.qic, 0.0);
            assert!((e.mqic - e.ic).abs() < 1e-12);
        }
    }

    #[test]
    fn rank_by_qic_puts_matching_section_first() {
        let sc = sc(DOC, Some("database storage"));
        let paths: Vec<UnitPath> = vec![UnitPath::from_indices([0]), UnitPath::from_indices([1])];
        let ranked = sc.rank(&paths, Measure::Qic);
        assert_eq!(ranked[0], UnitPath::from_indices([1]));
    }

    #[test]
    fn rank_by_ic_vs_qic_can_differ() {
        // IC ranks by static mass; QIC by query match.
        let sc = sc(DOC, Some("database"));
        let paths: Vec<UnitPath> = vec![UnitPath::from_indices([0]), UnitPath::from_indices([1])];
        let by_qic = sc.rank(&paths, Measure::Qic);
        assert_eq!(by_qic[0], UnitPath::from_indices([1]));
    }

    #[test]
    fn bytes_aggregate_subtrees() {
        let sc = sc(DOC, None);
        let root = sc.entry_at(&UnitPath::root()).unwrap();
        let s0 = sc.entry_at(&UnitPath::from_indices([0])).unwrap();
        let s1 = sc.entry_at(&UnitPath::from_indices([1])).unwrap();
        assert_eq!(root.bytes, s0.bytes + s1.bytes);
        assert!(s0.bytes > 0);
    }

    #[test]
    fn table_renders_every_non_root_unit() {
        let sc = sc(DOC, Some("mobile web browsing"));
        let table = sc.render_table();
        let rows = table.lines().count() - 1; // header
        assert_eq!(rows, sc.entries().len() - 1);
        assert!(table.contains("IC p"));
        assert!(table.contains("QIC"));
    }

    #[test]
    fn measure_display() {
        assert_eq!(Measure::Ic.to_string(), "IC");
        assert_eq!(Measure::Qic.to_string(), "QIC");
        assert_eq!(Measure::Mqic.to_string(), "MQIC");
    }
}
