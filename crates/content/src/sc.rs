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

/// Sums `(QIC, MQIC)` term pairs, each column folded left to right
/// from the value `Iterator::sum` starts at, so each is bit-identical
/// to summing that column alone with `.sum()` (as every other sum here
/// does), down to the sign of an empty sum, which `rank` and the
/// planner see through `total_cmp`.
fn sum_pairs(terms: impl Iterator<Item = (f64, f64)>) -> (f64, f64) {
    let zero: f64 = std::iter::empty::<f64>().sum();
    terms.fold((zero, zero), |(q, m), (tq, tm)| (q + tq, m + tm))
}

/// `num / denom`, or 0 when the document has no mass under the measure.
fn share(num: f64, denom: f64) -> f64 {
    if denom > 0.0 {
        num / denom
    } else {
        0.0
    }
}

/// A keyword's occurrences in one unit (or, among the totals, in the
/// whole document), with the factors every query reuses.
#[derive(Debug, Clone, Copy)]
struct Posting {
    /// Index into [`ScTables::stems`].
    stem: usize,
    /// Occurrences `n`.
    n: f64,
    /// The IC term `n·ω_a`.
    nw: f64,
}

/// The half of a document's structural characteristic that no query
/// changes: "the weights of keywords of a document remain unchanged
/// across queries, only the contribution by querying words need be
/// incorporated" (§3.3).
///
/// Built once per document version from its logical index, it holds
/// the keyword weights, every unit's postings in one flat array, each
/// unit's preorder subtree, and the whole IC and bytes columns.
/// [`ScTables::apply`] adds a query: it resolves the query's stems,
/// sums the flat arrays and the subtrees, and copies the rest.
#[derive(Debug, Clone)]
pub struct ScTables {
    /// The document's distinct stems, sorted (a stem's id is its index).
    stems: Vec<String>,
    /// `ω_a` per stem.
    omega: Vec<f64>,
    /// One posting per stem for the whole document (`|a_D|`): the
    /// terms the denominators sum.
    totals: Vec<Posting>,
    /// Every unit's postings, units in preorder, each unit's in stem order.
    postings: Vec<Posting>,
    /// Unit `i`'s postings are `postings[posting_start[i]..posting_start[i + 1]]`.
    posting_start: Vec<usize>,
    /// One past the last unit of unit `i`'s preorder subtree.
    subtree_end: Vec<usize>,
    /// `Σ_a |a_D|`, the numerator of λ.
    total_occurrences: u64,
    /// The rows, with `qic` and `mqic` at 0.
    rows: Vec<ScEntry>,
}

impl ScTables {
    /// Builds the query-independent tables of a logical index.
    pub fn new(index: &DocumentIndex) -> Self {
        let max = index.max_count().max(1);
        let stems: Vec<String> = index.totals().keys().cloned().collect();
        let omega: Vec<f64> = index
            .totals()
            .values()
            .map(|&n| keyword_weight(n, max))
            .collect();
        let posting = |stem: usize, n: u64| {
            let n = n as f64;
            Posting {
                stem,
                n,
                nw: n * omega[stem],
            }
        };
        let totals: Vec<Posting> = index
            .totals()
            .values()
            .enumerate()
            .map(|(stem, &n)| posting(stem, n))
            .collect();
        let units = index.entries();
        let mut postings = Vec::new();
        let mut posting_start = vec![0];
        for e in units {
            // Every stem is found: the totals are summed from the units.
            postings.extend(
                e.counts
                    .iter()
                    .filter_map(|(stem, &n)| Some(posting(stems.binary_search(stem).ok()?, n))),
            );
            posting_start.push(postings.len());
        }
        let subtree_end: Vec<usize> = units
            .iter()
            .enumerate()
            .map(|(i, e)| {
                // Preorder: the descendants directly follow the unit.
                i + 1
                    + units[i + 1..]
                        .iter()
                        .take_while(|d| e.path.is_prefix_of(&d.path))
                        .count()
            })
            .collect();
        let denom: f64 = totals.iter().map(|p| p.nw).sum();
        let own_ic: Vec<f64> = posting_start
            .windows(2)
            .map(|w| share(postings[w[0]..w[1]].iter().map(|p| p.nw).sum(), denom))
            .collect();
        let rows = units
            .iter()
            .zip(&subtree_end)
            .enumerate()
            .map(|(i, (e, &end))| ScEntry {
                path: e.path.clone(),
                kind: e.kind,
                synthetic: e.synthetic,
                title: e.title.clone(),
                ic: own_ic[i..end].iter().sum(),
                qic: 0.0,
                mqic: 0.0,
                bytes: units[i..end].iter().map(|d| d.own_bytes).sum(),
            })
            .collect();
        ScTables {
            stems,
            omega,
            totals,
            postings,
            posting_start,
            subtree_end,
            total_occurrences: index.total_occurrences(),
            rows,
        }
    }

    /// The structural characteristic under `query` (none: QIC 0 and
    /// MQIC equal to IC).
    ///
    /// Resolves the query's stems to ids, then sums the QIC and MQIC
    /// denominators over the totals and each unit's numerators over its
    /// postings, in the order the definitions sum them. A stem outside
    /// the query has `ω^Q_a = 0`, so its QIC term is `+0.0` and its
    /// MQIC term `n·(ω_a + λ·0)` is exactly the stored `n·ω_a`.
    pub fn apply(&self, query: Option<&Query>) -> StructuralCharacteristic {
        // No query is the empty query: every ω^Q_a is 0, so QIC is 0
        // everywhere and MQIC (λ = 0) reduces to IC term for term.
        let no_query = Query::new();
        let query = query.unwrap_or(&no_query);
        let lambda = if query.total_occurrences() > 0 {
            self.total_occurrences as f64 / query.total_occurrences() as f64
        } else {
            0.0
        };
        // `ω^Q_a` per stem id: 0 off the query, ≥ 1 on it.
        let mut omega_q = vec![0.0; self.stems.len()];
        for stem in query.stems() {
            if let Ok(id) = self.stems.binary_search_by(|s| s.as_str().cmp(stem)) {
                omega_q[id] = query.weight(stem);
            }
        }
        // A posting's QIC and MQIC terms, exactly as `crate::qic` and
        // `crate::mqic` write them.
        let terms = |p: &Posting| {
            let q = omega_q[p.stem];
            let mqic = if q == 0.0 {
                p.nw
            } else {
                p.n * (self.omega[p.stem] + lambda * q)
            };
            (p.nw * q, mqic)
        };
        let (qic_denom, mqic_denom) = sum_pairs(self.totals.iter().map(terms));
        let own: Vec<(f64, f64)> = self
            .posting_start
            .windows(2)
            .map(|w| {
                let (qic, mqic) = sum_pairs(self.postings[w[0]..w[1]].iter().map(terms));
                (share(qic, qic_denom), share(mqic, mqic_denom))
            })
            .collect();
        let entries = self
            .rows
            .iter()
            .zip(&self.subtree_end)
            .enumerate()
            .map(|(i, (row, &end))| {
                let (qic, mqic) = sum_pairs(own[i..end].iter().copied());
                ScEntry {
                    qic,
                    mqic,
                    ..row.clone()
                }
            })
            .collect();
        StructuralCharacteristic { entries }
    }
}

impl StructuralCharacteristic {
    /// Builds the SC from a logical index, with an optional query for
    /// the QIC/MQIC columns: [`ScTables::new`], then
    /// [`ScTables::apply`]. A caller that scores one document under
    /// many queries keeps the tables and applies each query to them.
    ///
    /// Every value is bit-identical to composing
    /// [`InformationContent`], [`QueryContent`] and
    /// [`ModifiedQueryContent`] with [`ContentScores::subtree_at`] — the
    /// paper's definitions, which the property tests keep as the
    /// oracle.
    ///
    /// [`InformationContent`]: crate::ic::InformationContent
    /// [`QueryContent`]: crate::qic::QueryContent
    /// [`ModifiedQueryContent`]: crate::mqic::ModifiedQueryContent
    /// [`ContentScores::subtree_at`]: crate::scores::ContentScores::subtree_at
    pub fn from_index(index: &DocumentIndex, query: Option<&Query>) -> Self {
        ScTables::new(index).apply(query)
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
