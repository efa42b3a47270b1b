//! Property-based tests for the content measures.

use proptest::prelude::*;

use mrtweb_content::ic::InformationContent;
use mrtweb_content::mqic::ModifiedQueryContent;
use mrtweb_content::qic::QueryContent;
use mrtweb_content::query::Query;
use mrtweb_content::sc::{ScEntry, StructuralCharacteristic};
use mrtweb_content::scores::{ContentScores, UnitScore};
use mrtweb_content::weights::keyword_weight;
use mrtweb_docmodel::document::Document;
use mrtweb_docmodel::gen::SyntheticDocSpec;
use mrtweb_docmodel::unit::UnitPath;
use mrtweb_textproc::index::DocumentIndex;
use mrtweb_textproc::pipeline::ScPipeline;

fn doc_and_index(
    seed: u64,
) -> (
    mrtweb_docmodel::document::Document,
    mrtweb_textproc::index::DocumentIndex,
) {
    let spec = SyntheticDocSpec {
        sections: 3,
        target_bytes: 1500,
        keyword_budget: 60,
        ..Default::default()
    };
    let doc = spec.generate(seed).document;
    let index = ScPipeline::default().run(&doc);
    (doc, index)
}

proptest! {
    /// Weight formula: monotone decreasing in count, equals 1 at the
    /// norm, and halving the count adds exactly one.
    #[test]
    fn weight_formula_properties(max in 1u64..10_000, frac in 1u64..100) {
        let count = (max * frac / 100).max(1);
        let w = keyword_weight(count, max);
        prop_assert!(w >= 1.0 - 1e-12);
        prop_assert_eq!(keyword_weight(max, max), 1.0);
        if count * 2 <= max {
            let w2 = keyword_weight(count * 2, max);
            prop_assert!((w - w2 - 1.0).abs() < 1e-9);
        }
    }

    /// IC always normalizes to 1 on keyword-bearing documents, every
    /// unit score is within [0, 1], and the root subtree equals the sum.
    #[test]
    fn ic_normalization_and_bounds(seed in any::<u64>()) {
        let (_, index) = doc_and_index(seed);
        let ic = InformationContent::from_index(&index);
        prop_assert!((ic.total() - 1.0).abs() < 1e-9);
        for s in ic.scores().scores() {
            prop_assert!(s.own >= -1e-12 && s.own <= 1.0 + 1e-12);
        }
        prop_assert!((ic.scores().subtree_at(&UnitPath::root()) - 1.0).abs() < 1e-9);
    }

    /// QIC is bounded by: zero for units without query words, total
    /// either 0 (no match) or 1 (match); MQIC always totals 1.
    #[test]
    fn qic_mqic_normalization(seed in any::<u64>(), pick in 0usize..20) {
        let (_, index) = doc_and_index(seed);
        // Build a query from an actual document stem (guaranteed match)
        // plus a nonsense word (guaranteed non-match).
        let stems: Vec<&String> = index.totals().keys().collect();
        prop_assume!(!stems.is_empty());
        let stem = stems[pick % stems.len()].clone();
        let q = Query::from_stems([(stem, 1u64), ("zzzzzz".to_owned(), 1)]);
        let qic = QueryContent::from_index(&index, &q);
        prop_assert!((qic.total() - 1.0).abs() < 1e-9);
        let mqic = ModifiedQueryContent::from_index(&index, &q);
        prop_assert!((mqic.total() - 1.0).abs() < 1e-9);
        // MQIC dominates QIC's zero-units: any unit with IC > 0 has
        // MQIC > 0.
        let ic = InformationContent::from_index(&index);
        for (i, s) in ic.scores().scores().iter().enumerate() {
            if s.own > 1e-9 {
                prop_assert!(
                    mqic.scores().scores()[i].own > 0.0,
                    "unit {} has IC but zero MQIC", s.path
                );
            }
        }
    }

    /// A query that matches nothing zeroes QIC everywhere while MQIC
    /// degenerates toward IC (λ scales a zero contribution).
    #[test]
    fn unmatched_query_behaviour(seed in any::<u64>()) {
        let (_, index) = doc_and_index(seed);
        let q = Query::from_stems([("qqqqqqq".to_owned(), 3u64)]);
        let qic = QueryContent::from_index(&index, &q);
        prop_assert_eq!(qic.total(), 0.0);
        let mqic = ModifiedQueryContent::from_index(&index, &q);
        let ic = InformationContent::from_index(&index);
        for (m, i) in mqic.scores().scores().iter().zip(ic.scores().scores()) {
            prop_assert!((m.own - i.own).abs() < 1e-9);
        }
    }

    /// Query parsing is insensitive to word order and casing.
    #[test]
    fn query_parse_canonical(words in proptest::collection::vec("[a-z]{3,10}", 1..6)) {
        let pipeline = ScPipeline::default();
        let forward = words.join(" ");
        let mut rev = words.clone();
        rev.reverse();
        let backward = rev.join(" ").to_uppercase();
        let qa = Query::parse(&forward, &pipeline);
        let qb = Query::parse(&backward, &pipeline);
        prop_assert_eq!(qa, qb);
    }
}

/// The structural characteristic composed straight from the paper's
/// definitions: each measure's own scores from its module, each column
/// a subtree sum over every entry under the unit's path.
fn sc_oracle(index: &DocumentIndex, query: Option<&Query>) -> Vec<ScEntry> {
    let ic: ContentScores = InformationContent::from_index(index).into();
    let (qic, mqic): (ContentScores, ContentScores) = match query {
        Some(q) => (
            QueryContent::from_index(index, q).into(),
            ModifiedQueryContent::from_index(index, q).into(),
        ),
        None => (
            ContentScores::new(
                ic.scores()
                    .iter()
                    .map(|s| UnitScore {
                        own: 0.0,
                        ..s.clone()
                    })
                    .collect(),
            ),
            ic.clone(),
        ),
    };
    index
        .entries()
        .iter()
        .map(|e| ScEntry {
            path: e.path.clone(),
            kind: e.kind,
            synthetic: e.synthetic,
            title: e.title.clone(),
            ic: ic.subtree_at(&e.path),
            qic: qic.subtree_at(&e.path),
            mqic: mqic.subtree_at(&e.path),
            bytes: index
                .entries()
                .iter()
                .filter(|d| e.path.is_prefix_of(&d.path))
                .map(|d| d.own_bytes)
                .sum(),
        })
        .collect()
}

/// Asserts `from_index` equals the oracle bit for bit: the three
/// content columns by `to_bits` (so `-0.0` and `+0.0` differ, as they
/// do under `total_cmp`), the rest by value.
fn assert_sc_matches_oracle(index: &DocumentIndex, query: Option<&Query>) {
    let got = StructuralCharacteristic::from_index(index, query);
    let want = sc_oracle(index, query);
    assert_eq!(got.entries().len(), want.len());
    for (g, w) in got.entries().iter().zip(&want) {
        assert_eq!(g.path, w.path);
        assert_eq!(g.kind, w.kind);
        assert_eq!(g.synthetic, w.synthetic);
        assert_eq!(g.title, w.title);
        assert_eq!(g.bytes, w.bytes, "bytes at {}", w.path);
        for (name, a, b) in [
            ("ic", g.ic, w.ic),
            ("qic", g.qic, w.qic),
            ("mqic", g.mqic, w.mqic),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name} at {} under {query:?}: {a:e} vs {b:e}",
                w.path
            );
        }
    }
}

/// A small xorshift stream for building random markup.
struct Words(u64);

impl Words {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    /// A run of 0..max words: morphological variants share a stem,
    /// stop words are dropped, `<b>` marks emphasis.
    fn run(&mut self, max: u64) -> String {
        const VOCAB: [&str; 14] = [
            "mobile", "web", "browsing", "browse", "wireless", "cache", "caching", "the", "and",
            "energy", "query", "queries", "document", "link",
        ];
        let mut out = Vec::new();
        for _ in 0..self.below(max + 1) {
            let w = VOCAB[self.below(VOCAB.len() as u64) as usize];
            if self.below(6) == 0 {
                out.push(format!("<b>{w}</b>"));
            } else {
                out.push(w.to_owned());
            }
        }
        out.join(" ")
    }

    /// An opening tag, with a `<title>` half the time.
    fn open(&mut self, tag: &str) -> String {
        if self.below(2) == 0 {
            format!("<{tag}><title>{}</title>", self.run(3))
        } else {
            format!("<{tag}>")
        }
    }

    fn paragraph(&mut self, max: u64) -> String {
        format!("<paragraph>{}</paragraph>", self.run(max))
    }
}

/// Random XML with titled interior units, loose text in interior units,
/// and stray paragraphs that normalization wraps in synthetic units.
fn random_xml(seed: u64) -> String {
    let mut r = Words(seed | 1);
    let mut xml = r.open("document");
    for _ in 0..r.below(4) {
        match r.below(4) {
            0 => xml.push_str(&r.paragraph(6)),
            1 => xml.push_str(&r.run(4)),
            _ => {
                xml.push_str(&r.open("section"));
                for _ in 0..r.below(4) {
                    match r.below(3) {
                        0 => xml.push_str(&r.paragraph(6)),
                        1 => xml.push_str(&r.run(3)),
                        _ => {
                            xml.push_str(&r.open("subsection"));
                            for _ in 0..r.below(3) {
                                xml.push_str(&r.paragraph(8));
                            }
                            xml.push_str("</subsection>");
                        }
                    }
                }
                xml.push_str("</section>");
            }
        }
    }
    xml.push_str("</document>");
    xml
}

/// The query shapes the SC must handle: none, empty, words from the
/// document (some repeated), and words outside its vocabulary.
fn queries(index: &DocumentIndex, pipeline: &ScPipeline, pick: usize) -> Vec<Option<Query>> {
    let stems: Vec<&String> = index.totals().keys().collect();
    let mut qs = vec![
        None,
        Some(Query::new()),
        Some(Query::parse("mobile mobile mobile web", pipeline)),
        Some(Query::parse("zzyzx qwerty", pipeline)),
        Some(Query::parse("browsing zzyzx browse", pipeline)),
    ];
    if !stems.is_empty() {
        let a = stems[pick % stems.len()].clone();
        let b = stems[(pick / 7) % stems.len()].clone();
        qs.push(Some(Query::from_stems([(a.clone(), 1 + pick as u64 % 3)])));
        qs.push(Some(Query::from_stems([
            (a, 3u64),
            (b, 2),
            ("oovstem".to_owned(), 1),
        ])));
    }
    qs
}

proptest! {
    /// The one-pass SC equals the definition-by-definition composition
    /// bit for bit on generated documents.
    #[test]
    fn sc_matches_oracle_on_synthetic_docs(seed in any::<u64>(), pick in 0usize..1000) {
        let pipeline = ScPipeline::default();
        let spec = SyntheticDocSpec::default();
        let index = pipeline.run(&spec.generate(seed).document);
        for q in queries(&index, &pipeline, pick) {
            assert_sc_matches_oracle(&index, q.as_ref());
        }
    }

    /// The same on random markup: titled interior units, loose text,
    /// synthetic units, emphasis, and empty units and documents.
    #[test]
    fn sc_matches_oracle_on_random_markup(seed in any::<u64>(), pick in 0usize..1000) {
        let pipeline = ScPipeline::default();
        let doc = Document::parse_xml(&random_xml(seed)).expect("generated markup parses");
        let index = pipeline.run(&doc);
        for q in queries(&index, &pipeline, pick) {
            assert_sc_matches_oracle(&index, q.as_ref());
        }
    }
}

#[test]
fn sc_matches_oracle_on_fixed_shapes() {
    let pipeline = ScPipeline::default();
    for xml in [
        "<document></document>",
        "<document><title>the and</title></document>",
        "<document><section><title>Mobile web</title>loose web text\
         <paragraph>mobile mobile browsing</paragraph></section>\
         <paragraph>stray cache</paragraph></document>",
    ] {
        let index = pipeline.run(&Document::parse_xml(xml).unwrap());
        for q in queries(&index, &pipeline, 3) {
            assert_sc_matches_oracle(&index, q.as_ref());
        }
    }
}
