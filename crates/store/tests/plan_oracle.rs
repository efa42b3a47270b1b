//! Plans built through a layout match the one-pass planner they split.
//!
//! `plan_oracle` below is the planner written in one pass over the
//! document: it partitions, joins each partition's text, and
//! path-searches the structural characteristic for every slice. The
//! transport's `plan_document` (a fresh `PlanLayout` per call) and the
//! gateway's cook (a layout kept per stored version and LOD, with the
//! SC computed through the version's tables) must give the same slice
//! labels, byte counts, content bits and payload bytes, on generated
//! documents and on random markup, at every LOD, under every measure
//! and under every query shape.

use std::sync::Arc;

use mrtweb_content::query::Query;
use mrtweb_content::sc::{Measure, StructuralCharacteristic};
use mrtweb_docmodel::document::Document;
use mrtweb_docmodel::gen::SyntheticDocSpec;
use mrtweb_docmodel::lod::Lod;
use mrtweb_store::gateway::{Gateway, Request};
use mrtweb_store::store::DocumentStore;
use mrtweb_textproc::pipeline::ScPipeline;
use mrtweb_textproc::recognizer::tokenize;
use mrtweb_transport::live::{LiveClient, LiveServer};
use mrtweb_transport::plan::{plan_document, TransmissionPlan, UnitSlice};

/// The plan and payload of `doc` at `lod` under `sc`, in one pass.
fn plan_oracle(
    doc: &Document,
    sc: &StructuralCharacteristic,
    lod: Lod,
    measure: Measure,
) -> (TransmissionPlan, Vec<u8>) {
    let parts = doc.partition_at(lod);
    let mut slices = Vec::with_capacity(parts.len());
    let mut texts: Vec<String> = Vec::with_capacity(parts.len());
    for p in &parts {
        // An interior node emitted for its own text only (it has
        // children that were partitioned separately) contributes its
        // own bytes; a subtree partition contributes everything.
        let own_only = p.unit.kind() < lod && !p.unit.children().is_empty();
        let text = if own_only {
            let mut t = p.unit.title().unwrap_or("").to_owned();
            let own = p.unit.own_text();
            if !own.is_empty() {
                if !t.is_empty() {
                    t.push('\n');
                }
                t.push_str(&own);
            }
            t
        } else {
            p.unit.full_text()
        };
        let content = match sc.entry_at(&p.path) {
            Some(e) if own_only => {
                // Subtract the children's share: own = subtree − Σ child subtrees.
                let child_sum: f64 = sc
                    .entries()
                    .iter()
                    .filter(|c| {
                        p.path.is_prefix_of(&c.path) && c.path.depth() == p.path.depth() + 1
                    })
                    .map(|c| StructuralCharacteristic::value(c, measure))
                    .sum();
                (StructuralCharacteristic::value(e, measure) - child_sum).max(0.0)
            }
            Some(e) => StructuralCharacteristic::value(e, measure),
            None => 0.0,
        };
        slices.push(UnitSlice::new(p.path.to_string(), text.len(), content));
        texts.push(text);
    }
    let plan = if lod == Lod::Document {
        TransmissionPlan::sequential(slices)
    } else {
        // Rank while carrying the texts along in the same permutation.
        let mut order: Vec<usize> = (0..slices.len()).collect();
        order.sort_by(|&a, &b| slices[b].content.total_cmp(&slices[a].content));
        let slices_ranked: Vec<UnitSlice> = order.iter().map(|&i| slices[i].clone()).collect();
        let texts_ranked: Vec<String> = order.iter().map(|&i| texts[i].clone()).collect();
        texts = texts_ranked;
        TransmissionPlan::sequential(slices_ranked)
    };
    let payload: Vec<u8> = texts.concat().into_bytes();
    (plan, payload)
}

/// Asserts `got` is `want`: labels, byte counts, content bits (so
/// `-0.0` and `+0.0` differ, as they do under `total_cmp`) and payload.
fn assert_same_plan(
    case: &str,
    want: &(TransmissionPlan, Vec<u8>),
    got: (&TransmissionPlan, &[u8]),
) {
    let (want_plan, want_payload) = want;
    let (got_plan, got_payload) = got;
    let labels = |p: &TransmissionPlan| -> Vec<String> {
        p.slices().iter().map(|s| s.label.clone()).collect()
    };
    assert_eq!(labels(got_plan), labels(want_plan), "{case}: slice order");
    for (g, w) in got_plan.slices().iter().zip(want_plan.slices()) {
        assert_eq!(g.bytes, w.bytes, "{case}: bytes of {}", w.label);
        assert_eq!(
            g.content.to_bits(),
            w.content.to_bits(),
            "{case}: content of {}: {:e} vs {:e}",
            w.label,
            g.content,
            w.content
        );
    }
    assert!(got_payload == want_payload.as_slice(), "{case}: payload");
}

/// A small xorshift stream for building random markup and queries.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    /// A run of 0..=max words: morphological variants share a stem,
    /// stop words are dropped, `<b>` marks emphasis. A run of stop
    /// words only leaves a unit with text but no postings.
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

    /// A paragraph of 0..=max words (an empty one is an empty unit).
    fn paragraph(&mut self, max: u64) -> String {
        format!("<paragraph>{}</paragraph>", self.run(max))
    }
}

/// Random markup down to subsubsections: titled interior units, loose
/// text in interior units, empty units, and stray paragraphs that
/// normalization wraps in synthetic units.
fn random_xml(seed: u64) -> String {
    let mut r = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut xml = r.open("document");
    for _ in 0..r.below(6) {
        match r.below(5) {
            0 => xml.push_str(&r.paragraph(6)),
            1 => xml.push_str(&r.run(4)),
            _ => {
                xml.push_str(&r.open("section"));
                for _ in 0..r.below(5) {
                    match r.below(3) {
                        0 => xml.push_str(&r.paragraph(6)),
                        1 => xml.push_str(&r.run(3)),
                        _ => {
                            xml.push_str(&r.open("subsection"));
                            for _ in 0..r.below(4) {
                                if r.below(3) == 0 {
                                    xml.push_str(&r.open("subsubsection"));
                                    for _ in 0..r.below(3) {
                                        xml.push_str(&r.paragraph(5));
                                    }
                                    xml.push_str("</subsubsection>");
                                } else {
                                    xml.push_str(&r.paragraph(8));
                                }
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

/// The query texts a request can carry: empty, one word, three words,
/// a repeated word, and words outside the document's vocabulary. The
/// words come from the document, so most of them match.
fn query_texts(doc: &Document, pipeline: &ScPipeline, r: &mut Rng) -> Vec<String> {
    let text = doc.full_text();
    let words: Vec<String> = tokenize(&text)
        .filter(|w| pipeline.normalize_word(w).is_some())
        .collect();
    let mut pick = || {
        if words.is_empty() {
            "mobile".to_owned()
        } else {
            words[r.below(words.len() as u64) as usize].clone()
        }
    };
    let (a, b, c) = (pick(), pick(), pick());
    vec![
        String::new(),
        a.clone(),
        format!("{a} {b} {c}"),
        format!("{b} {a} {b} {b}"),
        "zzyzx qwerty".to_owned(),
    ]
}

/// The payload `server` carries, rebuilt from its frames.
fn served_payload(server: &LiveServer) -> Vec<u8> {
    let mut client = LiveClient::new(server.header().clone()).unwrap();
    for i in 0..server.header().n {
        if client.document_bytes().is_some() {
            break;
        }
        client.on_wire(server.frame_bytes(i).unwrap());
    }
    client
        .document_bytes()
        .expect("every frame is held")
        .to_vec()
}

const MEASURES: [Measure; 3] = [Measure::Ic, Measure::Qic, Measure::Mqic];

/// Checks one document through `plan_document` and through a gateway
/// over a store holding it.
fn check_document(name: &str, doc: &Document, seed: u64) {
    let pipeline = ScPipeline::default();
    let index = pipeline.run(doc);
    let texts = query_texts(doc, &pipeline, &mut Rng(seed | 1));

    // `plan_document`, under no query as well as every query text.
    let queries =
        std::iter::once(None).chain(texts.iter().map(|t| Some(Query::parse(t, &pipeline))));
    for query in queries {
        let sc = StructuralCharacteristic::from_index(&index, query.as_ref());
        for lod in Lod::ALL {
            for measure in MEASURES {
                let case = format!("{name} plan_document {lod} {measure} {query:?}");
                let want = plan_oracle(doc, &sc, lod, measure);
                let (plan, payload) = plan_document(doc, &sc, lod, measure);
                assert_same_plan(&case, &want, (&plan, &payload));
            }
        }
    }

    // The gateway: one store version, its layouts and SC tables reused
    // across every query, LOD and measure.
    let store = Arc::new(DocumentStore::new(8));
    store.put("doc", doc.clone());
    let gateway = Gateway::new(Arc::clone(&store));
    for text in &texts {
        let sc = StructuralCharacteristic::from_index(&index, Some(&Query::parse(text, &pipeline)));
        for lod in Lod::ALL {
            for measure in MEASURES {
                let case = format!("{name} gateway {lod} {measure} {text:?}");
                let request = Request {
                    url: "doc".to_owned(),
                    query: text.clone(),
                    lod,
                    measure,
                    packet_size: 256,
                    gamma: 1.0,
                };
                let server = gateway.prepare(&request).unwrap();
                let want = plan_oracle(doc, &sc, lod, measure);
                let payload = served_payload(&server);
                assert_eq!(server.header().doc_len, want.1.len(), "{case}: doc_len");
                assert_same_plan(&case, &want, (&server.header().plan, &payload));
            }
        }
    }
}

#[test]
fn plans_match_the_oracle_on_generated_documents() {
    let specs = [
        SyntheticDocSpec::default(),
        // More paragraphs than the sort's small-slice cutoff, so an
        // unstable sort would reorder tied slices.
        SyntheticDocSpec {
            sections: 6,
            subsections_per_section: 3,
            paragraphs_per_subsection: 3,
            ..SyntheticDocSpec::default()
        },
    ];
    for (s, spec) in specs.iter().enumerate() {
        for seed in 0..4 {
            let doc = spec.generate(seed).document;
            check_document(&format!("spec {s} seed {seed}"), &doc, seed);
        }
    }
}

#[test]
fn plans_match_the_oracle_on_random_markup() {
    for seed in 0..120 {
        let xml = random_xml(seed);
        let doc = Document::parse_xml(&xml).expect("generated markup parses");
        check_document(&format!("markup seed {seed}: {xml}"), &doc, seed);
    }
}

/// An SC whose rows are not the document's is read by path: a path it
/// lacks carries no content, and children it lacks add nothing.
#[test]
fn plans_match_the_oracle_under_another_documents_sc() {
    let pipeline = ScPipeline::default();
    for seed in 0..20 {
        let doc = Document::parse_xml(&random_xml(seed)).unwrap();
        let other = Document::parse_xml(&random_xml(seed + 1000)).unwrap();
        let query = Query::parse("mobile web cache", &pipeline);
        let sc = StructuralCharacteristic::from_index(&pipeline.run(&other), Some(&query));
        for lod in Lod::ALL {
            for measure in MEASURES {
                let case = format!("seed {seed} foreign SC {lod} {measure}");
                let want = plan_oracle(&doc, &sc, lod, measure);
                let (plan, payload) = plan_document(&doc, &sc, lod, measure);
                assert_same_plan(&case, &want, (&plan, &payload));
            }
        }
    }
}
