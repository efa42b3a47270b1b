//! The concurrent document store: one version per URL, with the cook
//! tables built from it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use mrtweb_content::query::Query;
use mrtweb_content::sc::{Measure, ScTables, StructuralCharacteristic};
use mrtweb_docmodel::document::Document;
use mrtweb_docmodel::lod::Lod;
use mrtweb_textproc::index::DocumentIndex;
use mrtweb_textproc::pipeline::ScPipeline;
use mrtweb_transport::plan::{PlanLayout, TransmissionPlan};

/// Store statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Always 0: the store caches no structural characteristics.
    pub sc_hits: u64,
    /// Structural characteristics computed.
    pub sc_misses: u64,
}

/// One stored version of a document: its logical index, computed at
/// `put`, and the cook tables built from the two on first use — the
/// SC's query-independent half and one plan layout per LOD. They go
/// when the version does: once a `put` replaces it and the last cook
/// holding it finishes.
#[derive(Debug)]
pub(crate) struct Version {
    /// The document.
    pub(crate) document: Arc<Document>,
    index: DocumentIndex,
    /// Store-wide unique id of this exact document version; a `put`
    /// over the same URL assigns a fresh one, so derived caches (the
    /// edge cache's cooked blobs) can detect replacement without
    /// holding the document pointer.
    pub(crate) generation: u64,
    sc_tables: OnceLock<ScTables>,
    /// Indexed by [`Lod::depth`].
    layouts: [OnceLock<PlanLayout>; Lod::ALL.len()],
}

impl Version {
    /// The version's plan and payload at `lod` under `sc`, through its
    /// layout for `lod`. An SC of this version lines up with the
    /// layout's rows; any other is read by path.
    pub(crate) fn plan(
        &self,
        sc: &StructuralCharacteristic,
        lod: Lod,
        measure: Measure,
    ) -> (TransmissionPlan, Vec<u8>) {
        self.layouts[lod.depth()]
            .get_or_init(|| PlanLayout::new(&self.document, lod))
            .plan(sc, measure)
    }
}

/// A concurrent URL-keyed document store.
///
/// The logical index of every document is computed once at `put` time —
/// "the weights of keywords of a document remain unchanged across
/// queries, only the contribution by querying words need be
/// incorporated" (§3.3). The first cook of a version builds its SC
/// tables and plan layouts; after that a query only scores itself, a
/// few microseconds, so nothing caches structural characteristics per
/// query ("the computational overhead is quite low", §3.3).
///
/// # Example
///
/// ```
/// use mrtweb_store::store::DocumentStore;
/// use mrtweb_docmodel::document::Document;
/// use mrtweb_content::query::Query;
///
/// # fn main() -> Result<(), mrtweb_docmodel::xml::ParseError> {
/// let store = DocumentStore::new(8);
/// let doc = Document::parse_xml(
///     "<document><paragraph>mobile web</paragraph></document>")?;
/// store.put("http://a/", doc);
/// let q = Query::parse("mobile", store.pipeline());
/// let sc = store.structural_characteristic("http://a/", &q).unwrap();
/// assert_eq!(sc.entries()[0].qic, 1.0); // the root holds the whole query
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DocumentStore {
    docs: RwLock<HashMap<String, Arc<Version>>>,
    pipeline: ScPipeline,
    sc_computed: AtomicU64,
    /// Source of [`Version::generation`] values.
    next_generation: AtomicU64,
}

impl DocumentStore {
    /// Creates an empty store.
    ///
    /// The argument is ignored. It bounded a per-document cache of
    /// structural characteristics, which a version's SC tables made
    /// cheaper to recompute than to look up and fill; it stays until
    /// the callers that pass it (`examples/mrtbench`) drop it.
    pub fn new(_sc_capacity: usize) -> Self {
        DocumentStore {
            docs: RwLock::new(HashMap::new()),
            pipeline: ScPipeline::default(),
            sc_computed: AtomicU64::new(0),
            next_generation: AtomicU64::new(0),
        }
    }

    /// The pipeline queries must be normalized with.
    pub fn pipeline(&self) -> &ScPipeline {
        &self.pipeline
    }

    /// Inserts (or replaces) a document, computing its logical index.
    /// Returns the previous document if one existed.
    pub fn put(&self, url: impl Into<String>, document: Document) -> Option<Arc<Document>> {
        let version = Version {
            index: self.pipeline.run(&document),
            document: Arc::new(document),
            // ORDERING: only uniqueness matters, not publication order —
            // the value travels to readers under the `docs` lock.
            generation: self.next_generation.fetch_add(1, Ordering::Relaxed),
            sc_tables: OnceLock::new(),
            layouts: Default::default(),
        };
        self.docs
            .write()
            .insert(url.into(), Arc::new(version))
            .map(|v| Arc::clone(&v.document))
    }

    /// The generation of the document currently stored at `url`, or
    /// `None` for unknown URLs. Every `put` assigns a fresh value, so a
    /// derived artifact stamped with the generation it was built from
    /// (an edge-cache blob) is stale exactly when the stamps differ.
    pub fn generation(&self, url: &str) -> Option<u64> {
        self.version(url).map(|v| v.generation)
    }

    /// Removes a document.
    pub fn remove(&self, url: &str) -> Option<Arc<Document>> {
        self.docs
            .write()
            .remove(url)
            .map(|v| Arc::clone(&v.document))
    }

    /// Fetches a document.
    pub fn document(&self, url: &str) -> Option<Arc<Document>> {
        self.version(url).map(|v| Arc::clone(&v.document))
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.docs.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.read().is_empty()
    }

    /// Stored URLs (unordered).
    pub fn urls(&self) -> Vec<String> {
        self.docs.read().keys().cloned().collect()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            sc_hits: 0,
            // ORDERING: monitoring counter, read on its own.
            sc_misses: self.sc_computed.load(Ordering::Relaxed),
        }
    }

    /// The structural characteristic of `url` under `query`, scored
    /// through the current version's SC tables.
    ///
    /// Returns `None` for unknown URLs.
    pub fn structural_characteristic(
        &self,
        url: &str,
        query: &Query,
    ) -> Option<StructuralCharacteristic> {
        self.version(url).map(|version| self.score(&version, query))
    }

    /// The version at `url`: its document, generation and cook tables.
    /// Everything read from one version describes one document; a
    /// concurrent `put` can make it old, never mixed.
    ///
    /// Returns `None` for unknown URLs.
    pub(crate) fn version(&self, url: &str) -> Option<Arc<Version>> {
        self.docs.read().get(url).map(Arc::clone)
    }

    /// `version`'s structural characteristic under `query`, through its
    /// SC tables; counted in [`DocumentStore::stats`].
    pub(crate) fn score(&self, version: &Version, query: &Query) -> StructuralCharacteristic {
        // ORDERING: pure tally — nothing is published through it.
        self.sc_computed.fetch_add(1, Ordering::Relaxed);
        version
            .sc_tables
            .get_or_init(|| ScTables::new(&version.index))
            .apply(Some(query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Document {
        Document::parse_xml(&format!(
            "<document><paragraph>{text}</paragraph></document>"
        ))
        .unwrap()
    }

    fn store_with_doc() -> DocumentStore {
        let s = DocumentStore::new(2);
        s.put("u1", doc("mobile web browsing"));
        s.put("u2", doc("database storage engines"));
        s
    }

    #[test]
    fn put_get_remove() {
        let s = store_with_doc();
        assert_eq!(s.len(), 2);
        assert!(s.document("u1").is_some());
        assert!(s.document("nope").is_none());
        assert!(s.remove("u1").is_some());
        assert!(s.document("u1").is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn put_replaces_and_returns_old() {
        let s = DocumentStore::new(2);
        assert!(s.put("u", doc("old text")).is_none());
        let old = s.put("u", doc("new text")).unwrap();
        assert!(old.full_text().contains("old"));
        assert!(s.document("u").unwrap().full_text().contains("new"));
    }

    #[test]
    fn distinct_queries_get_distinct_scs() {
        let s = DocumentStore::new(0);
        // One query word per paragraph, so each query leads with its own.
        s.put(
            "u",
            Document::parse_xml(
                "<document><paragraph>mobile web</paragraph>\
                 <paragraph>browsing history</paragraph></document>",
            )
            .unwrap(),
        );
        let qa = Query::parse("mobile", s.pipeline());
        let qb = Query::parse("browsing", s.pipeline());
        let a = s.structural_characteristic("u", &qa).unwrap();
        let b = s.structural_characteristic("u", &qb).unwrap();
        assert!(a != b);
        assert_eq!(s.stats().sc_misses, 2);
    }

    #[test]
    fn query_word_order_does_not_change_the_sc() {
        let s = store_with_doc();
        let qa = Query::parse("mobile web", s.pipeline());
        let qb = Query::parse("web mobile", s.pipeline());
        let a = s.structural_characteristic("u1", &qa).unwrap();
        let b = s.structural_characteristic("u1", &qb).unwrap();
        assert!(a == b, "query word order must not change the SC");
    }

    #[test]
    fn unknown_url_returns_none() {
        let s = store_with_doc();
        let q = Query::parse("mobile", s.pipeline());
        assert!(s.structural_characteristic("ghost", &q).is_none());
    }

    #[test]
    fn versions_never_mix_under_concurrent_puts() {
        let spec = mrtweb_docmodel::gen::SyntheticDocSpec::default();
        let versions = [spec.generate(1).document, spec.generate(2).document];
        let pipeline = ScPipeline::default();
        let queries: Vec<Query> = [
            "mobile",
            "web",
            "cache",
            "link",
            "mobile web",
            "energy",
            "query",
        ]
        .iter()
        .map(|q| Query::parse(q, &pipeline))
        .collect();
        let expected: Vec<Vec<StructuralCharacteristic>> = versions
            .iter()
            .map(|d| {
                let index = pipeline.run(d);
                queries
                    .iter()
                    .map(|q| StructuralCharacteristic::from_index(&index, Some(q)))
                    .collect()
            })
            .collect();
        let store = Arc::new(DocumentStore::new(0));
        store.put("u", versions[0].clone());

        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let (store, done) = (Arc::clone(&store), Arc::clone(&done));
            let versions = versions.clone();
            std::thread::spawn(move || {
                for i in 1..=500 {
                    store.put("u", versions[i % 2].clone());
                }
                done.store(true, Ordering::Release);
            })
        };
        let mut checked = 0;
        while !done.load(Ordering::Acquire) || checked < 100 {
            for (qi, q) in queries.iter().enumerate() {
                let version = store.version("u").unwrap();
                let v = usize::from(*version.document != versions[0]);
                // Put k stores version k % 2 under generation k.
                assert_eq!(
                    version.generation % 2,
                    v as u64,
                    "generation of the other version"
                );
                assert!(
                    store.score(&version, q) == expected[v][qi],
                    "SC of the other version"
                );
                checked += 1;
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn concurrent_reads_and_computes() {
        let s = Arc::new(store_with_doc());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let q = Query::parse(if t % 2 == 0 { "mobile" } else { "web" }, s.pipeline());
                let index = s.pipeline().run(&doc("mobile web browsing"));
                let expected = StructuralCharacteristic::from_index(&index, Some(&q));
                for _ in 0..50 {
                    let sc = s.structural_characteristic("u1", &q).unwrap();
                    assert!(sc == expected);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.stats().sc_misses, 400);
    }
}
