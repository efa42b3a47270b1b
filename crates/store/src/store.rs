//! The concurrent document store with structural-characteristic caching.

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

/// Cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Structural characteristics served from cache.
    pub sc_hits: u64,
    /// Structural characteristics computed on demand.
    pub sc_misses: u64,
}

/// One version of a stored document with its structural characteristic
/// under a query, as [`DocumentStore::snapshot`] returns it.
#[derive(Debug, Clone)]
pub(crate) struct Snapshot {
    /// The version.
    pub(crate) version: Arc<Version>,
    /// Its structural characteristic under the query.
    pub(crate) sc: Arc<StructuralCharacteristic>,
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
    index: Arc<DocumentIndex>,
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
    /// The version's structural characteristic under `query`, through
    /// its SC tables.
    fn structural_characteristic(&self, query: &Query) -> StructuralCharacteristic {
        self.sc_tables
            .get_or_init(|| ScTables::new(&self.index))
            .apply(Some(query))
    }

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

/// A stored document version with its query-keyed SC cache.
#[derive(Debug)]
struct StoredDoc {
    version: Arc<Version>,
    /// Query-keyed SC cache with insertion-order eviction.
    sc_cache: HashMap<String, Arc<StructuralCharacteristic>>,
    sc_order: Vec<String>,
}

/// A concurrent URL-keyed document store.
///
/// The logical index of every document is computed once at `put` time —
/// "the weights of keywords of a document remain unchanged across
/// queries, only the contribution by querying words need be
/// incorporated" (§3.3). The first cook of a version builds its SC
/// tables and plan layouts, so a later query only scores itself, and
/// per-query structural characteristics are cached with bounded
/// first-in, first-out eviction (a hit does not reorder).
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
/// let sc1 = store.structural_characteristic("http://a/", &q).unwrap();
/// let sc2 = store.structural_characteristic("http://a/", &q).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&sc1, &sc2)); // second hit is cached
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DocumentStore {
    docs: RwLock<HashMap<String, StoredDoc>>,
    pipeline: ScPipeline,
    sc_capacity: usize,
    sc_hits: AtomicU64,
    sc_misses: AtomicU64,
    /// Source of [`Version::generation`] values.
    next_generation: AtomicU64,
}

impl DocumentStore {
    /// Creates a store caching at most `sc_capacity` structural
    /// characteristics per document (0 disables SC caching).
    pub fn new(sc_capacity: usize) -> Self {
        DocumentStore {
            docs: RwLock::new(HashMap::new()),
            pipeline: ScPipeline::default(),
            sc_capacity,
            sc_hits: AtomicU64::new(0),
            sc_misses: AtomicU64::new(0),
            next_generation: AtomicU64::new(0),
        }
    }

    /// Uses a custom pipeline (stop words, policy, stemming).
    pub fn with_pipeline(mut self, pipeline: ScPipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// The pipeline queries must be normalized with.
    pub fn pipeline(&self) -> &ScPipeline {
        &self.pipeline
    }

    /// Inserts (or replaces) a document, computing its logical index.
    /// Returns the previous document if one existed.
    pub fn put(&self, url: impl Into<String>, document: Document) -> Option<Arc<Document>> {
        let index = Arc::new(self.pipeline.run(&document));
        let version = Version {
            document: Arc::new(document),
            index,
            // ORDERING: only uniqueness matters, not publication order —
            // the value travels to readers under the `docs` lock.
            generation: self.next_generation.fetch_add(1, Ordering::Relaxed),
            sc_tables: OnceLock::new(),
            layouts: Default::default(),
        };
        let stored = StoredDoc {
            version: Arc::new(version),
            sc_cache: HashMap::new(),
            sc_order: Vec::new(),
        };
        self.docs
            .write()
            .insert(url.into(), stored)
            .map(|s| Arc::clone(&s.version.document))
    }

    /// The generation of the document currently stored at `url`, or
    /// `None` for unknown URLs. Every `put` assigns a fresh value, so a
    /// derived artifact stamped with the generation it was built from
    /// (an edge-cache blob) is stale exactly when the stamps differ.
    pub fn generation(&self, url: &str) -> Option<u64> {
        self.docs.read().get(url).map(|s| s.version.generation)
    }

    /// Removes a document.
    pub fn remove(&self, url: &str) -> Option<Arc<Document>> {
        self.docs
            .write()
            .remove(url)
            .map(|s| Arc::clone(&s.version.document))
    }

    /// Fetches a document.
    pub fn document(&self, url: &str) -> Option<Arc<Document>> {
        self.docs
            .read()
            .get(url)
            .map(|s| Arc::clone(&s.version.document))
    }

    /// Fetches a document's pre-computed logical index.
    pub fn index(&self, url: &str) -> Option<Arc<DocumentIndex>> {
        self.docs
            .read()
            .get(url)
            .map(|s| Arc::clone(&s.version.index))
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

    /// Cache statistics so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            // ORDERING: monitoring counters — each total is independently
            // exact; a torn (hits, misses) pair only skews one snapshot.
            sc_hits: self.sc_hits.load(Ordering::Relaxed),
            sc_misses: self.sc_misses.load(Ordering::Relaxed),
        }
    }

    /// The structural characteristic of `url` under `query`, cached per
    /// canonical query.
    ///
    /// Returns `None` for unknown URLs.
    pub fn structural_characteristic(
        &self,
        url: &str,
        query: &Query,
    ) -> Option<Arc<StructuralCharacteristic>> {
        self.snapshot(url, query).map(|s| s.sc)
    }

    /// The version at `url` (document, generation and cook tables) and
    /// its structural characteristic under `query`, all of one
    /// version: a concurrent `put` can make the snapshot old, never
    /// mixed. Anything cooked from it (frames, a stamped edge blob)
    /// describes one document.
    ///
    /// Returns `None` for unknown URLs.
    pub(crate) fn snapshot(&self, url: &str, query: &Query) -> Option<Snapshot> {
        let key = canonical_query_key(query);
        // Fast path: read lock, cache hit.
        let version = {
            let docs = self.docs.read();
            let stored = docs.get(url)?;
            if let Some(sc) = stored.sc_cache.get(&key) {
                // ORDERING: pure tally — the SC travels under the `docs`
                // lock, not through this counter.
                self.sc_hits.fetch_add(1, Ordering::Relaxed);
                return Some(Snapshot {
                    version: Arc::clone(&stored.version),
                    sc: Arc::clone(sc),
                });
            }
            Arc::clone(&stored.version)
        };
        // Slow path: compute outside any lock, then cache it only in
        // the version it was computed from — a `put` in between leaves
        // the new version's cache alone.
        let sc = Arc::new(version.structural_characteristic(query));
        // ORDERING: same monitoring tally as the hit counter above.
        self.sc_misses.fetch_add(1, Ordering::Relaxed);
        if self.sc_capacity > 0 {
            let mut docs = self.docs.write();
            if let Some(stored) = docs.get_mut(url) {
                if stored.version.generation == version.generation
                    && !stored.sc_cache.contains_key(&key)
                {
                    if stored.sc_order.len() >= self.sc_capacity {
                        let evict = stored.sc_order.remove(0);
                        stored.sc_cache.remove(&evict);
                    }
                    stored.sc_cache.insert(key.clone(), Arc::clone(&sc));
                    stored.sc_order.push(key);
                }
            }
        }
        Some(Snapshot { version, sc })
    }
}

/// Canonical cache key of a query: sorted `stem:count` pairs.
fn canonical_query_key(query: &Query) -> String {
    let mut parts: Vec<String> = query.iter().map(|(s, n)| format!("{s}:{n}")).collect();
    parts.sort();
    parts.join("\u{1f}")
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
        assert!(s.index("u1").is_some());
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
    fn sc_cache_hits_after_first_computation() {
        let s = store_with_doc();
        let q = Query::parse("mobile", s.pipeline());
        let a = s.structural_characteristic("u1", &q).unwrap();
        let b = s.structural_characteristic("u1", &q).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let st = s.stats();
        assert_eq!(st.sc_misses, 1);
        assert_eq!(st.sc_hits, 1);
    }

    #[test]
    fn distinct_queries_get_distinct_scs() {
        let s = store_with_doc();
        let qa = Query::parse("mobile", s.pipeline());
        let qb = Query::parse("browsing", s.pipeline());
        let a = s.structural_characteristic("u1", &qa).unwrap();
        let b = s.structural_characteristic("u1", &qb).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(s.stats().sc_misses, 2);
    }

    #[test]
    fn query_key_is_order_insensitive() {
        let s = store_with_doc();
        let qa = Query::parse("mobile web", s.pipeline());
        let qb = Query::parse("web mobile", s.pipeline());
        let a = s.structural_characteristic("u1", &qa).unwrap();
        let b = s.structural_characteristic("u1", &qb).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "query word order must not defeat the cache"
        );
    }

    #[test]
    fn capacity_evicts_oldest() {
        let s = store_with_doc(); // capacity 2
        let pipeline = s.pipeline().clone();
        let q1 = Query::parse("mobile", &pipeline);
        let q2 = Query::parse("web", &pipeline);
        let q3 = Query::parse("browsing", &pipeline);
        let first = s.structural_characteristic("u1", &q1).unwrap();
        s.structural_characteristic("u1", &q2).unwrap();
        s.structural_characteristic("u1", &q3).unwrap(); // evicts q1
        let again = s.structural_characteristic("u1", &q1).unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "q1 should have been evicted");
        assert_eq!(s.stats().sc_misses, 4);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let s = DocumentStore::new(0);
        s.put("u", doc("mobile things"));
        let q = Query::parse("mobile", s.pipeline());
        s.structural_characteristic("u", &q).unwrap();
        s.structural_characteristic("u", &q).unwrap();
        assert_eq!(s.stats().sc_misses, 2);
        assert_eq!(s.stats().sc_hits, 0);
    }

    #[test]
    fn unknown_url_returns_none() {
        let s = store_with_doc();
        let q = Query::parse("mobile", s.pipeline());
        assert!(s.structural_characteristic("ghost", &q).is_none());
    }

    #[test]
    fn snapshots_never_mix_versions_under_concurrent_puts() {
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
        // Room for every query, so a wrongly cached SC gets served.
        let store = Arc::new(DocumentStore::new(queries.len()));
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
                let snap = store.snapshot("u", q).unwrap();
                let v = usize::from(*snap.version.document != versions[0]);
                // Put k stores version k % 2 under generation k.
                assert_eq!(
                    snap.version.generation % 2,
                    v as u64,
                    "generation of the other version"
                );
                assert!(*snap.sc == expected[v][qi], "SC of the other version");
                checked += 1;
            }
        }
        writer.join().unwrap();

        // Every cached SC belongs to the index of the entry holding it.
        let docs = store.docs.read();
        for stored in docs.values() {
            for (key, sc) in &stored.sc_cache {
                let q = queries
                    .iter()
                    .find(|q| canonical_query_key(q) == *key)
                    .unwrap();
                assert!(
                    **sc == StructuralCharacteristic::from_index(&stored.version.index, Some(q))
                );
            }
        }
    }

    #[test]
    fn concurrent_reads_and_computes() {
        let s = Arc::new(store_with_doc());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let q = Query::parse(if t % 2 == 0 { "mobile" } else { "web" }, s.pipeline());
                for _ in 0..50 {
                    let sc = s.structural_characteristic("u1", &q).unwrap();
                    assert!(!sc.entries().is_empty());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let st = s.stats();
        assert_eq!(st.sc_hits + st.sc_misses, 400);
        assert!(
            st.sc_misses <= 16,
            "misses {} should be near 2",
            st.sc_misses
        );
    }
}
