//! The database gateway: store + pipeline → prepared transmissions.
//!
//! In the paper's Figure 1 the document transmitter sits behind a
//! database gateway that serves documents and their structural
//! characteristics. [`Gateway`] is that component: given a
//! `(url, query, LOD, γ)` request it pulls the document and cached SC
//! from the [`DocumentStore`] and hands back a ready
//! [`LiveServer`], plus the plan metadata a sequence manager needs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mrtweb_content::query::Query;
use mrtweb_content::sc::Measure;
use mrtweb_docmodel::document::Document;
use mrtweb_docmodel::lod::Lod;
use mrtweb_erasure::Error as ErasureError;
use mrtweb_transport::live::{DocumentHeader, LiveServer};
use mrtweb_transport::plan::plan_document;

use crate::codec::{encode_dispersed, BlobPackets};
use crate::edge::{EdgeCache, EdgeError, EdgeKey};
use crate::store::{DocumentStore, Snapshot};

/// A transmission request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Document URL.
    pub url: String,
    /// Free-text query (empty → static IC ordering).
    pub query: String,
    /// Transmission level of detail.
    pub lod: Lod,
    /// Content measure ordering the units.
    pub measure: Measure,
    /// Raw packet size.
    pub packet_size: usize,
    /// Redundancy ratio γ.
    pub gamma: f64,
}

impl Request {
    /// A request with the paper's defaults (256-byte packets, γ = 1.5,
    /// QIC ordering at paragraph LOD).
    pub fn new(url: impl Into<String>, query: impl Into<String>) -> Self {
        Request {
            url: url.into(),
            query: query.into(),
            lod: Lod::Paragraph,
            measure: Measure::Qic,
            packet_size: 256,
            gamma: 1.5,
        }
    }

    /// Builds a request from the stringly-typed options a wire protocol
    /// carries (the proxy's HELLO message), validating every field —
    /// the layering boundary where untrusted peer input becomes typed
    /// parameters. The proxy crate deliberately has no `docmodel` /
    /// `content` dependency, so LOD and measure parsing lives here.
    ///
    /// # Errors
    ///
    /// [`GatewayError::BadRequest`] for an unknown LOD or measure name,
    /// a zero or oversized (> 64 KiB) packet size, or a non-finite or
    /// sub-1 redundancy ratio.
    pub fn from_options(
        url: &str,
        query: &str,
        lod: &str,
        measure: &str,
        packet_size: usize,
        gamma: f64,
    ) -> Result<Self, GatewayError> {
        let lod: Lod = lod
            .parse()
            .map_err(|e| GatewayError::BadRequest(format!("{e}")))?;
        let measure: Measure = measure
            .parse()
            .map_err(|e| GatewayError::BadRequest(format!("{e}")))?;
        if packet_size == 0 || packet_size > 64 * 1024 {
            return Err(GatewayError::BadRequest(format!(
                "packet size {packet_size} outside 1..=65536"
            )));
        }
        if !gamma.is_finite() || gamma < 1.0 {
            return Err(GatewayError::BadRequest(format!(
                "redundancy ratio {gamma} must be finite and ≥ 1"
            )));
        }
        Ok(Request {
            url: url.to_owned(),
            query: query.to_owned(),
            lod,
            measure,
            packet_size,
            gamma,
        })
    }
}

/// Gateway errors.
#[derive(Debug)]
pub enum GatewayError {
    /// The URL is not in the store.
    NotFound(String),
    /// The document cannot be coded with the requested parameters.
    Encoding(ErasureError),
    /// The request options do not parse or validate.
    BadRequest(String),
    /// The edge cache failed (disk or blob validation).
    Edge(EdgeError),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::NotFound(u) => write!(f, "document not found: {u:?}"),
            GatewayError::Encoding(e) => write!(f, "cannot encode transmission: {e}"),
            GatewayError::BadRequest(what) => write!(f, "bad request: {what}"),
            GatewayError::Edge(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<ErasureError> for GatewayError {
    fn from(e: ErasureError) -> Self {
        GatewayError::Encoding(e)
    }
}

impl From<EdgeError> for GatewayError {
    fn from(e: EdgeError) -> Self {
        GatewayError::Edge(e)
    }
}

/// Cache key for a prepared transmission: everything that shapes the
/// cooked frames. The document itself is checked by pointer identity
/// in the cached value, so a `put` over the same URL invalidates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PreparedKey {
    url: String,
    query: String,
    lod: Lod,
    measure: Measure,
    packet_size: usize,
    gamma_bits: u64,
}

impl PreparedKey {
    fn of(request: &Request) -> Self {
        PreparedKey {
            url: request.url.clone(),
            query: request.query.clone(),
            lod: request.lod,
            measure: request.measure,
            packet_size: request.packet_size,
            gamma_bits: request.gamma.to_bits(),
        }
    }
}

/// Bound on distinct request shapes the gateway keeps prepared.
const PREPARED_CACHE_CAP: usize = 64;

/// A cached prepared transmission, pinned to the exact document it was
/// encoded from so replacement in the store invalidates the entry.
type PreparedEntry = (Arc<Document>, Arc<LiveServer>);

/// The serving side of the prototype.
#[derive(Debug)]
pub struct Gateway {
    store: Arc<DocumentStore>,
    /// Prepared transmissions shared across concurrent sessions: the
    /// cooked frames for a request shape are immutable, so every
    /// session fetching the same document with the same parameters
    /// replays one encode instead of redoing slicing, ranking, and
    /// GF(2⁸) math per session. Each entry pins the source document so
    /// a hit is honoured only while that exact document is still what
    /// the store serves.
    prepared: Mutex<HashMap<PreparedKey, PreparedEntry>>,
    prepared_hits: AtomicU64,
    prepared_misses: AtomicU64,
    /// The base station's disk-backed cache of cooked blobs, when this
    /// gateway fronts a cell.
    edge: Option<Arc<EdgeCache>>,
}

impl Gateway {
    /// Wraps a store.
    pub fn new(store: Arc<DocumentStore>) -> Self {
        Gateway {
            store,
            prepared: Mutex::new(HashMap::new()),
            prepared_hits: AtomicU64::new(0),
            prepared_misses: AtomicU64::new(0),
            edge: None,
        }
    }

    /// Attaches an edge cache: [`Gateway::prepare_edge`] will serve
    /// cooked blobs from it, and its evictions invalidate this
    /// gateway's prepared transmissions.
    #[must_use]
    pub fn with_edge(mut self, edge: Arc<EdgeCache>) -> Self {
        self.edge = Some(edge);
        self
    }

    /// The attached edge cache, if any.
    pub fn edge(&self) -> Option<&Arc<EdgeCache>> {
        self.edge.as_ref()
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<DocumentStore> {
        &self.store
    }

    /// Drops prepared transmissions whose documents left the edge
    /// cache since the last call. An edge eviction means the cell no
    /// longer vouches for those cooked bytes (budget pressure or
    /// at-rest rot), so the prepared entry — same key shape — must not
    /// keep serving them; the next request re-prepares from the store.
    pub fn sync_edge_invalidations(&self) {
        let Some(edge) = &self.edge else {
            return;
        };
        let evicted = edge.drain_evicted();
        if evicted.is_empty() {
            return;
        }
        let mut map = self
            .prepared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for k in evicted {
            map.remove(&PreparedKey {
                url: k.url,
                query: k.query,
                lod: k.lod,
                measure: k.measure,
                packet_size: k.packet_size,
                gamma_bits: k.gamma_bits,
            });
        }
    }

    /// `(hits, misses)` of the prepared-transmission cache.
    pub fn prepared_cache_counters(&self) -> (u64, u64) {
        (
            // ORDERING: monitoring counters — each total is independently
            // exact; a torn (hits, misses) pair only skews one snapshot.
            self.prepared_hits.load(Ordering::Relaxed),
            self.prepared_misses.load(Ordering::Relaxed),
        )
    }

    /// Like [`Gateway::prepare`], but returns a shared handle served
    /// from a bounded per-gateway cache: repeat requests for the same
    /// `(url, query, lod, measure, packet size, γ)` reuse the already
    /// encoded transmission. The cache is invalidated per entry when
    /// the store's document for that URL is replaced.
    ///
    /// # Errors
    ///
    /// Same as [`Gateway::prepare`].
    pub fn prepare_shared(&self, request: &Request) -> Result<Arc<LiveServer>, GatewayError> {
        self.sync_edge_invalidations();
        let doc = self
            .store
            .document(&request.url)
            .ok_or_else(|| GatewayError::NotFound(request.url.clone()))?;
        let key = PreparedKey::of(request);
        if let Some((cached_doc, live)) = self
            .prepared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            if Arc::ptr_eq(cached_doc, &doc) {
                // ORDERING: pure tally — the cached value travels via
                // the `prepared` mutex, not through this counter.
                self.prepared_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(live));
            }
        }
        // ORDERING: same monitoring tally as the hit counter above.
        self.prepared_misses.fetch_add(1, Ordering::Relaxed);
        // Pin the document the frames are cooked from, which a `put`
        // may already have replaced since the lookup above.
        let snapshot = self.snapshot(request)?;
        let live = Arc::new(cook(&snapshot, request)?);
        let mut map = self
            .prepared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if map.len() >= PREPARED_CACHE_CAP && !map.contains_key(&key) {
            // Shapes beyond the cap are rare (a hostile client cycling
            // parameters); dropping the whole map is simpler than LRU
            // and keeps the common small-corpus case untouched.
            map.clear();
        }
        map.insert(key, (snapshot.document, Arc::clone(&live)));
        Ok(live)
    }

    /// Prepares a transmission through the edge cache: a hit re-frames
    /// the cached cooked blob with **zero** erasure-codec work (no
    /// `EncodeSpan`); a miss cooks the blob once (exactly one encode),
    /// admits it, and serves from the same bytes. Returns the server
    /// and whether it was a cache hit. Without an attached edge cache
    /// this falls back to [`Gateway::prepare_shared`] (never a hit).
    ///
    /// A hit is honoured only while the store still holds the document
    /// generation the blob was cooked from — replacing or deleting the
    /// document invalidates the cached blob (migrated entries, which
    /// the edge holds authoritatively, always serve). Cache-side
    /// admission failures never fail the request: the response serves
    /// from the just-cooked blob and the failure is only tallied.
    ///
    /// # Errors
    ///
    /// Same as [`Gateway::prepare`], plus [`GatewayError::Edge`] if the
    /// just-cooked blob fails to re-parse (an internal invariant, not a
    /// cache-disk condition).
    pub fn prepare_edge(&self, request: &Request) -> Result<(Arc<LiveServer>, bool), GatewayError> {
        let Some(edge) = &self.edge else {
            return Ok((self.prepare_shared(request)?, false));
        };
        self.sync_edge_invalidations();
        let key = EdgeKey::of(request);
        if let Some(served) = edge.serve(&key) {
            let fresh = match served.origin {
                // Cooked from this cell's store: honoured only while
                // the store still holds that exact document version.
                Some(generation) => self.store.generation(&request.url) == Some(generation),
                // Migrated from another cell: the edge copy is the
                // authority (the roaming client's held packets came
                // from these very bytes).
                None => true,
            };
            if fresh {
                let live = LiveServer::from_cooked(served.header, served.packets)?;
                return Ok((Arc::new(live), true));
            }
            // The document behind the blob was replaced or deleted:
            // drop the stale entry (which also invalidates any prepared
            // transmission built from it) and fall through to the miss
            // path against the store's current state.
            edge.remove(&key);
            self.sync_edge_invalidations();
        }
        // Miss: cook the dispersed blob once; it is both the at-rest
        // cache entry and the source of this response's frames.
        let snapshot = self.snapshot(request)?;
        let (plan, payload) = plan_document(
            &snapshot.document,
            &snapshot.sc,
            request.lod,
            request.measure,
        );
        let m = plan.raw_packets(request.packet_size);
        let n = ((m as f64 * request.gamma).round() as usize).max(m);
        let blob = encode_dispersed(&payload, m, n, request.packet_size).map_err(|_| {
            GatewayError::Encoding(ErasureError::InvalidParameters { raw: m, cooked: n })
        })?;
        let header = DocumentHeader {
            doc_len: payload.len(),
            m,
            n,
            packet_size: request.packet_size,
            plan,
        };
        // Admission may be refused (clear prefix alone over budget) or
        // fail outright on the cache's own disk — either way the
        // response still serves from the blob just cooked; only the
        // cache copy is lost. The cache tallies failures
        // (`EdgeStats::admit_failures`).
        let _ = edge.admit_from_store(key, header.clone(), &blob, snapshot.generation);
        let view =
            BlobPackets::parse(&blob).map_err(|e| GatewayError::Edge(EdgeError::Codec(e)))?;
        let packets = (0..view.n())
            .map(|i| view.is_intact(0, i).then(|| view.packet(0, i).to_vec()))
            .collect();
        let live = LiveServer::from_cooked(header, packets)?;
        Ok((Arc::new(live), false))
    }

    /// Prepares a live transmission for a request.
    ///
    /// # Errors
    ///
    /// [`GatewayError::NotFound`] for unknown URLs;
    /// [`GatewayError::Encoding`] when the document needs more than 256
    /// cooked packets at the requested packet size.
    pub fn prepare(&self, request: &Request) -> Result<LiveServer, GatewayError> {
        cook(&self.snapshot(request)?, request)
    }

    /// The store's view of the requested document under the request's
    /// query: document, SC and generation of one version.
    fn snapshot(&self, request: &Request) -> Result<Snapshot, GatewayError> {
        let query = Query::parse(&request.query, self.store.pipeline());
        self.store
            .snapshot(&request.url, &query)
            .ok_or_else(|| GatewayError::NotFound(request.url.clone()))
    }
}

/// Plans, encodes and frames one snapshot for a request.
fn cook(snapshot: &Snapshot, request: &Request) -> Result<LiveServer, GatewayError> {
    Ok(LiveServer::new(
        &snapshot.document,
        &snapshot.sc,
        request.lod,
        request.measure,
        request.packet_size,
        request.gamma,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrtweb_docmodel::document::Document;
    use mrtweb_transport::live::{run_transfer, TransferConfig};

    fn gateway() -> Gateway {
        let store = Arc::new(DocumentStore::new(8));
        store.put(
            "http://site/paper",
            Document::parse_xml(
                "<document><title>Paper</title>\
                 <section><title>Hot</title>\
                 <paragraph>mobile wireless browsing content</paragraph></section>\
                 <section><title>Cold</title>\
                 <paragraph>miscellaneous appendix material</paragraph></section>\
                 </document>",
            )
            .unwrap(),
        );
        Gateway::new(store)
    }

    #[test]
    fn prepare_and_transfer_end_to_end() {
        let gw = gateway();
        let req = Request {
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile wireless")
        };
        let server = gw.prepare(&req).unwrap();
        assert!(server.header().m >= 1);
        let report = run_transfer(
            server,
            &TransferConfig {
                alpha: 0.2,
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.completed);
        let text = String::from_utf8_lossy(&report.payload);
        assert!(text.contains("mobile wireless browsing"));
    }

    #[test]
    fn prepare_shared_caches_and_invalidates_on_replacement() {
        let gw = gateway();
        let req = Request {
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile wireless")
        };
        let first = gw.prepare_shared(&req).unwrap();
        let second = gw.prepare_shared(&req).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "same request shape shares one prepared transmission"
        );
        let (hits, misses) = gw.prepared_cache_counters();
        assert_eq!((hits, misses), (1, 1));

        // A different shape is its own entry.
        let wider = Request {
            packet_size: 64,
            ..req.clone()
        };
        let third = gw.prepare_shared(&wider).unwrap();
        assert!(!Arc::ptr_eq(&first, &third));

        // Replacing the document invalidates the hit: the cached frames
        // describe bytes the store no longer serves.
        gw.store().put(
            "http://site/paper",
            Document::parse_xml(
                "<document><title>Paper v2</title>\
                 <section><title>New</title>\
                 <paragraph>entirely different content now</paragraph></section>\
                 </document>",
            )
            .unwrap(),
        );
        let fresh = gw.prepare_shared(&req).unwrap();
        assert!(
            !Arc::ptr_eq(&first, &fresh),
            "a replaced document must not serve stale cached frames"
        );
        let (_, misses_after) = gw.prepared_cache_counters();
        assert!(misses_after >= 3);
    }

    #[test]
    fn qic_ordering_is_applied_by_the_gateway() {
        let gw = gateway();
        let req = Request {
            lod: Lod::Section,
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile wireless")
        };
        let server = gw.prepare(&req).unwrap();
        // Section 0 ("Hot") matches the query and must lead.
        assert_eq!(server.header().plan.slices()[0].label, "0");
    }

    #[test]
    fn unknown_url_is_not_found() {
        let gw = gateway();
        let err = gw
            .prepare(&Request::new("http://nowhere/", "x"))
            .unwrap_err();
        assert!(matches!(err, GatewayError::NotFound(_)));
    }

    #[test]
    fn repeated_requests_hit_the_sc_cache() {
        let gw = gateway();
        let req = Request {
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile")
        };
        gw.prepare(&req).unwrap();
        gw.prepare(&req).unwrap();
        let stats = gw.store().stats();
        assert_eq!(stats.sc_misses, 1);
        assert_eq!(stats.sc_hits, 1);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!("mrtweb-gw-edge-{tag}-{nanos}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn edge_eviction_invalidates_prepared_transmissions() {
        let dir = temp_dir("invalidate");
        let store = Arc::new(DocumentStore::new(8));
        store.put(
            "http://site/paper",
            Document::parse_xml(
                "<document><title>Paper</title>\
                 <section><title>Hot</title>\
                 <paragraph>mobile wireless browsing content</paragraph></section>\
                 </document>",
            )
            .unwrap(),
        );
        let edge = Arc::new(EdgeCache::new(&dir, 1 << 20).unwrap());
        let gw = Gateway::new(store).with_edge(Arc::clone(&edge));
        let req = Request {
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile wireless")
        };

        // Populate both caches: the edge blob and a prepared entry.
        gw.prepare_edge(&req).unwrap();
        let first = gw.prepare_shared(&req).unwrap();
        let again = gw.prepare_shared(&req).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "prepared entry is cached");

        // Evict the document from the edge cache. The document in the
        // store is unchanged, so before the edge-eviction sync this
        // would keep hitting on pointer identity — the regression.
        edge.remove(&EdgeKey::of(&req));
        let fresh = gw.prepare_shared(&req).unwrap();
        assert!(
            !Arc::ptr_eq(&first, &fresh),
            "an edge-evicted document must drop its prepared transmission"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn edge_gateway(tag: &str) -> (std::path::PathBuf, Arc<EdgeCache>, Gateway) {
        let dir = temp_dir(tag);
        let store = Arc::new(DocumentStore::new(8));
        store.put(
            "http://site/paper",
            Document::parse_xml(
                "<document><title>Paper</title>\
                 <section><title>Hot</title>\
                 <paragraph>mobile wireless browsing content</paragraph></section>\
                 </document>",
            )
            .unwrap(),
        );
        let edge = Arc::new(EdgeCache::new(&dir, 1 << 20).unwrap());
        let gw = Gateway::new(store).with_edge(Arc::clone(&edge));
        (dir, edge, gw)
    }

    fn transfer_text(srv: Arc<LiveServer>) -> String {
        let report = run_transfer(
            Arc::try_unwrap(srv).unwrap(),
            &TransferConfig {
                alpha: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.completed);
        String::from_utf8_lossy(&report.payload).into_owned()
    }

    #[test]
    fn edge_hit_is_invalidated_when_the_document_is_replaced() {
        let (dir, edge, gw) = edge_gateway("stale-put");
        let req = Request {
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile wireless")
        };
        let (_, hit) = gw.prepare_edge(&req).unwrap();
        assert!(!hit);
        gw.store().put(
            "http://site/paper",
            Document::parse_xml(
                "<document><title>Paper v2</title>\
                 <section><title>Fresh</title>\
                 <paragraph>mobile wireless replacement content entirely</paragraph></section>\
                 </document>",
            )
            .unwrap(),
        );
        // The cached blob was cooked from the replaced document: the
        // next request must miss and re-cook from the new one.
        let (srv, hit) = gw.prepare_edge(&req).unwrap();
        assert!(!hit, "a replaced document must not serve from the edge");
        assert!(transfer_text(srv).contains("replacement content"));
        // And the re-cooked blob is a valid hit again.
        let (srv, hit) = gw.prepare_edge(&req).unwrap();
        assert!(hit);
        assert!(transfer_text(srv).contains("replacement content"));
        std::fs::remove_dir_all(&dir).unwrap();
        drop(edge);
    }

    #[test]
    fn edge_stops_serving_deleted_documents() {
        let (dir, edge, gw) = edge_gateway("stale-remove");
        let req = Request {
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile wireless")
        };
        gw.prepare_edge(&req).unwrap();
        assert!(edge.contains(&EdgeKey::of(&req)));
        gw.store().remove("http://site/paper");
        let err = gw.prepare_edge(&req).unwrap_err();
        assert!(
            matches!(err, GatewayError::NotFound(_)),
            "a deleted document must not keep serving from the edge: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migrated_entries_serve_without_a_store_document() {
        // Cell A cooks and exports; cell B's store knows nothing — the
        // migrated blob is all it has, and it must serve as a hit (the
        // roaming client's held packets came from those bytes).
        let (dir_a, edge_a, gw_a) = edge_gateway("roam-a");
        let dir_b = temp_dir("roam-b");
        let req = Request {
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile wireless")
        };
        gw_a.prepare_edge(&req).unwrap();
        let key = EdgeKey::of(&req);
        let (header, blob) = edge_a.export_blob(&key).unwrap();
        let edge_b = Arc::new(EdgeCache::new(&dir_b, 1 << 20).unwrap());
        assert!(edge_b.admit_migrated(key.clone(), header, &blob).unwrap());
        let gw_b = Gateway::new(Arc::new(DocumentStore::new(8))).with_edge(edge_b);
        let (srv, hit) = gw_b.prepare_edge(&req).unwrap();
        assert!(hit, "a migrated entry serves without a store document");
        assert!(transfer_text(srv).contains("mobile wireless browsing"));
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn edge_admit_failure_still_serves_the_request() {
        let (dir, edge, gw) = edge_gateway("admit-io");
        let req = Request {
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile wireless")
        };
        // Kill the cache's blob directory: admission will fail on I/O,
        // but the blob was already cooked and must still serve.
        std::fs::remove_dir_all(&dir).unwrap();
        let (srv, hit) = gw.prepare_edge(&req).unwrap();
        assert!(!hit);
        assert!(transfer_text(srv).contains("mobile wireless browsing"));
        assert_eq!(edge.stats().admit_failures, 1);
    }

    #[test]
    fn prepare_edge_without_cache_falls_back_to_shared() {
        let gw = gateway();
        let req = Request {
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile wireless")
        };
        let (srv, hit) = gw.prepare_edge(&req).unwrap();
        assert!(!hit);
        assert!(srv.header().m >= 1);
    }

    #[test]
    fn from_options_parses_and_validates() {
        let req = Request::from_options("http://site/paper", "mobile", "section", "QIC", 128, 1.5)
            .unwrap();
        assert_eq!(req.lod, Lod::Section);
        assert_eq!(req.measure, Measure::Qic);
        assert_eq!(req.packet_size, 128);

        for (lod, measure, ps, gamma) in [
            ("chapter", "qic", 128, 1.5),      // unknown LOD
            ("section", "quality", 128, 1.5),  // unknown measure
            ("section", "qic", 0, 1.5),        // zero packet size
            ("section", "qic", 1 << 20, 1.5),  // oversized packet
            ("section", "qic", 128, 0.5),      // γ < 1
            ("section", "qic", 128, f64::NAN), // non-finite γ
        ] {
            let err = Request::from_options("u", "", lod, measure, ps, gamma).unwrap_err();
            assert!(matches!(err, GatewayError::BadRequest(_)), "{err}");
        }
    }

    #[test]
    fn oversized_request_reports_encoding_error() {
        let gw = gateway();
        // 1-byte packets at γ = 4 need far more than 256 cooked packets.
        let req = Request {
            packet_size: 1,
            gamma: 4.0,
            ..Request::new("http://site/paper", "mobile")
        };
        let err = gw.prepare(&req).unwrap_err();
        assert!(matches!(err, GatewayError::Encoding(_)));
    }
}
