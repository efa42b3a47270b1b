//! The database gateway: store + pipeline → prepared transmissions.
//!
//! In the paper's Figure 1 the document transmitter sits behind a
//! database gateway that serves documents and their structural
//! characteristics. [`Gateway`] is that component: given a
//! `(url, query, LOD, γ)` request it reads the document's current
//! version from the [`DocumentStore`], scores the query's SC through
//! it and hands back a ready [`LiveServer`], plus the plan metadata a
//! sequence manager needs.

use std::sync::Arc;

use mrtweb_content::query::Query;
use mrtweb_content::sc::Measure;
use mrtweb_docmodel::lod::Lod;
use mrtweb_erasure::Error as ErasureError;
use mrtweb_transport::live::{self, LiveServer};

use crate::edge::{EdgeCache, EdgeKey};
use crate::store::DocumentStore;

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
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::NotFound(u) => write!(f, "document not found: {u:?}"),
            GatewayError::Encoding(e) => write!(f, "cannot encode transmission: {e}"),
            GatewayError::BadRequest(what) => write!(f, "bad request: {what}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<ErasureError> for GatewayError {
    fn from(e: ErasureError) -> Self {
        GatewayError::Encoding(e)
    }
}

/// Payload bytes (`N · packet_size` per transmission) the cache of a
/// [`Gateway::new`] holds: 66 transmissions of 62 256-byte packets, the
/// benchmark's shape.
pub const CACHE_BUDGET: usize = 1 << 20;

/// The serving side of the prototype.
///
/// Each gateway keeps one cache of cooked transmissions, an
/// [`EdgeCache`] keyed by [`EdgeKey`]: memory-only, unless a base
/// station attaches its disk-backed one. An entry cooked from the store
/// is served only while the store still holds the document generation
/// it was cooked from.
#[derive(Debug)]
pub struct Gateway {
    store: Arc<DocumentStore>,
    /// The cooked transmissions, shared across concurrent sessions: the
    /// frames for a request shape are immutable, so every session
    /// fetching the same document with the same parameters replays one
    /// encode instead of redoing slicing, ranking, and GF(2⁸) math.
    cache: Arc<EdgeCache>,
}

impl Gateway {
    /// Wraps a store, with a memory-only cache of [`CACHE_BUDGET`]
    /// bytes.
    pub fn new(store: Arc<DocumentStore>) -> Self {
        Gateway {
            store,
            cache: Arc::new(EdgeCache::in_memory(CACHE_BUDGET)),
        }
    }

    /// Swaps in a base station's disk-backed edge cache, whose entries
    /// can migrate to another cell ([`EdgeCache::export_blob`]).
    #[must_use]
    pub fn with_edge(mut self, edge: Arc<EdgeCache>) -> Self {
        self.cache = edge;
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<DocumentStore> {
        &self.store
    }

    /// `(hits, misses)` of the gateway's cache ([`EdgeCache::stats`]).
    pub fn prepared_cache_counters(&self) -> (u64, u64) {
        let stats = self.cache.stats();
        (stats.hits, stats.misses)
    }

    /// Prepares a transmission through the gateway's cache: repeat
    /// requests for one `(url, query, lod, measure, packet size, γ)`
    /// share one cooked transmission, with **zero** erasure-codec work
    /// (no `EncodeSpan`) and the envelopes it sealed for the first hit.
    /// Returns the server and whether it was a cache hit.
    ///
    /// A hit is honoured only while the store still holds the document
    /// generation the entry was cooked from — replacing or deleting the
    /// document invalidates it (migrated edge entries, which the edge
    /// holds authoritatively, always serve). A miss cooks once and
    /// admits the transmission; admission failures never fail the
    /// request: the response serves from the transmission just cooked
    /// and the failure is only tallied.
    ///
    /// # Errors
    ///
    /// Same as [`Gateway::prepare`].
    pub fn prepare_edge(&self, request: &Request) -> Result<(Arc<LiveServer>, bool), GatewayError> {
        let key = EdgeKey::of(request);
        // Read before the cache lock is taken, never under it: the
        // lookup drops an entry cooked from any other generation.
        let generation = self.store.generation(&request.url);
        if let Some(server) = self.cache.serve(&key, generation) {
            return Ok((server, true));
        }
        let (generation, live) = self.cook(request)?;
        let live = Arc::new(live);
        // Admission may be refused (the transmission alone over budget)
        // or fail on the cache's own disk — either way the response
        // still serves from the transmission just cooked; only the cache
        // copy is lost. The cache tallies failures
        // (`EdgeStats::admit_failures`).
        let _ = self
            .cache
            .admit_from_store(key, Arc::clone(&live), generation);
        Ok((live, false))
    }

    /// Prepares a live transmission for a request, uncached.
    ///
    /// # Errors
    ///
    /// [`GatewayError::NotFound`] for unknown URLs;
    /// [`GatewayError::Encoding`] when the document needs more than 256
    /// cooked packets at the requested packet size.
    pub fn prepare(&self, request: &Request) -> Result<LiveServer, GatewayError> {
        Ok(self.cook(request)?.1)
    }

    /// Cooks the store's current version of the requested document:
    /// scores the query through the version's SC tables, plans through
    /// its layout for the request's LOD and codes the plan straight into
    /// a server's frames ([`live::cook_plan`]). Returns its generation
    /// and the server, both from the one version read, so they describe
    /// one document.
    fn cook(&self, request: &Request) -> Result<(u64, LiveServer), GatewayError> {
        let query = Query::parse(&request.query, self.store.pipeline());
        let version = self
            .store
            .version(&request.url)
            .ok_or_else(|| GatewayError::NotFound(request.url.clone()))?;
        let sc = self.store.score(&version, &query);
        let (plan, payload) = version.plan(&sc, request.lod, request.measure);
        let live = live::cook_plan(plan, &payload, request.packet_size, request.gamma)?;
        Ok((version.generation, live))
    }
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
    fn prepared_map_caches_and_invalidates_on_replacement() {
        let gw = gateway();
        let req = Request {
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile wireless")
        };
        let first = gw.prepare_edge(&req).unwrap().0;
        let (second, hit) = gw.prepare_edge(&req).unwrap();
        assert!(hit, "same request shape shares one prepared transmission");
        assert_eq!(first.header(), second.header());
        let (hits, misses) = gw.prepared_cache_counters();
        assert_eq!((hits, misses), (1, 1));

        // A different shape is its own entry.
        let wider = Request {
            packet_size: 64,
            ..req.clone()
        };
        let (third, hit) = gw.prepare_edge(&wider).unwrap();
        assert!(!hit);
        assert_ne!(first.header(), third.header());

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
        let (fresh, hit) = gw.prepare_edge(&req).unwrap();
        assert!(
            !hit,
            "a replaced document must not serve stale cached frames"
        );
        assert_ne!(first.header(), fresh.header());
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

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!("mrtweb-gw-edge-{tag}-{nanos}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
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
            srv,
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
    fn prepare_edge_without_cache_serves_from_the_prepared_map() {
        let gw = gateway();
        let req = Request {
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile wireless")
        };
        let (srv, hit) = gw.prepare_edge(&req).unwrap();
        assert!(!hit);
        assert!(srv.header().m >= 1);
        let (again, hit) = gw.prepare_edge(&req).unwrap();
        assert!(hit, "a repeat request hits the prepared map");
        assert_eq!(srv.header(), again.header());
        assert_eq!(gw.prepared_cache_counters(), (1, 1));
    }

    #[test]
    fn prepared_map_stops_serving_removed_documents() {
        let gw = gateway();
        let req = Request {
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile wireless")
        };
        assert!(!gw.prepare_edge(&req).unwrap().1);
        assert!(gw.prepare_edge(&req).unwrap().1);
        gw.store().remove("http://site/paper");
        for err in [
            gw.prepare_edge(&req).unwrap_err(),
            gw.prepare(&req).unwrap_err(),
        ] {
            assert!(
                matches!(err, GatewayError::NotFound(_)),
                "a removed document must not keep serving from the prepared map: {err}"
            );
        }
        let query = Query::parse(&req.query, gw.store().pipeline());
        assert!(gw
            .store()
            .structural_characteristic(&req.url, &query)
            .is_none());
        // The lookup that found the removed document's entry dropped it
        // and missed.
        assert_eq!(gw.prepared_cache_counters(), (1, 2));
    }

    #[test]
    fn hits_share_one_server_and_stale_lookups_count_as_misses() {
        let (dir, edge, at_edge) = edge_gateway("share");
        let plain = gateway();
        let req = Request {
            packet_size: 32,
            ..Request::new("http://site/paper", "mobile wireless")
        };
        for (gw, cache) in [(&at_edge, &*edge), (&plain, &*plain.cache)] {
            let (miss, hit) = gw.prepare_edge(&req).unwrap();
            assert!(!hit);
            let (first, hit) = gw.prepare_edge(&req).unwrap();
            assert!(hit);
            let (second, hit) = gw.prepare_edge(&req).unwrap();
            assert!(hit);
            assert!(
                Arc::ptr_eq(&miss, &first) && Arc::ptr_eq(&first, &second),
                "hits share the server the miss cooked"
            );
            gw.store().put(
                "http://site/paper",
                Document::parse_xml(
                    "<document><title>Paper v2</title>\
                     <section><title>New</title>\
                     <paragraph>mobile wireless replacement content</paragraph></section>\
                     </document>",
                )
                .unwrap(),
            );
            let (fresh, hit) = gw.prepare_edge(&req).unwrap();
            assert!(!hit && !Arc::ptr_eq(&fresh, &first));
            let stats = cache.stats();
            assert_eq!(
                (stats.hits, stats.misses),
                (2, 2),
                "the stale lookup missed"
            );
            assert_eq!(gw.prepared_cache_counters(), (stats.hits, stats.misses));
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
