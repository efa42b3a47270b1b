//! The gateway's prepare paths agree byte for byte, and its one
//! freshness rule holds under concurrent puts.
//!
//! `Gateway::prepare`, `prepare_edge` on a plain gateway (its
//! memory-only cache) and `prepare_edge` on an edge gateway (a miss that
//! cooks and admits a blob, then a hit) must all hand out the same
//! header and the same wire frames — at any cache budget — and the blob
//! the edge wrote must be exactly `encode_dispersed` of the planned
//! payload.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use mrtweb_content::query::Query;
use mrtweb_content::sc::Measure;
use mrtweb_docmodel::document::Document;
use mrtweb_docmodel::gen::SyntheticDocSpec;
use mrtweb_docmodel::lod::Lod;
use mrtweb_store::codec::encode_dispersed;
use mrtweb_store::edge::{EdgeCache, EdgeKey};
use mrtweb_store::gateway::{Gateway, GatewayError, Request, CACHE_BUDGET};
use mrtweb_store::store::DocumentStore;
use mrtweb_transport::live::{DocumentHeader, LiveClient, LiveServer};
use mrtweb_transport::plan::plan_document;

/// A scratch directory unique to this process and call site.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "mrtweb-prepare-paths-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small generated document: small enough that 16-byte packets at
/// γ = 2 stay within one 256-packet dispersal group for most seeds.
fn document(seed: u64) -> Document {
    SyntheticDocSpec {
        sections: 3,
        target_bytes: 1200,
        keyword_budget: 120,
        ..Default::default()
    }
    .generate(seed)
    .document
}

/// The planned payload for `request` over the store's current document.
fn planned_payload(store: &DocumentStore, request: &Request) -> Vec<u8> {
    let doc = store.document(&request.url).unwrap();
    let query = Query::parse(&request.query, store.pipeline());
    let sc = store
        .structural_characteristic(&request.url, &query)
        .unwrap();
    plan_document(&doc, &sc, request.lod, request.measure).1
}

/// Asserts `server` serves exactly what `reference` serves.
fn assert_same_transmission(what: &str, reference: &LiveServer, server: &LiveServer) {
    assert_eq!(reference.header(), server.header(), "{what}: header");
    for i in 0..=reference.header().n {
        assert_eq!(
            reference.frame_bytes(i),
            server.frame_bytes(i),
            "{what}: frame {i}"
        );
    }
}

/// Every request shape of the matrix: seeds × LOD × measure × packet
/// size × γ × query.
fn request_matrix(seeds: &[u64]) -> Vec<Request> {
    let mut requests = Vec::new();
    for &seed in seeds {
        for lod in Lod::ALL {
            for measure in [Measure::Ic, Measure::Qic, Measure::Mqic] {
                for packet_size in [16, 64, 256] {
                    for gamma in [1.0, 1.5, 2.0] {
                        for query in ["", "mobile", "mobile wireless bandwidth"] {
                            requests.push(Request {
                                url: format!("http://site/doc{seed}"),
                                query: query.to_owned(),
                                lod,
                                measure,
                                packet_size,
                                gamma,
                            });
                        }
                    }
                }
            }
        }
    }
    requests
}

#[test]
fn every_prepare_path_serves_the_same_bytes() {
    let dir = temp_dir("same-bytes");
    let store = Arc::new(DocumentStore::new(64));
    let seeds = [3u64, 17];
    for seed in seeds {
        store.put(format!("http://site/doc{seed}"), document(seed));
    }
    let plain = Gateway::new(Arc::clone(&store));
    let edge = Arc::new(EdgeCache::new(&dir, 1 << 26).unwrap());
    let at_edge = Gateway::new(Arc::clone(&store)).with_edge(Arc::clone(&edge));
    let requests = request_matrix(&seeds);
    let mut too_large = 0usize;
    for request in &requests {
        let case = format!("{request:?}");
        let reference = match plain.prepare(request) {
            Ok(server) => server,
            Err(GatewayError::Encoding(_)) => {
                // Over one dispersal group: every path refuses it alike.
                for gateway in [&plain, &at_edge] {
                    let refused = gateway.prepare_edge(request);
                    assert!(matches!(refused, Err(GatewayError::Encoding(_))), "{case}");
                }
                too_large += 1;
                continue;
            }
            Err(e) => panic!("{case}: {e}"),
        };
        let (in_memory, _) = plain.prepare_edge(request).unwrap();
        assert_same_transmission(&format!("prepared map {case}"), &reference, &in_memory);
        let (miss, hit) = at_edge.prepare_edge(request).unwrap();
        assert!(!hit, "{case}: first edge request hit");
        assert_same_transmission(&format!("edge miss {case}"), &reference, &miss);
        let (again, hit) = at_edge.prepare_edge(request).unwrap();
        assert!(hit, "{case}: repeat edge request missed");
        assert_same_transmission(&format!("edge hit {case}"), &reference, &again);

        let header = reference.header();
        let payload = planned_payload(&store, request);
        assert_eq!(header.doc_len, payload.len(), "{case}");
        let (exported, blob) = edge.export_blob(&EdgeKey::of(request)).unwrap();
        assert_eq!(&exported, header, "{case}");
        let expected = encode_dispersed(&payload, header.m, header.n, header.packet_size);
        assert!(blob == expected.unwrap(), "{case}: edge blob differs");
    }
    assert!(
        too_large * 5 < requests.len(),
        "{too_large} of {} shapes over one group",
        requests.len()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hits_under_budget_pressure_serve_whole_transmissions() {
    let dir = temp_dir("pressure");
    let store = Arc::new(DocumentStore::new(8));
    let url = "http://site/large";
    let large = SyntheticDocSpec {
        sections: 6,
        target_bytes: 100_000,
        ..Default::default()
    };
    store.put(url, large.generate(5).document);
    let shapes: Vec<Request> = [Lod::Paragraph, Lod::Section]
        .into_iter()
        .flat_map(|lod| {
            [4096, 8192, 16384].map(|packet_size| Request {
                lod,
                packet_size,
                gamma: 2.0,
                ..Request::new(url, "mobile wireless")
            })
        })
        .collect();
    let references: Vec<LiveServer> = shapes
        .iter()
        .map(|r| Gateway::new(Arc::clone(&store)).prepare(r).unwrap())
        .collect();
    // The budget holds every shape's clear prefix, not every whole
    // transmission: a cache that sheds parity to stay under it would
    // keep them all, minus the frames a cook sends.
    let bytes = |packets: fn(&LiveServer) -> usize| -> usize {
        references
            .iter()
            .map(|s| packets(s) * s.header().packet_size)
            .sum()
    };
    let (clear, whole) = (bytes(|s| s.header().m), bytes(|s| s.header().n));
    assert!(
        clear <= CACHE_BUDGET && whole > CACHE_BUDGET,
        "{clear} / {whole}"
    );

    let plain = Gateway::new(Arc::clone(&store));
    let edge = Arc::new(EdgeCache::new(&dir, CACHE_BUDGET).unwrap());
    let at_edge = Gateway::new(Arc::clone(&store)).with_edge(Arc::clone(&edge));
    for (what, gateway) in [("memory-only", &plain), ("disk-backed", &at_edge)] {
        let mut hits = 0;
        for round in 0..3 {
            // Round-robin, each shape twice in a row: the reload hits
            // while its entry is resident.
            for (request, reference) in shapes.iter().zip(&references) {
                for _ in 0..2 {
                    let (server, hit) = gateway.prepare_edge(request).unwrap();
                    let case = format!("{what} round {round} {request:?} hit={hit}");
                    assert_same_transmission(&case, reference, &server);
                    hits += usize::from(hit);
                }
            }
        }
        assert!(hits > 0, "{what}: no request hit");
    }
    assert!(edge.resident_bytes() <= CACHE_BUDGET);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One version of the contended document: what a transmission of it
/// must carry.
struct Version {
    header: DocumentHeader,
    payload: Vec<u8>,
}

impl Version {
    fn of(document: &Document, request: &Request) -> Self {
        let store = Arc::new(DocumentStore::new(8));
        store.put(request.url.clone(), document.clone());
        let header = Gateway::new(Arc::clone(&store))
            .prepare(request)
            .unwrap()
            .header()
            .clone();
        let payload = planned_payload(&store, request);
        Version { header, payload }
    }
}

/// Which version `server` carries: its header must be that version's,
/// and its frames must rebuild that version's planned payload.
fn version_of(server: &LiveServer, versions: &[Version]) -> usize {
    let mut client = LiveClient::new(server.header().clone()).unwrap();
    for i in 0..server.header().n {
        if client.document_bytes().is_some() {
            break;
        }
        client.on_wire(server.frame_bytes(i).unwrap());
    }
    let payload = client.document_bytes().expect("every frame is held");
    versions
        .iter()
        .position(|v| &v.header == server.header() && v.payload == payload)
        .expect("a transmission that is no single version's")
}

#[test]
fn concurrent_puts_never_serve_a_mixed_or_stale_version() {
    let request = Request {
        packet_size: 64,
        ..Request::new("http://site/contended", "mobile wireless")
    };
    let documents = [document(101), document(202)];
    let versions: Vec<Version> = documents.iter().map(|d| Version::of(d, &request)).collect();
    assert_ne!(versions[0].payload, versions[1].payload);

    let store = Arc::new(DocumentStore::new(8));
    store.put(request.url.clone(), documents[0].clone());
    let gateway = Gateway::new(Arc::clone(&store));
    let writing = AtomicBool::new(true);
    let puts = 200;
    let checked = thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut checked = 0usize;
                    while writing.load(Ordering::Acquire) {
                        let (server, _) = gateway.prepare_edge(&request).unwrap();
                        version_of(&server, &versions);
                        checked += 1;
                    }
                    checked
                })
            })
            .collect();
        for k in 0..puts {
            store.put(request.url.clone(), documents[k % 2].clone());
        }
        writing.store(false, Ordering::Release);
        readers
            .into_iter()
            .map(|r| r.join().unwrap())
            .sum::<usize>()
    });
    assert!(checked > 0);

    // A request that starts after the last put returned serves the last
    // version, whichever version the readers left in the map.
    let (server, _) = gateway.prepare_edge(&request).unwrap();
    assert_eq!(version_of(&server, &versions), (puts - 1) % 2);
    for k in [0, 1, 0] {
        store.put(request.url.clone(), documents[k].clone());
        let (server, hit) = gateway.prepare_edge(&request).unwrap();
        assert!(!hit, "the first request after a put must cook");
        assert_eq!(version_of(&server, &versions), k);
        let (server, hit) = gateway.prepare_edge(&request).unwrap();
        assert!(hit);
        assert_eq!(version_of(&server, &versions), k);
    }
}
