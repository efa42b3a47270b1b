//! Counts encode spans on the process-global tracer. The count would
//! also take in the encodes of tests running in parallel, so this test
//! is the only one in its test binary.

use std::sync::Arc;

use mrtweb_docmodel::document::Document;
use mrtweb_obs::EventKind;
use mrtweb_store::edge::EdgeCache;
use mrtweb_store::gateway::{Gateway, Request};
use mrtweb_store::store::DocumentStore;
use mrtweb_transport::live::{run_transfer, TransferConfig};

#[test]
fn edge_hit_skips_the_codec_and_matches_the_miss_bytes() {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("mrtweb-gw-edge-hit-{nanos}"));
    std::fs::create_dir_all(&dir).unwrap();
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
    let gw = Gateway::new(store).with_edge(edge);
    let req = Request {
        packet_size: 32,
        ..Request::new("http://site/paper", "mobile wireless")
    };

    let session = mrtweb_obs::testkit::capture();
    let (miss_srv, hit0) = gw.prepare_edge(&req).unwrap();
    let (hit_srv, hit1) = gw.prepare_edge(&req).unwrap();
    let trace = session.finish();
    assert!(!hit0, "first request must miss");
    assert!(hit1, "second request must hit");
    let encodes = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::EncodeSpan)
        .count();
    assert_eq!(encodes, 1, "one document, one encode — a hit shares it");

    // A hit serves byte-identical frames to the miss that cooked it.
    assert_eq!(miss_srv.header(), hit_srv.header());
    for i in 0..miss_srv.header().n {
        assert_eq!(miss_srv.frame_bytes(i), hit_srv.frame_bytes(i));
    }

    // And the hit transfers the same document end to end.
    let report = run_transfer(
        hit_srv,
        &TransferConfig {
            alpha: 0.2,
            seed: 7,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(report.completed);
    assert!(String::from_utf8_lossy(&report.payload).contains("mobile wireless browsing"));
    std::fs::remove_dir_all(&dir).unwrap();
}
