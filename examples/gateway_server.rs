//! The full server side of Figure 1: documents persisted in a
//! database-gateway store, transmissions prepared on request (a repeat
//! request served from the gateway's cache of cooked transmissions), and
//! delivered to a live client over a lossy link.
//!
//! ```sh
//! cargo run --example gateway_server
//! ```

use std::sync::Arc;

use mrtweb::docmodel::document::Document;
use mrtweb::docmodel::lod::Lod;
use mrtweb::store::disk::{load_store, save_store};
use mrtweb::store::gateway::{Gateway, Request};
use mrtweb::store::store::DocumentStore;
use mrtweb::transport::live::{run_transfer, TransferConfig};

fn page(title: &str, hot: &str, cold: &str) -> Document {
    Document::parse_xml(&format!(
        "<document><title>{title}</title>\
         <section><title>Main</title><paragraph>{hot}</paragraph></section>\
         <section><title>Appendix</title><paragraph>{cold}</paragraph></section>\
         </document>"
    ))
    .expect("example pages are valid")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Populate the store (a crawler or publisher would do this).
    let store = Arc::new(DocumentStore::new(16));
    store.put(
        "http://site/mobile-guide",
        page(
            "Mobile Guide",
            "mobile wireless browsing needs careful bandwidth and caching strategies",
            "change history and acknowledgements",
        ),
    );
    store.put(
        "http://site/cookbook",
        page(
            "Cookbook",
            "slow braises for winter evenings",
            "index of suppliers",
        ),
    );
    println!("store holds {} documents", store.len());

    // 2. Persist and reload — the gateway restarts without re-crawling.
    let dir = std::env::temp_dir().join("mrtweb-gateway-example");
    let saved = save_store(&dir, &store)?;
    let (reloaded, corrupt) = load_store(&dir)?;
    println!(
        "persisted {saved} documents; reloaded {} (corrupt: {})",
        reloaded.len(),
        corrupt.len()
    );

    // 3. Serve a query-biased transmission over a 25%-lossy channel.
    let gateway = Gateway::new(Arc::new(reloaded));
    let request = Request {
        lod: Lod::Section,
        packet_size: 64,
        ..Request::new("http://site/mobile-guide", "mobile wireless caching")
    };
    let server = gateway.prepare(&request)?;
    println!(
        "prepared transmission: M={}, N={}, first slice = unit {}",
        server.header().m,
        server.header().n,
        server.header().plan.slices()[0].label
    );
    let report = run_transfer(
        server,
        &TransferConfig {
            alpha: 0.25,
            seed: 17,
            ..Default::default()
        },
    )
    .unwrap();
    println!(
        "transfer: completed={} rounds={} corrupted={} of {} frames",
        report.completed, report.rounds, report.frames_corrupted, report.frames_sent
    );

    // 4. A repeat request reuses the cooked transmission.
    let (_, first_hit) = gateway.prepare_edge(&request)?;
    let (_, second_hit) = gateway.prepare_edge(&request)?;
    let (hits, misses) = gateway.prepared_cache_counters();
    assert!(!first_hit && second_hit && (hits, misses) == (1, 1));
    println!("gateway cache: {hits} hits, {misses} misses");

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
