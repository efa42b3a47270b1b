//! A full weakly-connected browsing transfer over the live prototype:
//! real frames, real CRC checks, real corruption, progressive
//! rendering, and stall recovery with the client-side packet cache.
//!
//! ```sh
//! cargo run --example browse_session
//! ```

use mrtweb::content::query::Query;
use mrtweb::content::sc::{Measure, StructuralCharacteristic};
use mrtweb::docmodel::document::Document;
use mrtweb::docmodel::lod::Lod;
use mrtweb::prelude::CacheMode;
use mrtweb::textproc::pipeline::ScPipeline;
use mrtweb::transport::live::{run_transfer, ClientEvent, LiveServer, TransferConfig};

fn document() -> Document {
    Document::parse_xml(
        "<document><title>Field Guide to Mobile Web Systems</title>\
         <section><title>Weak Connectivity</title>\
         <paragraph>Wireless mobile channels corrupt packets and drop \
         connections, so browsing must tolerate loss rather than assume \
         reliable delivery of whole documents.</paragraph>\
         <paragraph>Response time is dominated by retransmissions; a client \
         cache of intact cooked packets avoids resending what already \
         arrived safely.</paragraph></section>\
         <section><title>Content Ordering</title>\
         <paragraph>Ranking organizational units by query-based information \
         content ships the most informative paragraphs first, letting the \
         reader abandon irrelevant pages early.</paragraph></section>\
         <section><title>Appendix</title>\
         <paragraph>Ancillary tables, acknowledgements and other low-content \
         material travel last under multi-resolution ordering.</paragraph>\
         </section></document>",
    )
    .expect("example document is valid")
}

fn run(alpha: f64, cache: CacheMode, label: &str) {
    let doc = document();
    let pipeline = ScPipeline::default();
    let index = pipeline.run(&doc);
    let query = Query::parse("mobile wireless cache", &pipeline);
    let sc = StructuralCharacteristic::from_index(&index, Some(&query));
    let server = LiveServer::new(&doc, &sc, Lod::Paragraph, Measure::Qic, 48, 1.5)
        .expect("document fits a single dispersal group");
    println!(
        "--- {label}: α={alpha}, M={}, N={}, {} slices ---",
        server.header().m,
        server.header().n,
        server.header().plan.slices().len()
    );
    let labels: Vec<String> = server
        .header()
        .plan
        .slices()
        .iter()
        .map(|s| s.label.clone())
        .collect();
    let report = run_transfer(
        server,
        &TransferConfig {
            alpha,
            seed: 42,
            cache_mode: cache,
            ..Default::default()
        },
    )
    .unwrap();
    let mut rendered: Vec<&str> = Vec::new();
    for event in &report.events {
        match *event {
            ClientEvent::SliceProgress { slice, fraction }
                if fraction >= 1.0 && !rendered.contains(&labels[slice].as_str()) =>
            {
                rendered.push(&labels[slice]);
            }
            ClientEvent::Reconstructed => {
                println!("  [render] full document reconstructed");
            }
            // Partial progress below the render threshold.
            ClientEvent::SliceProgress { .. } => {}
        }
    }
    println!("  units fully rendered from clear text, in arrival order: {rendered:?}");
    println!(
        "  completed={} rounds={} frames_sent={} corrupted={} payload={}B",
        report.completed,
        report.rounds,
        report.frames_sent,
        report.frames_corrupted,
        report.payload.len()
    );
}

fn main() {
    run(0.0, CacheMode::Caching, "clean channel");
    run(0.3, CacheMode::Caching, "lossy channel, Caching");
    run(0.3, CacheMode::NoCaching, "lossy channel, NoCaching");
}
