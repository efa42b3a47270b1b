//! Golden transcripts of the in-process live transfer.
//!
//! [`run_transfer`] runs the document transmitter on its own thread
//! behind a rendezvous channel, so for one seed everything it reports is
//! a pure function of the configuration: whether the client finished or
//! stopped, how many rounds and frames it took, which packets each
//! retransmission asked for, the fault scheduler's trace, and the bytes
//! it rebuilt. This test pins all of that for a grid of documents,
//! fault presets, cache modes and retry settings, so a refactor of the
//! serving loop that changes any decision shows up as a diff.
//!
//! Each case is one JSON line in `tests/fixtures/live_transcripts.json`
//! and must match exactly. To regenerate after an intentional change:
//!
//! ```text
//! MRTWEB_REGEN_GOLDEN=1 cargo test --test live_transcripts
//! ```

use std::fmt::Write as _;

use mrtweb::channel::fault::FaultConfig;
use mrtweb::content::sc::{Measure, StructuralCharacteristic};
use mrtweb::docmodel::document::Document;
use mrtweb::docmodel::gen::SyntheticDocSpec;
use mrtweb::docmodel::lod::Lod;
use mrtweb::erasure::ida::Codec;
use mrtweb::prelude::CacheMode;
use mrtweb::textproc::pipeline::ScPipeline;
use mrtweb::transport::live::{run_transfer, DocumentHeader, LiveServer, TransferConfig};
use mrtweb::transport::plan::plan_document;

/// One served document shape.
struct Shape {
    target_bytes: usize,
    seed: u64,
    lod: Lod,
    measure: Measure,
    packet_size: usize,
    gamma: f64,
    /// Serve from cooked packets with every `k`-th parity packet
    /// missing, as a trimmed edge-cache entry would.
    trim_every: Option<usize>,
}

const SHAPES: &[Shape] = &[
    Shape {
        target_bytes: 1024,
        seed: 1,
        lod: Lod::Paragraph,
        measure: Measure::Ic,
        packet_size: 64,
        gamma: 1.5,
        trim_every: None,
    },
    Shape {
        target_bytes: 1536,
        seed: 2,
        lod: Lod::Section,
        measure: Measure::Qic,
        packet_size: 96,
        gamma: 1.25,
        trim_every: None,
    },
    Shape {
        target_bytes: 768,
        seed: 3,
        lod: Lod::Document,
        measure: Measure::Ic,
        packet_size: 48,
        gamma: 2.0,
        trim_every: None,
    },
    Shape {
        target_bytes: 1536,
        seed: 4,
        lod: Lod::Subsection,
        measure: Measure::Mqic,
        packet_size: 128,
        gamma: 1.6,
        trim_every: None,
    },
    Shape {
        target_bytes: 1024,
        seed: 5,
        lod: Lod::Paragraph,
        measure: Measure::Qic,
        packet_size: 64,
        gamma: 1.8,
        trim_every: Some(2),
    },
];

fn faults() -> Vec<(&'static str, Option<FaultConfig>)> {
    vec![
        ("none", None),
        ("clean", Some(FaultConfig::clean())),
        ("corrupting", Some(FaultConfig::corrupting(0.15))),
        ("bursty", Some(FaultConfig::bursty())),
        ("outage", Some(FaultConfig::outage_heavy())),
        ("mixed", Some(FaultConfig::mixed())),
        ("garbling", Some(FaultConfig::garbling())),
        ("dropping", Some(FaultConfig::dropping(0.25))),
    ]
}

/// Retry and stop settings: `(name, alpha, stop_at_content, max_rounds)`.
const SETTINGS: &[(&str, f64, Option<f64>, usize)] = &[
    ("plain", 0.1, None, 64),
    ("stop", 0.2, Some(0.5), 64),
    ("give-up", 0.7, None, 2),
    ("no-rounds", 0.1, None, 0),
];

fn document(shape: &Shape) -> (Document, StructuralCharacteristic) {
    let doc = SyntheticDocSpec {
        target_bytes: shape.target_bytes,
        ..SyntheticDocSpec::default()
    }
    .generate(shape.seed)
    .document;
    let index = ScPipeline::default().run(&doc);
    let sc = StructuralCharacteristic::from_index(&index, None);
    (doc, sc)
}

fn server(shape: &Shape, doc: &Document, sc: &StructuralCharacteristic) -> LiveServer {
    let Some(every) = shape.trim_every else {
        return LiveServer::new(
            doc,
            sc,
            shape.lod,
            shape.measure,
            shape.packet_size,
            shape.gamma,
        )
        .expect("shape fits one dispersal group");
    };
    let (plan, payload) = plan_document(doc, sc, shape.lod, shape.measure);
    let m = plan.raw_packets(shape.packet_size);
    let n = ((m as f64 * shape.gamma).round() as usize).max(m);
    let codec = Codec::shared(m, n, shape.packet_size).expect("codec");
    let mut cooked = Vec::new();
    codec.encode_into(&payload, &mut cooked);
    let packets = cooked
        .chunks_exact(shape.packet_size)
        .enumerate()
        .map(|(i, p)| (i < m || (i - m) % every != 0).then(|| p.to_vec()))
        .collect();
    let header = DocumentHeader {
        doc_len: payload.len(),
        m,
        n,
        packet_size: shape.packet_size,
        plan,
    };
    LiveServer::from_cooked(header, packets).expect("trimmed server")
}

/// FNV-1a, 64-bit: a stable digest that needs no dependency.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn render() -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (d, shape) in SHAPES.iter().enumerate() {
        let (doc, sc) = document(shape);
        for (fault_name, fault) in faults() {
            for mode in [CacheMode::Caching, CacheMode::NoCaching] {
                for &(setting, alpha, stop_at_content, max_rounds) in SETTINGS {
                    let seed = 1000 * d as u64 + fnv64(fault_name.as_bytes()) % 997;
                    let report = run_transfer(
                        server(shape, &doc, &sc),
                        &TransferConfig {
                            alpha,
                            seed,
                            cache_mode: mode,
                            stop_at_content,
                            max_rounds,
                            fault: fault.clone(),
                        },
                    )
                    .expect("transfer runs");
                    let sizes: Vec<String> = report
                        .requests
                        .iter()
                        .map(|r| r.len().to_string())
                        .collect();
                    let mode_name = match mode {
                        CacheMode::Caching => "caching",
                        CacheMode::NoCaching => "nocaching",
                    };
                    if !first {
                        out.push_str(",\n");
                    }
                    first = false;
                    let _ = write!(
                        out,
                        "  {{\"case\": \"d{d}/{fault_name}/{mode_name}/{setting}\", \
                         \"completed\": {}, \"stopped_early\": {}, \"rounds\": {}, \
                         \"frames_sent\": {}, \"frames_corrupted\": {}, \
                         \"request_sizes\": [{}], \"faults\": {}, \
                         \"fault_trace\": \"{:016x}\", \"payload\": \"{:016x}\"}}",
                        report.completed,
                        report.stopped_early,
                        report.rounds,
                        report.frames_sent,
                        report.frames_corrupted,
                        sizes.join(", "),
                        report.fault_events.len(),
                        fnv64(format!("{:?}", report.fault_events).as_bytes()),
                        fnv64(&report.payload),
                    );
                }
            }
        }
    }
    out.push_str("\n]\n");
    out
}

#[test]
fn live_transfers_match_their_golden_transcripts() {
    let rendered = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/live_transcripts.json");
    if std::env::var_os("MRTWEB_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with MRTWEB_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    let mut errs = String::new();
    let (got, want): (Vec<&str>, Vec<&str>) =
        (rendered.lines().collect(), golden.lines().collect());
    for (g, w) in got.iter().zip(&want).filter(|(g, w)| g != w).take(10) {
        let _ = writeln!(errs, "  got    {g}\n  golden {w}");
    }
    assert!(
        errs.is_empty() && got.len() == want.len(),
        "live transcripts drifted from the golden fixture ({} vs {} lines):\n{errs}\
         regenerate with MRTWEB_REGEN_GOLDEN=1 if the change is intentional",
        got.len(),
        want.len()
    );
    // The grid must keep covering what it claims to.
    assert!(got.len() >= 102, "at least 100 cases");
    for needle in [
        "\"stopped_early\": true",
        "\"completed\": false",
        "\"rounds\": 0",
    ] {
        assert!(rendered.contains(needle), "no case with {needle}");
    }
}
