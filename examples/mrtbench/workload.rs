//! The four traffic mixes, the inputs each one draws from its seed, and
//! the oracle that checks every payload the daemon serves.

use std::sync::{Arc, RwLock};

use mrtweb::channel::fault::FaultConfig;
use mrtweb::content::query::Query;
use mrtweb::content::sc::Measure;
use mrtweb::docmodel::document::Document;
use mrtweb::docmodel::gen::SyntheticDocSpec;
use mrtweb::docmodel::lod::Lod;
use mrtweb::proxy::server::{bind_engine, Engine, ProxyServer, ServerConfig};
use mrtweb::store::gateway::Gateway;
use mrtweb::store::store::DocumentStore;
use mrtweb::transport::plan::plan_document;

use crate::util::{Hash, Rng};

/// The synthetic generator's keyword vocabulary: cold-workload queries
/// draw three distinct words from it, C(40, 3) = 9880 queries per
/// document.
const VOCABULARY: [&str; 40] = [
    "mobile",
    "wireless",
    "bandwidth",
    "browsing",
    "document",
    "transmission",
    "resolution",
    "client",
    "server",
    "packet",
    "redundancy",
    "channel",
    "content",
    "keyword",
    "caching",
    "retransmission",
    "reconstruction",
    "connectivity",
    "corruption",
    "latency",
    "prefetching",
    "profile",
    "query",
    "relevance",
    "session",
    "structure",
    "section",
    "paragraph",
    "encoding",
    "dispersal",
    "vandermonde",
    "polynomial",
    "battery",
    "energy",
    "disconnection",
    "surfing",
    "hypertext",
    "navigation",
    "summary",
    "index",
];

/// Operations per generator stream; a stream that runs out starts over.
const STREAM_LEN: usize = 1 << 17;
/// On `churn`, generator 0 republishes a document every this many
/// operations.
const PUT_EVERY: usize = 20;
/// Pre-generated replacement versions `churn` cycles through.
const POOL: usize = 32;
/// Seed offset of the replacement versions, far from the corpus seeds.
const POOL_SEED_OFFSET: u64 = 1 << 32;

pub const GENERATORS: usize = 2;
pub const PACKET_SIZE: u32 = 256;
pub const LOD: Lod = Lod::Paragraph;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Hot,
    Cold,
    Lossy,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Hot,
        Workload::Cold,
        Workload::Lossy,
        Workload::Churn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Cold => "cold",
            Workload::Lossy => "lossy",
            Workload::Churn => "churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Corpus size. `hot` is `mrtweb serve`'s default corpus of 4;
    /// `churn` is twice the gateway's prepared-transmission capacity.
    pub fn docs(self) -> usize {
        match self {
            Workload::Hot => 4,
            Workload::Cold => 64,
            Workload::Lossy => 16,
            Workload::Churn => 128,
        }
    }

    pub fn gamma(self) -> f64 {
        // γ = 1.2 < 1/(1 − α) at α = 0.2: the first round usually
        // falls short of M intact packets and the client asks again.
        if self == Workload::Lossy {
            1.2
        } else {
            1.5
        }
    }

    pub fn measure(self) -> Measure {
        self.measure_name().parse().expect("measure names parse")
    }

    pub fn measure_name(self) -> &'static str {
        if self == Workload::Cold {
            "qic"
        } else {
            "ic"
        }
    }

    pub fn fault(self) -> Option<FaultConfig> {
        (self == Workload::Lossy).then(|| FaultConfig::corrupting(0.2))
    }
}

/// One generator operation.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Fetch `doc/{doc}`; `query` indexes [`VOCABULARY`] (cold only).
    Fetch { doc: usize, query: Option<[u8; 3]> },
    /// Replace `doc/{doc}` with replacement version `version` (churn).
    Put { doc: usize, version: usize },
}

pub fn url(doc: usize) -> String {
    format!("doc/{doc}")
}

pub fn query_text(query: Option<[u8; 3]>) -> String {
    query.map_or_else(String::new, |q| {
        q.map(|w| VOCABULARY[usize::from(w)]).join(" ")
    })
}

fn corpus_doc(seed: u64, i: usize) -> Document {
    SyntheticDocSpec::default()
        .generate(seed.wrapping_add(i as u64))
        .document
}

/// Everything a workload's run is made from, drawn from one seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub corpus: Vec<Document>,
    /// Replacement versions (`churn` only).
    pub pool: Vec<Document>,
    /// One stream per generator.
    pub streams: Vec<Vec<Op>>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let docs = workload.docs();
        let corpus = (0..docs).map(|i| corpus_doc(seed, i)).collect();
        let pool = if workload == Workload::Churn {
            (0..POOL)
                .map(|k| corpus_doc(seed.wrapping_add(POOL_SEED_OFFSET), k))
                .collect()
        } else {
            Vec::new()
        };
        let zipf = zipf_cdf(docs);
        let mut puts = 0;
        let streams = (0..GENERATORS)
            .map(|g| {
                let mut rng = Rng::new(seed ^ (0x7374_7265_616D + g as u64));
                (0..STREAM_LEN)
                    .map(|i| match workload {
                        Workload::Cold => Op::Fetch {
                            doc: rng.below(docs),
                            query: Some(three_words(&mut rng)),
                        },
                        Workload::Churn if g == 0 && i % PUT_EVERY == PUT_EVERY - 1 => {
                            puts += 1;
                            Op::Put {
                                doc: zipf_draw(&zipf, &mut rng),
                                version: (puts - 1) % POOL,
                            }
                        }
                        Workload::Churn => Op::Fetch {
                            doc: zipf_draw(&zipf, &mut rng),
                            query: None,
                        },
                        Workload::Hot | Workload::Lossy => Op::Fetch {
                            doc: rng.below(docs),
                            query: None,
                        },
                    })
                    .collect()
            })
            .collect();
        Inputs {
            workload,
            seed,
            corpus,
            pool,
            streams,
        }
    }

    /// A hash of the corpus bytes and the whole request/put stream: two
    /// runs with equal digests gave the daemon identical inputs.
    pub fn digest(&self) -> u64 {
        let mut h = Hash::default().u64(self.seed);
        for doc in self.corpus.iter().chain(&self.pool) {
            h = h.bytes(doc.to_xml().as_bytes());
        }
        for stream in &self.streams {
            h = h.u64(stream.len() as u64);
            for op in stream {
                h = match *op {
                    Op::Fetch { doc, query } => {
                        h.u64(doc as u64).u64(query.map_or(u64::MAX, |q| {
                            u64::from(u32::from_le_bytes([q[0], q[1], q[2], 0]))
                        }))
                    }
                    Op::Put { doc, version } => h.u64(u64::MAX).u64(doc as u64).u64(version as u64),
                };
            }
        }
        h.finish()
    }

    /// The first `fetches` fetches of the workload's stream, with the
    /// puts among them, in the order a single client would issue them:
    /// the streams interleave one operation from each generator.
    pub fn prefix(&self, fetches: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        let mut seen = 0;
        for i in 0.. {
            for stream in &self.streams {
                let Some(&op) = stream.get(i) else {
                    return ops;
                };
                seen += usize::from(matches!(op, Op::Fetch { .. }));
                ops.push(op);
                if seen == fetches {
                    return ops;
                }
            }
        }
        ops
    }
}

fn three_words(rng: &mut Rng) -> [u8; 3] {
    let a = rng.below(VOCABULARY.len());
    let mut b = rng.below(VOCABULARY.len() - 1);
    b += usize::from(b >= a);
    let (lo, hi) = (a.min(b), a.max(b));
    let mut c = rng.below(VOCABULARY.len() - 2);
    c += usize::from(c >= lo);
    c += usize::from(c >= hi);
    [a as u8, b as u8, c as u8]
}

/// Cumulative Zipf(s = 1) weights over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64;
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn zipf_draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// A bound daemon and the store behind it.
pub type Daemon = (Box<dyn ProxyServer>, Arc<DocumentStore>);

/// Builds the daemon exactly as `mrtweb serve --corpus N --seed S` does:
/// generate the corpus, load the store, bind the engine.
pub fn build_daemon(workload: Workload, seed: u64) -> Result<Daemon, String> {
    let store = Arc::new(DocumentStore::new(64));
    let spec = SyntheticDocSpec::default();
    for i in 0..workload.docs() {
        store.put(url(i), spec.generate(seed.wrapping_add(i as u64)).document);
    }
    let config = ServerConfig {
        max_sessions: 4096,
        fault: workload.fault(),
        fault_seed: seed,
        ..Default::default()
    };
    let server = bind_engine(
        "127.0.0.1:0",
        Gateway::new(Arc::clone(&store)),
        config,
        Engine::Auto,
    )
    .map_err(|e| format!("cannot bind the daemon: {e}"))?;
    Ok((server, store))
}

/// The payload the daemon must deliver for `doc` under `query`:
/// `plan_document(doc, sc, lod, measure).1`, computed through `store`.
pub fn reference(store: &DocumentStore, url: &str, query: &str, measure: Measure) -> Vec<u8> {
    let doc = store
        .document(url)
        .expect("oracle store holds every URL it is asked for");
    let sc = store
        .structural_characteristic(url, &Query::parse(query, store.pipeline()))
        .expect("oracle store holds every URL it is asked for");
    plan_document(&doc, &sc, LOD, measure).1
}

/// How a fetched payload compares with what the daemon had to serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Wrong,
    /// Equals a version superseded before the fetch started.
    Stale,
}

/// Reference payloads for every version a query-less fetch can see:
/// the corpus version of each document (version 0) and every
/// replacement (version `k + 1`). Cold fetches carry queries and are
/// checked after the clock instead ([`Oracle::check_query`]).
pub struct Oracle {
    store: DocumentStore,
    measure: Measure,
    corpus_refs: Vec<Vec<u8>>,
    pool_refs: Vec<Vec<u8>>,
}

impl Oracle {
    pub fn new(inputs: &Inputs) -> Oracle {
        let measure = inputs.workload.measure();
        let store = DocumentStore::new(64);
        for (i, doc) in inputs.corpus.iter().enumerate() {
            store.put(url(i), doc.clone());
        }
        for (k, doc) in inputs.pool.iter().enumerate() {
            store.put(format!("pool/{k}"), doc.clone());
        }
        let (corpus_refs, pool_refs) = if inputs.workload == Workload::Cold {
            (Vec::new(), Vec::new())
        } else {
            (
                (0..inputs.corpus.len())
                    .map(|i| reference(&store, &url(i), "", measure))
                    .collect(),
                (0..inputs.pool.len())
                    .map(|k| reference(&store, &format!("pool/{k}"), "", measure))
                    .collect(),
            )
        };
        Oracle {
            store,
            measure,
            corpus_refs,
            pool_refs,
        }
    }

    fn version_ref(&self, doc: usize, version: usize) -> &[u8] {
        match version {
            0 => &self.corpus_refs[doc],
            v => &self.pool_refs[v - 1],
        }
    }

    /// Checks a query-less fetch of `doc` against the version it had
    /// when the fetch started.
    pub fn check(&self, doc: usize, state: &DocState, payload: &[u8]) -> Verdict {
        if payload == self.version_ref(doc, state.current) {
            Verdict::Ok
        } else if state
            .superseded
            .iter()
            .any(|&v| payload == self.version_ref(doc, v))
        {
            Verdict::Stale
        } else {
            Verdict::Wrong
        }
    }

    /// Checks a fingerprint of a fetch that carried a query (cold).
    pub fn check_query(&self, doc: usize, query: Option<[u8; 3]>, hash: u64) -> Verdict {
        let expected = reference(&self.store, &url(doc), &query_text(query), self.measure);
        if Hash::default().bytes(&expected).finish() == hash {
            Verdict::Ok
        } else {
            Verdict::Wrong
        }
    }

    /// Checks any fetch on the spot, whether or not it carried a query.
    pub fn verify(
        &self,
        doc: usize,
        query: Option<[u8; 3]>,
        state: &DocState,
        payload: &[u8],
    ) -> Verdict {
        if query.is_some() {
            self.check_query(doc, query, Hash::default().bytes(payload).finish())
        } else {
            self.check(doc, state, payload)
        }
    }
}

/// Which version of a document the daemon serves, and which it served
/// before. Versions: 0 is the corpus document, `k + 1` replacement `k`.
#[derive(Default)]
pub struct DocState {
    pub current: usize,
    pub superseded: Vec<usize>,
}

/// Per-document version state, also the lock that keeps a put off a
/// document while a fetch of it is in flight. The benchmark serializes
/// put against fetch per document because the store's SC cache fill
/// can race a concurrent replacement of the same document (see the
/// README); puts on one document still run beside fetches of others.
pub struct Versions(Vec<RwLock<DocState>>);

impl Versions {
    pub fn new(docs: usize) -> Versions {
        Versions((0..docs).map(|_| RwLock::default()).collect())
    }

    pub fn doc(&self, doc: usize) -> &RwLock<DocState> {
        &self.0[doc]
    }

    /// Replaces `doc` in `store` with replacement `version`, recording
    /// the version it superseded.
    pub fn put(&self, store: &DocumentStore, inputs: &Inputs, doc: usize, version: usize) {
        let mut state = self.0[doc]
            .write()
            .expect("no generator panics while holding a document lock");
        store.put(url(doc), inputs.pool[version].clone());
        let old = std::mem::replace(&mut state.current, version + 1);
        state.superseded.push(old);
    }
}
