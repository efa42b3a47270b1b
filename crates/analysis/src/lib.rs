//! In-tree static analysis for the mrtweb workspace.
//!
//! The paper's fault-tolerance claims — any `M` intact cooked packets
//! reconstruct the document, every corrupted frame is rejected by CRC —
//! hold only if the implementation degrades gracefully instead of
//! panicking, keeps its `unsafe` SIMD kernels sound, and replays fault
//! schedules deterministically. Those invariants are enforced here as
//! executable checks rather than review conventions:
//!
//! * [`lexer`] — token-level source preparation (strings, char
//!   literals, raw strings and nested block comments are never scanned
//!   for rule tokens; `#[cfg(test)]` regions are masked);
//! * [`rules`] — the rule catalog (`no-panic-paths`, `safety-comment`,
//!   `no-wallclock-in-sim`, `no-print-in-lib`, `bad-suppression`,
//!   `ordering-comment`, `untrusted-parser`) and the
//!   `// analysis:allow(<rule>) <justification>` waiver syntax;
//! * [`lockgraph`] — the `lock-discipline` rule: a per-crate
//!   lock-acquisition graph built from guard scopes, flagging order
//!   cycles, guards held across blocking calls, and `_`-bound guards;
//! * [`manifest`] — the declared crate-layering DAG and its checker
//!   (`layering`), built on a minimal hand-rolled `Cargo.toml` scanner;
//! * [`engine`] — the workspace walker;
//! * [`loc`] — code size as a number: library lines per crate;
//! * [`report`] — findings, text and JSON output;
//! * [`benchgate`] — the CI performance-regression gate comparing
//!   fresh `BENCH_*.json` reports against `BENCH_BASELINE.json`
//!   inside direction-aware tolerance bands.
//!
//! Run it as `cargo run -p mrtweb-analysis -- check` (the CI gate), or
//! with `--json` / `--fix-hints` for machine-readable output and
//! suggested suppression comments.

#![forbid(unsafe_code)]

pub mod benchgate;
pub mod engine;
pub mod lexer;
pub mod loc;
pub mod lockgraph;
pub mod manifest;
pub mod report;
pub mod rules;

pub use engine::{analyze, find_workspace_root, scan_source};
pub use report::{Analysis, Finding};
