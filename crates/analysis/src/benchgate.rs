//! The CI performance-regression gate.
//!
//! Compares freshly produced bench reports (`BENCH_erasure.json`,
//! `BENCH_proxy.json`, `BENCH_broadcast.json`) against the committed
//! `BENCH_BASELINE.json`, metric by metric, inside direction-aware
//! tolerance bands:
//!
//! * **higher is better** — `mib_per_s`, `throughput_rps`,
//!   `max_in_flight` (concurrency actually sustained),
//!   `listeners_completed` (broadcast listeners that finished), and any
//!   `*speedup*` ratio: the gate fails when the fresh value falls below
//!   `baseline · (1 − tolerance)`;
//! * **lower is better** — latency quantiles (`p50_ms`, `p95_ms`,
//!   `p99_ms`, `p99_9_ms`), broadcast access-time quantiles
//!   (`mean_access_slots`, `p95_access_slots`), and overhead
//!   percentages (`*_pct`): the gate fails when the fresh value rises
//!   above `baseline · (1 + tolerance)`.
//!
//! The default tolerance is deliberately wide (±50%): shared CI boxes
//! jitter by tens of percent, and the gate exists to catch order-of-
//! magnitude regressions (a scalar fallback shipping instead of the
//! split-table kernel; a lock on the hot path), not 5% noise. Bytes,
//! counts, and wall-clock totals are configuration, not performance,
//! and are never compared. A few *dimensionless* metrics additionally
//! carry absolute hard caps (see [`hard_cap_of`]): the fitted
//! `setup_scaling_exponent` and the `decode_cold_over_warm_ratio` are
//! immune to runner speed, so they gate against a fixed contract
//! rather than a measured baseline.
//!
//! Everything here is dependency-free, including the minimal JSON
//! reader — the analyzer must keep working when the rest of the
//! workspace is broken.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default relative tolerance band.
pub const DEFAULT_TOLERANCE: f64 = 0.5;

/// Absolute pass threshold for percentage-point metrics (`*_pct`),
/// in points. Relative bands are meaningless around zero — a tracing
/// overhead that measures −0.3% one run and +0.8% the next is *noise*,
/// not a 3.7× regression — so a `*_pct` metric also passes while it
/// stays under this budget (DESIGN.md §13's overhead budget).
pub const PCT_ABS_BUDGET: f64 = 2.0;

/// Absolute pass threshold for the edge cache's hit rate, in percent.
/// `cache_hit_rate_pct` improves upward, so the `*_pct` near-zero
/// budget above cannot apply; instead a fresh run also passes while
/// the hit rate stays at or above this floor — a cache serving three
/// of four repeat requests is healthy regardless of how a lucky
/// baseline run scored.
pub const HIT_RATE_ABS_BUDGET: f64 = 75.0;

/// Hard ceiling on the fitted `setup_scaling_exponent`: codec setup
/// must stay at or under `O(M^2.3)` *measured*. The exponent is a
/// slope, so it is immune to runner speed — unlike the tolerance band,
/// this cap is a tightening contract: a fresh run over it fails even
/// when the baseline run was also over it.
pub const SETUP_EXPONENT_CAP: f64 = 2.3;

/// Hard ceiling on `decode_cold_over_warm_ratio`: a cache-cold decode
/// (fresh survivor-matrix inversion) must finish within this multiple
/// of a cache-warm one. Scale-invariant like the exponent cap — it
/// pins the closed-form Cauchy inverse, whose cost must stay small
/// next to the row reconstruction it unblocks.
pub const COLD_WARM_RATIO_CAP: f64 = 2.0;

/// Absolute hard cap for a metric, or `None` for band-only gating.
///
/// Caps apply on top of the tolerance band and only ever tighten it:
/// these metrics are dimensionless ratios (safe on slow runners), so an
/// absolute contract is meaningful where one on nanoseconds would not
/// be.
#[must_use]
pub fn hard_cap_of(key: &str) -> Option<f64> {
    match key.rsplit('/').next().unwrap_or(key) {
        "setup_scaling_exponent" => Some(SETUP_EXPONENT_CAP),
        "decode_cold_over_warm_ratio" => Some(COLD_WARM_RATIO_CAP),
        _ => None,
    }
}

/// A parsed JSON value (just enough for bench reports).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered by key.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// A human-readable description with a byte offset on malformed input.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b.get(*pos..)
        .is_some_and(|rest| rest.starts_with(lit.as_bytes()))
    {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while matches!(
        b.get(*pos),
        Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(b.get(start..*pos).unwrap_or(&[]))
        .map_err(|_| "non-utf8 number".to_owned())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    *pos += 1; // opening quote
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                let esc = b
                    .get(*pos + 1)
                    .ok_or_else(|| format!("dangling escape at byte {}", *pos))?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        // Bench names are ASCII; keep the escape verbatim.
                        out.push_str("\\u");
                    }
                    other => return Err(format!("unsupported escape `\\{}`", *other as char)),
                }
                *pos += 2;
            }
            _ => {
                // Copy the full UTF-8 scalar, not just one byte.
                let rest = std::str::from_utf8(b.get(*pos..).unwrap_or(&[]))
                    .map_err(|_| format!("non-utf8 string at byte {}", *pos))?;
                let ch = rest.chars().next().ok_or("empty string tail")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
    Err(format!("unterminated string starting at byte {start}"))
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        pairs.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger fresh values are fine; shrinking regresses.
    HigherIsBetter,
    /// Smaller fresh values are fine; growing regresses.
    LowerIsBetter,
}

/// Classifies a flattened metric key, or `None` for non-performance
/// fields (counts, byte totals, wall-clock totals, booleans).
#[must_use]
pub fn direction_of(key: &str) -> Option<Direction> {
    let leaf = key.rsplit('/').next().unwrap_or(key);
    // Raw ns_per_iter is usually configuration-dependent noise, but
    // codec setup has no throughput form — its wall time *is* the
    // metric the Cauchy construction exists to shrink.
    if leaf == "ns_per_iter" && key.contains("codec_setup") {
        return Some(Direction::LowerIsBetter);
    }
    if leaf == "setup_scaling_exponent" || leaf == "decode_cold_over_warm_ratio" {
        return Some(Direction::LowerIsBetter);
    }
    if leaf == "mib_per_s"
        || leaf == "throughput_rps"
        || leaf == "max_in_flight"
        || leaf == "max_sessions_in_flight"
        || leaf == "listeners_completed"
        || leaf == "cache_hit_rate_pct"
        || leaf.contains("speedup")
    {
        return Some(Direction::HigherIsBetter);
    }
    if matches!(
        leaf,
        "p50_ms"
            | "p95_ms"
            | "p99_ms"
            | "p99_9_ms"
            | "mean_access_slots"
            | "p95_access_slots"
            | "cache_hit_p50_ms"
            | "cache_hit_p99_ms"
            | "encode_miss_p50_ms"
            | "encode_miss_p99_ms"
    ) || leaf.ends_with("_pct")
    {
        return Some(Direction::LowerIsBetter);
    }
    None
}

/// Flattened comparable metrics: `key → value`, keys like
/// `erasure/encode_sweep/256/mib_per_s` or `proxy/clients=8/p99_ms`.
pub type Metrics = BTreeMap<String, f64>;

/// Extracts the comparable metrics from a parsed `BENCH_erasure.json`.
#[must_use]
pub fn erasure_metrics(doc: &Json) -> Metrics {
    let mut out = Metrics::new();
    if let Json::Obj(pairs) = doc {
        for (key, value) in pairs {
            if let Some(v) = value.as_f64() {
                insert_if_comparable(&mut out, &format!("erasure/{key}"), v);
            }
        }
    }
    if let Some(Json::Arr(results)) = doc.get("results") {
        for entry in results {
            let Some(name) = entry.get("name").and_then(Json::as_str) else {
                continue;
            };
            if let Json::Obj(pairs) = entry {
                for (key, value) in pairs {
                    if let Some(v) = value.as_f64() {
                        insert_if_comparable(&mut out, &format!("erasure/{name}/{key}"), v);
                    }
                }
            }
        }
    }
    out
}

/// Extracts the comparable metrics from a parsed `BENCH_proxy.json`.
/// Accepts both shapes: the historical bare loadgen sweep (an array of
/// per-client-count objects) and the envelope
/// `{"proxy": [<sweep>], "edge": {<edge cache metrics>}}` the edge
/// stage writes.
#[must_use]
pub fn proxy_metrics(doc: &Json) -> Metrics {
    let mut out = Metrics::new();
    let points = doc.get("proxy").unwrap_or(doc);
    if let Json::Arr(points) = points {
        for point in points {
            let clients = point
                .get("clients")
                .and_then(Json::as_f64)
                .map_or_else(|| "?".to_owned(), |c| format!("{}", c as u64));
            if let Json::Obj(pairs) = point {
                for (key, value) in pairs {
                    if let Some(v) = value.as_f64() {
                        insert_if_comparable(
                            &mut out,
                            &format!("proxy/clients={clients}/{key}"),
                            v,
                        );
                    }
                }
            }
        }
    }
    if let Some(Json::Obj(edge)) = doc.get("edge") {
        for (key, value) in edge {
            if let Some(v) = value.as_f64() {
                insert_if_comparable(&mut out, &format!("proxy/edge/{key}"), v);
            }
        }
    }
    out
}

/// Extracts the comparable metrics from a parsed `BENCH_broadcast.json`
/// (`{"broadcast": {<skew>: {<kN>: {metric: value}}}}`).
#[must_use]
pub fn broadcast_metrics(doc: &Json) -> Metrics {
    let mut out = Metrics::new();
    let Some(Json::Obj(skews)) = doc.get("broadcast") else {
        return out;
    };
    for (skew, points) in skews {
        let Json::Obj(points) = points else { continue };
        for (k, leafs) in points {
            let Json::Obj(leafs) = leafs else { continue };
            for (key, value) in leafs {
                if let Some(v) = value.as_f64() {
                    insert_if_comparable(&mut out, &format!("broadcast/{skew}/{k}/{key}"), v);
                }
            }
        }
    }
    out
}

fn insert_if_comparable(out: &mut Metrics, key: &str, value: f64) {
    if direction_of(key).is_some() && value.is_finite() {
        out.insert(key.to_owned(), value);
    }
}

/// One metric's baseline-vs-fresh comparison.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Flattened metric key.
    pub name: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value (`None` when the metric disappeared).
    pub fresh: Option<f64>,
    /// Which way this metric improves.
    pub direction: Direction,
    /// Whether the fresh value stays inside the tolerance band.
    pub ok: bool,
}

impl GateRow {
    /// Relative change in percent (positive = fresh is larger).
    #[must_use]
    pub fn delta_pct(&self) -> Option<f64> {
        let fresh = self.fresh?;
        if self.baseline == 0.0 {
            return None;
        }
        Some((fresh - self.baseline) / self.baseline * 100.0)
    }
}

/// The gate's verdict over every baseline metric.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Per-metric rows, baseline order (sorted by key).
    pub rows: Vec<GateRow>,
    /// The tolerance band used.
    pub tolerance: f64,
    /// Fresh metrics with no baseline entry (informational only).
    pub unbaselined: Vec<String>,
}

impl GateReport {
    /// Whether every metric stayed inside its band.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.ok)
    }

    /// Regressed rows only.
    pub fn regressions(&self) -> impl Iterator<Item = &GateRow> {
        self.rows.iter().filter(|r| !r.ok)
    }

    /// Renders the delta table — every row on failure, a one-line
    /// summary on success.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let pct = self.tolerance * 100.0;
        if self.passed() {
            let _ = writeln!(
                out,
                "bench-gate: PASS — {} metric(s) within ±{pct:.0}% of baseline",
                self.rows.len()
            );
        } else {
            let _ = writeln!(
                out,
                "bench-gate: FAIL — {} of {} metric(s) outside the ±{pct:.0}% band",
                self.regressions().count(),
                self.rows.len()
            );
            let _ = writeln!(
                out,
                "{:<52} {:>12} {:>12} {:>9}  verdict",
                "metric", "baseline", "fresh", "delta"
            );
            for row in &self.rows {
                let fresh = row
                    .fresh
                    .map_or_else(|| "missing".to_owned(), |v| format!("{v:.1}"));
                let delta = row
                    .delta_pct()
                    .map_or_else(|| "-".to_owned(), |d| format!("{d:+.1}%"));
                let verdict = if row.ok { "ok" } else { "REGRESSED" };
                let _ = writeln!(
                    out,
                    "{:<52} {:>12.1} {:>12} {:>9}  {verdict}",
                    row.name, row.baseline, fresh, delta
                );
            }
        }
        if !self.unbaselined.is_empty() {
            let _ = writeln!(
                out,
                "note: {} fresh metric(s) have no baseline (run --update-baseline to adopt): {}",
                self.unbaselined.len(),
                self.unbaselined.join(", ")
            );
        }
        out
    }
}

/// Compares fresh metrics against the baseline inside `tolerance`.
#[must_use]
pub fn gate(baseline: &Metrics, fresh: &Metrics, tolerance: f64) -> GateReport {
    let rows = baseline
        .iter()
        .map(|(name, &base)| {
            let direction = direction_of(name).unwrap_or(Direction::HigherIsBetter);
            let fresh_v = fresh.get(name).copied();
            let ok = match (fresh_v, direction) {
                // A metric that vanished is a regression: the bench no
                // longer measures what the baseline promises.
                (None, _) => false,
                _ if base == 0.0 => true,
                (Some(f), Direction::HigherIsBetter) => {
                    f >= base * (1.0 - tolerance)
                        || (name.ends_with("cache_hit_rate_pct") && f >= HIT_RATE_ABS_BUDGET)
                }
                (Some(f), Direction::LowerIsBetter) => {
                    let in_band = f <= base * (1.0 + tolerance)
                        || (name.ends_with("_pct") && f <= PCT_ABS_BUDGET);
                    // Hard caps tighten the verdict: a scale-invariant
                    // ratio over its contract fails even inside the band.
                    in_band && hard_cap_of(name).is_none_or(|cap| f <= cap)
                }
            };
            GateRow {
                name: name.clone(),
                baseline: base,
                fresh: fresh_v,
                direction,
                ok,
            }
        })
        .collect();
    let unbaselined = fresh
        .keys()
        .filter(|k| !baseline.contains_key(*k))
        .cloned()
        .collect();
    GateReport {
        rows,
        tolerance,
        unbaselined,
    }
}

/// Reads the committed baseline document
/// (`{"erasure": ..., "proxy": ..., "broadcast": ...}`) into flattened
/// metrics. The `broadcast` section is optional so baselines that
/// predate it still gate their other sections.
///
/// # Errors
///
/// Malformed JSON or a missing `erasure`/`proxy` section.
pub fn baseline_metrics(text: &str) -> Result<Metrics, String> {
    let doc = parse_json(text)?;
    let erasure = doc
        .get("erasure")
        .ok_or("baseline is missing the `erasure` section")?;
    let proxy = doc
        .get("proxy")
        .ok_or("baseline is missing the `proxy` section")?;
    let mut out = erasure_metrics(erasure);
    out.extend(proxy_metrics(proxy));
    // The baseline carries the broadcast section under the same
    // `broadcast` key the report file uses, so the extractor reads the
    // whole document directly (and yields nothing when absent).
    out.extend(broadcast_metrics(&doc));
    Ok(out)
}

/// Flattens fresh `BENCH_erasure.json` + `BENCH_proxy.json` +
/// `BENCH_broadcast.json` texts.
///
/// # Errors
///
/// Malformed JSON in any file.
pub fn fresh_metrics(
    erasure_text: &str,
    proxy_text: &str,
    broadcast_text: &str,
) -> Result<Metrics, String> {
    let erasure = parse_json(erasure_text)?;
    let proxy = parse_json(proxy_text)?;
    let broadcast = parse_json(broadcast_text)?;
    let mut out = erasure_metrics(&erasure);
    out.extend(proxy_metrics(&proxy));
    out.extend(broadcast_metrics(&broadcast));
    Ok(out)
}

/// Composes a new `BENCH_BASELINE.json` from the three fresh reports.
/// The broadcast report's own `{"broadcast": ...}` wrapper is unwrapped
/// into the baseline's section.
#[must_use]
pub fn compose_baseline(erasure_text: &str, proxy_text: &str, broadcast_text: &str) -> String {
    let broadcast_inner = broadcast_text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .map_or_else(
            || broadcast_text.trim().to_owned(),
            |inner| {
                inner
                    .trim()
                    .strip_prefix("\"broadcast\"")
                    .and_then(|t| t.trim_start().strip_prefix(':'))
                    .map_or_else(|| broadcast_text.trim().to_owned(), |v| v.trim().to_owned())
            },
        );
    format!(
        "{{\n\"erasure\": {},\n\"proxy\": {},\n\"broadcast\": {}\n}}\n",
        erasure_text.trim(),
        proxy_text.trim(),
        broadcast_inner
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const ERASURE: &str = r#"{
      "bench": "erasure_codec",
      "quick": false,
      "encode_40_60_speedup_vs_scalar": 9.9,
      "results": [
        {"name": "encode_sweep/256", "ns_per_iter": 11510.8, "bytes_per_iter": 10240, "mib_per_s": 848.4},
        {"name": "decode_20_erasures", "ns_per_iter": 14545.1, "bytes_per_iter": 10240, "mib_per_s": 671.4}
      ]
    }"#;

    const PROXY: &str = r#"[
      {"clients": 1, "completed": 8, "throughput_rps": 1400.0, "p50_ms": 0.7, "p95_ms": 0.8, "p99_ms": 0.9, "elapsed_ms": 5.7},
      {"clients": 8, "completed": 64, "throughput_rps": 960.0, "p50_ms": 7.7, "p95_ms": 14.0, "p99_ms": 16.5, "elapsed_ms": 66.4}
    ]"#;

    const PROXY_ENVELOPE: &str = r#"{
      "proxy": [
        {"clients": 1, "completed": 8, "throughput_rps": 1400.0, "p50_ms": 0.7, "p95_ms": 0.8, "p99_ms": 0.9, "elapsed_ms": 5.7},
        {"clients": 8, "completed": 64, "throughput_rps": 960.0, "p50_ms": 7.7, "p95_ms": 14.0, "p99_ms": 16.5, "elapsed_ms": 66.4}
      ],
      "edge": {
        "cache_hit_p50_ms": 0.05, "cache_hit_p99_ms": 0.2,
        "encode_miss_p50_ms": 1.4, "encode_miss_p99_ms": 3.1,
        "cache_hit_rate_pct": 87.5, "cache_hit_speedup_vs_miss": 28.0
      }
    }"#;

    const BROADCAST: &str = r#"{
      "broadcast": {
        "flat": {
          "k1": {"mean_access_slots": 128.5, "p95_access_slots": 234.0, "listeners_completed": 32},
          "k4": {"mean_access_slots": 38.3, "p95_access_slots": 52.0, "listeners_completed": 32}
        },
        "skewed": {
          "k1": {"mean_access_slots": 161.0, "p95_access_slots": 415.0, "listeners_completed": 32},
          "k4": {"mean_access_slots": 40.6, "p95_access_slots": 114.0, "listeners_completed": 32}
        }
      }
    }"#;

    fn baseline_text() -> String {
        compose_baseline(ERASURE, PROXY, BROADCAST)
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let base = baseline_metrics(&baseline_text()).unwrap();
        let fresh = fresh_metrics(ERASURE, PROXY, BROADCAST).unwrap();
        let report = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(report.passed(), "{}", report.render());
        assert!(report.rows.len() >= 9, "rows: {:?}", report.rows.len());
        assert!(report.unbaselined.is_empty());
    }

    #[test]
    fn kernel_tier_names_parse_and_stay_out_of_the_gate() {
        // The erasure report names the GF(2⁸) and CRC kernels it timed
        // as strings; they parse, survive into a composed baseline and
        // add no comparable metric.
        let named = ERASURE.replacen(
            "\"quick\": false,",
            "\"quick\": false, \"gf256_tier\": \"Gfni512\", \"crc_tier\": \"Clmul\",",
            1,
        );
        let doc = parse_json(&named).unwrap();
        assert_eq!(doc.get("crc_tier").and_then(Json::as_str), Some("Clmul"));
        let plain = fresh_metrics(ERASURE, PROXY, BROADCAST).unwrap();
        assert_eq!(fresh_metrics(&named, PROXY, BROADCAST).unwrap(), plain);
        let base = baseline_metrics(&compose_baseline(&named, PROXY, BROADCAST)).unwrap();
        assert_eq!(base, plain);
    }

    #[test]
    fn proxy_envelope_parses_both_shapes() {
        // The bare array and the enveloped sweep flatten to the same
        // proxy/clients=… keys; the envelope adds proxy/edge/… keys.
        let bare = proxy_metrics(&parse_json(PROXY).unwrap());
        let envelope = proxy_metrics(&parse_json(PROXY_ENVELOPE).unwrap());
        for (k, v) in &bare {
            assert_eq!(envelope.get(k), Some(v), "missing {k}");
        }
        assert_eq!(envelope.get("proxy/edge/cache_hit_p50_ms"), Some(&0.05));
        assert_eq!(envelope.get("proxy/edge/cache_hit_rate_pct"), Some(&87.5));
        assert_eq!(
            envelope.get("proxy/edge/cache_hit_speedup_vs_miss"),
            Some(&28.0)
        );
    }

    #[test]
    fn edge_latencies_gate_lower_better_and_hit_rate_higher_better() {
        let base_text = compose_baseline(ERASURE, PROXY_ENVELOPE, BROADCAST);
        let base = baseline_metrics(&base_text).unwrap();
        assert_eq!(
            direction_of("proxy/edge/cache_hit_p50_ms"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(
            direction_of("proxy/edge/cache_hit_rate_pct"),
            Some(Direction::HigherIsBetter)
        );

        // A hit latency blowing past the band fails.
        let slower =
            PROXY_ENVELOPE.replace("\"cache_hit_p99_ms\": 0.2", "\"cache_hit_p99_ms\": 2.0");
        let fresh = fresh_metrics(ERASURE, &slower, BROADCAST).unwrap();
        let report = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .regressions()
            .any(|r| r.name == "proxy/edge/cache_hit_p99_ms"));

        // The hit rate passes on the absolute floor even when the
        // baseline scored higher than the band allows for...
        let lower = PROXY_ENVELOPE.replace(
            "\"cache_hit_rate_pct\": 87.5",
            "\"cache_hit_rate_pct\": 76.0",
        );
        let base_hot_text = compose_baseline(
            ERASURE,
            &PROXY_ENVELOPE.replace(
                "\"cache_hit_rate_pct\": 87.5",
                "\"cache_hit_rate_pct\": 99.9",
            ),
            BROADCAST,
        );
        let base_hot = baseline_metrics(&base_hot_text).unwrap();
        let fresh = fresh_metrics(ERASURE, &lower, BROADCAST).unwrap();
        assert!(
            gate(&base_hot, &fresh, 0.1).passed(),
            "≥ {HIT_RATE_ABS_BUDGET}% hit rate is an absolute pass"
        );
        // ...but a collapsed hit rate below both the band and the
        // floor fails.
        let cold = PROXY_ENVELOPE.replace(
            "\"cache_hit_rate_pct\": 87.5",
            "\"cache_hit_rate_pct\": 10.0",
        );
        let fresh = fresh_metrics(ERASURE, &cold, BROADCAST).unwrap();
        let report = gate(&base_hot, &fresh, 0.1);
        assert!(!report.passed());
        assert!(report
            .regressions()
            .any(|r| r.name == "proxy/edge/cache_hit_rate_pct"));
    }

    #[test]
    fn counts_and_totals_are_not_compared() {
        let fresh = fresh_metrics(ERASURE, PROXY, BROADCAST).unwrap();
        for key in fresh.keys() {
            // The per-request `completed` count is configuration;
            // `listeners_completed` is the broadcast success metric and
            // *is* gated, so match the leaf exactly.
            let leaf = key.rsplit('/').next().unwrap();
            assert!(
                leaf != "completed"
                    && leaf != "elapsed_ms"
                    && leaf != "ns_per_iter"
                    && leaf != "bytes_per_iter",
                "non-performance field compared: {key}"
            );
        }
    }

    #[test]
    fn throughput_regression_fails_with_a_delta_table() {
        let base = baseline_metrics(&baseline_text()).unwrap();
        let regressed = ERASURE.replace("\"mib_per_s\": 848.4", "\"mib_per_s\": 84.8");
        let fresh = fresh_metrics(&regressed, PROXY, BROADCAST).unwrap();
        let report = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        let bad: Vec<_> = report.regressions().map(|r| r.name.as_str()).collect();
        assert_eq!(bad, ["erasure/encode_sweep/256/mib_per_s"]);
        let table = report.render();
        assert!(table.contains("FAIL"), "{table}");
        assert!(
            table.contains("erasure/encode_sweep/256/mib_per_s"),
            "{table}"
        );
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("-90.0%"), "{table}");
    }

    #[test]
    fn latency_is_lower_better() {
        let base = baseline_metrics(&baseline_text()).unwrap();
        // Latency dropping to near zero is an improvement, not a fail.
        let faster = PROXY.replace("\"p99_ms\": 16.5", "\"p99_ms\": 0.1");
        let fresh = fresh_metrics(ERASURE, &faster, BROADCAST).unwrap();
        assert!(gate(&base, &fresh, DEFAULT_TOLERANCE).passed());
        // Latency doubling beyond the band fails.
        let slower = PROXY.replace("\"p99_ms\": 16.5", "\"p99_ms\": 40.0");
        let fresh = fresh_metrics(ERASURE, &slower, BROADCAST).unwrap();
        let report = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert_eq!(
            report.regressions().next().unwrap().name,
            "proxy/clients=8/p99_ms"
        );
    }

    #[test]
    fn broadcast_access_time_is_lower_better_and_completions_higher_better() {
        let base = baseline_metrics(&baseline_text()).unwrap();
        // Access time halving is an improvement.
        let faster =
            BROADCAST.replace("\"mean_access_slots\": 40.6", "\"mean_access_slots\": 20.0");
        let fresh = fresh_metrics(ERASURE, PROXY, &faster).unwrap();
        assert!(gate(&base, &fresh, DEFAULT_TOLERANCE).passed());
        // Access time blowing past the band fails.
        let slower = BROADCAST.replace(
            "\"mean_access_slots\": 40.6",
            "\"mean_access_slots\": 400.0",
        );
        let fresh = fresh_metrics(ERASURE, PROXY, &slower).unwrap();
        let report = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert_eq!(
            report.regressions().next().unwrap().name,
            "broadcast/skewed/k4/mean_access_slots"
        );
        // Listeners starving fails the higher-is-better check.
        let starved = BROADCAST.replace(
            "\"p95_access_slots\": 114.0, \"listeners_completed\": 32",
            "\"p95_access_slots\": 114.0, \"listeners_completed\": 2",
        );
        let fresh = fresh_metrics(ERASURE, PROXY, &starved).unwrap();
        let report = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .regressions()
            .any(|r| r.name.ends_with("listeners_completed")));
    }

    #[test]
    fn vanished_metrics_are_regressions() {
        let base = baseline_metrics(&baseline_text()).unwrap();
        let shrunk = r#"{"bench": "erasure_codec", "results": []}"#;
        let fresh = fresh_metrics(shrunk, PROXY, BROADCAST).unwrap();
        let report = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .regressions()
            .any(|r| r.name == "erasure/encode_40_60_speedup_vs_scalar" && r.fresh.is_none()));
        assert!(report.render().contains("missing"));
    }

    #[test]
    fn unbaselined_fresh_metrics_are_noted_not_failed() {
        let base = baseline_metrics(&baseline_text()).unwrap();
        let grown = ERASURE.replace(
            "\"quick\": false,",
            "\"quick\": false, \"trace_overhead_pct\": 1.2,",
        );
        let fresh = fresh_metrics(&grown, PROXY, BROADCAST).unwrap();
        let report = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(report.passed());
        assert_eq!(report.unbaselined, ["erasure/trace_overhead_pct"]);
    }

    #[test]
    fn codec_setup_ns_regression_fails() {
        let with_setup = ERASURE.replace(
            "\"results\": [",
            "\"results\": [\n        {\"name\": \"codec_setup/100\", \"ns_per_iter\": 60000.0},",
        );
        let base_text = compose_baseline(&with_setup, PROXY, BROADCAST);
        let base = baseline_metrics(&base_text).unwrap();
        assert!(base.contains_key("erasure/codec_setup/100/ns_per_iter"));
        // Setup collapsing back toward Gauss-Jordan cost (a 20x jump)
        // blows the band.
        let slow = with_setup.replace("60000.0", "1200000.0");
        let fresh = fresh_metrics(&slow, PROXY, BROADCAST).unwrap();
        let report = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .regressions()
            .any(|r| r.name == "erasure/codec_setup/100/ns_per_iter"));
    }

    #[test]
    fn hard_caps_tighten_the_band() {
        assert_eq!(
            hard_cap_of("erasure/setup_scaling_exponent"),
            Some(SETUP_EXPONENT_CAP)
        );
        assert_eq!(
            hard_cap_of("erasure/decode_cold_over_warm_ratio"),
            Some(COLD_WARM_RATIO_CAP)
        );
        assert_eq!(hard_cap_of("erasure/codec_setup/100/ns_per_iter"), None);

        let with_ratios = |exp: &str, ratio: &str| {
            ERASURE.replace(
                "\"quick\": false,",
                &format!(
                    "\"quick\": false, \"setup_scaling_exponent\": {exp}, \
                     \"decode_cold_over_warm_ratio\": {ratio},"
                ),
            )
        };
        // A baseline that itself sits near the caps: the ±50% band
        // alone would admit fresh values far over them.
        let base_text = compose_baseline(&with_ratios("2.0", "1.8"), PROXY, BROADCAST);
        let base = baseline_metrics(&base_text).unwrap();
        // Inside band, inside caps: pass.
        let fresh = fresh_metrics(&with_ratios("2.1", "1.9"), PROXY, BROADCAST).unwrap();
        assert!(gate(&base, &fresh, DEFAULT_TOLERANCE).passed());
        // Inside the band (2.9 < 2.0 * 1.5) but over the 2.3 cap: fail.
        let fresh = fresh_metrics(&with_ratios("2.9", "1.9"), PROXY, BROADCAST).unwrap();
        let report = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .regressions()
            .any(|r| r.name == "erasure/setup_scaling_exponent"));
        // Cold decode drifting past 2x warm: fail even inside the band.
        let fresh = fresh_metrics(&with_ratios("2.1", "2.6"), PROXY, BROADCAST).unwrap();
        let report = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .regressions()
            .any(|r| r.name == "erasure/decode_cold_over_warm_ratio"));
    }

    #[test]
    fn parser_reads_the_committed_report_shapes() {
        let doc = parse_json(ERASURE).unwrap();
        assert_eq!(
            doc.get("bench").and_then(Json::as_str),
            Some("erasure_codec")
        );
        assert_eq!(doc.get("quick"), Some(&Json::Bool(false)));
        let doc = parse_json(PROXY).unwrap();
        assert!(matches!(doc, Json::Arr(ref v) if v.len() == 2));
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn pct_metrics_pass_inside_the_absolute_budget() {
        let with_overhead = |v: &str| {
            ERASURE.replace(
                "\"quick\": false,",
                &format!("\"quick\": false, \"trace_overhead_pct\": {v},"),
            )
        };
        // Baseline measured a near-zero overhead.
        let base_text = compose_baseline(&with_overhead("0.1"), PROXY, BROADCAST);
        let base = baseline_metrics(&base_text).unwrap();
        // 1.5% is 15x the baseline but still inside the 2-point budget.
        let fresh = fresh_metrics(&with_overhead("1.5"), PROXY, BROADCAST).unwrap();
        assert!(gate(&base, &fresh, DEFAULT_TOLERANCE).passed());
        // 2.5% blows the absolute budget.
        let fresh = fresh_metrics(&with_overhead("2.5"), PROXY, BROADCAST).unwrap();
        let report = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert_eq!(
            report.regressions().next().unwrap().name,
            "erasure/trace_overhead_pct"
        );
    }

    #[test]
    fn direction_classification() {
        assert_eq!(
            direction_of("erasure/x/mib_per_s"),
            Some(Direction::HigherIsBetter)
        );
        assert_eq!(
            direction_of("erasure/crc32_speedup_vs_bitwise"),
            Some(Direction::HigherIsBetter)
        );
        assert_eq!(
            direction_of("proxy/clients=8/p50_ms"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(
            direction_of("erasure/trace_overhead_pct"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(
            direction_of("proxy/clients=32/p99_9_ms"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(
            direction_of("proxy/clients=1024/max_in_flight"),
            Some(Direction::HigherIsBetter)
        );
        assert_eq!(direction_of("proxy/clients=8/completed"), None);
        assert_eq!(direction_of("erasure/x/ns_per_iter"), None);
        // Setup cost has no throughput form: its ns_per_iter is the
        // metric, unlike every other bench's.
        assert_eq!(
            direction_of("erasure/codec_setup/100/ns_per_iter"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(
            direction_of("erasure/setup_scaling_exponent"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(
            direction_of("erasure/decode_cold_over_warm_ratio"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(
            direction_of("broadcast/skewed/k4/mean_access_slots"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(
            direction_of("broadcast/flat/k1/p95_access_slots"),
            Some(Direction::LowerIsBetter)
        );
        assert_eq!(
            direction_of("broadcast/skewed/k2/listeners_completed"),
            Some(Direction::HigherIsBetter)
        );
        // Offered vs attempted rates describe the generator, not the
        // server; they are configuration, never gated.
        assert_eq!(direction_of("proxy/clients=8/offered_rps"), None);
        assert_eq!(direction_of("proxy/clients=8/attempted_rps"), None);
    }
}
