//! `mrtweb-analysis` — the workspace's static-analysis gate.
//!
//! ```text
//! mrtweb-analysis check [--json] [--fix-hints] [--root <dir>]
//! mrtweb-analysis rules
//! mrtweb-analysis loc [--root <dir>]
//! mrtweb-analysis bench-gate [--baseline <file>] [--erasure <file>]
//!                            [--proxy <file>] [--broadcast <file>]
//!                            [--tolerance <frac>]
//!                            [--update-baseline] [--root <dir>]
//! ```
//!
//! Exit status: 0 when the workspace is clean (no unsuppressed
//! findings / no bench regression), 1 when findings or regressions
//! remain, 2 on usage or I/O errors. `loc` prints library lines per
//! crate and gates nothing.

use mrtweb_analysis::{analyze, benchgate, find_workspace_root, loc, rules};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut json = false;
    let mut fix_hints = false;
    let mut update_baseline = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut erasure: Option<PathBuf> = None;
    let mut proxy: Option<PathBuf> = None;
    let mut broadcast: Option<PathBuf> = None;
    let mut tolerance = benchgate::DEFAULT_TOLERANCE;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "check" | "rules" | "loc" | "bench-gate" if cmd.is_none() => cmd = Some(arg.clone()),
            "--json" => json = true,
            "--fix-hints" => fix_hints = true,
            "--update-baseline" => update_baseline = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory argument"),
            },
            "--baseline" => match it.next() {
                Some(f) => baseline = Some(PathBuf::from(f)),
                None => return usage("--baseline needs a file argument"),
            },
            "--erasure" => match it.next() {
                Some(f) => erasure = Some(PathBuf::from(f)),
                None => return usage("--erasure needs a file argument"),
            },
            "--proxy" => match it.next() {
                Some(f) => proxy = Some(PathBuf::from(f)),
                None => return usage("--proxy needs a file argument"),
            },
            "--broadcast" => match it.next() {
                Some(f) => broadcast = Some(PathBuf::from(f)),
                None => return usage("--broadcast needs a file argument"),
            },
            "--tolerance" => match it.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if t > 0.0 && t.is_finite() => tolerance = t,
                _ => return usage("--tolerance needs a positive fraction (e.g. 0.5)"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    match cmd.as_deref() {
        Some("rules") => {
            for (name, desc) in rules::RULES {
                println!("{name:20} {desc}");
            }
            ExitCode::SUCCESS
        }
        Some("check") => run_check(root, json, fix_hints),
        Some("loc") => {
            let root = match resolve_root(root) {
                Ok(r) => r,
                Err(code) => return code,
            };
            match loc::count(&root) {
                Ok(sizes) => {
                    print!("{}", loc::render(&sizes));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("mrtweb-analysis: failed to read workspace: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("bench-gate") => {
            let root = match resolve_root(root) {
                Ok(r) => r,
                Err(code) => return code,
            };
            run_bench_gate(
                &baseline.unwrap_or_else(|| root.join("BENCH_BASELINE.json")),
                &erasure.unwrap_or_else(|| root.join("BENCH_erasure.json")),
                &proxy.unwrap_or_else(|| root.join("BENCH_proxy.json")),
                &broadcast.unwrap_or_else(|| root.join("BENCH_broadcast.json")),
                tolerance,
                update_baseline,
            )
        }
        _ => usage("expected a subcommand: `check`, `rules`, `loc` or `bench-gate`"),
    }
}

fn resolve_root(root: Option<PathBuf>) -> Result<PathBuf, ExitCode> {
    if let Some(r) = root {
        return Ok(r);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    find_workspace_root(&cwd)
        .ok_or_else(|| usage("no workspace root found above the current directory"))
}

fn run_check(root: Option<PathBuf>, json: bool, fix_hints: bool) -> ExitCode {
    let root = match resolve_root(root) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let analysis = match analyze(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mrtweb-analysis: failed to read workspace: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", analysis.to_json());
    } else {
        for f in analysis.unsuppressed() {
            println!("{f}");
            if fix_hints {
                println!("    hint: {}", fix_hint(f.rule));
            }
        }
        let suppressed = analysis.suppressed().count();
        let unsuppressed = analysis.unsuppressed().count();
        println!(
            "mrtweb-analysis: {} file(s), {} manifest(s): {} finding(s), {} suppressed",
            analysis.files_scanned, analysis.manifests_checked, unsuppressed, suppressed
        );
    }

    if analysis.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Editor-ready remediation template for a rule; the generic
/// suppression syntax is the fallback for rules without a mechanical
/// rewrite.
fn fix_hint(rule: &str) -> String {
    match rule {
        "ordering-comment" => {
            "add `// ORDERING: <why this ordering suffices>` on or above the line \
             (one comment covers a contiguous run of atomic ops), or upgrade the \
             ordering if the justification will not write itself"
                .to_owned()
        }
        "lock-discipline" => {
            "shrink the critical section: copy what you need out of the guard in a \
             `{ let g = m.lock(); … }` block, then send/recv/acquire after the block; \
             establish one global lock order to break cycles"
                .to_owned()
        }
        "untrusted-parser" => {
            "rewrite `buf[a..b]` as `buf.get(a..b)` (handle None as a truncated-input \
             error) and `a + b` / `a * b` as `a.checked_add(b)` / `a.checked_mul(b)` \
             (or `saturating_*` when the result only feeds a comparison)"
                .to_owned()
        }
        rule => format!("suffix the line with `// analysis:allow({rule}) <why this site is safe>`"),
    }
}

fn run_bench_gate(
    baseline_path: &Path,
    erasure_path: &Path,
    proxy_path: &Path,
    broadcast_path: &Path,
    tolerance: f64,
    update_baseline: bool,
) -> ExitCode {
    let read = |path: &Path| -> Result<String, ExitCode> {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("mrtweb-analysis: cannot read {}: {e}", path.display());
            ExitCode::from(2)
        })
    };
    let erasure_text = match read(erasure_path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let proxy_text = match read(proxy_path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let broadcast_text = match read(broadcast_path) {
        Ok(t) => t,
        Err(code) => return code,
    };

    if update_baseline {
        let composed = benchgate::compose_baseline(&erasure_text, &proxy_text, &broadcast_text);
        if let Err(e) = std::fs::write(baseline_path, composed) {
            eprintln!(
                "mrtweb-analysis: cannot write {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        println!(
            "bench-gate: baseline updated from {} + {} + {} -> {}",
            erasure_path.display(),
            proxy_path.display(),
            broadcast_path.display(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline_text = match read(baseline_path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let baseline = match benchgate::baseline_metrics(&baseline_text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!(
                "mrtweb-analysis: bad baseline {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let fresh = match benchgate::fresh_metrics(&erasure_text, &proxy_text, &broadcast_text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("mrtweb-analysis: bad bench report: {e}");
            return ExitCode::from(2);
        }
    };

    let report = benchgate::gate(&baseline, &fresh, tolerance);
    print!("{}", report.render());
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("mrtweb-analysis: {msg}");
    eprintln!("usage: mrtweb-analysis check [--json] [--fix-hints] [--root <dir>]");
    eprintln!("       mrtweb-analysis rules");
    eprintln!("       mrtweb-analysis loc [--root <dir>]");
    eprintln!("       mrtweb-analysis bench-gate [--baseline <file>] [--erasure <file>]");
    eprintln!("                                  [--proxy <file>] [--broadcast <file>]");
    eprintln!("                                  [--tolerance <frac>]");
    eprintln!("                                  [--update-baseline] [--root <dir>]");
    ExitCode::from(2)
}
