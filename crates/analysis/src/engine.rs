//! Workspace walker: discovers crates, prepares every `.rs` file and
//! runs the rule catalog (per-file rules, then the per-crate lock
//! graph) plus the layering check.

use crate::lexer::Prepared;
use crate::lockgraph::{self, CrateFile};
use crate::manifest;
use crate::report::{Analysis, Finding};
use crate::rules;
use std::io;
use std::path::{Path, PathBuf};

/// Analyzes the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`).
pub fn analyze(root: &Path) -> io::Result<Analysis> {
    let mut analysis = Analysis::default();

    // Root binary crate (`mrtweb`): src/ only; top-level tests/ and
    // examples/ are test code and exempt from every per-file rule by
    // construction, so they are not walked.
    scan_crate_dirs(root, "mrtweb", &[(root.join("src"), false)], &mut analysis)?;

    // Workspace member crates under crates/.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<(String, PathBuf)> = std::fs::read_dir(&crates_dir)?
            .filter_map(std::result::Result::ok)
            .filter(|e| e.path().join("Cargo.toml").is_file())
            .filter_map(|e| {
                e.file_name()
                    .into_string()
                    .ok()
                    .map(|name| (name, e.path()))
            })
            .collect();
        names.sort();
        for (name, dir) in names {
            // Integration tests and benches are test code wholesale.
            let trees = [
                (dir.join("src"), false),
                (dir.join("tests"), true),
                (dir.join("benches"), true),
            ];
            scan_crate_dirs(root, &name, &trees, &mut analysis)?;
        }
    }

    let (layer_findings, manifests) = manifest::check_layering(root);
    analysis.findings.extend(layer_findings);
    analysis.manifests_checked = manifests;

    // Deterministic report order regardless of filesystem iteration.
    analysis
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(analysis)
}

/// Prepares every `.rs` file in a crate's source trees, runs the
/// per-file rules, then the crate-wide lock graph.
fn scan_crate_dirs(
    root: &Path,
    krate: &str,
    trees: &[(PathBuf, bool)],
    analysis: &mut Analysis,
) -> io::Result<()> {
    let mut files: Vec<CrateFile> = Vec::new();
    for (dir, all_test) in trees {
        collect_tree(root, dir, *all_test, &mut files)?;
    }
    analysis.files_scanned += files.len();
    for f in &files {
        analysis
            .findings
            .extend(rules::scan_file(krate, &f.path, &f.prep, f.all_test));
    }
    analysis
        .findings
        .extend(lockgraph::scan_crate(krate, &files));
    Ok(())
}

/// Recursively prepares every `.rs` file under `dir`.
pub(crate) fn collect_tree(
    root: &Path,
    dir: &Path,
    all_test: bool,
    files: &mut Vec<CrateFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_tree(root, &path, all_test, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(CrateFile {
                path: rel,
                prep: Prepared::new(&text),
                all_test,
            });
        }
    }
    Ok(())
}

/// Scans a single source text (exposed for fixture-based unit tests).
/// Runs the per-file rules *and* the lock graph over the one file, so
/// fixtures exercise `lock-discipline` too.
pub fn scan_source(krate: &str, path: &str, text: &str, all_test: bool) -> Vec<Finding> {
    let prep = Prepared::new(text);
    let mut findings = rules::scan_file(krate, path, &prep, all_test);
    let file = CrateFile {
        path: path.to_owned(),
        prep: Prepared::new(text),
        all_test,
    };
    findings.extend(lockgraph::scan_crate(krate, std::slice::from_ref(&file)));
    findings
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
