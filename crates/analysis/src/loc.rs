//! Code size as a number: lines of library code per crate.
//!
//! A line counts when it lies under a crate's `src/`, outside the test
//! mask (`#[cfg(test)]` regions, `#[test]`/`#[bench]` items), and is
//! not blank after [`crate::lexer::strip`]. So comments, doc comments,
//! blank lines, unit tests, and lines holding nothing but a string
//! literal do not count. The crates are the root package and every
//! member under `crates/`.

use crate::engine::collect_tree;
use crate::lexer::Prepared;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Library lines of one crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrateSize {
    /// Package name from the crate's `Cargo.toml`.
    pub name: String,
    /// Counted lines.
    pub lines: usize,
}

/// Counted lines of one prepared file.
pub fn count_prepared(prep: &Prepared) -> usize {
    prep.stripped
        .iter()
        .zip(&prep.test)
        .filter(|(line, &test)| !test && !line.trim().is_empty())
        .count()
}

/// Counts every crate of the workspace rooted at `root`, in name order.
///
/// # Errors
///
/// Propagates directory and file read failures.
pub fn count(root: &Path) -> io::Result<Vec<CrateSize>> {
    let mut dirs = vec![root.to_path_buf()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let path = entry?.path();
            if path.join("Cargo.toml").is_file() {
                dirs.push(path);
            }
        }
    }
    let mut sizes = Vec::with_capacity(dirs.len());
    for dir in dirs {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml"))?;
        let name = package_name(&manifest).unwrap_or_else(|| dir.display().to_string());
        let mut files = Vec::new();
        collect_tree(root, &dir.join("src"), false, &mut files)?;
        let lines = files.iter().map(|f| count_prepared(&f.prep)).sum();
        sizes.push(CrateSize { name, lines });
    }
    sizes.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(sizes)
}

/// The `name` of a manifest's `[package]` table.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if in_package {
            if let Some(value) = line.strip_prefix("name").map(str::trim_start) {
                if let Some(quoted) = value.strip_prefix('=') {
                    return Some(quoted.trim().trim_matches('"').to_owned());
                }
            }
        }
    }
    None
}

/// A two-column table of `sizes` with a total row.
pub fn render(sizes: &[CrateSize]) -> String {
    let width = sizes.iter().map(|s| s.name.len()).max().unwrap_or(0).max(5);
    let total: usize = sizes.iter().map(|s| s.lines).sum();
    let rows = sizes.iter().map(|s| (s.name.as_str(), s.lines));
    let mut out = String::new();
    for (name, lines) in rows.chain([("total", total)]) {
        let _ = writeln!(out, "{name:width$}  {lines:>6}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_lines_only() {
        let text = "//! Module docs.\n\
                    \n\
                    /// An item.\n\
                    pub fn f() -> &'static str {\n\
                    \x20   /* a block\n\
                    \x20      comment */\n\
                    \x20   \"a string\"\n\
                    }\n\
                    \n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                    \x20   #[test]\n\
                    \x20   fn t() {}\n\
                    }\n";
        // The signature and the closing brace.
        assert_eq!(count_prepared(&Prepared::new(text)), 2);
    }

    #[test]
    fn reads_the_package_name() {
        let manifest = "[workspace]\nmembers = [\"a\"]\n\n[package]\nname = \"mrtweb-x\"\n";
        assert_eq!(package_name(manifest).as_deref(), Some("mrtweb-x"));
        assert_eq!(package_name("[workspace]\nname = \"no\"\n"), None);
    }

    #[test]
    fn renders_a_total() {
        let sizes = [
            CrateSize {
                name: "a".into(),
                lines: 2,
            },
            CrateSize {
                name: "b".into(),
                lines: 3,
            },
        ];
        assert!(render(&sizes).ends_with("total       5\n"));
    }
}
