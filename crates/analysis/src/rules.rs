//! The rule catalog.
//!
//! Each rule encodes one invariant of the transmission stack as an
//! executable check (see DESIGN.md §11 for the rationale):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-panic-paths` | library crates degrade gracefully, never panic |
//! | `safety-comment` | every `unsafe` carries a written soundness argument |
//! | `no-wallclock-in-sim` | fault-schedule replays are deterministic |
//! | `layering` | the crate DAG stays acyclic and as declared |
//! | `no-print-in-lib` | library crates never write to stdio |
//! | `bad-suppression` | suppressions must carry a justification |
//! | `ordering-comment` | every non-SeqCst atomic ordering carries a written argument |
//! | `lock-discipline` | lock-order cycles, guards held across blocking calls, `_` guards |
//! | `untrusted-parser` | wire-facing parsers never index or size-compute unchecked |
//!
//! Any finding can be waived in place with
//! `// analysis:allow(<rule>) <justification>` on the offending line or
//! the line above; the justification is mandatory.

use crate::lexer::{find_word, next_nonspace, prev_nonspace, Prepared};
use crate::report::Finding;

/// Crates whose non-test code must not contain panic paths
/// (`no-panic-paths`): a panic in decode/ARQ violates the paper's
/// graceful-degradation contract.
pub const PANIC_FREE_CRATES: &[&str] = &[
    "erasure",
    "transport",
    "channel",
    "store",
    "content",
    "docmodel",
    "textproc",
    "proxy",
    "obs",
];

/// Crates that must use the virtual `clock` instead of the OS clock
/// (`no-wallclock-in-sim`), so fault-schedule replays stay
/// deterministic.
/// `obs` is included with one audited exemption: its monotonic
/// timestamp source in `clock.rs` is the single allowed wall-clock
/// site, suppressed in place with a justification.
pub const WALLCLOCK_FREE_CRATES: &[&str] = &["sim", "channel", "obs"];

/// Crates allowed to print: the root binary crate, the simulator's
/// figure emitters, the bench harness, and this analyzer itself.
pub const PRINT_ALLOWED_CRATES: &[&str] = &["mrtweb", "sim", "bench", "analysis"];

/// All per-file rule identifiers, for `--rules` listing and
/// suppression validation.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-panic-paths",
        "forbid unwrap()/expect()/panic!/todo!/unimplemented! in non-test library code",
    ),
    (
        "safety-comment",
        "every unsafe block/fn must be preceded by a // SAFETY: (or /// # Safety) comment",
    ),
    (
        "no-wallclock-in-sim",
        "forbid std::time::{Instant, SystemTime} in sim and channel (use the virtual clock)",
    ),
    (
        "layering",
        "crate dependencies must match the declared DAG (checked from Cargo.toml)",
    ),
    (
        "no-print-in-lib",
        "forbid println!/eprintln! outside the root binary, sim, bench and analysis",
    ),
    (
        "bad-suppression",
        "analysis:allow comments must name a known rule and carry a justification",
    ),
    (
        "ordering-comment",
        "every Ordering::{Relaxed,Acquire,Release,AcqRel} in non-test code needs an adjacent // ORDERING: comment",
    ),
    (
        "lock-discipline",
        "no lock-order cycles, no guards held across send/recv/blocking calls, no guards bound to `_`",
    ),
    (
        "untrusted-parser",
        "wire-facing parsers must use get(..)/checked_*/saturating_* instead of raw indexing and bare +/* arithmetic",
    ),
];

/// Atomic orderings that demand a written justification. `SeqCst` is
/// exempt: it is the conservative default, never *under*-synchronized,
/// so requiring an essay for it would only invite downgrades.
const JUSTIFIED_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

/// Wire-facing parser surfaces covered by `untrusted-parser`.
///
/// A `None` function list designates the whole file. `Some(fns)`
/// restricts the rule to the brace bodies of the named functions:
/// `broadcast.rs` mixes the frame codec with a large carousel
/// scheduler whose internal indexing never touches attacker-controlled
/// bytes, so only its decode surface is designated: the air-frame
/// parser and the listener's check of each on-air record.
pub const WIRE_PARSER_SURFACES: &[(&str, Option<&[&str]>)] = &[
    ("crates/erasure/src/cursor.rs", None),
    ("crates/erasure/src/packet.rs", None),
    ("crates/proxy/src/wire.rs", None),
    ("crates/store/src/codec.rs", None),
    ("crates/store/src/migrate.rs", None),
    ("crates/analysis/src/benchgate.rs", None),
    (
        "crates/transport/src/broadcast.rs",
        Some(&["parse_frame", "feed_record"]),
    ),
];

/// Is `rule` a known rule identifier?
pub fn known_rule(rule: &str) -> bool {
    RULES.iter().any(|(name, _)| *name == rule)
}

/// Scans one prepared file and returns its findings (suppressions
/// already applied). `krate` is the owning crate's short name
/// (`erasure`, …, or `mrtweb` for the root crate); `all_test` marks
/// files that are test code wholesale (under `tests/` or `benches/`).
pub fn scan_file(krate: &str, path: &str, prep: &Prepared, all_test: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let panic_free = PANIC_FREE_CRATES.contains(&krate);
    let no_wallclock = WALLCLOCK_FREE_CRATES.contains(&krate);
    let no_print = !PRINT_ALLOWED_CRATES.contains(&krate);
    let wire_mask = wire_parser_mask(path, prep);

    for (idx, stripped) in prep.stripped.iter().enumerate() {
        let in_test = all_test || prep.test.get(idx).copied().unwrap_or(false);
        let line_no = idx + 1;

        // safety-comment applies everywhere, including test code.
        for at in find_word(stripped, "unsafe") {
            if starts_unsafe_construct(stripped, at + "unsafe".len())
                && !has_safety_comment(prep, idx)
            {
                findings.push(raw_finding(
                    path,
                    line_no,
                    at + 1,
                    "safety-comment",
                    "`unsafe` without an immediately preceding `// SAFETY:` comment".to_owned(),
                ));
            }
        }

        if in_test {
            continue;
        }

        if panic_free {
            for at in find_word(stripped, "unwrap") {
                if next_nonspace(stripped, at + "unwrap".len()) == Some('(') {
                    findings.push(raw_finding(
                        path,
                        line_no,
                        at + 1,
                        "no-panic-paths",
                        "`unwrap()` in non-test library code; return a typed error".to_owned(),
                    ));
                }
            }
            for at in find_word(stripped, "expect") {
                if prev_nonspace(stripped, at) == Some('.')
                    && next_nonspace(stripped, at + "expect".len()) == Some('(')
                {
                    findings.push(raw_finding(
                        path,
                        line_no,
                        at + 1,
                        "no-panic-paths",
                        "`.expect()` in non-test library code; return a typed error".to_owned(),
                    ));
                }
            }
            for mac in ["panic", "todo", "unimplemented"] {
                for at in find_word(stripped, mac) {
                    if next_nonspace(stripped, at + mac.len()) == Some('!') {
                        findings.push(raw_finding(
                            path,
                            line_no,
                            at + 1,
                            "no-panic-paths",
                            format!("`{mac}!` in non-test library code; return a typed error"),
                        ));
                    }
                }
            }
        }

        if no_wallclock {
            for word in ["Instant", "SystemTime"] {
                if let Some(&at) = find_word(stripped, word).first() {
                    findings.push(raw_finding(
                        path,
                        line_no,
                        at + 1,
                        "no-wallclock-in-sim",
                        format!("`{word}` in a deterministic crate; use `mrtweb_channel::clock`"),
                    ));
                }
            }
        }

        if no_print {
            for mac in ["println", "eprintln", "print", "eprint", "dbg"] {
                for at in find_word(stripped, mac) {
                    if next_nonspace(stripped, at + mac.len()) == Some('!') {
                        findings.push(raw_finding(
                            path,
                            line_no,
                            at + 1,
                            "no-print-in-lib",
                            format!("`{mac}!` in library crate `{krate}`"),
                        ));
                    }
                }
            }
        }

        // ordering-comment: non-SeqCst atomic orderings need a written
        // argument, in the same shape as the SAFETY rule.
        for ord in JUSTIFIED_ORDERINGS {
            for at in find_word(stripped, ord) {
                if stripped[..at].ends_with("Ordering::") && !has_ordering_comment(prep, idx) {
                    findings.push(raw_finding(
                        path,
                        line_no,
                        at + 1,
                        "ordering-comment",
                        format!(
                            "`Ordering::{ord}` without an adjacent `// ORDERING:` justification"
                        ),
                    ));
                }
            }
        }

        if wire_mask
            .as_ref()
            .is_some_and(|m| m.get(idx).copied().unwrap_or(false))
        {
            scan_untrusted_parser_line(path, line_no, stripped, &mut findings);
        }
    }

    apply_suppressions(path, prep, findings)
}

/// For a file named in [`WIRE_PARSER_SURFACES`]: `Some(mask)` of the
/// designated lines (all lines, or just the listed functions' bodies).
/// `None` for files outside the wire surface.
fn wire_parser_mask(path: &str, prep: &Prepared) -> Option<Vec<bool>> {
    let (_, fns) = WIRE_PARSER_SURFACES
        .iter()
        .find(|(p, _)| *p == path || path.ends_with(p))?;
    match fns {
        None => Some(vec![true; prep.stripped.len()]),
        Some(names) => Some(fn_body_line_mask(prep, names)),
    }
}

/// Marks every line inside the brace body (inclusive of the signature
/// line) of each function whose name is in `names`.
fn fn_body_line_mask(prep: &Prepared, names: &[&str]) -> Vec<bool> {
    let text = prep.stripped.join("\n");
    let chars: Vec<char> = text.chars().collect();
    // Char index -> 0-indexed line.
    let mut line_of = Vec::with_capacity(chars.len() + 1);
    let mut ln = 0usize;
    for &c in &chars {
        line_of.push(ln);
        if c == '\n' {
            ln += 1;
        }
    }
    line_of.push(ln);
    // Line -> char offset of its first character.
    let mut line_start = vec![0usize];
    for (i, &c) in chars.iter().enumerate() {
        if c == '\n' {
            line_start.push(i + 1);
        }
    }

    let mut mask = vec![false; prep.stripped.len()];
    for (idx, stripped) in prep.stripped.iter().enumerate() {
        for at in find_word(stripped, "fn") {
            let rest = stripped[at + 2..].trim_start();
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !names.contains(&name.as_str()) {
                continue;
            }
            // Walk from the `fn` keyword to the body's opening brace,
            // then to its match; mark every line in between.
            let start = line_start[idx] + stripped[..at].chars().count();
            let mut j = start;
            while j < chars.len() && chars[j] != '{' && chars[j] != ';' {
                j += 1;
            }
            if j >= chars.len() || chars[j] != '{' {
                continue;
            }
            let end = crate::lexer::match_brace(&chars, j);
            let last = line_of[end.saturating_sub(1).min(chars.len())];
            for m in mask.iter_mut().take(last + 1).skip(idx) {
                *m = true;
            }
        }
    }
    mask
}

/// Per-line `untrusted-parser` checks: raw (range or non-literal)
/// slice indexing, and bare `+`/`*` over length-flavored operands.
fn scan_untrusted_parser_line(
    path: &str,
    line_no: usize,
    stripped: &str,
    findings: &mut Vec<Finding>,
) {
    let bytes = stripped.as_bytes();

    // Raw slice indexing `expr[...]`.
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'[' {
            i += 1;
            continue;
        }
        let indexable = prev_nonspace(stripped, i).is_some_and(|c| {
            (c.is_ascii_alphanumeric() || c == '_' || c == ')' || c == ']')
                && !is_keyword(&token_ending_at(stripped, i))
                && !is_lifetime_before(stripped, i)
        });
        if !indexable {
            i += 1;
            continue;
        }
        let Some(close) = match_square(bytes, i) else {
            i += 1;
            continue;
        };
        let inner = stripped[i + 1..close].trim();
        let is_range = top_level_range(inner);
        let is_literal = inner.chars().next().is_some_and(|c| c.is_ascii_digit())
            && inner.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if is_range || !is_literal {
            findings.push(raw_finding(
                path,
                line_no,
                i + 1,
                "untrusted-parser",
                format!(
                    "unchecked slice index `[{inner}]` on the wire path; use `.get(..)` and handle None"
                ),
            ));
        }
        i = close + 1;
    }

    // Bare `+` / `*` over length-flavored operands.
    for (i, &c) in bytes.iter().enumerate() {
        if c != b'+' && c != b'*' {
            continue;
        }
        // `+=`, `*=` mutate a cursor already bounded by its loop; the
        // rule targets index/length *expressions* built from wire data.
        if bytes.get(i + 1) == Some(&b'=') {
            continue;
        }
        let Some(pc) = prev_nonspace(stripped, i) else {
            continue;
        };
        let binary = pc.is_ascii_alphanumeric() || pc == '_' || pc == ')' || pc == ']';
        if !binary {
            continue;
        }
        let left = token_ending_at(stripped, i);
        if is_keyword(&left) {
            continue;
        }
        let right = token_starting_after(stripped, i + 1);
        if length_flavored(&left) || length_flavored(&right) {
            let op = c as char;
            let (checked, saturating) = if c == b'+' {
                ("checked_add", "saturating_add")
            } else {
                ("checked_mul", "saturating_mul")
            };
            findings.push(raw_finding(
                path,
                line_no,
                i + 1,
                "untrusted-parser",
                format!(
                    "bare `{op}` over length-flavored operands (`{left}` {op} `{right}`) on the wire path; use `{checked}` or `{saturating}`"
                ),
            ));
        }
    }
}

/// Matching `]` for the `[` at `open`, same line only.
fn match_square(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &c) in bytes.iter().enumerate().skip(open) {
        match c {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Does `inner` contain a `..` at bracket/paren depth 0 (a range
/// index)?
fn top_level_range(inner: &str) -> bool {
    let bytes = inner.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'.' if depth == 0 && bytes.get(i + 1) == Some(&b'.') => return true,
            _ => {}
        }
        i += 1;
    }
    false
}

/// The identifier token whose last character is the last non-space
/// before byte offset `to`; follows one `()` call-suffix back (so
/// `buf.len() + 4` yields `len`). Empty when none.
fn token_ending_at(stripped: &str, to: usize) -> String {
    let bytes = stripped.as_bytes();
    let mut i = to;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    if i > 0 && bytes[i - 1] == b')' {
        // Walk back over the call's argument list to the ident before `(`.
        let mut depth = 0i32;
        while i > 0 {
            i -= 1;
            match bytes[i] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let end = i;
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        i -= 1;
    }
    stripped[i..end].to_owned()
}

/// The identifier token starting at the first non-space at or after
/// byte offset `from`, skipping leading `(`/`&`/`*` sigils.
fn token_starting_after(stripped: &str, from: usize) -> String {
    let bytes = stripped.as_bytes();
    let mut i = from;
    while i < bytes.len() && matches!(bytes[i], b' ' | b'(' | b'&' | b'*') {
        i += 1;
    }
    let start = i;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
        i += 1;
    }
    stripped[start..i].to_owned()
}

/// Is the token ending just before byte offset `to` a lifetime
/// (`&'a [u8]` is a type, not an indexing expression)?
fn is_lifetime_before(stripped: &str, to: usize) -> bool {
    let bytes = stripped.as_bytes();
    let mut i = to;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        i -= 1;
    }
    i > 0 && bytes[i - 1] == b'\''
}

fn is_keyword(token: &str) -> bool {
    matches!(
        token,
        "let"
            | "in"
            | "mut"
            | "ref"
            | "return"
            | "if"
            | "else"
            | "match"
            | "move"
            | "as"
            | "break"
            | "impl"
            | "dyn"
            | "where"
            | "while"
            | "loop"
            | "for"
    )
}

/// Is this operand token the kind of value length arithmetic is built
/// from? (Substring match, lowercased: `body_len`, `packet_size`, …)
fn length_flavored(token: &str) -> bool {
    const FLAVORS: &[&str] = &[
        "len", "size", "count", "pos", "off", "idx", "index", "bytes", "stride",
    ];
    let t = token.to_ascii_lowercase();
    FLAVORS.iter().any(|f| t.contains(f))
}

/// Looks for a written ordering argument attached to the atomic op at
/// line `idx`: `ORDERING:` in a comment on the same line, or above it
/// across the contiguous run of comment/attribute lines *and* other
/// atomic-op lines (one comment may cover a block of related atomics,
/// e.g. a histogram's five counter bumps).
fn has_ordering_comment(prep: &Prepared, idx: usize) -> bool {
    let comment_has = |k: usize| -> bool {
        prep.original
            .get(k)
            .and_then(|l| l.find("//").map(|c| l[c..].contains("ORDERING:")))
            .unwrap_or(false)
    };
    if comment_has(idx) {
        return true;
    }
    let mut k = idx;
    while k > 0 {
        k -= 1;
        if comment_has(k) {
            return true;
        }
        let line = prep.original[k].trim();
        let is_annotation =
            line.starts_with("//") || line.starts_with("#[") || line.starts_with("#![");
        let in_run = prep
            .stripped
            .get(k)
            .is_some_and(|s| s.contains("Ordering::"));
        if !is_annotation && !in_run {
            return false;
        }
    }
    false
}

/// Does the token stream after an `unsafe` keyword open a block, fn,
/// impl, trait or extern item? (Filters out e.g. struct fields or
/// doc-text remnants that happen to contain the word.)
fn starts_unsafe_construct(stripped: &str, after: usize) -> bool {
    let rest = stripped[after..].trim_start();
    if rest.is_empty() {
        // Construct continues on the next line; treat as a start so we
        // never under-report unsafe.
        return true;
    }
    if rest.starts_with('{') {
        return true;
    }
    let first_token: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    matches!(first_token.as_str(), "fn" | "impl" | "trait" | "extern")
}

/// Looks for a soundness argument attached to the `unsafe` at line
/// `idx`: `SAFETY:` on the same line, or on the contiguous run of
/// comment/attribute lines immediately above (a `/// # Safety` doc
/// section on an `unsafe fn` also counts).
fn has_safety_comment(prep: &Prepared, idx: usize) -> bool {
    let original = &prep.original;
    if original[idx].contains("SAFETY:") {
        return true;
    }
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let line = original[k].trim();
        let is_annotation =
            line.starts_with("//") || line.starts_with("#[") || line.starts_with("#![");
        if !is_annotation {
            return false;
        }
        if line.contains("SAFETY:") || line.contains("# Safety") {
            return true;
        }
    }
    false
}

pub(crate) fn raw_finding(
    path: &str,
    line: usize,
    col: usize,
    rule: &'static str,
    message: String,
) -> Finding {
    Finding {
        path: path.to_owned(),
        line,
        col,
        rule,
        message,
        suppressed: false,
        justification: None,
    }
}

/// A parsed `// analysis:allow(<rule>) <justification>` comment.
struct Suppression {
    rule: String,
    justification: String,
}

fn parse_suppression(original_line: &str) -> Option<Suppression> {
    let at = original_line.find("analysis:allow(")?;
    let rest = &original_line[at + "analysis:allow(".len()..];
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_owned();
    // Only `kebab-case` tokens are suppression attempts; this keeps
    // documentation placeholders like `analysis:allow(<rule>)` from
    // being read as (malformed) suppressions.
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
        return None;
    }
    Some(Suppression {
        rule,
        justification: rest[close + 1..].trim().to_owned(),
    })
}

/// Marks findings covered by a same-line or previous-line suppression,
/// and reports malformed suppressions (unknown rule / missing
/// justification) as `bad-suppression` findings.
pub(crate) fn apply_suppressions(
    path: &str,
    prep: &Prepared,
    mut findings: Vec<Finding>,
) -> Vec<Finding> {
    mark_suppressions(prep, &mut findings);

    // Malformed suppressions are findings in their own right, wherever
    // they appear (they are never themselves suppressible).
    let mut extra = Vec::new();
    for (idx, line) in prep.original.iter().enumerate() {
        if let Some(s) = parse_suppression(line) {
            let col = line.find("analysis:allow(").map_or(0, |c| c + 1);
            if !known_rule(&s.rule) {
                extra.push(raw_finding(
                    path,
                    idx + 1,
                    col,
                    "bad-suppression",
                    format!("suppression names unknown rule `{}`", s.rule),
                ));
            } else if s.justification.is_empty() {
                extra.push(raw_finding(
                    path,
                    idx + 1,
                    col,
                    "bad-suppression",
                    format!(
                        "suppression of `{}` is missing its mandatory justification",
                        s.rule
                    ),
                ));
            }
        }
    }
    findings.extend(extra);
    findings
}

/// Marks findings covered by a same-line or previous-line suppression.
/// Does not re-report malformed suppressions (that happens once per
/// file, in [`apply_suppressions`]); crate-level passes that attribute
/// findings to files already scanned use this half only.
pub(crate) fn mark_suppressions(prep: &Prepared, findings: &mut [Finding]) {
    let suppression_at = |line_no: usize| -> Option<Suppression> {
        // Same line first, then the line above.
        for candidate in [line_no, line_no.wrapping_sub(1)] {
            if candidate == 0 || candidate > prep.original.len() {
                continue;
            }
            if let Some(s) = parse_suppression(&prep.original[candidate - 1]) {
                return Some(s);
            }
        }
        None
    };

    for f in findings {
        if let Some(s) = suppression_at(f.line) {
            if s.rule == f.rule && !s.justification.is_empty() {
                f.suppressed = true;
                f.justification = Some(s.justification);
            }
        }
    }
}
