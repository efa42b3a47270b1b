//! Fixture-based tests of the rule engine: every rule gets a positive
//! finding, a suppression, and false-positive-resistance cases around
//! strings, comments and test code.

use mrtweb_analysis::{scan_source, Finding};

/// Scans `src` as non-test code of crate `krate` at a fixed path.
fn scan(krate: &str, src: &str) -> Vec<Finding> {
    scan_source(krate, "fixture.rs", src, false)
}

fn rules(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

fn unsuppressed(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| !f.suppressed).collect()
}

// ---------------------------------------------------------- no-panic-paths

#[test]
fn unwrap_in_library_code_is_a_finding() {
    let f = scan("transport", "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
    assert_eq!(rules(&f), ["no-panic-paths"]);
    assert_eq!(f[0].line, 1);
}

#[test]
fn every_panic_macro_is_reported() {
    let src = "fn f() {\n    panic!(\"boom\");\n    todo!();\n    unimplemented!();\n}\n";
    let f = scan("erasure", src);
    assert_eq!(rules(&f), ["no-panic-paths"; 3]);
    assert_eq!(
        f.iter().map(|x| x.line).collect::<Vec<_>>(),
        [2, 3, 4],
        "one finding per macro line"
    );
}

#[test]
fn expect_requires_a_method_call_shape() {
    // `.expect(` is a finding; a free function named expect_err or a
    // field access is not.
    let f = scan("store", "fn f(x: Option<u8>) { x.expect(\"gone\"); }\n");
    assert_eq!(rules(&f), ["no-panic-paths"]);
    let ok = scan(
        "store",
        "fn g(r: Result<u8, u8>) { r.expect_err(\"fine in name\"); }\n",
    );
    assert!(ok.is_empty(), "expect_err must not match: {ok:?}");
}

#[test]
fn non_library_crates_may_unwrap() {
    let f = scan("sim", "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
    assert!(f.is_empty(), "sim is not a panic-free crate: {f:?}");
}

#[test]
fn test_code_may_unwrap() {
    let src = "\
fn real() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
        panic!(\"fine in tests\");
    }
}
";
    let f = scan("transport", src);
    assert!(f.is_empty(), "test module must be exempt: {f:?}");
}

#[test]
fn test_attribute_without_cfg_mod_is_exempt() {
    let src = "#[test]\nfn t() { Some(1).unwrap(); }\nfn real(x: Option<u8>) { x.unwrap(); }\n";
    let f = scan("channel", src);
    assert_eq!(rules(&f), ["no-panic-paths"]);
    assert_eq!(f[0].line, 3, "only the non-test unwrap is reported");
}

// ------------------------------------------- string/comment false positives

#[test]
fn tokens_inside_strings_and_comments_are_ignored() {
    let src = "\
fn f() {
    // a comment mentioning unwrap() and panic!
    /* block comment: .expect(\"x\") /* nested: todo!() */ still comment */
    let s = \"string with unwrap() and panic! inside\";
    let r = r#\"raw string: .expect(\"quoted\") unimplemented!\"#;
    let c = '\"';
    let _ = (s, r, c);
}
";
    let f = scan("erasure", src);
    assert!(f.is_empty(), "literals/comments must not match: {f:?}");
}

#[test]
fn char_literal_quote_does_not_open_a_string() {
    // A naive lexer treats '"' as the start of a string and swallows
    // the rest of the file, hiding the real unwrap below.
    let src = "fn f(x: Option<u8>) {\n    let q = '\"';\n    let _ = q;\n    x.unwrap();\n}\n";
    let f = scan("transport", src);
    assert_eq!(rules(&f), ["no-panic-paths"]);
    assert_eq!(f[0].line, 4);
}

#[test]
fn lifetimes_are_not_char_literals() {
    let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g(y: Option<u8>) { y.unwrap(); }\n";
    let f = scan("content", src);
    assert_eq!(rules(&f), ["no-panic-paths"]);
    assert_eq!(f[0].line, 2);
}

#[test]
fn multiline_strings_stay_masked_across_lines() {
    let src = "fn f() {\n    let s = \"line one\n        unwrap() on a continuation line\n    \";\n    let _ = s;\n}\n";
    let f = scan("docmodel", src);
    assert!(f.is_empty(), "continuation lines are literal text: {f:?}");
}

// ------------------------------------------------------------- suppression

#[test]
fn justified_suppression_silences_a_finding() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    // analysis:allow(no-panic-paths) invariant: caller checked is_some\n    x.unwrap()\n}\n";
    let f = scan("transport", src);
    assert_eq!(f.len(), 1);
    assert!(f[0].suppressed);
    assert_eq!(
        f[0].justification.as_deref(),
        Some("invariant: caller checked is_some")
    );
    assert!(unsuppressed(&f).is_empty());
}

#[test]
fn same_line_suppression_works() {
    let src =
        "fn f(x: Option<u8>) -> u8 { x.unwrap() } // analysis:allow(no-panic-paths) fixture\n";
    let f = scan("transport", src);
    assert_eq!(f.len(), 1);
    assert!(f[0].suppressed);
}

#[test]
fn suppression_without_justification_is_rejected() {
    // Built by concatenation so this file never contains a literal
    // malformed suppression (the workspace self-check scans it too).
    let marker = format!("// analysis:{}(no-panic-paths)", "allow");
    let src = format!("fn f(x: Option<u8>) -> u8 {{\n    {marker}\n    x.unwrap()\n}}\n");
    let f = scan("transport", &src);
    let r = rules(&f);
    assert!(
        r.contains(&"bad-suppression"),
        "missing justification: {f:?}"
    );
    assert!(
        f.iter()
            .any(|x| x.rule == "no-panic-paths" && !x.suppressed),
        "the finding itself must stay live: {f:?}"
    );
}

#[test]
fn suppression_naming_unknown_rule_is_rejected() {
    let marker = format!("// analysis:{}(no-panik-paths) oops", "allow");
    let src = format!("fn f() {{}}\n{marker}\n");
    let f = scan("transport", &src);
    assert_eq!(rules(&f), ["bad-suppression"]);
}

#[test]
fn suppression_for_a_different_rule_does_not_apply() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    // analysis:allow(no-print-in-lib) wrong rule entirely\n    x.unwrap()\n}\n";
    let f = scan("transport", src);
    assert_eq!(unsuppressed(&f).len(), 1);
    assert_eq!(unsuppressed(&f)[0].rule, "no-panic-paths");
}

// ---------------------------------------------------------- safety-comment

#[test]
fn unsafe_block_without_safety_comment_is_a_finding() {
    let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let f = scan("erasure", src);
    assert_eq!(rules(&f), ["safety-comment"]);
    assert_eq!(f[0].line, 2);
}

#[test]
fn safety_comment_immediately_above_satisfies_the_rule() {
    let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid for reads by contract\n    unsafe { *p }\n}\n";
    assert!(scan("erasure", src).is_empty());
}

#[test]
fn safety_doc_section_on_unsafe_fn_satisfies_the_rule() {
    let src = "\
/// Reads a byte.
///
/// # Safety
///
/// `p` must be valid for reads.
#[inline]
pub unsafe fn read(p: *const u8) -> u8 {
    // SAFETY: forwarded precondition from this fn's # Safety section
    unsafe { *p }
}
";
    let f = scan("erasure", src);
    assert!(f.is_empty(), "doc # Safety must count: {f:?}");
}

#[test]
fn unsafe_applies_even_in_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t(p: *const u8) {\n        unsafe { core::ptr::read(p) };\n    }\n}\n";
    let f = scan("erasure", src);
    assert_eq!(rules(&f), ["safety-comment"]);
}

#[test]
fn unsafe_in_identifier_or_string_is_not_a_finding() {
    let src = "fn f() {\n    let unsafe_count = 1;\n    let s = \"unsafe { }\";\n    let _ = (unsafe_count, s);\n}\n";
    assert!(scan("erasure", src).is_empty());
}

// ------------------------------------------------------ no-wallclock-in-sim

#[test]
fn wallclock_types_are_rejected_in_deterministic_crates() {
    let src = "use std::time::{Duration, Instant};\nfn f() -> Instant { Instant::now() }\n";
    let f = scan("channel", src);
    assert_eq!(rules(&f), ["no-wallclock-in-sim"; 2]);
    let ok = scan("channel", "use std::time::Duration;\n");
    assert!(ok.is_empty(), "Duration is fine: {ok:?}");
}

#[test]
fn wallclock_is_allowed_outside_sim_and_channel() {
    let src = "use std::time::Instant;\nfn f() -> Instant { Instant::now() }\n";
    assert!(scan("store", src).is_empty());
}

// ---------------------------------------------------------- no-print-in-lib

#[test]
fn prints_in_library_crates_are_findings() {
    let src = "fn f() {\n    println!(\"hi\");\n    eprintln!(\"err\");\n}\n";
    let f = scan("store", src);
    assert_eq!(rules(&f), ["no-print-in-lib"; 2]);
}

#[test]
fn prints_are_allowed_in_sim_bench_and_the_root_binary() {
    let src = "fn f() { println!(\"figure data\"); }\n";
    for krate in ["sim", "bench", "mrtweb", "analysis"] {
        assert!(scan(krate, src).is_empty(), "{krate} may print");
    }
}

#[test]
fn prints_in_test_code_are_exempt() {
    let src =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { println!(\"debugging\"); }\n}\n";
    assert!(scan("store", src).is_empty());
}

// --------------------------------------------------------- ordering-comment

#[test]
fn relaxed_without_justification_is_a_finding() {
    let src = "fn f(c: &std::sync::atomic::AtomicU64) -> u64 {\n    c.load(Ordering::Relaxed)\n}\n";
    let f = scan("transport", src);
    assert_eq!(rules(&f), ["ordering-comment"]);
    assert_eq!(f[0].line, 2);
    assert!(f[0].col > 0, "byte column must be set: {f:?}");
}

#[test]
fn every_non_seqcst_ordering_needs_a_comment() {
    let src = "\
fn f(c: &std::sync::atomic::AtomicU64) {
    c.load(Ordering::Acquire);
    c.store(1, Ordering::Release);
    c.fetch_add(1, Ordering::AcqRel);
}
";
    let f = scan("obs", src);
    assert_eq!(rules(&f), ["ordering-comment"; 3]);
}

#[test]
fn seqcst_is_exempt_as_the_conservative_default() {
    let src = "fn f(c: &std::sync::atomic::AtomicU64) { c.store(1, Ordering::SeqCst); }\n";
    assert!(scan("obs", src).is_empty());
}

#[test]
fn ordering_comment_same_line_or_above_satisfies_the_rule() {
    let src = "\
fn f(c: &std::sync::atomic::AtomicU64) {
    // ORDERING: pure tally, nothing published through it
    c.fetch_add(1, Ordering::Relaxed);
    c.load(Ordering::Relaxed); // ORDERING: monitoring read
}
";
    let f = scan("obs", src);
    assert!(f.is_empty(), "adjacent ORDERING comments count: {f:?}");
}

#[test]
fn one_comment_covers_a_contiguous_atomic_run() {
    let src = "\
fn f(c: &std::sync::atomic::AtomicU64) {
    // ORDERING: independent tallies, each exact via RMW atomicity
    c.fetch_add(1, Ordering::Relaxed);
    c.fetch_add(2, Ordering::Relaxed);
    c.fetch_max(3, Ordering::Relaxed);
}
";
    assert!(scan("obs", src).is_empty());
}

#[test]
fn a_gap_in_the_run_breaks_comment_coverage() {
    let src = "\
fn f(c: &std::sync::atomic::AtomicU64) {
    // ORDERING: covers only the adjacent run
    c.fetch_add(1, Ordering::Relaxed);
    let x = 1;
    c.fetch_add(x, Ordering::Relaxed);
}
";
    let f = scan("obs", src);
    assert_eq!(rules(&f), ["ordering-comment"]);
    assert_eq!(f[0].line, 5, "only the site past the gap is reported");
}

#[test]
fn relaxed_in_test_code_is_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t(c: &std::sync::atomic::AtomicU64) {
        c.load(Ordering::Relaxed);
    }
}
";
    assert!(scan("obs", src).is_empty());
}

#[test]
fn ordering_finding_is_suppressible() {
    let src = "fn f(c: &std::sync::atomic::AtomicU64) {\n    c.load(Ordering::Relaxed); // analysis:allow(ordering-comment) fixture justification\n}\n";
    let f = scan("obs", src);
    assert_eq!(f.len(), 1);
    assert!(f[0].suppressed);
}

// ---------------------------------------------------------- lock-discipline

#[test]
fn guard_bound_to_underscore_is_a_finding() {
    let src = "fn f(m: &std::sync::Mutex<u8>) {\n    let _ = m.lock();\n}\n";
    let f = scan("transport", src);
    assert_eq!(rules(&f), ["lock-discipline"]);
    assert!(f[0].message.contains("bound to `_`"), "{f:?}");
}

#[test]
fn send_while_guard_is_held_is_a_finding() {
    let src = "\
fn f(m: &std::sync::Mutex<u8>, tx: &std::sync::mpsc::Sender<u8>) {
    let g = m.lock();
    let _ = tx.send(*g);
}
";
    let f = scan("transport", src);
    assert_eq!(rules(&f), ["lock-discipline"]);
    assert!(f[0].message.contains("send"), "{f:?}");
}

#[test]
fn sending_after_the_guard_scope_is_clean() {
    let src = "\
fn f(m: &std::sync::Mutex<u8>, tx: &std::sync::mpsc::Sender<u8>) {
    let v = {
        let g = m.lock();
        *g
    };
    let _ = tx.send(v);
}
";
    let f = scan("transport", src);
    assert!(f.is_empty(), "scoped guard then send is fine: {f:?}");
}

#[test]
fn dropping_the_guard_ends_its_critical_section() {
    let src = "\
fn f(m: &std::sync::Mutex<u8>, tx: &std::sync::mpsc::Sender<u8>) {
    let g = m.lock();
    let v = *g;
    drop(g);
    let _ = tx.send(v);
}
";
    let f = scan("transport", src);
    assert!(f.is_empty(), "drop(g) releases the lock: {f:?}");
}

#[test]
fn opposite_acquisition_orders_form_a_cycle() {
    let src = "\
fn ab(a: &std::sync::Mutex<u8>, b: &std::sync::Mutex<u8>) -> u8 {
    let ga = a.lock();
    let gb = b.lock();
    *ga + *gb
}

fn ba(a: &std::sync::Mutex<u8>, b: &std::sync::Mutex<u8>) -> u8 {
    let gb = b.lock();
    let ga = a.lock();
    *ga + *gb
}
";
    let f = scan("transport", src);
    assert_eq!(rules(&f), ["lock-discipline"]);
    assert!(f[0].message.contains("lock-order cycle"), "{f:?}");
}

#[test]
fn disjoint_critical_sections_do_not_form_a_cycle() {
    // The same two locks, never held together: no edge, no cycle.
    let src = "\
fn fa(a: &std::sync::Mutex<u8>) -> u8 {
    let ga = a.lock();
    *ga
}

fn fb(b: &std::sync::Mutex<u8>) -> u8 {
    let gb = b.lock();
    *gb
}
";
    let f = scan("transport", src);
    assert!(f.is_empty(), "no overlap, no edge: {f:?}");
}

#[test]
fn io_read_calls_are_not_lock_acquisitions() {
    // Lock methods are recognized by their EMPTY argument list;
    // io::Read::read(&mut buf) takes arguments and must not match.
    let src = "\
fn f(s: &mut std::net::TcpStream, tx: &std::sync::mpsc::Sender<u8>) {
    let mut buf = [0u8; 16];
    let n = s.read(&mut buf);
    let _ = tx.send(buf[0]);
    let _ = n;
}
";
    let f = scan("proxy", src);
    assert!(f.is_empty(), ".read(args) is io, not a lock: {f:?}");
}

#[test]
fn lock_finding_is_suppressible() {
    let src = "fn f(m: &std::sync::Mutex<u8>) {\n    let _ = m.lock(); // analysis:allow(lock-discipline) poisoning probe fixture\n}\n";
    let f = scan("transport", src);
    assert_eq!(f.len(), 1);
    assert!(f[0].suppressed);
}

// --------------------------------------------------------- untrusted-parser

/// Scans `src` as if it were the proxy wire module (a designated
/// untrusted-parser surface).
fn scan_wire(src: &str) -> Vec<Finding> {
    scan_source("proxy", "crates/proxy/src/wire.rs", src, false)
}

#[test]
fn raw_indexing_in_a_wire_module_is_a_finding() {
    let src = "fn f(buf: &[u8], i: usize) -> u8 {\n    buf[i]\n}\n";
    let f = scan_wire(src);
    assert_eq!(rules(&f), ["untrusted-parser"]);
    assert_eq!(f[0].line, 2);
}

#[test]
fn range_indexing_in_a_wire_module_is_a_finding() {
    let src = "fn f(buf: &[u8], n: usize) -> &[u8] {\n    &buf[4..n]\n}\n";
    let f = scan_wire(src);
    assert_eq!(rules(&f), ["untrusted-parser"]);
}

#[test]
fn bare_length_arithmetic_in_a_wire_module_is_a_finding() {
    let src = "fn f(buf: &[u8]) -> usize {\n    buf.len() + 4\n}\n";
    let f = scan_wire(src);
    assert_eq!(rules(&f), ["untrusted-parser"]);
}

#[test]
fn literal_indexing_and_checked_arithmetic_are_clean() {
    let src = "\
fn f(buf: &[u8]) -> Option<u8> {
    let first = buf.first().copied();
    let tail = buf.get(4..)?;
    let end = buf.len().checked_add(4)?;
    let cap = buf.len().saturating_mul(2);
    let _ = (tail, end, cap, buf[0]);
    first
}
";
    let f = scan_wire(src);
    assert!(f.is_empty(), "get/checked/saturating/[0] are fine: {f:?}");
}

#[test]
fn raw_indexing_in_the_frame_parser_is_a_finding() {
    // The transport frame parser is a surface of its own: it reads
    // every frame the wireless hop delivers.
    let src =
        "fn f(wire: &[u8]) -> u16 {\n    u16::from_be_bytes([wire[0], wire[wire.len() - 1]])\n}\n";
    let f = scan_source("erasure", "crates/erasure/src/packet.rs", src, false);
    assert_eq!(rules(&f), ["untrusted-parser"]);
    assert_eq!(f[0].line, 2);
}

#[test]
fn the_same_code_outside_wire_modules_is_not_flagged() {
    let src = "fn f(buf: &[u8], i: usize) -> u8 { buf[i] }\n";
    let f = scan_source("proxy", "crates/proxy/src/server.rs", src, false);
    assert!(f.is_empty(), "only designated surfaces are audited: {f:?}");
}

#[test]
fn broadcast_designation_is_scoped_to_its_decode_fns() {
    // In transport/broadcast.rs only the frame-decode fns are wire
    // surfaces; the scheduler's indexing is internal and exempt.
    let src = "\
fn schedule(weights: &[u64], i: usize) -> u64 {
    weights[i]
}

fn parse_frame(buf: &[u8], i: usize) -> u8 {
    buf[i]
}
";
    let f = scan_source("transport", "crates/transport/src/broadcast.rs", src, false);
    assert_eq!(rules(&f), ["untrusted-parser"]);
    assert_eq!(f[0].line, 6, "only the decode fn is audited: {f:?}");
}

#[test]
fn parser_finding_is_suppressible() {
    let src = "fn f(buf: &[u8], i: usize) -> u8 {\n    buf[i] // analysis:allow(untrusted-parser) index bounded by caller loop\n}\n";
    let f = scan_wire(src);
    assert_eq!(f.len(), 1);
    assert!(f[0].suppressed);
}

// ------------------------------------------------------------ whole files

#[test]
fn files_marked_all_test_are_fully_exempt_from_code_rules() {
    let src = "fn helper(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let f = scan_source("transport", "tests/helper.rs", src, true);
    assert!(f.is_empty(), "integration tests may unwrap: {f:?}");
}
