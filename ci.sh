#!/usr/bin/env bash
# Tier-1 gate plus lint, fault matrix, perf smoke and the bench gate,
# split into named stages so CI jobs (and humans) can run them alone.
#
#   ./ci.sh                      # every stage, in order
#   ./ci.sh --stage clippy       # one stage (repeatable: --stage a --stage b)
#   ./ci.sh --quick              # reduced proptest cases / single fault seed
#   ./ci.sh --no-bench           # skip the bench smoke (constrained runners)
#
# Stages, in default order:
#
#   fmt            cargo fmt --check
#   analysis       in-tree lint (panic paths, SAFETY comments, layering)
#   loc            library lines per crate (non-test, non-comment,
#                  non-blank); a number to track, not a gate
#   clippy         pedantic clippy, -D warnings
#   doc            rustdoc for the workspace, -D warnings (broken or
#                  private intra-doc links fail it)
#   tier1          release build + default-feature test suite
#   examples       release build of every example, then run each
#                  examples/*.rs demo; fails on any nonzero exit
#   tests          full workspace test sweep (PROPTEST_CASES honored)
#   obs-no-trace   mrtweb-obs with the `trace` feature off (no-op path)
#   proxy-fallback mrtweb-proxy with the `event` feature off (blocking
#                  engine only, unsafe code forbidden crate-wide)
#   faults         fault-injection matrix (every faultrun scenario x seeds)
#   proxy-smoke    event-engine serve + loadgen over loopback,
#                  closed sweep up to C=1024 -> BENCH_proxy.json
#   broadcast      carousel smoke: 256 listeners x 4 channels with zero
#                  re-encodes, K-sweep -> BENCH_broadcast.json
#   edge           edge-cache smoke: zero-re-encode hit path, two-cell
#                  roaming handoff, eviction under a tiny budget; folds
#                  the edge section into BENCH_proxy.json
#   mrtbench       daemon benchmark smoke: all four workloads for 1 s
#                  each with the payload oracle on; fails on any wrong
#                  or stale fetch
#   bench          erasure-codec sweep (quick mode) -> BENCH_erasure.json
#   bench-gate     compare fresh BENCH_*.json against BENCH_BASELINE.json
#   miri           cargo miri test on the concurrency-bearing crates
#                  (SKIPs when the miri component is not installed)
#   tsan           ThreadSanitizer test pass on the concurrency-bearing
#                  crates (SKIPs without nightly + rust-src: TSan needs
#                  an instrumented std via -Zbuild-std to avoid false
#                  positives in uninstrumented runtime code)
#
# tier1, examples, tests and mrtbench build with --locked: a manifest
# edit that would rewrite Cargo.lock or examples/mrtbench/Cargo.lock
# fails there instead of being rewritten silently. faults,
# proxy-smoke, broadcast and edge drive target/release/mrtweb, so each
# of them runs `cargo build --release --locked` first (a no-op on a
# fresh build): run alone after a source edit, a stage tests the tree,
# not the previous build.
#
# The proxy readiness wait is bounded but configurable: set
# MRTWEB_PROXY_WAIT_SECS (default 5) on slow runners. The proxy child
# is torn down unconditionally — including when a stage fails mid-way.
set -euo pipefail
cd "$(dirname "$0")"

ALL_STAGES="fmt analysis loc clippy doc tier1 examples tests obs-no-trace proxy-fallback faults proxy-smoke broadcast edge mrtbench bench bench-gate miri tsan"

run_bench=1
quick=0
stages=""
while [ "$#" -gt 0 ]; do
  case "$1" in
    --no-bench) run_bench=0 ;;
    --quick) quick=1 ;;
    --stage)
      shift
      [ "$#" -gt 0 ] || { echo "--stage needs a name" >&2; exit 2; }
      case " $ALL_STAGES " in
        *" $1 "*) stages="$stages $1" ;;
        *) echo "unknown stage: $1 (known: $ALL_STAGES)" >&2; exit 2 ;;
      esac
      ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done
[ -n "$stages" ] || stages="$ALL_STAGES"

# ---- proxy teardown: unconditional, idempotent -------------------------
proxy_pid=""
proxy_log=""
cleanup_proxy() {
  if [ -n "$proxy_pid" ]; then
    kill "$proxy_pid" 2>/dev/null || true
    wait "$proxy_pid" 2>/dev/null || true
    proxy_pid=""
  fi
  if [ -n "$proxy_log" ]; then
    rm -f "$proxy_log"
    proxy_log=""
  fi
}
trap cleanup_proxy EXIT

stage_fmt() {
  echo "==> cargo fmt --check"
  cargo fmt --all -- --check
}

stage_analysis() {
  echo "==> mrtweb-analysis (in-tree lint: panic paths, SAFETY comments, layering)"
  cargo run -q -p mrtweb-analysis -- check
}

stage_loc() {
  echo "==> code size: library lines per crate"
  cargo run -q -p mrtweb-analysis -- loc | sed "s/^/    /"
}

stage_clippy() {
  echo "==> cargo clippy -D warnings (pedantic)"
  # Pedantic is the baseline; the -A list below names the lints we accept
  # wholesale (cast style in numeric simulation code, doc phrasing) so
  # everything else stays deny-by-default.
  cargo clippy --workspace --all-targets -- \
    -W clippy::pedantic \
    -A clippy::cast-possible-truncation \
    -A clippy::cast-precision-loss \
    -A clippy::cast-sign-loss \
    -A clippy::cast-lossless \
    -A clippy::must-use-candidate \
    -A clippy::return-self-not-must-use \
    -A clippy::doc-markdown \
    -A clippy::float-cmp \
    -A clippy::unreadable-literal \
    -A clippy::too-many-lines \
    -A clippy::missing-errors-doc \
    -A clippy::missing-panics-doc \
    -A clippy::module-name-repetitions \
    -D warnings
}

stage_doc() {
  echo "==> cargo doc -D warnings"
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

stage_tier1() {
  echo "==> tier-1: cargo build --release --locked && cargo test -q --locked"
  cargo build --release --locked
  cargo test -q --locked
}

stage_examples() {
  echo "==> examples: release build, then run every examples/*.rs demo"
  cargo build --release --locked --examples
  local example name
  for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "    $name"
    "target/release/examples/$name" > /dev/null \
      || { echo "example $name exited nonzero" >&2; return 1; }
  done
}

stage_tests() {
  local cases="${PROPTEST_CASES:-192}"
  [ "$quick" -eq 1 ] && cases="${PROPTEST_CASES:-32}"
  echo "==> workspace tests (PROPTEST_CASES=$cases)"
  PROPTEST_CASES="$cases" cargo test --workspace -q --locked
}

stage_obs_no_trace() {
  echo "==> mrtweb-obs with tracing compiled out (--no-default-features)"
  cargo test -q -p mrtweb-obs --no-default-features
}

stage_proxy_fallback() {
  echo "==> mrtweb-proxy fallback build (--no-default-features: blocking engine only)"
  cargo test -q -p mrtweb-proxy --no-default-features
}

stage_faults() {
  local seeds="1 2 3"
  [ "$quick" -eq 1 ] && seeds="1"
  cargo build --release --locked
  # Scenario count comes from the binary itself (--list prints a header
  # line, then one indented line per scenario) so the matrix can grow
  # without this script going stale.
  local scenarios
  scenarios="$(target/release/mrtweb faultrun --list | grep -c '^  ')"
  echo "==> fault-injection matrix ($scenarios scenarios x seeds: $seeds)"
  for seed in $seeds; do
    target/release/mrtweb faultrun --all --seed "$seed" \
      | grep -E '^(PASS|FAIL)' | sed "s/^/    /"
  done
}

stage_proxy_smoke() {
  echo "==> proxy smoke: event-engine serve + loadgen over loopback -> BENCH_proxy.json"
  cargo build --release --locked
  proxy_log="$(mktemp)"
  target/release/mrtweb serve --addr 127.0.0.1:0 --engine auto \
    --max-sessions 4096 --runtime-secs 120 > "$proxy_log" 2>&1 &
  proxy_pid=$!
  local wait_secs="${MRTWEB_PROXY_WAIT_SECS:-5}"
  local proxy_addr=""
  for _ in $(seq 1 $((wait_secs * 10))); do
    proxy_addr="$(awk '/^listening on /{print $3; exit}' "$proxy_log" || true)"
    [ -n "$proxy_addr" ] && break
    # Fail fast if the server died before announcing its address.
    kill -0 "$proxy_pid" 2>/dev/null \
      || { echo "proxy exited early: $(cat "$proxy_log")" >&2; return 1; }
    sleep 0.1
  done
  [ -n "$proxy_addr" ] || {
    echo "proxy did not come up within ${wait_secs}s (MRTWEB_PROXY_WAIT_SECS to raise): $(cat "$proxy_log")" >&2
    return 1
  }
  echo "    proxy at $proxy_addr"
  grep -q "engine event" "$proxy_log" \
    || echo "    note: event engine unavailable, smoking the blocking fallback"
  timeout 60 target/release/mrtweb loadgen --addr "$proxy_addr" \
    --clients 8 --requests 32 --json | sed "s/^/    /"
  # Open-loop mode: offered vs attempted rate, coordinated-omission-free
  # latency. A deliberately modest rate so the stage never flakes.
  timeout 60 target/release/mrtweb loadgen --addr "$proxy_addr" \
    --clients 32 --requests 8 --rate 500 --arrival poisson --json | sed "s/^/    /"
  timeout 120 target/release/mrtweb loadgen --addr "$proxy_addr" \
    --sweep 1,8,32,256,1024 --requests 8 --bench-out BENCH_proxy.json > /dev/null
  test -s BENCH_proxy.json || { echo "BENCH_proxy.json missing" >&2; return 1; }
  # The C=1024 point is the held-concurrency acceptance check: every
  # session admitted, zero rejected, zero failed.
  grep -q '"clients": 1024, "mode": "closed", "attempted": 8192, "completed": 8192, "rejected": 0, "failed": 0' \
    BENCH_proxy.json \
    || { echo "C=1024 sweep point not clean:" >&2; cat BENCH_proxy.json >&2; return 1; }
  # The stats snapshot must parse and report a clean run: zero CRC
  # rejections, timeouts, and protocol errors across the whole smoke.
  timeout 30 target/release/mrtweb stats --addr "$proxy_addr" --assert-clean | sed "s/^/    /"
  cleanup_proxy
}

stage_broadcast() {
  echo "==> broadcast smoke: carousel fan-out + K-sweep -> BENCH_broadcast.json"
  cargo build --release --locked
  # Acceptance: every listener completes and the trace shows exactly one
  # encode per document regardless of listener count (the verb exits
  # nonzero otherwise).
  target/release/mrtweb broadcast --listeners 256 --channels 4 | sed "s/^/    /"
  # Under corrupting air the CRC + redundancy path must still finish.
  target/release/mrtweb broadcast --listeners 32 --fault corrupting | sed "s/^/    /"
  local sweep_out
  sweep_out="$(target/release/mrtweb broadcast --sweep 1,2,4 --bench-out BENCH_broadcast.json | tail -1)"
  echo "    $sweep_out"
  test -s BENCH_broadcast.json || { echo "BENCH_broadcast.json missing" >&2; return 1; }
  case "$sweep_out" in
    *"decreasing with K: true"*) ;;
    *) echo "mean access time did not decrease with more channels" >&2; return 1 ;;
  esac
}

stage_edge() {
  echo "==> edge smoke: zero-re-encode hits, two-cell roaming, eviction under budget"
  cargo build --release --locked
  # Acceptance: repeat requests hit the cache and the trace shows one
  # encode per distinct document; the verb exits nonzero otherwise.
  local run_out
  run_out="$(target/release/mrtweb edge --docs 8 --requests 64)"
  echo "$run_out" | sed "s/^/    /"
  case "$run_out" in
    *"zero_reencode=true"*) ;;
    *) echo "edge smoke re-encoded a cached document" >&2; return 1 ;;
  esac
  # A 12 KiB budget over this corpus must evict yet never exceed the
  # budget (the verb checks under_budget itself; assert the pressure).
  local evict_out
  evict_out="$(target/release/mrtweb edge --docs 6 --requests 18 --budget $((12 * 1024)))"
  echo "$evict_out" | sed "s/^/    /"
  case "$evict_out" in
    *"under_budget=true"*) ;;
    *) echo "edge eviction run exceeded its byte budget" >&2; return 1 ;;
  esac
  echo "$evict_out" | grep -Eq 'evictions=[1-9]' \
    || { echo "a 12 KiB budget over this corpus evicted nothing" >&2; return 1; }
  # Two-cell roaming handoff: cell B serves the resume from the one
  # migrated record, byte-identically, cheaper than a restart.
  target/release/mrtweb edge --roam --docs 3 | sed "s/^/    /"
  # Fold the measured hit/miss latencies into the bench envelope the
  # gate reads (idempotent over the proxy-smoke array).
  target/release/mrtweb edge --docs 8 --requests 64 --bench-out BENCH_proxy.json > /dev/null
  test -s BENCH_proxy.json || { echo "BENCH_proxy.json missing" >&2; return 1; }
  grep -q '"edge":' BENCH_proxy.json \
    || { echo "BENCH_proxy.json has no edge section" >&2; return 1; }
}

stage_mrtbench() {
  echo "==> mrtbench smoke: hot, cold, lossy, churn with the payload oracle on"
  # The benchmark is a package of its own; it exits nonzero when any
  # fetch fails or serves a wrong or superseded payload.
  cargo run --release --locked --manifest-path examples/mrtbench/Cargo.toml -- run --smoke
}

stage_bench() {
  if [ "$run_bench" -ne 1 ]; then
    echo "==> bench smoke skipped (--no-bench)"
    return 0
  fi
  echo "==> bench smoke (quick mode): erasure_codec -> BENCH_erasure.json"
  MRTWEB_BENCH_QUICK=1 cargo bench -p mrtweb-bench --bench erasure_codec
  test -s BENCH_erasure.json || { echo "BENCH_erasure.json missing" >&2; return 1; }
}

stage_bench_gate() {
  echo "==> bench gate: fresh BENCH_*.json vs BENCH_BASELINE.json"
  cargo run -q -p mrtweb-analysis -- bench-gate
}

# The crates whose lock/atomic traffic the sanitizers exercise: the obs
# ring buffer, the proxy's admission counters and the transport layer's
# live protocol threads.
SANITIZER_CRATES="-p mrtweb-obs -p mrtweb-transport -p mrtweb-erasure"

stage_miri() {
  echo "==> miri: interpreter-checked test pass (UB + data-race detection)"
  local tc=""
  if cargo miri --version >/dev/null 2>&1; then
    tc=""
  elif cargo +nightly miri --version >/dev/null 2>&1; then
    tc="+nightly"
  else
    echo "    SKIP: miri component not installed (rustup component add miri)"
    return 0
  fi
  # Isolation off: the obs clock shim reads Instant::now once to pin
  # its epoch (the workspace's single audited wall-clock site). A low
  # proptest case count keeps the ~100x interpreter slowdown bounded.
  # shellcheck disable=SC2086  # word-splitting of tc and the -p list is intended
  MIRIFLAGS="-Zmiri-disable-isolation" PROPTEST_CASES=8 \
    cargo $tc miri test -q $SANITIZER_CRATES
}

stage_tsan() {
  echo "==> tsan: ThreadSanitizer test pass on the concurrency-bearing crates"
  if ! rustc +nightly --version >/dev/null 2>&1; then
    echo "    SKIP: nightly toolchain not installed (-Zsanitizer requires nightly)"
    return 0
  fi
  local sysroot
  sysroot="$(rustc +nightly --print sysroot)"
  if [ ! -d "$sysroot/lib/rustlib/src/rust/library" ]; then
    # Without -Zbuild-std the uninstrumented std reports false races
    # (e.g. in std::sync::mpmc inside libtest itself), so a TSan run
    # against a prebuilt std would cry wolf on every execution.
    echo "    SKIP: rust-src not installed (rustup component add rust-src --toolchain nightly)"
    return 0
  fi
  local triple
  triple="$(rustc +nightly --version --verbose | awk '/^host:/{print $2}')"
  # shellcheck disable=SC2086  # word-splitting of the -p list is intended
  RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer" \
    PROPTEST_CASES=16 \
    cargo +nightly test -q -Zbuild-std --target "$triple" $SANITIZER_CRATES
}

for stage in $stages; do
  case "$stage" in
    fmt) stage_fmt ;;
    analysis) stage_analysis ;;
    loc) stage_loc ;;
    clippy) stage_clippy ;;
    doc) stage_doc ;;
    tier1) stage_tier1 ;;
    examples) stage_examples ;;
    tests) stage_tests ;;
    obs-no-trace) stage_obs_no_trace ;;
    proxy-fallback) stage_proxy_fallback ;;
    faults) stage_faults ;;
    proxy-smoke) stage_proxy_smoke ;;
    broadcast) stage_broadcast ;;
    edge) stage_edge ;;
    mrtbench) stage_mrtbench ;;
    bench) stage_bench ;;
    bench-gate) stage_bench_gate ;;
    miri) stage_miri ;;
    tsan) stage_tsan ;;
  esac
done

echo "==> ci.sh OK"
