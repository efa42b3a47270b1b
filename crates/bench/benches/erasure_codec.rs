//! Codec throughput at the paper's parameters (M = 40, N = 60,
//! 256-byte packets — a 10240-byte document) plus a packet-size sweep
//! from 256 B to 64 KiB.
//!
//! Besides the live kernels, the harness times the *seed scalar path*
//! (per-row allocation + log/exp `mul_acc_scalar`, exactly the shape of
//! the pre-kernel `encode_packets`) so every run re-measures the
//! speedup instead of trusting a number written down once. All
//! measurements are exported to `BENCH_erasure.json` at the repository
//! root so the perf trajectory is tracked across PRs.

use criterion::{BenchmarkId, Criterion, Throughput};
use std::fmt::Write as _;
use std::hint::black_box;

use mrtweb_erasure::crc::{
    self, crc16, crc16_portable, crc16_reference, crc32, crc32_portable, crc32_reference,
};
use mrtweb_erasure::gf256::{self, mul_acc_scalar};
use mrtweb_erasure::ida::Codec;
use mrtweb_erasure::packet::Frame;
use mrtweb_erasure::par::{default_threads, encode_into_parallel};

/// The seed's encode shape: clone the clear prefix, allocate one row
/// per redundancy packet, accumulate with the scalar log/exp multiply.
fn encode_scalar_baseline(codec: &Codec, raws: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut cooked = raws.to_vec();
    for index in codec.raw_packets()..codec.cooked_packets() {
        let coeffs = codec.coefficients(index);
        let mut row = vec![0u8; codec.packet_size()];
        for (raw, &c) in raws.iter().zip(coeffs) {
            mul_acc_scalar(&mut row, raw, c);
        }
        cooked.push(row);
    }
    cooked
}

/// The `codec_setup` M values. The fitted exponent below spans an
/// order of magnitude so constant setup overhead at M = 10 cannot
/// masquerade as good scaling.
const SETUP_SWEEP: [usize; 4] = [10, 40, 100, 200];

fn benches(c: &mut Criterion) {
    let codec = Codec::new(40, 60, 256).unwrap();
    let data: Vec<u8> = (0..10240).map(|i| (i * 131 + 7) as u8).collect();
    let raws = codec.split(&data);
    let cooked = codec.encode(&data);

    let mut g = c.benchmark_group("erasure_codec");
    g.throughput(Throughput::Bytes(10240));
    g.bench_function("encode_40_60_scalar_baseline", |b| {
        b.iter(|| encode_scalar_baseline(&codec, black_box(&raws)));
    });
    g.bench_function("encode_40_60", |b| {
        b.iter(|| codec.encode(black_box(&data)));
    });
    let mut buf = Vec::new();
    // Warm the buffer and code/data caches so the traced/untraced pair
    // below compares tracer cost, not first-touch effects.
    codec.encode_into(&data, &mut buf);
    g.bench_function("encode_into_40_60", |b| {
        b.iter(|| codec.encode_into(black_box(&data), &mut buf));
    });
    // Throughput with the tracer recording (one EncodeSpan per call
    // into the per-thread ring). The headline `trace_overhead_pct` is
    // computed separately by `measure_trace_overhead` with interleaved
    // batches; this record just keeps the traced throughput visible.
    mrtweb_obs::set_enabled(true);
    g.bench_function("encode_into_40_60_traced", |b| {
        b.iter(|| codec.encode_into(black_box(&data), &mut buf));
    });
    mrtweb_obs::set_enabled(false);
    let _ = mrtweb_obs::drain();
    let threads = default_threads();
    g.bench_function("encode_into_parallel_40_60", |b| {
        b.iter(|| encode_into_parallel(&codec, black_box(&data), &mut buf, threads));
    });

    // Decode from the clear-text prefix (no inversion needed).
    let clear: Vec<(usize, Vec<u8>)> = cooked.iter().take(40).cloned().enumerate().collect();
    g.bench_function("decode_all_clear", |b| {
        b.iter(|| codec.decode(black_box(&clear), 10240).unwrap());
    });

    // Decode from a worst-case survivor set (20 clear lost): once with
    // the shared inverse cache warm and once forcing a fresh inversion
    // each call, so the cache's contribution stays visible.
    let mixed: Vec<(usize, Vec<u8>)> = (20..60).map(|i| (i, cooked[i].clone())).collect();
    g.bench_function("decode_20_erasures", |b| {
        b.iter(|| codec.decode(black_box(&mixed), 10240).unwrap());
    });
    g.bench_function("decode_20_erasures_uncached", |b| {
        b.iter(|| codec.decode_uncached(black_box(&mixed), 10240).unwrap());
    });

    // Setup-cost sweep for the scaling-exponent fit. N = 1.5·M capped
    // at GF(2⁸)'s 256 cooked-packet ceiling (M = 200 → N = 256).
    for m in SETUP_SWEEP {
        g.bench_with_input(BenchmarkId::new("codec_setup", m), &m, |b, &m| {
            b.iter(|| Codec::new(black_box(m), black_box((m + m / 2).min(256)), 256).unwrap());
        });
    }

    // Packet-size sweep, 256 B → 64 KiB at the paper's M=40/N=60 shape:
    // encode via the buffer-reuse kernel, decode under 20 erasures.
    for ps in [256usize, 1024, 4096, 16384, 65536] {
        let sweep_codec = Codec::new(40, 60, ps).unwrap();
        let doc: Vec<u8> = (0..40 * ps).map(|i| (i * 89 + 3) as u8).collect();
        g.throughput(Throughput::Bytes(doc.len() as u64));
        let mut out = Vec::new();
        g.bench_with_input(BenchmarkId::new("encode_sweep", ps), &ps, |b, _| {
            b.iter(|| sweep_codec.encode_into(black_box(&doc), &mut out));
        });
        let sweep_cooked = sweep_codec.encode(&doc);
        let survivors: Vec<(usize, Vec<u8>)> =
            (20..60).map(|i| (i, sweep_cooked[i].clone())).collect();
        g.bench_with_input(
            BenchmarkId::new("decode_sweep_20_erasures", ps),
            &ps,
            |b, _| {
                b.iter(|| {
                    sweep_codec
                        .decode(black_box(&survivors), doc.len())
                        .unwrap()
                });
            },
        );
    }

    g.throughput(Throughput::Bytes(260));
    let frame = Frame::new(7, vec![0xA5; 256]);
    let wire = frame.to_wire();
    g.bench_function("frame_roundtrip", |b| {
        b.iter(|| {
            let w = frame.to_wire();
            Frame::from_wire(black_box(&w), 256).unwrap()
        });
    });
    g.bench_function("crc16_frame", |b| b.iter(|| crc16(black_box(&wire))));
    g.bench_function("crc32_frame", |b| b.iter(|| crc32(black_box(&wire))));
    // The sliced fallback on the same frame, whatever tier the CPU has.
    g.bench_function("crc16_frame_portable", |b| {
        b.iter(|| crc16_portable(black_box(&wire)));
    });
    g.bench_function("crc32_frame_portable", |b| {
        b.iter(|| crc32_portable(black_box(&wire)));
    });

    // The dispatched CRC kernels (the `*_sliced` names predate the
    // carry-less tier; `crc_tier` in the report names the kernel) vs the
    // bit-at-a-time references on a buffer large enough that per-call
    // overhead vanishes.
    let big: Vec<u8> = (0..65536).map(|i| (i * 211 + 9) as u8).collect();
    g.throughput(Throughput::Bytes(big.len() as u64));
    g.bench_function("crc32_64k_sliced", |b| b.iter(|| crc32(black_box(&big))));
    g.bench_function("crc32_64k_bitwise", |b| {
        b.iter(|| crc32_reference(black_box(&big)));
    });
    g.bench_function("crc16_64k_sliced", |b| b.iter(|| crc16(black_box(&big))));
    g.bench_function("crc16_64k_bitwise", |b| {
        b.iter(|| crc16_reference(black_box(&big)));
    });
    g.finish();
}

/// Measures the tracer's cost on the encode hot path with interleaved
/// disabled/enabled batches, taking the minimum batch time for each
/// side so frequency ramps and scheduler interrupts cancel out (the
/// sequential criterion records above are ordering-biased: whichever
/// bench runs later sees a warmer CPU). Returns the relative overhead
/// in percent; negative values mean the difference is below noise.
fn measure_trace_overhead(codec: &Codec, data: &[u8]) -> f64 {
    const BATCH: usize = 64;
    const ROUNDS: usize = 48;
    let mut buf = Vec::new();
    codec.encode_into(data, &mut buf); // warm caches and the buffer
    let mut batch_ns = |enabled: bool| -> f64 {
        mrtweb_obs::set_enabled(enabled);
        let start = std::time::Instant::now();
        for _ in 0..BATCH {
            codec.encode_into(black_box(data), &mut buf);
        }
        start.elapsed().as_nanos() as f64 / BATCH as f64
    };
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..ROUNDS {
        best_off = best_off.min(batch_ns(false));
        best_on = best_on.min(batch_ns(true));
    }
    mrtweb_obs::set_enabled(false);
    let _ = mrtweb_obs::drain();
    (best_on - best_off) / best_off * 100.0
}

/// Writes every recorded measurement (plus the headline speedups) as
/// JSON next to the workspace root, overwriting the previous run.
fn write_summary(c: &Criterion, trace_overhead_pct: f64) {
    fn find(c: &Criterion, name: &str) -> Option<f64> {
        c.records()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.ns_per_iter)
    }
    let mut out = String::from("{\n  \"bench\": \"erasure_codec\",\n");
    let _ = writeln!(out, "  \"quick\": {},", c.is_quick());
    if let (Some(scalar), Some(fast)) = (
        find(c, "encode_40_60_scalar_baseline"),
        find(c, "encode_40_60"),
    ) {
        let _ = writeln!(
            out,
            "  \"encode_40_60_speedup_vs_scalar\": {:.2},",
            scalar / fast
        );
    }
    for crc in ["crc32", "crc16"] {
        if let (Some(bitwise), Some(fast)) = (
            find(c, &format!("{crc}_64k_bitwise")),
            find(c, &format!("{crc}_64k_sliced")),
        ) {
            let _ = writeln!(
                out,
                "  \"{crc}_speedup_vs_bitwise\": {:.2},",
                bitwise / fast
            );
        }
    }
    // The kernels this report measured, as the dispatchers pick them.
    let gf_tier = gf256::detected_tiers()[0];
    let _ = writeln!(out, "  \"gf256_tier\": \"{gf_tier:?}\",");
    let _ = writeln!(out, "  \"crc_tier\": \"{:?}\",", crc::tier());
    let _ = writeln!(out, "  \"trace_overhead_pct\": {trace_overhead_pct:.2},");
    // Least-squares slope of log(setup ns) against log(M): the measured
    // scaling exponent of codec construction. The Cauchy path should
    // fit ≈ 2 (O(M·N) with N ∝ M); the old Gauss-Jordan path fit ≈ 3.
    let points: Vec<(f64, f64)> = SETUP_SWEEP
        .iter()
        .filter_map(|m| find(c, &format!("codec_setup/{m}")).map(|ns| (*m as f64, ns)))
        .collect();
    if points.len() >= 2 {
        let n = points.len() as f64;
        let (mut sx, mut sy) = (0.0, 0.0);
        for (m, ns) in &points {
            sx += m.ln();
            sy += ns.ln();
        }
        let (mx, my) = (sx / n, sy / n);
        let (mut cov, mut var) = (0.0, 0.0);
        for (m, ns) in &points {
            cov += (m.ln() - mx) * (ns.ln() - my);
            var += (m.ln() - mx) * (m.ln() - mx);
        }
        if var > 0.0 {
            let _ = writeln!(out, "  \"setup_scaling_exponent\": {:.3},", cov / var);
        }
    }
    if let (Some(cold), Some(warm)) = (
        find(c, "decode_20_erasures_uncached"),
        find(c, "decode_20_erasures"),
    ) {
        let _ = writeln!(
            out,
            "  \"decode_cold_over_warm_ratio\": {:.3},",
            cold / warm
        );
    }
    out.push_str("  \"results\": [\n");
    let records = c.records();
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}",
            r.name, r.ns_per_iter
        );
        if let Some(bytes) = r.bytes_per_iter {
            let _ = write!(out, ", \"bytes_per_iter\": {bytes}");
        }
        if let Some(mib) = r.mib_per_s {
            let _ = write!(out, ", \"mib_per_s\": {mib:.1}");
        }
        out.push_str(if i + 1 == records.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_erasure.json");
    match std::fs::write(path, out) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
    let codec = Codec::new(40, 60, 256).unwrap();
    let data: Vec<u8> = (0..10240).map(|i| (i * 131 + 7) as u8).collect();
    let overhead = measure_trace_overhead(&codec, &data);
    eprintln!("trace overhead on encode_into(40,60,256): {overhead:.2}%");
    write_summary(&c, overhead);
}
