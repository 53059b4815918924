//! Criterion benches for the trace format: v2 columnar blocked decode
//! throughput, and streaming versus resident gauntlet evaluation.

use branchnet_tage::{Bimodal, Gshare};
use branchnet_trace::{read_trace, write_trace, Gauntlet, Trace, TraceReader};
use branchnet_workloads::spec::{Benchmark, SpecSuite};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn workload_trace(n: usize) -> Trace {
    let bench = SpecSuite::benchmark(Benchmark::Leela);
    bench.generate(&bench.inputs().test[0], n)
}

/// Full-trace decode throughput.
fn bench_decode_throughput(c: &mut Criterion) {
    // Quick-scale trace length (see Scale::quick: 20k branches/trace).
    let trace = workload_trace(20_000);
    let mut v2 = Vec::new();
    write_trace(&mut v2, &trace).expect("encode v2");

    let mut group = c.benchmark_group("trace-decode");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("v2/blocked", |b| {
        b.iter(|| black_box(read_trace(black_box(&v2[..])).expect("v2 decode")));
    });
    group.finish();
}

/// Gauntlet evaluation from bytes: decode-to-resident-then-run versus
/// streaming block replay straight off the reader.
fn bench_streaming_vs_resident(c: &mut Criterion) {
    let trace = workload_trace(20_000);
    let mut v2 = Vec::new();
    write_trace(&mut v2, &trace).expect("encode v2");

    let mut group = c.benchmark_group("gauntlet-from-bytes");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("resident/2-lanes", |b| {
        b.iter(|| {
            let decoded = read_trace(&v2[..]).expect("v2 decode");
            let mut g = Gauntlet::new();
            let bim = g.add(Bimodal::new(13, 2));
            g.add(Gshare::new(14, 12));
            g.run(&decoded);
            black_box(g.stats(bim).accuracy())
        });
    });
    group.bench_function("streaming/2-lanes", |b| {
        b.iter(|| {
            let mut reader = TraceReader::new(&v2[..]).expect("v2 header");
            let mut g = Gauntlet::new();
            let bim = g.add(Bimodal::new(13, 2));
            g.add(Gshare::new(14, 12));
            g.run_stream(&mut reader).expect("streamed run");
            black_box(g.stats(bim).accuracy())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_decode_throughput, bench_streaming_vs_resident);
criterion_main!(benches);
