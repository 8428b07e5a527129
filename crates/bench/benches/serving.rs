//! Criterion end-to-end benchmarks: whole serving simulations per system.
//!
//! These measure simulator throughput (events/s of the reproduction), not
//! GPU performance; they catch orchestration-path regressions.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_baselines::{ServerlessLlm, SllmConfig};
use aegaeon_bench::{market_models, uniform_trace};
use aegaeon_workload::LengthDist;

fn bench_aegaeon(c: &mut Criterion) {
    let models = market_models(12);
    let trace = uniform_trace(12, 0.08, 120.0, 9, LengthDist::sharegpt());
    let cfg = AegaeonConfig::small_testbed(2, 3);
    c.bench_function("serving/aegaeon_12models_120s", |b| {
        b.iter(|| black_box(ServingSystem::run(&cfg, &models, &trace).completed))
    });
}

fn bench_sllm(c: &mut Criterion) {
    let models = market_models(12);
    let trace = uniform_trace(12, 0.08, 120.0, 9, LengthDist::sharegpt());
    let cfg = SllmConfig::new(aegaeon_gpu::ClusterSpec::homogeneous(
        1,
        aegaeon_gpu::NodeSpec {
            gpus: 5,
            gpu: aegaeon_gpu::GpuSpec::h800(),
            nic_bw: 25e9,
        },
    ));
    c.bench_function("serving/sllm_12models_120s", |b| {
        b.iter(|| black_box(ServerlessLlm::run(&cfg, &models, &trace).completed))
    });
}

criterion_group!(
    name = serving;
    config = Criterion::default().sample_size(10);
    targets = bench_aegaeon, bench_sllm
);
criterion_main!(serving);
