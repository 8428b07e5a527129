//! Criterion micro-benchmarks for the hot data structures: the event heap,
//! fair-share links, the §5.2 allocators, the quota equations and the
//! Algorithm 1 dispatch path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use aegaeon::prefill::PrefillQueue;
use aegaeon::quota::{decode_quotas, QuotaInputs};
use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_bench::{market_models, uniform_trace, SEED};
use aegaeon_mem::{SlabPool, SlabPoolConfig};
use aegaeon_model::ModelId;
use aegaeon_sim::{BinaryHeapQueue, EventQueue, FairLink, SimDur, SimTime, Timeline};
use aegaeon_workload::{LengthDist, RequestId};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule_after(SimDur::from_nanos((i * 7919) % 10_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    // The same workload on the retained reference implementation, so a bench
    // run directly reports the new heap's speedup.
    c.bench_function("event_queue_ref/push_pop_1k", |b| {
        b.iter(|| {
            let mut q: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
            for i in 0..1000u64 {
                q.schedule_after(SimDur::from_nanos((i * 7919) % 10_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    // The DES steady state: a standing event population with one push per
    // pop, the shape of the simulator's dispatch loop.
    c.bench_function("event_queue/churn_4k_standing", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..4096u64 {
                q.schedule_after(SimDur::from_nanos((i.wrapping_mul(2654435761)) % 100_000), i);
            }
            let mut acc = 0u64;
            for _ in 0..16_384u64 {
                let (_, e) = q.pop().expect("standing population");
                acc = acc.wrapping_add(e);
                q.schedule_after(SimDur::from_nanos(acc.wrapping_mul(2654435761) % 100_000), e);
            }
            black_box(acc)
        })
    });
    c.bench_function("event_queue_ref/churn_4k_standing", |b| {
        b.iter(|| {
            let mut q: BinaryHeapQueue<u64> = BinaryHeapQueue::new();
            for i in 0..4096u64 {
                q.schedule_after(SimDur::from_nanos((i.wrapping_mul(2654435761)) % 100_000), i);
            }
            let mut acc = 0u64;
            for _ in 0..16_384u64 {
                let (_, e) = q.pop().expect("standing population");
                acc = acc.wrapping_add(e);
                q.schedule_after(SimDur::from_nanos(acc.wrapping_mul(2654435761) % 100_000), e);
            }
            black_box(acc)
        })
    });
}

fn bench_serving_hot_loop(c: &mut Criterion) {
    // A short but complete serving run: the dispatch loop plus scheduler,
    // dominated by the queue, tracing branches and per-event map lookups
    // this PR optimizes.
    let models = market_models(8);
    let trace = uniform_trace(8, 0.25, 60.0, SEED, LengthDist::sharegpt());
    c.bench_function("serving/aegaeon_8m_60s", |b| {
        b.iter(|| {
            let cfg = AegaeonConfig::small_testbed(2, 3);
            black_box(ServingSystem::run(&cfg, &models, &trace).completed)
        })
    });
}

fn bench_fair_link(c: &mut Criterion) {
    c.bench_function("fair_link/64_interleaved_flows", |b| {
        b.iter(|| {
            let mut link = FairLink::new("bench", 32e9);
            let mut now = SimTime::ZERO;
            for i in 0..64u64 {
                link.start_flow(now, 1_000_000 + i * 1000);
                now += SimDur::from_micros(10);
            }
            let mut done = 0;
            while let Some((eta, gen)) = link.deadline(now) {
                now = eta;
                done += link.expire(now, gen).map(|v| v.len()).unwrap_or(0);
            }
            black_box(done)
        })
    });
}

fn bench_slab(c: &mut Criterion) {
    c.bench_function("slab/alloc_free_churn", |b| {
        let mut pool = SlabPool::new(SlabPoolConfig {
            capacity_bytes: 8 << 30,
            slab_bytes: 128 << 20,
        });
        let a = pool.register_shape("a", 8 << 20);
        let bshape = pool.register_shape("b", 2 << 20);
        b.iter(|| {
            let x = pool.alloc(a, 40).expect("capacity");
            let y = pool.alloc(bshape, 100).expect("capacity");
            pool.free(a, &x);
            pool.free(bshape, &y);
        })
    });
}

fn bench_quota(c: &mut Criterion) {
    let inp = QuotaInputs {
        step_times: (0..8).map(|i| 0.01 + 0.002 * i as f64).collect(),
        tbt: 0.1,
        switch_total: 4.5,
        qmax: 4.0,
    };
    c.bench_function("quota/eq2_eq3_8_batches", |b| {
        b.iter(|| black_box(decode_quotas(black_box(&inp))))
    });
}

fn bench_prefill_dispatch(c: &mut Criterion) {
    c.bench_function("prefill/load_estimate_32_groups", |b| {
        let mut q = PrefillQueue::new();
        for i in 0..32u64 {
            q.push_group(ModelId((i % 8) as u32), RequestId(i));
        }
        b.iter(|| {
            black_box(q.load_estimate(Some(ModelId(0)), |_, _| 0.04, |_| 0.6))
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_event_queue,
        bench_serving_hot_loop,
        bench_fair_link,
        bench_slab,
        bench_quota,
        bench_prefill_dispatch
);
criterion_main!(micro);
