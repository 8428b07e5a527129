//! Property-based cross-crate invariants (proptest).

use proptest::prelude::*;

use aegaeon::quota::{decode_quotas, QuotaInputs};
use aegaeon_mem::{SlabPool, SlabPoolConfig};
use aegaeon_metrics::{attainment, RequestOutcome};
use aegaeon_model::ModelId;
use aegaeon_sim::{FairLink, FlowId, SimDur, SimTime};
use aegaeon_workload::active::{active_count_series, mean_active};
use aegaeon_workload::{LengthDist, Request, RequestId, SloSpec, Trace, TraceBuilder};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quotas are finite, positive and bounded whenever inputs are sane.
    #[test]
    fn quotas_are_sane(
        steps in prop::collection::vec(1e-3f64..0.2, 1..10),
        tbt in 0.02f64..0.5,
        c in 0.0f64..20.0,
        qmax in 0.5f64..8.0,
    ) {
        let r = decode_quotas(&QuotaInputs {
            step_times: steps.clone(),
            tbt,
            switch_total: c,
            qmax,
        });
        prop_assert_eq!(r.quotas.len(), steps.len());
        for q in &r.quotas {
            prop_assert!(q.is_finite() && *q > 0.0 && *q <= qmax * 4.0 + 1e-9);
        }
        prop_assert!(r.alpha >= 0.5);
        prop_assert!((0.0..=1.0).contains(&r.est_attainment));
    }

    /// The slab pool never double-allocates and always balances its books.
    #[test]
    fn slab_pool_books_balance(ops in prop::collection::vec((0usize..3, 1usize..20), 1..60)) {
        let mut pool = SlabPool::new(SlabPoolConfig {
            capacity_bytes: 1 << 30,
            slab_bytes: 64 << 20,
        });
        let shapes = [
            pool.register_shape("s0", 1 << 20),
            pool.register_shape("s1", 3 << 20),
            pool.register_shape("s2", 7 << 20),
        ];
        let mut live: Vec<Vec<(aegaeon_mem::BlockRef, usize)>> = vec![Vec::new(); 3];
        let mut seen = std::collections::HashSet::new();
        for (si, n) in ops {
            let shape = shapes[si];
            if live[si].len() > 30 {
                // Free the oldest half.
                let drop: Vec<_> = live[si].drain(..15).collect();
                let blocks: Vec<_> = drop.iter().map(|(b, _)| *b).collect();
                for b in &blocks {
                    seen.remove(b);
                }
                pool.free(shape, &blocks);
            }
            if let Ok(blocks) = pool.alloc(shape, n) {
                for b in blocks {
                    prop_assert!(seen.insert(b), "double allocation of {:?}", b);
                    live[si].push((b, si));
                }
            }
            // The pool's double-entry audit against the live holdings must
            // pass at every step.
            let held: Vec<Vec<_>> = live
                .iter()
                .map(|v| v.iter().map(|(b, _)| *b).collect())
                .collect();
            let audit = pool.audit(shapes.iter().zip(&held).map(|(&s, h)| (s, h.as_slice())));
            prop_assert!(audit.is_none(), "{:?}", audit);
        }
        // Everything still live is tracked; free it all and the pool empties.
        for (si, v) in live.iter().enumerate() {
            let blocks: Vec<_> = v.iter().map(|(b, _)| *b).collect();
            pool.free(shapes[si], &blocks);
        }
        prop_assert_eq!(pool.slabs_in_use(), 0);
    }

    /// Attainment is within [0,1] and monotone in deadline generosity.
    #[test]
    fn attainment_bounds_and_monotonicity(
        arrivals in prop::collection::vec(0.0f64..100.0, 1..20),
        delay in 0.0f64..30.0,
        step_ms in 5.0f64..200.0,
        n_tokens in 1u32..60,
    ) {
        let outcomes: Vec<RequestOutcome> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let start = a + delay;
                RequestOutcome {
                    id: RequestId(i as u64),
                    model: ModelId(0),
                    arrival: SimTime::from_secs_f64(a),
                    token_times: (0..n_tokens)
                        .map(|k| SimTime::from_secs_f64(start + k as f64 * step_ms / 1e3))
                        .collect(),
                    target_tokens: n_tokens,
                }
            })
            .collect();
        let horizon = SimTime::from_secs_f64(1000.0);
        let tight = SloSpec { ttft: SimDur::from_secs(1), tbt: SimDur::from_millis(20) };
        let loose = SloSpec { ttft: SimDur::from_secs(30), tbt: SimDur::from_millis(500) };
        let rt = attainment(&outcomes, tight, horizon).ratio();
        let rl = attainment(&outcomes, loose, horizon).ratio();
        prop_assert!((0.0..=1.0).contains(&rt));
        prop_assert!((0.0..=1.0).contains(&rl));
        prop_assert!(rl >= rt);
    }

    /// The active-model count never exceeds the model count and roughly
    /// follows Theorem 3.1.
    #[test]
    fn active_count_respects_theorem(
        m in 2u32..30,
        rate in 0.01f64..0.3,
        service in 1.0f64..20.0,
        seed in 0u64..1000,
    ) {
        let mut rng = aegaeon_sim::SimRng::seed_from_u64(seed);
        let trace: Trace = TraceBuilder::new(
            SimTime::from_secs_f64(600.0),
            LengthDist::sharegpt(),
        )
        .uniform_models(&mut rng, m, rate)
        .build(&mut rng);
        let series = active_count_series(
            &trace,
            SimDur::from_secs_f64(service),
            SimDur::from_secs_f64(2.0),
        );
        prop_assert!(series.iter().all(|&(_, c)| c <= m));
        let mean = mean_active(&series[series.len() / 4..]);
        let expect = aegaeon_workload::expected_active(m, rate, service);
        // Loose statistical envelope.
        prop_assert!(mean <= m as f64 && (mean - expect).abs() < (0.5 * expect + 2.0),
            "mean {mean}, expect {expect}");
    }

    /// Trace synthesis conserves requests across models and stays sorted.
    #[test]
    fn trace_is_well_formed(m in 1u32..10, rate in 0.0f64..0.5, seed in 0u64..500) {
        let mut rng = aegaeon_sim::SimRng::seed_from_u64(seed);
        let trace = TraceBuilder::new(SimTime::from_secs_f64(100.0), LengthDist::sharegpt())
            .uniform_models(&mut rng, m, rate)
            .build(&mut rng);
        let counts = trace.per_model_counts(m as usize);
        prop_assert_eq!(counts.iter().sum::<usize>(), trace.len());
        prop_assert!(trace.requests.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        for r in &trace.requests {
            prop_assert!(r.output_tokens >= 1);
            prop_assert!(r.input_tokens >= 4);
            let _: &Request = r;
        }
    }

    /// FairLink conserves bytes under arbitrary interleavings of flow
    /// starts, cancellations, completions and bandwidth degradations:
    /// started == delivered + in-flight at every step, and the link's own
    /// audit (which also bounds delivered by nominal-bw × busy-time)
    /// passes throughout.
    #[test]
    fn fair_link_conserves_bytes(
        ops in prop::collection::vec((0u32..4, 1u64..50_000_000, 1u64..2_000_000), 1..80),
    ) {
        let mut link = FairLink::new("prop", 12e9);
        let mut now = SimTime::ZERO;
        let mut live: Vec<FlowId> = Vec::new();
        let mut degraded = false;
        for (op, bytes, dt_us) in ops {
            now += SimDur::from_nanos(dt_us * 1_000);
            match op {
                0 => live.push(link.start_flow(now, bytes)),
                1 => {
                    if !live.is_empty() {
                        let id = live.remove(bytes as usize % live.len());
                        prop_assert!(link.cancel_flow(now, id));
                    }
                }
                2 => {
                    if let Some((t, gen)) = link.deadline(now) {
                        now = t;
                        if let Some(done) = link.expire(now, gen) {
                            live.retain(|f| !done.contains(f));
                        }
                    }
                }
                _ => {
                    if degraded {
                        link.restore_bandwidth(now);
                    } else {
                        link.set_bandwidth(now, link.nominal_bandwidth() * 0.3);
                    }
                    degraded = !degraded;
                }
            }
            prop_assert!(link.audit().is_none(), "{:?}", link.audit());
            let started = link.bytes_started();
            let accounted = link.bytes_delivered() + link.bytes_in_flight();
            prop_assert!(
                (started - accounted).abs() <= 1.0 + started * 1e-9,
                "conservation: started {started} vs delivered+in-flight {accounted}"
            );
        }
        // Drain: every surviving flow completes and the books close.
        while let Some((t, gen)) = link.deadline(now) {
            now = t;
            if let Some(done) = link.expire(now, gen) {
                live.retain(|f| !done.contains(f));
            }
        }
        prop_assert!(live.is_empty(), "undrained flows: {live:?}");
        prop_assert!(link.in_flight() == 0);
        let started = link.bytes_started();
        prop_assert!(
            (started - link.bytes_delivered()).abs() <= 1.0 + started * 1e-9,
            "final books: started {started}, delivered {}",
            link.bytes_delivered()
        );
        prop_assert!(link.audit().is_none(), "{:?}", link.audit());
    }
}
