//! Figure 18 / §7.5: the production deployment study.
//!
//! The paper's beta deployment serves twenty-eight 1.8–7B models (TP=1) and
//! nineteen 32–72B models (TP=4) with per-model rates 0.01–1.13 req/s
//! (mean 0.037), previously on 1,192 dedicated H20 GPUs, now on 213 pooled
//! ones — an 82% saving — while GPU utilization rises from 13.3–33.9% to
//! 48.1%.
//!
//! This harness (i) sizes both deployments with the capacity planner and
//! (ii) replays the small-model pool: dedicated instances versus one
//! Aegaeon pool, reporting the utilization timeline. Time is compressed —
//! 70 "hours" are simulated as 70 buckets of 100 s — which preserves rates
//! and utilization statistics.

use aegaeon::planner::{aegaeon_pool_gpus, dedicated_gpus, ModelDemand, PlannerConfig};
use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_baselines::engine_loop::WorldConfig;
use aegaeon_baselines::Dedicated;
use aegaeon_bench::{banner, dump_json, SEED};
use aegaeon_gpu::{ClusterSpec, GpuSpec, NodeSpec};
use aegaeon_model::{ModelSpec, Zoo};
use aegaeon_sim::{SimRng, SimTime};
use aegaeon_workload::{LengthDist, SloSpec, TraceBuilder};

fn production_rates(n: usize, rng: &mut SimRng) -> Vec<f64> {
    // Rates in [0.01, 1.13], heavily skewed, averaging ≈ 0.037 (§7.5).
    let mut rates: Vec<f64> = (0..n)
        .map(|i| {
            if i == 0 {
                1.13 // one hot model
            } else {
                0.01 + rng.f64().powi(3) * 0.08
            }
        })
        .collect();
    let mean = rates.iter().sum::<f64>() / n as f64;
    let scale = 0.037 / mean;
    for r in rates.iter_mut().skip(1) {
        *r = (*r * scale).clamp(0.005, 1.13);
    }
    rates
}

fn demands(specs: &[ModelSpec], rates: &[f64]) -> Vec<ModelDemand> {
    specs
        .iter()
        .zip(rates)
        .map(|(s, &rate)| ModelDemand {
            spec: s.clone(),
            rate,
            mean_output: 250.0,
            mean_input: 330.0,
        })
        .collect()
}

fn h20_cluster(gpus: u32) -> ClusterSpec {
    ClusterSpec::homogeneous(
        1,
        NodeSpec {
            gpus,
            gpu: GpuSpec::h20(),
            nic_bw: 25e9,
        },
    )
}

fn main() {
    banner("fig18_deployment", "Figure 18 / §7.5 (production deployment)");
    let zoo = Zoo::standard();
    let mut rng = SimRng::seed_from_u64(SEED);

    // --- capacity planning: before vs after ------------------------------
    let small_bases = ["Qwen-7B", "Yi-6B", "Qwen-1.8B", "InternLM2.5-7B"];
    let small_specs: Vec<ModelSpec> = (0..28)
        .map(|i| {
            let mut s = zoo.get(small_bases[i % small_bases.len()]).expect("zoo").clone();
            s.name = format!("{}/prod{}", s.name, i);
            s
        })
        .collect();
    let large_bases = ["Yi-34B", "Qwen-72B"];
    let large_specs: Vec<ModelSpec> = (0..19)
        .map(|i| {
            let mut s = zoo
                .get(large_bases[i % large_bases.len()])
                .expect("zoo")
                .with_tp(4);
            s.name = format!("{}/prod{}", s.name, i);
            s
        })
        .collect();
    let small_rates = production_rates(28, &mut rng);
    let large_rates = production_rates(19, &mut rng);
    let gpu = GpuSpec::h20();
    let pc = PlannerConfig::production_default();
    let d_small = demands(&small_specs, &small_rates);
    let d_large = demands(&large_specs, &large_rates);
    let before = dedicated_gpus(&gpu, &d_small, &pc) + dedicated_gpus(&gpu, &d_large, &pc);
    let after = aegaeon_pool_gpus(&gpu, &d_small, &pc) + aegaeon_pool_gpus(&gpu, &d_large, &pc);
    let saving = 1.0 - after as f64 / before as f64;
    println!("\ncapacity plan for the 47-model production mix (H20):");
    println!("  before (dedicated, redundant): {before} GPUs   (paper: 1,192)");
    println!("  after  (Aegaeon pools):        {after} GPUs   (paper: 213)");
    println!("  saving: {:.0}%               (paper: 82%)", saving * 100.0);

    // --- utilization replay on the small-model pool ----------------------
    let hours = 70usize;
    let bucket_secs = 100.0;
    let horizon = SimTime::from_secs_f64(hours as f64 * bucket_secs);
    let mut wrng = SimRng::seed_from_u64(SEED + 1);
    let mut tb = TraceBuilder::new(horizon, LengthDist::sharegpt());
    for (i, &rate) in small_rates.iter().enumerate() {
        // Day/night modulation with staggered peaks (the Figure 18 wiggle).
        let p = aegaeon_workload::DiurnalProcess {
            mean_rate: rate,
            amplitude: 0.35,
            period_secs: hours as f64 * bucket_secs / 3.0,
            phase: i as f64 / 28.0,
        };
        let arrivals = p.arrivals(&mut wrng, horizon);
        tb = tb.explicit_model(aegaeon_model::ModelId(i as u32), arrivals);
    }
    let trace = tb.build(&mut wrng);
    println!(
        "\nreplay: 28 small models, aggregate {:.2} req/s, {} requests over {} compressed hours",
        trace.aggregate_rate(),
        trace.len(),
        hours
    );

    // Before: dedicated replicas per the planner (hot models get several
    // instances, which dilutes their per-GPU utilization like production).
    let replica_counts: Vec<u32> = d_small
        .iter()
        .map(|d| aegaeon::planner::dedicated_instances(&gpu, d, &pc))
        .collect();
    let mut assignment = Vec::new();
    for (m, &k) in replica_counts.iter().enumerate() {
        for _ in 0..k {
            assignment.push(aegaeon_model::ModelId(m as u32));
        }
    }
    let before_gpus_small = assignment.len() as u32;
    let mut wc = WorldConfig::sllm_default(h20_cluster(before_gpus_small));
    wc.seed = SEED;
    let ded = Dedicated::run_with_assignment(&wc, &small_specs, &trace, assignment);
    let per_gpu_util: Vec<f64> = ded
        .gpu_busy
        .iter()
        .map(|b| b / ded.end_time.as_secs_f64())
        .collect();
    let lo = per_gpu_util.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = per_gpu_util.iter().cloned().fold(0.0, f64::max);

    // After: an Aegaeon pool. The replay sizes the pool at the planner's
    // redundancy-free minimum (the redundant capacity in the headline count
    // above sits idle for fault tolerance and does not serve this trace).
    let pc_replay = PlannerConfig { redundancy: 1.0, ..pc.clone() };
    let pool = aegaeon_pool_gpus(&gpu, &d_small, &pc_replay).max(3) as u32;
    let mut cfg = AegaeonConfig::paper_testbed();
    cfg.cluster = h20_cluster(pool);
    cfg.prefill_instances = (pool as usize / 3).max(1);
    cfg.seed = SEED;
    let aeg = ServingSystem::run(&cfg, &small_specs, &trace);
    let aeg_att = aeg.attainment(SloSpec::paper_default());

    // Hourly utilization series (compressed hours).
    println!("\n(before replay uses {} dedicated GPUs for the 28 small models)", before_gpus_small);
    println!("\nhourly GPU utilization (sampled, every 5 'hours'):");
    println!("  hour  before(low)  before(high)  after(Aegaeon, {pool} GPUs)");
    let series_at = |samples: &[(SimTime, Vec<f64>)], h: usize, gpu_sel: &dyn Fn(&[f64]) -> f64| {
        let t0 = (h as f64) * bucket_secs;
        let t1 = t0 + bucket_secs;
        let find = |t: f64| -> Option<&Vec<f64>> {
            samples
                .iter()
                .filter(|(st, _)| st.as_secs_f64() <= t)
                .map(|(_, v)| v)
                .next_back()
        };
        match (find(t0), find(t1)) {
            (Some(a), Some(b)) => {
                let da: f64 = gpu_sel(b) - gpu_sel(a);
                (da / bucket_secs).max(0.0)
            }
            _ => 0.0,
        }
    };
    let lo_idx = per_gpu_util
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let hi_idx = per_gpu_util
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut json_series = Vec::new();
    for h in (0..hours).step_by(5) {
        let b_lo = series_at(&ded.util_samples, h, &|v| v[lo_idx]);
        let b_hi = series_at(&ded.util_samples, h, &|v| v[hi_idx]);
        let a_all = series_at(&aeg.util_samples, h, &|v| v.iter().sum::<f64>())
            / pool as f64;
        println!(
            "  {h:4}  {:10.1}%  {:11.1}%  {:10.1}%",
            b_lo * 100.0,
            b_hi * 100.0,
            a_all * 100.0
        );
        json_series.push(serde_json::json!({ "hour": h, "before_low": b_lo, "before_high": b_hi, "after": a_all }));
    }
    let aeg_util = aeg.mean_gpu_utilization();
    println!("\naverages: before low {:.1}%, before high {:.1}%, after {:.1}%", lo * 100.0, hi * 100.0, aeg_util * 100.0);
    println!("paper:    before 13.3%(low) / 33.9%(high), after 48.1%");
    println!(
        "Aegaeon pool SLO attainment during replay: {:.1}% (no observable violations in the paper)",
        aeg_att.percent()
    );

    dump_json(
        "fig18_deployment",
        &serde_json::json!({
            "planner_before_gpus": before,
            "planner_after_gpus": after,
            "saving": saving,
            "paper_before": 1192,
            "paper_after": 213,
            "before_util_low": lo,
            "before_util_high": hi,
            "after_util": aeg_util,
            "attainment": aeg_att.ratio(),
            "series": json_series,
        }),
    );
}
