//! A model-marketplace scenario: many models with heavily skewed
//! popularity (Figure 1a's power law), served by one Aegaeon pool versus
//! request-level auto-scaling on the same hardware.
//!
//! ```text
//! cargo run --release -p aegaeon-bench --example model_marketplace
//! ```

use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_baselines::{ServerlessLlm, SllmConfig};
use aegaeon_model::Zoo;
use aegaeon_sim::{SimRng, SimTime};
use aegaeon_workload::popularity::{head_share, zipf_weights};
use aegaeon_workload::{LengthDist, SloSpec, TraceBuilder};

fn main() {
    let n_models = 48usize;
    let zoo = Zoo::standard();
    let models = Zoo::replicate(&zoo.market_band(), n_models);

    // Popularity skew: a handful of hot models, a long sporadic tail.
    let weights = zipf_weights(n_models, 1.1);
    println!(
        "marketplace: {n_models} models, top 10% of models receive {:.0}% of requests",
        head_share(&weights, 0.10) * 100.0
    );

    let mut rng = SimRng::seed_from_u64(21);
    let trace = TraceBuilder::new(SimTime::from_secs_f64(400.0), LengthDist::sharegpt())
        .weighted_models(&mut rng, &weights, 7.0)
        .build(&mut rng);
    let counts = trace.per_model_counts(n_models);
    println!(
        "workload: {} requests; hottest model {} req, coldest {} req",
        trace.len(),
        counts.iter().max().expect("models"),
        counts.iter().min().expect("models"),
    );

    let slo = SloSpec::paper_default();
    let cfg = AegaeonConfig::paper_testbed();
    let aeg = ServingSystem::run(&cfg, &models, &trace);
    let aeg_rep = aeg.attainment(slo);

    let sllm_cfg = SllmConfig::new(cfg.cluster.clone());
    let sllm = ServerlessLlm::run(&sllm_cfg, &models, &trace);
    let sllm_rep = sllm.attainment(slo);

    println!("\non the paper's 16-GPU testbed:");
    println!(
        "  Aegaeon        {:>6.1}% attainment, {:>5} switches, util {:.1}%",
        aeg_rep.percent(),
        aeg.scale_count,
        aeg.mean_gpu_utilization() * 100.0
    );
    println!(
        "  ServerlessLLM  {:>6.1}% attainment, {:>5} switches, util {:.1}%",
        sllm_rep.percent(),
        sllm.scale_count,
        sllm.mean_gpu_utilization() * 100.0
    );
    println!(
        "\ntoken-level pooling keeps the sporadic tail alive while the hot head\n\
         stays batched; request-level scaling makes the tail wait whole requests."
    );
}
