//! Unified (non-disaggregated) token-level schedulers — the Figure 6 study.
//!
//! §4.1 argues that scheduling prefill and decoding jobs on the *same* GPU
//! instance is workload-sensitive: prefill-first scheduling harms TBT under
//! arrival bursts, decoding-first scheduling harms TTFT under long inputs,
//! while disaggregation balances both. This module is a compact,
//! deterministic micro-simulator over a handful of requests that renders
//! those three exemplar schedules and counts their token-level SLO
//! violations. The full system ([`crate::system`]) implements only the
//! disaggregated design.

use aegaeon_metrics::slo::score_tokens;
use aegaeon_metrics::TokenTimes;
use aegaeon_sim::{SimDur, SimTime};
use aegaeon_telemetry::{SpanKind, SpanLog};
use aegaeon_workload::SloSpec;

/// Scheduling policy for the micro-study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnifiedPolicy {
    /// Pending prefills always preempt decoding (Figure 6a).
    PrefillFirst,
    /// Resident decoding always precedes new prefills (Figure 6b).
    DecodeFirst,
    /// Dedicated prefill and decoding GPUs (Figure 6c); the first
    /// `prefill_gpus` devices only prefill.
    Disaggregated {
        /// Number of prefill-only GPUs.
        prefill_gpus: usize,
    },
}

/// A request in the micro-scenario.
#[derive(Debug, Clone, Copy)]
pub struct MicroReq {
    /// Model index.
    pub(crate) model: usize,
    /// Arrival time, seconds.
    pub(crate) arrival: f64,
    /// Prefill duration, seconds.
    pub(crate) prefill_secs: f64,
    /// Output tokens (first produced by prefill).
    pub(crate) output_tokens: u32,
}

/// Timing constants of the micro-scenario.
#[derive(Debug, Clone, Copy)]
pub struct MicroCfg {
    /// GPUs available.
    pub(crate) gpus: usize,
    /// Model-switch (auto-scaling) cost, seconds.
    pub switch_secs: f64,
    /// Decode step time, seconds (one token for every resident request of
    /// the active model).
    pub decode_step: f64,
    /// TTFT target, seconds.
    pub ttft: f64,
    /// TBT target, seconds.
    pub tbt: f64,
    /// Maximum consecutive time a GPU decodes one model before rotating to
    /// another with pending work (the token-level quota, Algorithm 2).
    pub(crate) max_stint: f64,
}

/// Outcome of one policy run.
#[derive(Debug)]
pub struct MicroResult {
    /// Token deadlines missed.
    pub violations: usize,
    /// Tokens total.
    pub tokens: usize,
    /// Per-request TTFT.
    pub ttft: Vec<f64>,
    /// Rendered schedule.
    pub trace: SpanLog,
    /// Makespan, seconds.
    pub makespan: f64,
}

#[derive(Debug, Clone)]
struct ReqRun {
    spec: MicroReq,
    prefilled: bool,
    produced: u32,
    gpu: Option<usize>,
    times: Vec<f64>,
}

/// Runs the micro-scenario under `policy`.
///
/// The simulator is a serial per-GPU dispatcher: whenever a GPU is free it
/// picks its next job according to the policy, paying `switch_secs`
/// whenever the job's model differs from the GPU's resident model.
pub fn run_unified(policy: UnifiedPolicy, cfg: &MicroCfg, reqs: &[MicroReq]) -> MicroResult {
    let mut runs: Vec<ReqRun> = reqs
        .iter()
        .map(|&spec| ReqRun {
            spec,
            prefilled: false,
            produced: 0,
            gpu: None,
            times: Vec::new(),
        })
        .collect();
    let mut gpu_time = vec![0.0f64; cfg.gpus];
    let mut gpu_model: Vec<Option<usize>> = vec![None; cfg.gpus];
    let mut gpu_stint = vec![0.0f64; cfg.gpus];
    let mut trace = SpanLog::enabled();
    let prefill_only = match policy {
        UnifiedPolicy::Disaggregated { prefill_gpus } => prefill_gpus,
        _ => 0,
    };

    let may_prefill = |g: usize| match policy {
        UnifiedPolicy::Disaggregated { prefill_gpus } => g < prefill_gpus,
        _ => true,
    };
    let may_decode = |g: usize| g >= prefill_only;

    loop {
        // The GPU with the earliest cursor schedules next.
        let g = (0..cfg.gpus)
            .min_by(|&a, &b| gpu_time[a].partial_cmp(&gpu_time[b]).expect("comparable"))
            .expect("at least one GPU");
        let now = gpu_time[g];
        if now.is_infinite() {
            break; // every GPU is parked: nothing left to run
        }

        let pending_prefill = runs
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.prefilled)
            .min_by(|a, b| {
                a.1.spec
                    .arrival
                    .partial_cmp(&b.1.spec.arrival)
                    .expect("finite")
            })
            .map(|(i, _)| i);
        // A request only becomes decodable once its previous token has
        // actually materialized; `prefilled` is set when the prefill job is
        // *scheduled*, which can be ahead of a lagging decode GPU's clock.
        let token_ready = |r: &ReqRun| r.times.last().is_none_or(|&t| t <= now + 1e-12);
        // Decodable on this GPU: prefilled here, not finished.
        let decodable: Vec<usize> = runs
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.prefilled
                    && r.produced < r.spec.output_tokens
                    && r.gpu == Some(g)
                    && token_ready(r)
            })
            .map(|(i, _)| i)
            .collect();
        // For disaggregated decoding GPUs, also adopt prefilled-elsewhere
        // requests without a decode home yet.
        let adoptable: Vec<usize> = if may_decode(g) && prefill_only > 0 {
            runs.iter()
                .enumerate()
                .filter(|(_, r)| {
                    r.prefilled
                        && r.produced < r.spec.output_tokens
                        && r.gpu.is_some_and(|og| og < prefill_only)
                        && token_ready(r)
                })
                .map(|(i, _)| i)
                .collect()
        } else {
            Vec::new()
        };

        enum Job {
            Prefill(usize),
            DecodeBatch(Vec<usize>),
            WaitUntil(f64),
            Done,
        }

        let arrived = |i: usize| runs[i].spec.arrival <= now + 1e-12;
        let job = {
            let prefill_ready = pending_prefill.filter(|&i| arrived(i) && may_prefill(g));
            let prefill_future = pending_prefill.filter(|_| may_prefill(g));
            let mut all_decodable = decodable.clone();
            all_decodable.extend(adoptable.iter().copied());
            let decode_job = || -> Option<Vec<usize>> {
                if !may_decode(g) || all_decodable.is_empty() {
                    return None;
                }
                // Prefer the resident model until its stint quota runs out,
                // then rotate to another decodable model (Algorithm 2's
                // weighted round-robin, reduced to equal quotas).
                let resident = gpu_model[g]
                    .filter(|m| all_decodable.iter().any(|&i| runs[i].spec.model == *m));
                let other = all_decodable
                    .iter()
                    .map(|&i| runs[i].spec.model)
                    .find(|m| Some(*m) != gpu_model[g]);
                let model = match (resident, other) {
                    (Some(r), Some(o)) if gpu_stint[g] >= cfg.max_stint => {
                        let _ = r;
                        o
                    }
                    (Some(r), _) => r,
                    (None, Some(o)) => o,
                    (None, None) => runs[all_decodable[0]].spec.model,
                };
                Some(
                    all_decodable
                        .iter()
                        .copied()
                        .filter(|&i| runs[i].spec.model == model)
                        .collect(),
                )
            };
            match policy {
                UnifiedPolicy::PrefillFirst => {
                    if let Some(i) = prefill_ready {
                        Job::Prefill(i)
                    } else if let Some(b) = decode_job() {
                        Job::DecodeBatch(b)
                    } else if let Some(i) = prefill_future {
                        Job::WaitUntil(runs[i].spec.arrival)
                    } else {
                        Job::Done
                    }
                }
                UnifiedPolicy::DecodeFirst => {
                    if let Some(b) = decode_job() {
                        Job::DecodeBatch(b)
                    } else if let Some(i) = prefill_ready {
                        Job::Prefill(i)
                    } else if let Some(i) = prefill_future {
                        Job::WaitUntil(runs[i].spec.arrival)
                    } else {
                        Job::Done
                    }
                }
                UnifiedPolicy::Disaggregated { .. } => {
                    if may_prefill(g) {
                        if let Some(i) = prefill_ready {
                            Job::Prefill(i)
                        } else if let Some(i) = prefill_future {
                            Job::WaitUntil(runs[i].spec.arrival)
                        } else {
                            Job::Done
                        }
                    } else if let Some(b) = decode_job() {
                        Job::DecodeBatch(b)
                    } else if runs
                        .iter()
                        .any(|r| !r.prefilled || r.produced < r.spec.output_tokens)
                    {
                        // Wait for prefills to hand work over.
                        Job::WaitUntil(now + cfg.decode_step)
                    } else {
                        Job::Done
                    }
                }
            }
        };

        let lane = format!("gpu{g}");
        match job {
            Job::Done => {
                // Park this GPU; the loop ends once every GPU is parked.
                gpu_time[g] = f64::INFINITY;
            }
            Job::WaitUntil(t) => {
                // Nothing runnable: jump forward (strictly).
                gpu_time[g] = t.max(now + 1e-9);
            }
            Job::Prefill(i) => {
                let mut t = now.max(runs[i].spec.arrival);
                if gpu_model[g] != Some(runs[i].spec.model) {
                    trace.record_with(
                        || &lane,
                        SpanKind::Switch,
                        SimTime::from_secs_f64(t),
                        SimTime::from_secs_f64(t + cfg.switch_secs),
                        || format!("S{}", runs[i].spec.model),
                    );
                    t += cfg.switch_secs;
                    gpu_model[g] = Some(runs[i].spec.model);
                    gpu_stint[g] = 0.0;
                }
                let end = t + runs[i].spec.prefill_secs;
                trace.record_with(
                    || &lane,
                    SpanKind::Prefill,
                    SimTime::from_secs_f64(t),
                    SimTime::from_secs_f64(end),
                    || format!("P{}", runs[i].spec.model),
                );
                runs[i].prefilled = true;
                runs[i].produced = 1;
                runs[i].gpu = Some(g);
                runs[i].times.push(end);
                gpu_time[g] = end;
            }
            Job::DecodeBatch(batch) => {
                let model = runs[batch[0]].spec.model;
                let mut t = now;
                if gpu_model[g] != Some(model) {
                    trace.record_with(
                        || &lane,
                        SpanKind::Switch,
                        SimTime::from_secs_f64(t),
                        SimTime::from_secs_f64(t + cfg.switch_secs),
                        || format!("S{model}"),
                    );
                    t += cfg.switch_secs;
                    gpu_model[g] = Some(model);
                    gpu_stint[g] = 0.0;
                }
                let end = t + cfg.decode_step;
                gpu_stint[g] += cfg.decode_step;
                trace.record_with(
                    || &lane,
                    SpanKind::DecodeRound,
                    SimTime::from_secs_f64(t),
                    SimTime::from_secs_f64(end),
                    || format!("D{model}"),
                );
                for i in batch {
                    runs[i].gpu = Some(g);
                    runs[i].produced += 1;
                    runs[i].times.push(end);
                }
                gpu_time[g] = end;
            }
        }
    }

    let makespan = runs
        .iter()
        .flat_map(|r| r.times.iter().cloned())
        .fold(0.0, f64::max);
    // Score token deadlines through the one rule (Figure 3 semantics).
    let slo = SloSpec {
        ttft: SimDur::from_secs_f64(cfg.ttft),
        tbt: SimDur::from_secs_f64(cfg.tbt),
    };
    let horizon = SimTime::from_secs_f64(makespan);
    let (mut tokens, mut met) = (0, 0);
    let mut ttft = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let times: TokenTimes = r.times.iter().map(|&t| SimTime::from_secs_f64(t)).collect();
        // The microbenchmark bypasses the event-driven audit hook, so
        // enforce the auditor's token-order invariant inline before
        // reporting.
        if let Some(err) = crate::audit::check_token_order(i, &times) {
            panic!("unified {policy:?} scheduler violated token order: {err}");
        }
        let arrival = SimTime::from_secs_f64(r.spec.arrival);
        let score = score_tokens(arrival, &times, r.spec.output_tokens, slo, horizon);
        tokens += score.tokens as usize;
        met += score.met as usize;
        ttft.push(
            r.times
                .first()
                .map(|t| t - r.spec.arrival)
                .unwrap_or(f64::INFINITY),
        );
    }
    MicroResult {
        violations: tokens - met,
        tokens,
        ttft,
        trace,
        makespan,
    }
}

/// The Figure 6 exemplar scenario: six requests for three models arriving
/// in pairs on two GPUs.
pub fn figure6_scenario() -> (MicroCfg, Vec<MicroReq>) {
    let cfg = MicroCfg {
        gpus: 2,
        switch_secs: 0.4,
        decode_step: 0.04,
        ttft: 2.5,
        tbt: 0.1,
        max_stint: 1.0,
    };
    let mk = |model, arrival, prefill, out| MicroReq {
        model,
        arrival,
        prefill_secs: prefill,
        output_tokens: out,
    };
    let reqs = vec![
        mk(0, 0.0, 0.4, 120),
        mk(0, 0.0, 0.4, 120),
        mk(1, 1.5, 0.5, 100),
        mk(1, 1.5, 0.5, 100),
        mk(2, 3.0, 0.5, 80),
        mk(2, 3.8, 0.5, 80),
        mk(0, 5.5, 0.4, 60),
    ];
    (cfg, reqs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(policy: UnifiedPolicy) -> MicroResult {
        let (cfg, reqs) = figure6_scenario();
        run_unified(policy, &cfg, &reqs)
    }

    #[test]
    fn all_policies_complete_all_tokens() {
        let total: u32 = figure6_scenario().1.iter().map(|r| r.output_tokens).sum();
        for p in [
            UnifiedPolicy::PrefillFirst,
            UnifiedPolicy::DecodeFirst,
            UnifiedPolicy::Disaggregated { prefill_gpus: 1 },
        ] {
            let r = run(p);
            assert_eq!(r.tokens as u32, total, "{p:?}");
            assert!(r.makespan > 0.0 && r.makespan < 60.0, "{p:?}");
        }
    }

    #[test]
    fn disaggregated_has_fewest_violations() {
        // The Figure 6 claim: prefill-first and decoding-first both violate
        // SLOs that disaggregation avoids.
        let pf = run(UnifiedPolicy::PrefillFirst);
        let df = run(UnifiedPolicy::DecodeFirst);
        let dis = run(UnifiedPolicy::Disaggregated { prefill_gpus: 1 });
        assert!(
            dis.violations < pf.violations,
            "disaggregated {} vs prefill-first {}",
            dis.violations,
            pf.violations
        );
        assert!(
            dis.violations < df.violations,
            "disaggregated {} vs decode-first {}",
            dis.violations,
            df.violations
        );
    }

    #[test]
    fn decode_first_hurts_ttft_of_late_arrivals() {
        let df = run(UnifiedPolicy::DecodeFirst);
        let dis = run(UnifiedPolicy::Disaggregated { prefill_gpus: 1 });
        let worst_df = df.ttft.iter().cloned().fold(0.0, f64::max);
        let worst_dis = dis.ttft.iter().cloned().fold(0.0, f64::max);
        assert!(
            worst_df > worst_dis,
            "decode-first worst TTFT {worst_df} vs disaggregated {worst_dis}"
        );
    }

    #[test]
    fn schedules_render() {
        let r = run(UnifiedPolicy::Disaggregated { prefill_gpus: 1 });
        assert!(!r.trace.spans().is_empty());
        assert_eq!(r.trace.tracks().len(), 2);
    }
}
