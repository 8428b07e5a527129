//! ServerlessLLM: request-level auto-scaling (and the SJF "+" variant).
//!
//! One model per instance at a time. Arriving requests join an instance
//! already serving their model (continuous batching) when KV capacity
//! allows; otherwise they wait in a global queue. Only when an instance
//! *fully drains* does it scale to the queue head's model — scaling at
//! request granularity, which is precisely the head-of-line blocking §3.1
//! quantifies. ServerlessLLM+ orders the queue by oracle output length
//! (Shortest Job First, §7.1).

use aegaeon::RunResult;
use aegaeon_gpu::ClusterSpec;
use aegaeon_model::ModelSpec;
use aegaeon_workload::{RequestId, Trace};

use crate::engine_loop::{Qq, Scheduler, World, WorldConfig};

/// Configuration for a ServerlessLLM run.
#[derive(Debug, Clone)]
pub struct SllmConfig {
    /// Shared world configuration.
    pub world: WorldConfig,
    /// Order the global queue by oracle output length (ServerlessLLM+).
    pub(crate) sjf: bool,
}

impl SllmConfig {
    /// Plain ServerlessLLM on `cluster`.
    pub fn new(cluster: ClusterSpec) -> SllmConfig {
        SllmConfig {
            world: WorldConfig::sllm_default(cluster),
            sjf: false,
        }
    }

    /// ServerlessLLM+ (oracle SJF queue).
    pub fn plus(cluster: ClusterSpec) -> SllmConfig {
        SllmConfig {
            sjf: true,
            ..Self::new(cluster)
        }
    }
}

/// The ServerlessLLM scheduler.
#[derive(Debug)]
pub struct ServerlessLlm {
    queue: Vec<RequestId>,
    sjf: bool,
}

impl ServerlessLlm {
    /// Runs the system over `trace`; see `World::run` for `audit`.
    pub fn run(cfg: &SllmConfig, models: &[ModelSpec], trace: &Trace) -> RunResult {
        let world = World::new(cfg.world.clone(), models, trace.clone());
        let mut sched = ServerlessLlm {
            queue: Vec::new(),
            sjf: cfg.sjf,
        };
        world.run(&mut sched)
    }

    /// Queue position to serve next: FCFS head or shortest job.
    fn next_pos(&self, w: &World) -> Option<usize> {
        if self.queue.is_empty() {
            return None;
        }
        if self.sjf {
            (0..self.queue.len()).min_by_key(|&i| {
                w.trace.requests[self.queue[i].0 as usize].output_tokens
            })
        } else {
            Some(0)
        }
    }

    /// Serves as much of the queue as `inst` (now empty) can take,
    /// scaling to the chosen model if needed.
    fn refill(&mut self, w: &mut World, inst: usize, q: &mut Qq) {
        debug_assert!(w.insts[inst].is_empty());
        let Some(pos) = self.next_pos(w) else { return };
        let head = self.queue.remove(pos);
        let model = w.trace.requests[head.0 as usize].model;
        let need_scale = w.insts[inst].current != Some(model);
        if need_scale {
            w.start_scale(inst, model, q);
        }
        w.admit(inst, head, q);
        // Companion admission: same-model requests in FCFS order while KV
        // capacity lasts. Capacity checks against the *target* model's KV
        // size even mid-scale.
        if w.insts[inst].kv_cap_tokens == 0 {
            let shard = w.deploys[model.0 as usize].shard_bytes;
            w.insts[inst].kv_cap_tokens = w.kv_tokens_for(model, shard);
        }
        let mut i = 0;
        while i < self.queue.len() {
            let r = self.queue[i];
            if w.trace.requests[r.0 as usize].model == model && w.can_admit(inst, r) {
                self.queue.remove(i);
                w.admit(inst, r, q);
            } else {
                i += 1;
            }
        }
    }
}

impl Scheduler for ServerlessLlm {
    fn on_arrival(&mut self, w: &mut World, idx: usize, q: &mut Qq) {
        let req = w.trace.requests[idx].id;
        let model = w.trace.requests[idx].model;
        // Join an instance already serving (or scaling to) this model.
        for i in 0..w.insts.len() {
            let serving = w.insts[i].current == Some(model) && w.insts[i].scale_target.is_none();
            let scaling_to = w.insts[i].scale_target == Some(model);
            if (serving || scaling_to) && w.can_admit(i, req) {
                w.admit(i, req, q);
                return;
            }
        }
        // An idle, empty instance can scale right away.
        if let Some(i) = (0..w.insts.len())
            .find(|&i| w.insts[i].is_empty() && w.insts[i].scale_target.is_none())
        {
            self.queue.push(req);
            self.refill(w, i, q);
            return;
        }
        self.queue.push(req);
    }

    fn on_idle(&mut self, w: &mut World, inst: usize, q: &mut Qq) {
        self.refill(w, inst, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_gpu::{GpuSpec, NodeSpec};
    use aegaeon_model::Zoo;
    use aegaeon_sim::{SimRng, SimTime};
    use aegaeon_workload::{LengthDist, SloSpec, TraceBuilder};

    fn cluster(gpus: u32) -> ClusterSpec {
        ClusterSpec::homogeneous(
            1,
            NodeSpec {
                gpus,
                gpu: GpuSpec::h800(),
                nic_bw: 25e9,
            },
        )
    }

    fn trace(n_models: u32, rate: f64, secs: f64, seed: u64) -> Trace {
        let mut rng = SimRng::seed_from_u64(seed);
        TraceBuilder::new(SimTime::from_secs_f64(secs), LengthDist::sharegpt())
            .uniform_models(&mut rng, n_models, rate)
            .build(&mut rng)
    }

    fn models(n: usize) -> Vec<ModelSpec> {
        Zoo::replicate(&Zoo::standard().market_band(), n)
    }

    #[test]
    fn single_model_serves_cleanly() {
        let cfg = SllmConfig::new(cluster(2));
        let t = trace(1, 0.3, 120.0, 1);
        let r = ServerlessLlm::run(&cfg, &models(1), &t);
        assert_eq!(r.completed, r.total_requests);
        let rep = r.attainment(SloSpec::paper_default());
        assert!(rep.ratio() > 0.95, "attainment {}", rep.ratio());
        let loads = r.scale_count;
        assert!(loads <= 2, "one load per instance, got {loads}");
    }

    #[test]
    fn request_level_scaling_suffers_hol_blocking() {
        // Many models on few GPUs: request-level scaling queues whole
        // requests behind each other.
        let cfg = SllmConfig::new(cluster(2));
        // E[m] = 10·(1 − e^{−0.4·T}) active models on 2 GPUs.
        let t = trace(10, 0.4, 200.0, 2);
        let r = ServerlessLlm::run(&cfg, &models(10), &t);
        let rep = r.attainment(SloSpec::paper_default());
        assert!(
            rep.ratio() < 0.9,
            "HOL blocking should hurt: {}",
            rep.ratio()
        );
        assert!(r.scale_count > 5);
    }

    #[test]
    fn audited_run_is_clean_and_identical() {
        let mut cfg = SllmConfig::new(cluster(2));
        let t = trace(3, 0.1, 120.0, 9);
        let plain = ServerlessLlm::run(&cfg, &models(3), &t);
        assert!(plain.audit.is_none(), "unaudited runs carry no report");
        cfg.world.audit = true;
        let audited = ServerlessLlm::run(&cfg, &models(3), &t);
        let report = audited.audit.as_ref().expect("audited run");
        assert!(report.ok(), "{report}");
        assert!(report.events_checked > 0);
        assert_eq!(plain.completed, audited.completed);
        let fa: Vec<_> = plain.outcomes.iter().map(|o| o.token_times.clone()).collect();
        let fb: Vec<_> = audited.outcomes.iter().map(|o| o.token_times.clone()).collect();
        assert_eq!(fa, fb, "auditor must not perturb the run");
        assert_eq!(plain.fingerprint(), audited.fingerprint());
    }

    #[test]
    fn sjf_changes_service_order() {
        // Load heavy enough that the global queue regularly holds several
        // models, so the ordering policy actually matters.
        let cfg = SllmConfig::new(cluster(1));
        let plus = SllmConfig::plus(cluster(1));
        let t = trace(8, 0.5, 150.0, 3);
        let a = ServerlessLlm::run(&cfg, &models(8), &t);
        let b = ServerlessLlm::run(&plus, &models(8), &t);
        // Different policies must actually behave differently: under SJF some
        // request is served earlier or later, shifting its first-token time.
        let fa: Vec<_> = a.outcomes.iter().map(|o| o.token_times.first()).collect();
        let fb: Vec<_> = b.outcomes.iter().map(|o| o.token_times.first()).collect();
        assert!(fa != fb || a.scale_count != b.scale_count);
    }

    #[test]
    fn progress_log_holds_every_request_an_event_changed() {
        let cfg = SllmConfig::new(cluster(2));
        let t = trace(6, 0.2, 120.0, 5);
        let world = World::new(cfg.world.clone(), &models(6), t.clone());
        let mut sched = ServerlessLlm {
            queue: Vec::new(),
            sjf: cfg.sjf,
        };
        let r = crate::engine_loop::tests::assert_progress_logged(world, &mut sched);
        assert!(r.scale_count > 2, "the run must switch models");
    }
}
