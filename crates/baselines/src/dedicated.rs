//! Dedicated instances: one reserved TP group per model (the strawman and
//! the production "before" of Figure 18).

use aegaeon::RunResult;
use aegaeon_model::{ModelId, ModelSpec};
use aegaeon_workload::Trace;

use crate::engine_loop::{Qq, Scheduler, World, WorldConfig};

/// The dedicated-instance scheduler: instance `i` serves model `i % M`.
#[derive(Debug)]
pub struct Dedicated {
    queues: Vec<Vec<aegaeon_workload::RequestId>>,
    /// instance -> model
    assignment: Vec<ModelId>,
}

impl Dedicated {
    /// Runs dedicated serving; requires at least one instance per model.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer instances than models.
    pub fn run(cfg: &WorldConfig, models: &[ModelSpec], trace: &Trace) -> RunResult {
        let world = World::new(cfg.clone(), models, trace.clone());
        assert!(
            world.insts.len() >= models.len(),
            "dedicated serving needs one instance per model ({} < {})",
            world.insts.len(),
            models.len()
        );
        let assignment = (0..world.insts.len())
            .map(|i| ModelId((i % models.len()) as u32))
            .collect();
        Self::run_world(world, models.len(), assignment)
    }

    /// Runs with an explicit instance-to-model assignment (production
    /// replica counts from the capacity planner). The cluster must have
    /// exactly `assignment.len()` instances.
    ///
    /// # Panics
    ///
    /// Panics on an instance-count mismatch or an unassigned model.
    pub fn run_with_assignment(
        cfg: &WorldConfig,
        models: &[ModelSpec],
        trace: &Trace,
        assignment: Vec<ModelId>,
    ) -> RunResult {
        let world = World::new(cfg.clone(), models, trace.clone());
        assert_eq!(
            world.insts.len(),
            assignment.len(),
            "assignment must cover every instance"
        );
        for m in 0..models.len() as u32 {
            assert!(
                assignment.contains(&ModelId(m)),
                "model m{m} has no dedicated replica"
            );
        }
        Self::run_world(world, models.len(), assignment)
    }

    fn run_world(world: World, n_models: usize, assignment: Vec<ModelId>) -> RunResult {
        let mut sched = Dedicated {
            queues: vec![Vec::new(); n_models],
            assignment,
        };
        world.run(&mut sched)
    }

    fn instance_for(&self, w: &World, model: ModelId, req: aegaeon_workload::RequestId) -> Option<usize> {
        // Least-loaded replica of the model with admission capacity.
        (0..w.insts.len())
            .filter(|&i| self.assignment[i] == model)
            .filter(|&i| w.insts[i].current.is_some() || w.insts[i].scale_target.is_some())
            .filter(|&i| w.can_admit(i, req))
            .min_by_key(|&i| w.insts[i].batch.len() + w.insts[i].prefill_q.len())
    }
}

impl Scheduler for Dedicated {
    fn on_arrival(&mut self, w: &mut World, idx: usize, q: &mut Qq) {
        let req = w.trace.requests[idx].id;
        let model = w.trace.requests[idx].model;
        // Lazily load the model on its replicas at first use.
        for i in 0..w.insts.len() {
            if self.assignment[i] == model
                && w.insts[i].current.is_none()
                && w.insts[i].scale_target.is_none()
            {
                let shard = w.deploys[model.0 as usize].shard_bytes;
                w.insts[i].kv_cap_tokens = w.kv_tokens_for(model, shard);
                w.start_scale(i, model, q);
            }
        }
        match self.instance_for(w, model, req) {
            Some(i) => w.admit(i, req, q),
            None => self.queues[model.0 as usize].push(req),
        }
    }

    fn on_idle(&mut self, w: &mut World, inst: usize, q: &mut Qq) {
        let model = self.assignment[inst];
        let queue = &mut self.queues[model.0 as usize];
        let before = queue.first().copied();
        w.admit_fifo(inst, queue, q);
        let Some(&head) = queue.first().filter(|&&h| Some(h) != before) else {
            return;
        };
        // Each replica checks the queue head after every op it ends. A
        // decode run holds its replica's reservations fixed, so one that
        // would admit the new head ends with its step in flight, whose end
        // admits it.
        for r in 0..w.insts.len() {
            if r != inst && self.assignment[r] == model && w.can_admit(r, head) {
                w.end_plan_here(r, q);
            }
        }
    }

    fn on_progress(&mut self, w: &mut World, inst: usize, q: &mut Qq) {
        // Capacity may have freed mid-run; top the batch up.
        self.on_idle(w, inst, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon_gpu::{ClusterSpec, GpuSpec, NodeSpec};
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

    #[test]
    fn dedicated_attains_but_wastes_gpus() {
        let models = Zoo::replicate(&Zoo::standard().market_band(), 4);
        let mut rng = SimRng::seed_from_u64(1);
        let trace = TraceBuilder::new(SimTime::from_secs_f64(200.0), LengthDist::sharegpt())
            .uniform_models(&mut rng, 4, 0.05)
            .build(&mut rng);
        let cfg = WorldConfig::sllm_default(cluster(4));
        let r = Dedicated::run(&cfg, &models, &trace);
        assert_eq!(r.completed, r.total_requests);
        let rep = r.attainment(SloSpec::paper_default());
        assert!(rep.ratio() > 0.97, "attainment {}", rep.ratio());
        // Sporadic load: dedicated GPUs sit mostly idle (the §1 waste).
        assert!(
            r.mean_gpu_utilization() < 0.4,
            "utilization {}",
            r.mean_gpu_utilization()
        );
        assert_eq!(r.scale_count, 4, "exactly one load per model");
    }

    #[test]
    #[should_panic(expected = "one instance per model")]
    fn too_few_instances_panics() {
        let models = Zoo::replicate(&Zoo::standard().market_band(), 5);
        let mut rng = SimRng::seed_from_u64(1);
        let trace = TraceBuilder::new(SimTime::from_secs_f64(10.0), LengthDist::sharegpt())
            .uniform_models(&mut rng, 5, 0.05)
            .build(&mut rng);
        let cfg = WorldConfig::sllm_default(cluster(4));
        let _ = Dedicated::run(&cfg, &models, &trace);
    }
}
