//! MuxServe: static placement plus spatial GPU multiplexing.
//!
//! A placement optimizer packs models onto GPUs under the memory constraint
//! (weights of all colocated models plus a minimum KV region must fit in
//! usable VRAM — in practice two, at most three, 6–14B models per 80 GB
//! GPU, §2.3). Colocated models run concurrently on SM partitions; we model
//! the sharing as a per-slot duration multiplier `active_slots × (1 + i)`
//! with interference `i = 5%`. Models the optimizer cannot place are not
//! servable at all — the hard cap the paper observes at 32 models on
//! 16 GPUs.


use aegaeon::runtime::DecodeRun;
use aegaeon::RunResult;
use aegaeon_model::{ModelId, ModelSpec};
use aegaeon_sim::{FxHashMap, Timeline};
use aegaeon_workload::{RequestId, Trace};

use crate::engine_loop::{InstState, Qq, Scheduler, World, WorldConfig};

/// Interference overhead of spatial sharing.
const INTERFERENCE: f64 = 0.05;
/// Minimum KV region a placement must leave per GPU.
const MIN_KV_BYTES: u64 = 12 << 30;
/// Maximum colocated models per GPU. The paper observes MuxServe's
/// optimizer placing at most two of the market's 6–14B models per 80 GB
/// GPU (§7.2: "at most 32 models" on 16 GPUs).
const MAX_COLOCATED: usize = 2;

/// A static model→GPU placement.
#[derive(Debug, Clone)]
pub(crate) struct Placement {
    /// Models placed on each GPU; a model on none cannot be served.
    pub(crate) per_gpu: Vec<Vec<ModelId>>,
}

impl Placement {
    /// Greedy first-fit-decreasing by request rate.
    ///
    /// `weights[i]` are model `i`'s weight bytes; `rates[i]` its popularity.
    pub(crate) fn optimize(
        weights: &[u64],
        rates: &[f64],
        n_gpus: usize,
        usable_vram: u64,
    ) -> Placement {
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| rates[b].partial_cmp(&rates[a]).expect("finite rates"));
        let mut per_gpu: Vec<Vec<ModelId>> = vec![Vec::new(); n_gpus];
        let mut used: Vec<u64> = vec![0; n_gpus];
        for m in order {
            let fit = (0..n_gpus)
                .filter(|&g| {
                    per_gpu[g].len() < MAX_COLOCATED
                        && used[g] + weights[m] + MIN_KV_BYTES <= usable_vram
                })
                // Least-loaded fit spreads hot models.
                .min_by_key(|&g| (per_gpu[g].len(), used[g]));
            if let Some(g) = fit {
                used[g] += weights[m];
                per_gpu[g].push(ModelId(m as u32));
            }
        }
        Placement { per_gpu }
    }
}

/// The MuxServe runtime scheduler.
#[derive(Debug)]
pub struct MuxServe {
    slot_of_model: FxHashMap<ModelId, usize>,
    gpu_of_slot: Vec<usize>,
    slots_of_gpu: Vec<Vec<usize>>,
    kv_share_bytes: Vec<u64>,
    queues: Vec<Vec<RequestId>>,
}

impl MuxServe {
    /// Places `models` (weighted by `rates`) and serves `trace`.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.tp == 1` (MuxServe colocates whole models), and
    /// on an invariant violation when `cfg.audit` is set (`World::run`).
    pub fn run(cfg: &WorldConfig, models: &[ModelSpec], rates: &[f64], trace: &Trace) -> RunResult {
        assert_eq!(cfg.tp, 1, "MuxServe baseline colocates TP=1 models");
        let mut world = World::new(cfg.clone(), models, trace.clone());
        let mut sched = Self::place(&mut world, rates);
        world.run(&mut sched)
    }

    /// Places `world`'s models (weighted by `rates`) on its GPUs and
    /// rebuilds its instances as one slot per (GPU, placed model).
    fn place(world: &mut World, rates: &[f64]) -> MuxServe {
        let weights: Vec<u64> = world.deploys.iter().map(|d| d.shard_bytes).collect();
        let n_gpus = world.topo.gpu_count();
        let placement = Placement::optimize(&weights, rates, n_gpus, world.usable_vram());

        // Rebuild instances: one slot per (gpu, placed model), each on its
        // own stream so colocated models overlap (spatial sharing).
        let mut insts = Vec::new();
        let mut slot_of_model = FxHashMap::default();
        let mut gpu_of_slot = Vec::new();
        let mut slots_of_gpu = vec![Vec::new(); n_gpus];
        let mut kv_share_bytes = Vec::new();
        for (g, placed) in placement.per_gpu.iter().enumerate() {
            if placed.is_empty() {
                continue;
            }
            let gid = aegaeon_gpu::GpuId(g as u32);
            let weights_total: u64 = placed.iter().map(|m| weights[m.0 as usize]).sum();
            let kv_total = world.usable_vram().saturating_sub(weights_total);
            let share = kv_total / placed.len() as u64;
            for (k, &m) in placed.iter().enumerate() {
                let lane = if k == 0 {
                    world.topo.gpu(gid).default_stream
                } else {
                    world.port.fabric.add_stream(format!("gpu{g}.mux{k}"))
                };
                let slot = insts.len();
                let run = DecodeRun::new(world.cfg.seed, slot as u64);
                insts.push(InstState::new(vec![gid], vec![lane], run));
                slot_of_model.insert(m, slot);
                gpu_of_slot.push(g);
                slots_of_gpu[g].push(slot);
                kv_share_bytes.push(share);
            }
        }
        let n_slots = insts.len();
        world.insts = insts;
        MuxServe {
            slot_of_model,
            gpu_of_slot,
            slots_of_gpu,
            kv_share_bytes,
            queues: vec![Vec::new(); n_slots],
        }
    }

    fn refresh_contention(&self, w: &mut World, gpu: usize, q: &mut Qq) {
        let active = self.slots_of_gpu[gpu]
            .iter()
            .filter(|&&s| !w.insts[s].is_empty() || w.insts[s].busy)
            .count();
        let factor = if active <= 1 {
            1.0
        } else {
            active as f64 * (1.0 + INTERFERENCE)
        };
        for &s in &self.slots_of_gpu[gpu] {
            w.set_contention(s, factor, q);
        }
    }

    fn slot_kv_cap(&self, w: &World, slot: usize, model: ModelId) -> u64 {
        self.kv_share_bytes[slot] / w.deploys[model.0 as usize].kv_token_bytes.max(1)
    }
}

impl Scheduler for MuxServe {
    fn on_arrival(&mut self, w: &mut World, idx: usize, q: &mut Qq) {
        let req = w.trace.requests[idx].id;
        let model = w.trace.requests[idx].model;
        let Some(&slot) = self.slot_of_model.get(&model) else {
            w.reject(req, q.now()); // unplaced model: unservable
            return;
        };
        // Lazy static load at first use.
        if w.insts[slot].current.is_none() && w.insts[slot].scale_target.is_none() {
            w.insts[slot].kv_cap_tokens = self.slot_kv_cap(w, slot, model);
            w.start_scale(slot, model, q);
        }
        w.insts[slot].kv_cap_tokens = self.slot_kv_cap(w, slot, model);
        if w.can_admit(slot, req) {
            w.admit(slot, req, q);
        } else {
            self.queues[slot].push(req);
        }
        self.refresh_contention(w, self.gpu_of_slot[slot], q);
    }

    fn on_idle(&mut self, w: &mut World, slot: usize, q: &mut Qq) {
        w.admit_fifo(slot, &mut self.queues[slot], q);
        self.refresh_contention(w, self.gpu_of_slot[slot], q);
    }

    fn on_progress(&mut self, w: &mut World, slot: usize, q: &mut Qq) {
        self.on_idle(w, slot, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aegaeon::runtime::SAMPLE_PERIOD;
    use aegaeon_gpu::{ClusterSpec, GpuSpec, NodeSpec};
    use aegaeon_model::Zoo;
    use aegaeon_sim::{SimRng, SimTime};
    use aegaeon_telemetry::{SpanKind, TelemetrySpec};
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
    fn placement_caps_at_two_or_three_models_per_gpu() {
        // §2.3: at most two 14B-class models per 80 GB GPU.
        let w14 = 14_170_000_000u64 * 2;
        let usable = (80u64 << 30) * 9 / 10;
        let p = Placement::optimize(&vec![w14; 40], &vec![1.0; 40], 16, usable);
        let placed: usize = p.per_gpu.iter().map(Vec::len).sum();
        assert_eq!(placed, 32, "two 14B models per GPU × 16 GPUs");
        for gpu in &p.per_gpu {
            assert!(gpu.len() <= 2);
        }
    }

    #[test]
    fn hot_models_are_placed_first() {
        let w = vec![30u64 << 30; 4];
        let rates = vec![0.1, 5.0, 0.2, 3.0];
        let p = Placement::optimize(&w, &rates, 1, 80 << 30);
        // Only two fit; they must be models 1 and 3 (the hottest).
        let placed: Vec<u32> = p.per_gpu[0].iter().map(|m| m.0).collect();
        assert!(placed.contains(&1) && placed.contains(&3), "{placed:?}");
    }

    #[test]
    fn colocated_models_serve_concurrently_with_interference() {
        let zoo = Zoo::standard();
        let models = Zoo::replicate(&zoo.market_band(), 2);
        let rates = vec![0.2, 0.2];
        let mut rng = SimRng::seed_from_u64(4);
        let trace = TraceBuilder::new(SimTime::from_secs_f64(120.0), LengthDist::sharegpt())
            .uniform_models(&mut rng, 2, 0.2)
            .build(&mut rng);
        let cfg = WorldConfig::sllm_default(cluster(1));
        let r = MuxServe::run(&cfg, &models, &rates, &trace);
        assert_eq!(r.rejected, 0);
        assert!(r.completed as f64 > 0.95 * r.total_requests as f64);
        let rep = r.attainment(SloSpec::paper_default());
        assert!(rep.ratio() > 0.8, "attainment {}", rep.ratio());
    }

    #[test]
    fn audited_run_counts_rejections_in_conservation() {
        // 8 models on one GPU: most are unplaced and rejected. The auditor
        // must treat completed + rejected as full conservation.
        let zoo = Zoo::standard();
        let models = Zoo::replicate(&zoo.market_band(), 8);
        let rates = vec![1.0; 8];
        let mut rng = SimRng::seed_from_u64(6);
        let trace = TraceBuilder::new(SimTime::from_secs_f64(60.0), LengthDist::sharegpt())
            .uniform_models(&mut rng, 8, 0.1)
            .build(&mut rng);
        let mut cfg = WorldConfig::sllm_default(cluster(1));
        cfg.telemetry = TelemetrySpec::enabled();
        let plain = MuxServe::run(&cfg, &models, &rates, &trace);
        assert!(plain.audit.is_none(), "unaudited runs carry no report");
        cfg.audit = true;
        let r = MuxServe::run(&cfg, &models, &rates, &trace);
        let report = r.audit.as_ref().expect("audited run");
        assert!(report.ok(), "{report}");
        assert!(report.events_checked > 0);
        assert_eq!(
            plain.fingerprint(),
            r.fingerprint(),
            "auditor must not perturb"
        );
        assert!(r.rejected > 0);
        assert_eq!(r.completed + r.rejected, r.total_requests);
        // Rejected requests are resolved: sampling stops within one period
        // of the last token (or of a later, rejected arrival) instead of
        // running to the hard stop.
        let tokens = r.outcomes.iter().filter_map(|o| o.token_times.last());
        let last_token = tokens.max().expect("some request was served");
        let arrivals = trace.requests.iter().map(|q| q.arrival());
        let last = arrivals.fold(last_token, SimTime::max);
        assert!(
            r.end_time >= last && r.end_time <= last + SAMPLE_PERIOD,
            "run ended at {:.1}s, last token at {:.1}s, last event due at {:.1}s",
            r.end_time.as_secs_f64(),
            last_token.as_secs_f64(),
            last.as_secs_f64()
        );
        // A rejected request's spans end at the rejection instant, not at
        // the end of the run.
        let spans = r.telemetry.spans.spans();
        let rejected_roots = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Request && s.end == s.start)
            .count();
        assert_eq!(rejected_roots, r.rejected);
    }

    #[test]
    fn unplaced_models_get_zero_service() {
        let zoo = Zoo::standard();
        let models = Zoo::replicate(&zoo.market_band(), 8);
        let rates = vec![1.0; 8];
        let mut rng = SimRng::seed_from_u64(5);
        let trace = TraceBuilder::new(SimTime::from_secs_f64(60.0), LengthDist::sharegpt())
            .uniform_models(&mut rng, 8, 0.1)
            .build(&mut rng);
        let cfg = WorldConfig::sllm_default(cluster(1));
        let r = MuxServe::run(&cfg, &models, &rates, &trace);
        assert!(r.rejected > 0, "8 models cannot fit one GPU");
        let rep = r.attainment(SloSpec::paper_default());
        assert!(rep.ratio() < 0.9, "attainment {}", rep.ratio());
    }

    #[test]
    fn progress_log_holds_every_request_an_event_changed() {
        // Two models share the one GPU (interference) and the rest are
        // rejected: both paths must keep the log sound.
        let models = Zoo::replicate(&Zoo::standard().market_band(), 4);
        let rates = vec![1.0; 4];
        let mut rng = SimRng::seed_from_u64(7);
        let trace = TraceBuilder::new(SimTime::from_secs_f64(90.0), LengthDist::sharegpt())
            .uniform_models(&mut rng, 4, 0.2)
            .build(&mut rng);
        let cfg = WorldConfig::sllm_default(cluster(1));
        let mut world = World::new(cfg.clone(), &models, trace.clone());
        let mut sched = MuxServe::place(&mut world, &rates);
        let r = crate::engine_loop::tests::assert_progress_logged(world, &mut sched);
        assert!(r.rejected > 0 && r.completed > 0);
    }
}
