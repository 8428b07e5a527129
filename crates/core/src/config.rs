//! Serving-system configuration.

use aegaeon_engine::AutoscaleOpts;
use aegaeon_gpu::{ClusterSpec, GpuSpec, NodeSpec};
use aegaeon_sim::SimDur;

/// Configuration of an Aegaeon deployment.
#[derive(Debug, Clone)]
pub struct AegaeonConfig {
    /// Cluster hardware.
    pub cluster: ClusterSpec,
    /// Tensor-parallel degree of every instance (1 in the main experiments,
    /// 4 in the large-model study).
    pub tp: u32,
    /// Number of instances dedicated to prefill; the rest decode (§4.1).
    pub prefill_instances: usize,
    /// §5 optimization flags (T0–T3).
    pub opts: AutoscaleOpts,
    /// Maximum accumulative group size in Algorithm 1.
    pub max_gpsize: u32,
    /// Maximum decoding quota in Equation (3), seconds.
    pub qmax: f64,
    /// Target TBT used by the decoding quota computation, seconds. (The SLO
    /// itself is applied at metric time; the scheduler needs `d` online.)
    pub target_tbt: f64,
    /// Slab size of the unified KV caches.
    pub slab_bytes: u64,
    /// Extra simulated time after the last arrival before the run is cut.
    pub drain_window: SimDur,
    /// RNG seed.
    pub seed: u64,
    /// Record the per-GPU schedule into `RunResult::schedule` (timeline
    /// figures). Separate from `telemetry`: the schedule holds far more
    /// intervals than the request spans.
    pub trace_schedule: bool,
    /// Keep preempted batches' KV resident on the GPU when the unified
    /// cache has headroom, instead of always offloading at turn end (an
    /// extension beyond the paper's offload-on-preemption; saves PCIe
    /// traffic at the cost of VRAM pressure).
    pub kv_residency: bool,
    /// Resident weight slots per instance (§8 future work: "Aegaeon can
    /// potentially incorporate multiplexing by dynamically switching
    /// colocated models"). With 2+ slots, switching among colocated models
    /// is free and the spare slot doubles as the prefetch target; VRAM for
    /// KV shrinks accordingly. Falls back to 1 when models do not fit.
    pub weight_slots: u32,
    /// Seeded fault composition (chaos engine): instance crashes (the Fig. 5
    /// fault-tolerance path), transient link degradation, staging-buffer
    /// OOM, and proxy stalls. [`crate::chaos::FaultPlan::none`] disables all
    /// fault injection.
    pub faults: crate::chaos::FaultPlan,
    /// Session-affinity scheduling for agentic multi-turn traffic: a
    /// finished turn's KV is retained under its session's reserved handle
    /// (on-GPU when the unified cache has headroom, spilled to the CPU
    /// cache otherwise), and the next turn of the session prefills only its
    /// fresh delta when the retained prefix can be claimed. Off by default:
    /// with it off the subsystem is fully inert and every session turn
    /// recomputes its prefix like a single-shot request.
    pub session_affinity: bool,
    /// How long retained session KV may sit idle across a think gap before
    /// the reclamation daemon evicts it (the keep-vs-swap economics knob:
    /// longer TTLs buy prefix hits with VRAM/DRAM residency).
    pub session_kv_ttl: SimDur,
    /// Run the always-on invariant auditor alongside the dispatch loop.
    /// Purely observational: results are bit-identical either way.
    pub audit: bool,
    /// Telemetry (request-lifecycle spans + sampled metrics). Observer
    /// only, like the auditor: results are bit-identical either way.
    pub telemetry: aegaeon_telemetry::TelemetrySpec,
}

impl AegaeonConfig {
    /// The paper's main testbed (§7.1/§7.2): 2 nodes × 8 H800, TP = 1,
    /// 6 prefill + 10 decoding instances, full optimizations.
    pub fn paper_testbed() -> AegaeonConfig {
        AegaeonConfig {
            cluster: ClusterSpec::paper_testbed(),
            tp: 1,
            prefill_instances: 6,
            opts: AutoscaleOpts::t3(),
            max_gpsize: 8,
            qmax: 4.0,
            target_tbt: 0.1,
            slab_bytes: 128 << 20,
            drain_window: SimDur::from_secs(240),
            seed: 42,
            trace_schedule: false,
            kv_residency: false,
            weight_slots: 1,
            faults: crate::chaos::FaultPlan::none(),
            session_affinity: false,
            session_kv_ttl: SimDur::from_secs(120),
            audit: false,
            telemetry: aegaeon_telemetry::TelemetrySpec::disabled(),
        }
    }

    /// A small testbed for tests/examples: one node with
    /// `prefill + decode` H800 GPUs, TP = 1.
    pub fn small_testbed(prefill: usize, decode: usize) -> AegaeonConfig {
        let mut cfg = Self::paper_testbed();
        cfg.cluster = ClusterSpec::homogeneous(
            1,
            NodeSpec {
                gpus: (prefill + decode) as u32,
                gpu: GpuSpec::h800(),
                nic_bw: 25e9,
            },
        );
        cfg.prefill_instances = prefill;
        cfg
    }

    /// The §7.4 lower-end testbed: one node with 4 A10 GPUs, 2 prefill +
    /// 2 decoding instances, prefetching disabled (24 GB VRAM cannot hold
    /// two models).
    pub fn a10_testbed() -> AegaeonConfig {
        let mut cfg = Self::paper_testbed();
        cfg.cluster = ClusterSpec::homogeneous(
            1,
            NodeSpec {
                gpus: 4,
                gpu: GpuSpec::a10(),
                nic_bw: 25e9,
            },
        );
        cfg.prefill_instances = 2;
        cfg.opts.prefetch = false;
        cfg
    }

    /// The §7.4 large-model testbed: one node with 8 H800, TP = 4 (one
    /// prefill + one decoding instance).
    pub fn tp4_testbed() -> AegaeonConfig {
        let mut cfg = Self::paper_testbed();
        cfg.cluster = ClusterSpec::homogeneous(1, NodeSpec::h800_node());
        cfg.tp = 4;
        cfg.prefill_instances = 1;
        cfg
    }

    /// Number of serving instances (TP groups) in the cluster.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (TP groups must not
    /// straddle nodes; prefill instances must leave at least one decoder).
    pub fn instance_count(&self) -> usize {
        let mut total = 0usize;
        for node in &self.cluster.nodes {
            assert!(
                node.gpus % self.tp == 0,
                "TP groups must not straddle nodes"
            );
            total += (node.gpus / self.tp) as usize;
        }
        assert!(
            self.prefill_instances < total,
            "need at least one decoding instance ({} instances, {} prefill)",
            total,
            self.prefill_instances
        );
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_splits_6_plus_10() {
        let cfg = AegaeonConfig::paper_testbed();
        assert_eq!(cfg.instance_count(), 16);
        assert_eq!(cfg.prefill_instances, 6);
    }

    #[test]
    fn tp4_testbed_has_two_instances() {
        let cfg = AegaeonConfig::tp4_testbed();
        assert_eq!(cfg.instance_count(), 2);
        assert_eq!(cfg.prefill_instances, 1);
    }

    #[test]
    fn a10_disables_prefetch() {
        let cfg = AegaeonConfig::a10_testbed();
        assert!(!cfg.opts.prefetch);
        assert!(cfg.opts.fine_sync);
    }

    #[test]
    #[should_panic(expected = "decoding instance")]
    fn all_prefill_is_rejected() {
        let mut cfg = AegaeonConfig::small_testbed(2, 2);
        cfg.prefill_instances = 4;
        let _ = cfg.instance_count();
    }
}
