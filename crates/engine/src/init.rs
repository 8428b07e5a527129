//! Engine (re)initialization stages and the auto-scaling optimization flags.
//!
//! Figure 7 decomposes preemptive auto-scaling into stages: after the last
//! inference step the old instance saves its KV cache (`KVout`), VRAM is
//! garbage-collected, the engine is reinitialized (distributed executor,
//! model weights, profiling, KV-cache pinning, misc), and the new jobs' KV
//! cache is brought back (`KVin`). §5's optimizations remove or shrink
//! stages:
//!
//! * **T0** — everything, ≈ 26.9 s of initialization for a 13B model plus
//!   GC and KV transfers;
//! * **T1** — component reuse (§5.1) drops executor init, profiling,
//!   KV pinning and misc: only the (naive) model load remains;
//! * **T2** — explicit memory management (§5.2) eliminates GC (the
//!   self-managed weight buffer is reused, not collected) and loads weights
//!   through pinned stage buffers at near-PCIe speed, optionally promoting
//!   a prefetched model with a cheap on-device copy;
//! * **T3** — fine-grained KV synchronization (§5.3) overlaps the KV
//!   stages; that part is orchestrated by the serving system, not the plan.

use aegaeon_sim::SimDur;

/// A stage of the preemptive auto-scaling sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Offloading the old model's KV cache (sized at runtime).
    KvSwapOut,
    /// VRAM garbage collection (`gc.collect()` + `empty_cache()`).
    GarbageCollect,
    /// Distributed executor (Ray/NCCL) initialization.
    DistExecInit,
    /// Fetching weights from the remote registry into host DRAM.
    RemoteFetch,
    /// Loading model weights onto the GPU.
    ModelLoad,
    /// Profiling and optimization passes.
    ProfileOpt,
    /// KV-cache allocation / host-memory pinning.
    KvInit,
    /// Tokenizer, scheduler, logging, … .
    MiscInit,
    /// Swapping the new jobs' KV cache back in (sized at runtime).
    KvSwapIn,
}

impl StageKind {
    /// Display label used by the Figure 7 harness.
    pub fn label(&self) -> &'static str {
        match self {
            StageKind::KvSwapOut => "KVout",
            StageKind::GarbageCollect => "gc",
            StageKind::DistExecInit => "DistExec init",
            StageKind::RemoteFetch => "Remote fetch",
            StageKind::ModelLoad => "Model in",
            StageKind::ProfileOpt => "Profile",
            StageKind::KvInit => "KV init",
            StageKind::MiscInit => "Misc",
            StageKind::KvSwapIn => "KVin",
        }
    }
}

// Fixed component-initialization costs (Figure 7's breakdown), calibrated
// so an unoptimized 13B (TP=2) initialization totals the paper's 26.9 s
// (§5.1).

/// Distributed executor startup ("tens of seconds" territory).
const DIST_EXEC_INIT: SimDur = SimDur::from_millis(12_500);
/// Profiling and optimization ("several seconds").
const PROFILE: SimDur = SimDur::from_millis(3_500);
/// Pinning host memory for the KV cache ("several seconds").
const KV_PIN: SimDur = SimDur::from_millis(4_000);
/// Other components (scheduler, tokenizer, logging).
const MISC_INIT: SimDur = SimDur::from_millis(2_300);
/// VRAM garbage-collection pass ("several seconds").
const GC: SimDur = SimDur::from_millis(2_500);

/// Remote registry bandwidth for model-cache misses, bytes/s.
const REMOTE_BW: f64 = 5e9;

/// Fraction of VRAM the engine manages (the rest is left to the tensor
/// library).
pub const VRAM_USABLE: f64 = 0.90;

/// Host→device load efficiency of the unoptimized path (Figure 7: a
/// LLaMA-13B shard loads at 2.83 GB/s over a 32 GB/s PCIe 4.0 link).
pub(crate) const NAIVE_LOAD_EFFICIENCY: f64 = 2.83 / 32.0;

/// Load efficiency of the §5.2 multi-threaded, chunked, pipelined path.
pub const PIPELINED_LOAD_EFFICIENCY: f64 = 0.80;

/// Effective-bandwidth penalty when the pinned stage buffer is unavailable
/// (fault injection: staging-buffer OOM) and the load falls back to pageable
/// host memory. Pageable DMA bounces through an internal driver buffer, so
/// it reaches roughly a third of pinned throughput.
pub const UNPINNED_FALLBACK_EFFICIENCY: f64 = 0.35;

/// Which §5 optimizations are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscaleOpts {
    /// §5.1 component reuse.
    pub component_reuse: bool,
    /// §5.2 explicit memory management (no GC, fast loading).
    pub explicit_memory: bool,
    /// §5.2 model prefetching on a separate stream.
    pub prefetch: bool,
    /// §5.3 fine-grained KV-cache synchronization.
    pub fine_sync: bool,
}

impl AutoscaleOpts {
    /// T0: no optimizations (the default vLLM-style teardown/reinit).
    pub fn t0() -> Self {
        AutoscaleOpts {
            component_reuse: false,
            explicit_memory: false,
            prefetch: false,
            fine_sync: false,
        }
    }

    /// T1: component reuse only.
    pub fn t1() -> Self {
        AutoscaleOpts {
            component_reuse: true,
            ..Self::t0()
        }
    }

    /// T2: component reuse + explicit memory management + prefetching.
    pub fn t2() -> Self {
        AutoscaleOpts {
            explicit_memory: true,
            prefetch: true,
            ..Self::t1()
        }
    }

    /// T3: everything (the full Aegaeon configuration).
    pub fn t3() -> Self {
        AutoscaleOpts {
            fine_sync: true,
            ..Self::t2()
        }
    }

    /// Display name (`"T0"`…`"T3"` or `"custom"`).
    pub fn name(&self) -> &'static str {
        if *self == Self::t0() {
            "T0"
        } else if *self == Self::t1() {
            "T1"
        } else if *self == Self::t2() {
            "T2"
        } else if *self == Self::t3() {
            "T3"
        } else {
            "custom"
        }
    }
}

/// The cost of one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleCost {
    /// A fixed duration.
    Fixed(SimDur),
    /// A host→device transfer of `bytes` achieving `efficiency` of link
    /// bandwidth (executed as a link flow; contention applies on top).
    HostLoad {
        /// Bytes to move per GPU.
        bytes: u64,
        /// Achieved fraction of nominal link bandwidth.
        efficiency: f64,
    },
    /// An on-device promotion copy of `bytes` (prefetched weights moving to
    /// the head of the self-managed buffer).
    DeviceCopy {
        /// Bytes to move.
        bytes: u64,
    },
}

/// One stage with its cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleStage {
    /// What the stage is.
    pub kind: StageKind,
    /// What it costs.
    pub cost: ScaleCost,
}

/// An ordered sequence of scale-up stages.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScalePlan {
    /// Stages in execution order.
    pub stages: Vec<ScaleStage>,
}

impl ScalePlan {
    /// Estimated duration assuming exclusive use of a `pcie_bw` link and a
    /// `dev_copy_bw` on-device copy engine.
    pub fn estimate_secs(&self, pcie_bw: f64, dev_copy_bw: f64) -> f64 {
        self.stages
            .iter()
            .map(|s| match s.cost {
                ScaleCost::Fixed(d) => d.as_secs_f64(),
                ScaleCost::HostLoad { bytes, efficiency } => {
                    bytes as f64 / (pcie_bw * efficiency)
                }
                ScaleCost::DeviceCopy { bytes } => bytes as f64 / dev_copy_bw,
            })
            .sum()
    }
}

/// Builds the scale-up plan for loading a model whose per-GPU weight shard
/// is `bytes_per_gpu`.
///
/// * `prefetched` — the weights already sit in the VRAM prefetch region;
/// * `dram_cached` — the checkpoint is resident in the host Model Cache
///   (otherwise a remote-registry fetch precedes the load).
pub fn scale_up_plan(
    opts: &AutoscaleOpts,
    bytes_per_gpu: u64,
    prefetched: bool,
    dram_cached: bool,
) -> ScalePlan {
    let mut stages = Vec::new();
    if !opts.explicit_memory {
        stages.push(ScaleStage {
            kind: StageKind::GarbageCollect,
            cost: ScaleCost::Fixed(GC),
        });
    }
    if !opts.component_reuse {
        stages.push(ScaleStage {
            kind: StageKind::DistExecInit,
            cost: ScaleCost::Fixed(DIST_EXEC_INIT),
        });
    }
    if !dram_cached {
        stages.push(ScaleStage {
            kind: StageKind::RemoteFetch,
            cost: ScaleCost::Fixed(SimDur::from_secs_f64(bytes_per_gpu as f64 / REMOTE_BW)),
        });
    }
    if prefetched && opts.explicit_memory {
        stages.push(ScaleStage {
            kind: StageKind::ModelLoad,
            cost: ScaleCost::DeviceCopy { bytes: bytes_per_gpu },
        });
    } else {
        stages.push(ScaleStage {
            kind: StageKind::ModelLoad,
            cost: ScaleCost::HostLoad {
                bytes: bytes_per_gpu,
                efficiency: if opts.explicit_memory {
                    PIPELINED_LOAD_EFFICIENCY
                } else {
                    NAIVE_LOAD_EFFICIENCY
                },
            },
        });
    }
    if !opts.component_reuse {
        stages.push(ScaleStage {
            kind: StageKind::ProfileOpt,
            cost: ScaleCost::Fixed(PROFILE),
        });
        stages.push(ScaleStage {
            kind: StageKind::KvInit,
            cost: ScaleCost::Fixed(KV_PIN),
        });
        stages.push(ScaleStage {
            kind: StageKind::MiscInit,
            cost: ScaleCost::Fixed(MISC_INIT),
        });
    }
    ScalePlan { stages }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB13_TP2: u64 = 13_000_000_000; // one TP=2 shard of a 13B model

    fn est(opts: AutoscaleOpts, prefetched: bool) -> f64 {
        let plan = scale_up_plan(&opts, GB13_TP2, prefetched, true);
        plan.estimate_secs(32e9, 1.6e12)
    }

    #[test]
    fn t0_matches_paper_26_9s() {
        // §5.1: "an unoptimized initialization process can take up to 26.9
        // seconds for a 13B model" (plus the GC pass on scale-down).
        let t = est(AutoscaleOpts::t0(), false);
        assert!((t - (26.9 + 2.5)).abs() < 0.6, "T0 = {t}s");
    }

    #[test]
    fn t1_removes_over_80_percent() {
        // §5.1: component reuse removes over 80% of the auto-scaling latency.
        let t0 = est(AutoscaleOpts::t0(), false);
        let t1 = est(AutoscaleOpts::t1(), false);
        assert!(t1 < t0 * 0.3, "T1 = {t1}, T0 = {t0}");
        // What remains is GC + the naive load.
        assert!((t1 - (2.5 + 4.59)).abs() < 0.2, "T1 = {t1}");
    }

    #[test]
    fn t2_loads_in_under_a_second() {
        // §5.2: loading times "under one second" when cached in host memory.
        let t2 = est(AutoscaleOpts::t2(), false);
        assert!(t2 < 1.0, "T2 = {t2}");
        // Prefetched: near-instant (on-device promotion copy).
        let t2p = est(AutoscaleOpts::t2(), true);
        assert!(t2p < 0.05, "T2+prefetch = {t2p}");
    }

    #[test]
    fn uncached_model_pays_remote_fetch() {
        let plan = scale_up_plan(&AutoscaleOpts::t3(), GB13_TP2, false, false);
        assert!(plan
            .stages
            .iter()
            .any(|s| s.kind == StageKind::RemoteFetch));
        let t = plan.estimate_secs(32e9, 1.6e12);
        assert!(t > 2.5, "remote fetch dominates: {t}");
    }

    #[test]
    fn preset_names() {
        assert_eq!(AutoscaleOpts::t0().name(), "T0");
        assert_eq!(AutoscaleOpts::t3().name(), "T3");
        let custom = AutoscaleOpts {
            prefetch: false,
            ..AutoscaleOpts::t2()
        };
        assert_eq!(custom.name(), "custom");
    }

    #[test]
    fn prefetch_without_explicit_memory_falls_back_to_host_load() {
        // Prefetching requires the self-managed buffer; without it the plan
        // must not emit a device copy.
        let opts = AutoscaleOpts {
            component_reuse: true,
            explicit_memory: false,
            prefetch: true,
            fine_sync: false,
        };
        let plan = scale_up_plan(&opts, GB13_TP2, true, true);
        assert!(plan
            .stages
            .iter()
            .all(|s| !matches!(s.cost, ScaleCost::DeviceCopy { .. })));
    }

    #[test]
    fn t0_stages_hold_the_fig07_breakdown() {
        let plan = scale_up_plan(&AutoscaleOpts::t0(), GB13_TP2, false, true);
        let fixed = |ms| ScaleCost::Fixed(SimDur::from_millis(ms));
        let load = ScaleCost::HostLoad {
            bytes: GB13_TP2,
            efficiency: NAIVE_LOAD_EFFICIENCY,
        };
        let got: Vec<_> = plan.stages.iter().map(|s| (s.kind, s.cost)).collect();
        assert_eq!(
            got,
            [
                (StageKind::GarbageCollect, fixed(2_500)),
                (StageKind::DistExecInit, fixed(12_500)),
                (StageKind::ModelLoad, load),
                (StageKind::ProfileOpt, fixed(3_500)),
                (StageKind::KvInit, fixed(4_000)),
                (StageKind::MiscInit, fixed(2_300)),
            ]
        );
    }

    #[test]
    fn remote_fetch_moves_the_shard_at_registry_bandwidth() {
        let plan = scale_up_plan(&AutoscaleOpts::t3(), GB13_TP2, false, false);
        let fetch = plan
            .stages
            .iter()
            .find(|s| s.kind == StageKind::RemoteFetch)
            .expect("uncached plan fetches");
        // 13 GB over the 5 GB/s registry link.
        assert_eq!(fetch.cost, ScaleCost::Fixed(SimDur::from_secs_f64(2.6)));
        // The fetch precedes the load it feeds.
        let pos = |k| plan.stages.iter().position(|s| s.kind == k).unwrap();
        assert!(pos(StageKind::RemoteFetch) < pos(StageKind::ModelLoad));
    }

    #[test]
    fn component_reuse_drops_every_fixed_init_stage() {
        let plan = scale_up_plan(&AutoscaleOpts::t1(), GB13_TP2, false, true);
        let kinds: Vec<_> = plan.stages.iter().map(|s| s.kind).collect();
        // Only the GC pass (no explicit memory yet) and the naive load remain.
        assert_eq!(kinds, [StageKind::GarbageCollect, StageKind::ModelLoad]);
    }

    #[test]
    fn explicit_memory_skips_gc_and_loads_pipelined() {
        let plan = scale_up_plan(&AutoscaleOpts::t2(), GB13_TP2, false, true);
        assert_eq!(
            plan.stages,
            [ScaleStage {
                kind: StageKind::ModelLoad,
                cost: ScaleCost::HostLoad {
                    bytes: GB13_TP2,
                    efficiency: PIPELINED_LOAD_EFFICIENCY,
                },
            }]
        );
    }

    #[test]
    fn unpinned_fallback_sits_between_pipelined_and_naive() {
        // The stage-OOM fallback scales the pipelined efficiency down; the
        // load it yields must be much slower than pinned but still beat the
        // unoptimized path.
        let fallback = PIPELINED_LOAD_EFFICIENCY * UNPINNED_FALLBACK_EFFICIENCY;
        let secs = |eff: f64| GB13_TP2 as f64 / (32e9 * eff);
        let pinned = secs(PIPELINED_LOAD_EFFICIENCY);
        let slow = secs(fallback);
        assert!(slow > pinned * 1.5, "fallback {slow} vs {pinned}");
        assert!(slow < secs(NAIVE_LOAD_EFFICIENCY));
    }

    #[test]
    fn prefetched_t2_promotes_with_a_device_copy() {
        let plan = scale_up_plan(&AutoscaleOpts::t2(), GB13_TP2, true, true);
        assert_eq!(
            plan.stages,
            [ScaleStage {
                kind: StageKind::ModelLoad,
                cost: ScaleCost::DeviceCopy { bytes: GB13_TP2 },
            }]
        );
    }
}
