//! Run results and derived reports, shared by Aegaeon and the baselines.

use aegaeon_mem::frag::FragRow;
use aegaeon_metrics::{attainment, AttainmentReport, BreakdownAcc, RequestOutcome};
use aegaeon_sim::SimTime;
use aegaeon_telemetry::SpanLog;
use aegaeon_workload::SloSpec;

use crate::audit::AuditReport;

/// Everything a serving run produces. Baseline runs leave the
/// Aegaeon-only fields (latency breakdown, scaling and KV-sync latencies,
/// fragmentation, prefetch, swap and prefix counters, schedule) empty.
#[derive(Debug)]
pub struct RunResult {
    /// Per-request outcomes (token timestamps).
    pub outcomes: Vec<RequestOutcome>,
    /// The workload horizon (attainment deadline cutoff).
    pub horizon: SimTime,
    /// Simulated instant the run ended.
    pub end_time: SimTime,
    /// Latency-stage breakdown (Figure 14).
    pub breakdown: BreakdownAcc,
    /// Preemptive auto-scaling latencies, seconds (Figure 15 left).
    pub scale_latencies: Vec<f64>,
    /// Per-request KV synchronization overhead, seconds (Figure 15 right).
    pub kv_sync_per_request: Vec<f64>,
    /// Unified CPU cache fragmentation rows (Figure 16).
    pub frag_rows: Vec<FragRow>,
    /// Compute-busy seconds per GPU.
    pub gpu_busy: Vec<f64>,
    /// Periodic samples of cumulative per-GPU compute-busy seconds.
    pub util_samples: Vec<(SimTime, Vec<f64>)>,
    /// Requests that finished.
    pub completed: usize,
    /// Requests turned away for good at admission (MuxServe's unplaced
    /// models; always 0 for Aegaeon). [`RunResult::fingerprint`] hashes it
    /// only when non-zero, so results without rejections keep the
    /// fingerprints they had before the field existed.
    pub rejected: usize,
    /// Requests in the trace.
    pub total_requests: usize,
    /// Models deployed.
    pub model_count: usize,
    /// Deployed models whose Eq. (5)/(6) estimator the run fitted: those
    /// its trace named, plus any first seen later. Observer-only, so
    /// [`RunResult::fingerprint`] skips it; the baselines fit none.
    pub models_profiled: usize,
    /// Model switches performed: Aegaeon's preemptive scale-ups, a
    /// baseline's instance reloads.
    pub scale_count: u64,
    /// Scale-ups whose weights were already prefetched.
    pub prefetch_hits: u64,
    /// KV swaps performed (in + out).
    pub swaps: u64,
    /// Session turns that prefilled only their delta off a retained prefix.
    pub prefix_hits: u64,
    /// Prefill tokens skipped thanks to claimed session prefixes.
    pub prefill_tokens_reused: u64,
    /// Shared-prefix tokens that had to be prefilled again (affinity off,
    /// miss, eviction, or crash-forced recomputation).
    pub prefill_tokens_recomputed: u64,
    /// Simulation events dispatched.
    pub events: u64,
    /// Conservative synchronization windows a sharded run took; 0 for a
    /// single-queue run. Observer-only: the window schedule never changes
    /// what the shards compute, so [`RunResult::fingerprint`] skips it.
    pub shard_windows: u64,
    /// Per-GPU schedule: prefill, decode-round and switch intervals on
    /// GPU-lane tracks (when `trace_schedule` is on).
    pub schedule: SpanLog,
    /// Request-lifecycle spans and sampled metrics (when enabled).
    pub telemetry: aegaeon_telemetry::Telemetry,
    /// The invariant auditor's report: `Some` exactly when an auditor
    /// watched the run. Filled by every `run` entry point and by
    /// `ServingSession::finish`.
    pub audit: Option<AuditReport>,
}

impl RunResult {
    /// Token-level SLO attainment under `slo`.
    pub fn attainment(&self, slo: SloSpec) -> AttainmentReport {
        attainment(&self.outcomes, slo, self.horizon)
    }

    /// Mean GPU compute utilization over the run.
    pub fn mean_gpu_utilization(&self) -> f64 {
        if self.gpu_busy.is_empty() || self.end_time == SimTime::ZERO {
            return 0.0;
        }
        let total: f64 = self.gpu_busy.iter().sum();
        total / (self.gpu_busy.len() as f64 * self.end_time.as_secs_f64())
    }

    /// Fraction of scale-ups served from the prefetch region.
    pub fn prefetch_hit_ratio(&self) -> f64 {
        if self.scale_count == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.scale_count as f64
        }
    }

    /// Order-sensitive hash over every *behavioral* field — everything the
    /// simulation produced except the observer-only artifacts
    /// (`models_profiled`, `shard_windows`, `schedule`, `telemetry`,
    /// `audit`). The differential telemetry test asserts this is
    /// bit-identical with telemetry on and off.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = aegaeon_sim::FxHasher::default();
        for o in &self.outcomes {
            o.id.0.hash(&mut h);
            o.model.0.hash(&mut h);
            o.arrival.as_nanos().hash(&mut h);
            o.target_tokens.hash(&mut h);
            for t in &o.token_times {
                t.as_nanos().hash(&mut h);
            }
        }
        self.horizon.as_nanos().hash(&mut h);
        self.end_time.as_nanos().hash(&mut h);
        format!("{:?}", self.breakdown).hash(&mut h);
        for v in &self.scale_latencies {
            v.to_bits().hash(&mut h);
        }
        for v in &self.kv_sync_per_request {
            v.to_bits().hash(&mut h);
        }
        format!("{:?}", self.frag_rows).hash(&mut h);
        for v in &self.gpu_busy {
            v.to_bits().hash(&mut h);
        }
        for (t, busy) in &self.util_samples {
            t.as_nanos().hash(&mut h);
            for v in busy {
                v.to_bits().hash(&mut h);
            }
        }
        self.completed.hash(&mut h);
        if self.rejected != 0 {
            self.rejected.hash(&mut h);
        }
        self.total_requests.hash(&mut h);
        self.model_count.hash(&mut h);
        self.scale_count.hash(&mut h);
        self.prefetch_hits.hash(&mut h);
        self.swaps.hash(&mut h);
        self.prefix_hits.hash(&mut h);
        self.prefill_tokens_reused.hash(&mut h);
        self.prefill_tokens_recomputed.hash(&mut h);
        self.events.hash(&mut h);
        h.finish()
    }
}
