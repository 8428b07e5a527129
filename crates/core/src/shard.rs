//! Sharded conservative-parallel execution of the serving system.
//!
//! A sharded run partitions one [`ServingSystem`](crate::ServingSystem)
//! simulation into per-node shards: each shard is a complete serving
//! system over a contiguous slice of the cluster's nodes, with its own
//! indexed 4-ary event queue, GPU instances, slab/KV books, RNG stream,
//! materialized fault schedule, and auditor view. Requests are routed to
//! their *home shard* by model (`model.0 % shards`), so a model's
//! auto-scaling state never straddles a shard boundary.
//!
//! # Synchronization
//!
//! Shards advance in bulk-synchronous conservative windows computed by
//! [`aegaeon_sim::GrantClock`]: every window, each shard processes events
//! strictly below the window's grant, then the coordinator exchanges
//! boundary events at the barrier. Ingress arrivals are trace-known up
//! front and carry no constraint. The only *dynamic* cross-shard coupling
//! is a failover handoff — a shard that lost an entire prefill or decoding
//! tier re-routes stranded requests to a peer shard, which re-serves them
//! from scratch after the proxy's failover detection window
//! (`system::FAILOVER_LATENCY`, itself a ceiling on the MetaStore sync and
//! link latencies on that path). That window is the lookahead: a handoff
//! emitted at `t` is received at `t + lookahead`.
//!
//! Crashes are the only way an instance dies, and each shard materializes
//! its crash schedule before its first event, so each shard knows up front
//! the first instant it could emit a handoff: when its schedule first
//! empties a tier (`crate::chaos::first_tier_loss`). The grant is the
//! minimum over shards with work of `max(next due, that instant) +
//! lookahead`, and unbounded when no such shard can ever lose a tier. A
//! healthy or stochastic-chaos run (`FaultPlan::materialize` always leaves
//! one instance per tier) therefore takes a single window; a run with a
//! forced tier loss takes ordinary lookahead-sized windows only from the
//! loss on. Null-message style, no rollback: every handoff lands at or
//! after the grant, outside every shard's processed past (see
//! `aegaeon_sim::horizon` for the argument).
//!
//! # Determinism
//!
//! A sharded run is bit-identical across worker-thread counts: shard
//! construction, shard execution inside a window, and shard finishing are
//! embarrassingly parallel (disjoint state), so contiguous chunks of
//! shards are built, stepped each window, and finished on scoped threads,
//! and everything order-sensitive — window boundaries, handoff delivery
//! order, result merging — happens on the coordinator in fixed shard
//! order. The *serial reference* for the differential tests is therefore
//! the sharded engine on one thread — the same window loop with one chunk,
//! stepped on the coordinator thread; the single-queue engine is a
//! different (also deterministic) interleaving of the same workload, with
//! globally shared RNG draws and routing scans that no parallel execution
//! could reproduce without serializing every event.

use std::ops::Range;

use aegaeon_metrics::RequestOutcome;
use aegaeon_model::{ModelId, ModelSpec};
use aegaeon_sim::{derive_seed, FxHashMap, GrantClock, SimDur, SimTime};
use aegaeon_workload::{Request, RequestId, Trace};

use crate::audit::{AuditReport, InvariantAuditor, Violation};
use crate::config::AegaeonConfig;
use crate::result::RunResult;
use crate::session::ServingSession;
use crate::system::FAILOVER_LATENCY;

/// A request handed off across a shard boundary after a total tier loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Handoff {
    /// Simulated instant the owning shard gave the request up.
    pub(crate) emitted: SimTime,
    /// The request as the emitting shard's trace holds it: `req.id` is its
    /// trace index *in that shard*, and the model id is global (every shard
    /// deploys the full model list). Its session identity travels with it.
    /// The destination shard holds no retained KV for the session, so the
    /// migrated turn recomputes its prefix; later turns of the same session
    /// still route to the home shard and are unaffected.
    pub(crate) req: Request,
}

/// The static partition of a configuration + trace into shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Conservative lookahead (minimum cross-shard message latency).
    pub(crate) lookahead: SimDur,
    /// Per-shard configurations (sub-cluster, prefill split, derived seed,
    /// remapped fault plan).
    pub cfgs: Vec<AegaeonConfig>,
    /// Per-shard sub-traces (local request ids, global model ids, global
    /// horizon).
    pub traces: Vec<Trace>,
    /// Per shard: local trace index → global trace index.
    pub(crate) global_ids: Vec<Vec<u64>>,
    /// Per global request: `(home shard, home-local trace index)`.
    pub(crate) home_slot: Vec<(usize, u32)>,
}

/// Splits `0..n` into `parts.min(n)` contiguous ranges (at least one)
/// whose lengths differ by at most one, longer ranges first.
fn even_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.min(n).max(1);
    let (base, rem) = (n / parts, n % parts);
    let mut hi = 0;
    (0..parts)
        .map(|i| {
            let lo = hi;
            hi += base + usize::from(i < rem);
            lo..hi
        })
        .collect()
}

impl ShardPlan {
    /// The home shard of a model under `shards`-way partitioning.
    pub(crate) fn home_shard(model: ModelId, shards: usize) -> usize {
        model.0 as usize % shards
    }

    /// Partitions `cfg` + `trace` into `shards` shards over contiguous
    /// node groups.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds the node count, if any shard
    /// would be left without both a prefill and a decoding instance, or if
    /// an explicit fault-plan crash names an instance index out of range.
    pub fn partition(cfg: &AegaeonConfig, trace: &Trace, shards: usize) -> ShardPlan {
        let nodes = cfg.cluster.nodes.len();
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shards <= nodes,
            "cannot split {nodes} node(s) into {shards} shards"
        );
        let total_inst = cfg.instance_count();
        let tp = cfg.tp;

        // Contiguous node groups, sizes as even as possible.
        let node_ranges = even_ranges(nodes, shards);

        // Proportional prefill split, clamped so every shard keeps at least
        // one prefill and one decoding instance.
        let inst_counts: Vec<usize> = node_ranges
            .iter()
            .map(|r| {
                cfg.cluster.nodes[r.clone()]
                    .iter()
                    .map(|n| (n.gpus / tp) as usize)
                    .sum()
            })
            .collect();
        let prefill_counts: Vec<usize> = inst_counts
            .iter()
            .map(|&inst| {
                assert!(inst >= 2, "a shard needs at least two instances");
                let ideal = (cfg.prefill_instances * inst + total_inst / 2) / total_inst;
                ideal.clamp(1, inst - 1)
            })
            .collect();

        // Global → shard-local instance index maps for explicit crashes:
        // each tier's global indexes concatenate the per-shard tiers.
        let decode_counts: Vec<usize> = inst_counts
            .iter()
            .zip(&prefill_counts)
            .map(|(&i, &p)| i - p)
            .collect();
        let offsets = |counts: &[usize]| -> Vec<usize> {
            counts
                .iter()
                .scan(0usize, |acc, &c| {
                    let off = *acc;
                    *acc += c;
                    Some(off)
                })
                .collect()
        };
        let prefill_offsets = offsets(&prefill_counts);
        let decode_offsets = offsets(&decode_counts);
        let locate = |kind: crate::events::InstKind, idx: u32| -> (usize, u32) {
            let (offs, counts) = match kind {
                crate::events::InstKind::Prefill => (&prefill_offsets, &prefill_counts),
                crate::events::InstKind::Decode => (&decode_offsets, &decode_counts),
            };
            for s in 0..shards {
                let lo = offs[s];
                if (idx as usize) >= lo && (idx as usize) < lo + counts[s] {
                    return (s, (idx as usize - lo) as u32);
                }
            }
            panic!("fault plan names {kind:?} instance {idx}, out of range");
        };

        let mut cfgs = Vec::with_capacity(shards);
        for s in 0..shards {
            let mut sub = cfg.clone();
            sub.cluster = aegaeon_gpu::ClusterSpec {
                nodes: cfg.cluster.nodes[node_ranges[s].clone()].to_vec(),
            };
            sub.prefill_instances = prefill_counts[s];
            sub.seed = derive_seed(cfg.seed, s as u64);
            // Stochastic fault processes redraw per shard (decorrelated via
            // the derived seed); explicit crashes are remapped below.
            sub.faults.crashes = Vec::new();
            cfgs.push(sub);
        }
        for &(secs, kind, idx) in &cfg.faults.crashes {
            let (s, local) = locate(kind, idx);
            cfgs[s].faults.crashes.push((secs, kind, local));
        }

        // Home-shard sub-traces with local request ids.
        let mut traces: Vec<Trace> = (0..shards)
            .map(|_| Trace {
                requests: Vec::new(),
                horizon: trace.horizon,
            })
            .collect();
        let mut global_ids: Vec<Vec<u64>> = vec![Vec::new(); shards];
        let mut home_slot = Vec::with_capacity(trace.len());
        // Sessions are single-model by construction (the lowering pins one
        // model per AgentSession), so model-home routing is automatically
        // session-stable. Check it anyway: a hand-built trace whose session
        // straddles models would otherwise scatter its turns across shards
        // and silently miss every retained prefix.
        let mut session_home: FxHashMap<u64, usize> = FxHashMap::default();
        for (g, r) in trace.requests.iter().enumerate() {
            let s = Self::home_shard(r.model, shards);
            if r.session.is_some() {
                let prev = *session_home.entry(r.session.0).or_insert(s);
                assert_eq!(
                    prev, s,
                    "session {} straddles shards {prev} and {s}: sessions must be single-model",
                    r.session.0
                );
            }
            let local = traces[s].requests.len();
            traces[s].requests.push(Request {
                id: RequestId(local as u64),
                ..*r
            });
            global_ids[s].push(g as u64);
            home_slot.push((s, local as u32));
        }

        ShardPlan {
            lookahead: FAILOVER_LATENCY,
            cfgs,
            traces,
            global_ids,
            home_slot,
        }
    }
}

/// Runs a sharded simulation on `threads` worker threads and returns the
/// merged result. With `cfg.audit` set, every shard is audited, the merged
/// report lands on [`RunResult::audit`], and any invariant violation
/// panics, as in [`ServingSystem::run`].
///
/// The merged [`RunResult::fingerprint`] is a pure function of
/// `(cfg, models, trace, shards)` — worker-thread count cannot perturb it.
///
/// [`ServingSystem::run`]: crate::system::ServingSystem::run
pub fn run_sharded(
    cfg: &AegaeonConfig,
    models: &[ModelSpec],
    trace: &Trace,
    shards: usize,
    threads: usize,
) -> RunResult {
    let plan = ShardPlan::partition(cfg, trace, shards);
    let mut coord = Coordinator::new(cfg, models, &plan, threads);
    let windows = coord.run().len() as u64;
    let final_slot = std::mem::take(&mut coord.final_slot);
    let finished = coord.finish();
    crate::runtime::checked(
        merge(models, trace, finished, &final_slot, windows),
        format_args!("seed={} plan=\"{}\" shards={shards}", cfg.seed, cfg.faults),
    )
}

/// Coordinator state for one sharded run.
struct Coordinator<'p> {
    sessions: Vec<ServingSession>,
    plan: &'p ShardPlan,
    clock: GrantClock,
    /// Per shard: the earliest instant it can emit a handoff (`None`:
    /// never), fixed by its materialized crash schedule.
    emit: Vec<Option<SimTime>>,
    /// Contiguous shard ranges, one per worker thread.
    chunks: Vec<Range<usize>>,
    /// Original sub-trace length per shard (locals beyond it are migrants).
    base_len: Vec<usize>,
    /// Per shard: migrant local index (minus base) → global trace index.
    migrant_globals: Vec<Vec<u64>>,
    /// Per global request: the shard + local index owning its outcome.
    final_slot: Vec<(usize, u32)>,
}

impl<'p> Coordinator<'p> {
    /// One closed session per shard of `plan`, in shard mode and audited
    /// when `cfg.audit` is set, ready for the first window. Shards build
    /// independently, so each chunk of `workers` builds on the thread that
    /// will step it.
    fn new(
        cfg: &AegaeonConfig,
        models: &[ModelSpec],
        plan: &'p ShardPlan,
        workers: usize,
    ) -> Coordinator<'p> {
        let chunks = even_ranges(plan.cfgs.len(), workers);
        let shards: Vec<usize> = (0..plan.cfgs.len()).collect();
        let sessions = Self::on_chunks(&chunks, shards, |s| {
            let mut session = ServingSession::closed(&plan.cfgs[s], models, &plan.traces[s]);
            session.enable_shard_mode();
            if cfg.audit {
                session.install_auditor(Box::new(InvariantAuditor::new()));
            }
            session
        });
        Coordinator {
            emit: sessions.iter().map(|s| s.earliest_handoff()).collect(),
            base_len: plan.traces.iter().map(|t| t.len()).collect(),
            migrant_globals: vec![Vec::new(); sessions.len()],
            final_slot: plan.home_slot.clone(),
            clock: GrantClock::new(plan.lookahead),
            chunks,
            plan,
            sessions,
        }
    }

    /// One barrier: drain every shard's outbox in shard order and deliver
    /// each handoff to the next shard (cyclic) at `emitted + lookahead`.
    /// Delivery order is part of the deterministic contract: it fixes the
    /// destination shard's trace growth and event-queue tie-breaking.
    ///
    /// # Panics
    ///
    /// Panics if a handoff would land before `grant`, inside the window the
    /// shards just processed: a shard emitted earlier than its emission
    /// bound said it could.
    fn exchange(&mut self, grant: SimTime) {
        let shards = self.sessions.len();
        for src in 0..shards {
            for h in self.sessions[src].take_handoffs() {
                let i = h.req.id.0 as usize;
                let g = if i < self.base_len[src] {
                    self.plan.global_ids[src][i]
                } else {
                    self.migrant_globals[src][i - self.base_len[src]]
                };
                let dst = (src + 1) % shards;
                let at = h.emitted + self.clock.lookahead();
                assert!(
                    at >= grant,
                    "shard {src} handed off at {:?}, landing at {at:?} inside the \
                     window granted to {grant:?}: its emission bound is unsafe",
                    h.emitted
                );
                let local = self.sessions[dst].migrate_in(at, &h);
                debug_assert_eq!(
                    local as usize,
                    self.base_len[dst] + self.migrant_globals[dst].len(),
                    "migrants are admitted densely"
                );
                self.migrant_globals[dst].push(g);
                self.final_slot[g as usize] = (dst, local);
            }
        }
    }

    /// The next conservative window, or `None` when every shard is drained
    /// or halted.
    fn next_window(&mut self) -> Option<aegaeon_sim::GrantWindow> {
        let due = |s: &mut ServingSession| if s.halted() { None } else { s.next_due() };
        let shards = self.sessions.iter_mut().zip(&self.emit);
        self.clock
            .next_window(shards.map(|(s, &emit)| (due(s), emit)))
    }

    /// Maps `f` over `items`, one per shard, with each of `chunks` on its
    /// own scoped thread; the coordinator thread takes the first chunk
    /// itself, so one worker spawns nothing. Results come back in shard
    /// order, and returning is the barrier.
    fn on_chunks<T: Send, R: Send>(
        chunks: &[Range<usize>],
        items: Vec<T>,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R> {
        debug_assert_eq!(chunks.last().map(|r| r.end), Some(items.len()));
        let f = &f;
        let mut items = items.into_iter();
        let mut parts = chunks
            .iter()
            .map(|r| items.by_ref().take(r.len()).collect::<Vec<T>>());
        let mine = parts.next().expect("at least one chunk");
        std::thread::scope(|scope| {
            let rest: Vec<_> = parts
                .map(|part| scope.spawn(move || part.into_iter().map(f).collect::<Vec<R>>()))
                .collect();
            let mut out: Vec<R> = mine.into_iter().map(f).collect();
            for h in rest {
                out.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            out
        })
    }

    /// The window loop; returns each window's grant, in order. Each window
    /// steps the `min(workers, shards)` contiguous chunks of shards on
    /// their threads, then exchanges handoffs.
    fn run(&mut self) -> Vec<SimTime> {
        let mut grants = Vec::new();
        while let Some(w) = self.next_window() {
            grants.push(w.grant);
            let sessions: Vec<&mut ServingSession> = self.sessions.iter_mut().collect();
            Self::on_chunks(&self.chunks, sessions, |s| {
                if !s.halted() {
                    s.step_until(w.limit);
                }
            });
            self.exchange(w.grant);
        }
        grants
    }

    /// Finishes every shard on the thread that stepped it and returns the
    /// results in shard order.
    fn finish(self) -> Vec<RunResult> {
        Self::on_chunks(&self.chunks, self.sessions, ServingSession::into_result)
    }
}

/// Merges per-shard results into one [`RunResult`], deterministically in
/// shard order. Per-request rows are stitched back in *global* trace order,
/// each taken from the shard that finally owned the request (its home
/// shard, or the last shard it migrated to); concatenated per-shard series
/// (GPU busy, fragmentation, utilization samples) follow the contiguous
/// node partition, so GPU ordering matches the unsharded cluster. Token
/// times and series move out of the shard results rather than being
/// copied. The merged result carries disabled observer artifacts
/// (schedule, telemetry); both are excluded from fingerprints. The shards'
/// audit reports merge into one, each violation tagged with its shard.
fn merge(
    models: &[ModelSpec],
    trace: &Trace,
    mut results: Vec<RunResult>,
    final_slot: &[(usize, u32)],
    windows: u64,
) -> RunResult {

    let n = trace.len();
    let mut outcomes = Vec::with_capacity(n);
    let mut kv_sync = Vec::with_capacity(n);
    for (g, r) in trace.requests.iter().enumerate() {
        let (s, local) = final_slot[g];
        let shard = &mut results[s];
        let o = &mut shard.outcomes[local as usize];
        outcomes.push(RequestOutcome {
            id: RequestId(g as u64),
            model: r.model,
            // A migrated request keeps its original arrival: failover is
            // the system's fault, not the client's.
            arrival: r.arrival(),
            token_times: std::mem::take(&mut o.token_times),
            target_tokens: r.output_tokens,
        });
        kv_sync.push(shard.kv_sync_per_request[local as usize]);
    }

    let mut breakdown = aegaeon_metrics::BreakdownAcc::new();
    for r in &results {
        breakdown.merge(&r.breakdown);
    }
    let mut audit: Option<AuditReport> = None;
    for (s, r) in results.iter_mut().enumerate() {
        let Some(rep) = r.audit.take() else {
            continue;
        };
        let merged = audit.get_or_insert_with(AuditReport::default);
        merged.events_checked += rep.events_checked;
        merged.requests_checked += rep.requests_checked;
        merged.books_checked += rep.books_checked;
        merged.blocks_checked += rep.blocks_checked;
        merged.violations.extend(rep.violations.into_iter().map(|v| Violation {
            at: v.at,
            what: format!("shard {s}: {}", v.what),
        }));
    }
    RunResult {
        outcomes,
        horizon: trace.horizon,
        end_time: results
            .iter()
            .map(|r| r.end_time)
            .max()
            .unwrap_or(SimTime::ZERO),
        breakdown,
        scale_latencies: concat(&mut results, |r| &mut r.scale_latencies),
        kv_sync_per_request: kv_sync,
        frag_rows: concat(&mut results, |r| &mut r.frag_rows),
        gpu_busy: concat(&mut results, |r| &mut r.gpu_busy),
        util_samples: concat(&mut results, |r| &mut r.util_samples),
        completed: results.iter().map(|r| r.completed).sum(),
        rejected: results.iter().map(|r| r.rejected).sum(),
        total_requests: n,
        model_count: models.len(),
        models_profiled: results.iter().map(|r| r.models_profiled).sum(),
        scale_count: results.iter().map(|r| r.scale_count).sum(),
        prefetch_hits: results.iter().map(|r| r.prefetch_hits).sum(),
        swaps: results.iter().map(|r| r.swaps).sum(),
        prefix_hits: results.iter().map(|r| r.prefix_hits).sum(),
        prefill_tokens_reused: results.iter().map(|r| r.prefill_tokens_reused).sum(),
        prefill_tokens_recomputed: results.iter().map(|r| r.prefill_tokens_recomputed).sum(),
        events: results.iter().map(|r| r.events).sum(),
        shard_windows: windows,
        schedule: aegaeon_telemetry::SpanLog::disabled(),
        telemetry: aegaeon_telemetry::Telemetry::disabled(),
        audit,
    }
}

/// Moves one per-shard series out of every result into a single vector
/// of exact capacity, in shard order.
fn concat<T>(results: &mut [RunResult], field: impl Fn(&mut RunResult) -> &mut Vec<T>) -> Vec<T> {
    let len = results.iter_mut().map(|r| field(r).len()).sum();
    let mut out = Vec::with_capacity(len);
    for r in results {
        out.append(field(r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::InstKind;
    use aegaeon_gpu::{GpuSpec, NodeSpec};

    fn four_node_cfg() -> AegaeonConfig {
        let mut cfg = AegaeonConfig::paper_testbed();
        cfg.cluster = aegaeon_gpu::ClusterSpec::homogeneous(
            4,
            NodeSpec {
                gpus: 4,
                gpu: GpuSpec::h800(),
                nic_bw: 25e9,
            },
        );
        cfg.prefill_instances = 6;
        cfg
    }

    fn toy_trace(n: usize, models: u32) -> Trace {
        let requests = (0..n)
            .map(|i| {
                Request::single(
                    RequestId(i as u64),
                    ModelId(i as u32 % models),
                    1_000_000_000 * (i as u64 + 1),
                    64,
                    8,
                )
            })
            .collect();
        Trace {
            requests,
            horizon: SimTime::from_secs_f64(60.0),
        }
    }

    #[test]
    fn partition_splits_nodes_contiguously_and_prefill_proportionally() {
        let cfg = four_node_cfg();
        let plan = ShardPlan::partition(&cfg, &toy_trace(12, 6), 4);
        assert_eq!(plan.cfgs.len(), 4);
        for sub in &plan.cfgs {
            assert_eq!(sub.cluster.nodes.len(), 1);
            // 6 prefill over 16 instances → 1–2 per 4-instance shard, and
            // every shard keeps at least one decoder.
            assert!(sub.prefill_instances >= 1);
            assert!(sub.prefill_instances < sub.instance_count());
        }
        let seeds: std::collections::HashSet<u64> = plan.cfgs.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), 4, "per-shard seeds decorrelate");
    }

    #[test]
    fn partition_routes_requests_by_model_home() {
        let cfg = four_node_cfg();
        let trace = toy_trace(20, 8);
        let plan = ShardPlan::partition(&cfg, &trace, 4);
        let total: usize = plan.traces.iter().map(|t| t.len()).sum();
        assert_eq!(total, 20);
        for (s, t) in plan.traces.iter().enumerate() {
            for (local, r) in t.requests.iter().enumerate() {
                assert_eq!(ShardPlan::home_shard(r.model, 4), s);
                assert_eq!(r.id.0 as usize, local, "local ids are dense");
                let g = plan.global_ids[s][local] as usize;
                assert_eq!(trace.requests[g].model, r.model);
                assert_eq!(plan.home_slot[g], (s, local as u32));
            }
            assert_eq!(t.horizon, trace.horizon, "fault horizon is global");
        }
    }

    #[test]
    fn partition_remaps_explicit_crashes_to_local_indices() {
        let mut cfg = four_node_cfg();
        // Global prefill index space is the concatenation of per-shard
        // prefill tiers; the plan above gives shards [2, 1, 2, 1] prefills
        // (6 proportionally over instance counts [4, 4, 4, 4] rounds to 2
        // then clamps... computed below from the plan itself).
        cfg.faults.crashes = vec![(5.0, InstKind::Prefill, 0)];
        let plan = ShardPlan::partition(&cfg, &toy_trace(4, 4), 4);
        assert_eq!(
            plan.cfgs[0].faults.crashes,
            vec![(5.0, InstKind::Prefill, 0)]
        );
        for sub in &plan.cfgs[1..] {
            assert!(sub.faults.crashes.is_empty());
        }
        // A decode crash on the last shard's tier lands there with a local
        // index.
        let decode_total: usize = plan
            .cfgs
            .iter()
            .map(|c| c.instance_count() - c.prefill_instances)
            .sum();
        let mut cfg2 = four_node_cfg();
        cfg2.faults.crashes = vec![(7.0, InstKind::Decode, decode_total as u32 - 1)];
        let plan2 = ShardPlan::partition(&cfg2, &toy_trace(4, 4), 4);
        let last = plan2.cfgs.last().unwrap();
        assert_eq!(last.faults.crashes.len(), 1);
        let (secs, kind, local) = last.faults.crashes[0];
        assert_eq!((secs, kind), (7.0, InstKind::Decode));
        assert!((local as usize) < last.instance_count() - last.prefill_instances);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_rejects_out_of_range_crash() {
        let mut cfg = four_node_cfg();
        cfg.faults.crashes = vec![(5.0, InstKind::Prefill, 99)];
        let _ = ShardPlan::partition(&cfg, &toy_trace(4, 4), 4);
    }

    #[test]
    fn single_shard_run_matches_itself_and_completes() {
        use aegaeon_model::Zoo;
        let cfg = AegaeonConfig::small_testbed(2, 2);
        let zoo = Zoo::standard();
        let models = Zoo::replicate(&zoo.market_band(), 4);
        let trace = toy_trace(10, 4);
        let a = run_sharded(&cfg, &models, &trace, 1, 1);
        let mut b = run_sharded(&cfg, &models, &trace, 1, 4);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.completed, 10);
        assert_eq!(a.total_requests, 10);
        // The window count is observer-only, and single-queue runs take none.
        assert_eq!(a.shard_windows, 1);
        b.shard_windows = 99;
        assert_eq!(a.fingerprint(), b.fingerprint());
        let single = crate::system::ServingSystem::run(&cfg, &models, &trace);
        assert_eq!(single.shard_windows, 0);
    }

    #[test]
    fn window_chunks_split_shards_evenly_and_in_order() {
        for shards in 1..=16 {
            for workers in 1..=shards + 2 {
                let chunks = even_ranges(shards, workers);
                assert_eq!(chunks.len(), workers.min(shards), "{shards}/{workers}");
                let lens: Vec<usize> = chunks.iter().map(|r| r.len()).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(*lo >= 1 && hi - lo <= 1, "{shards}/{workers}: {lens:?}");
                let covered: Vec<usize> = chunks.into_iter().flatten().collect();
                assert_eq!(covered, (0..shards).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn lookahead_is_the_failover_detection_window() {
        let plan = ShardPlan::partition(&four_node_cfg(), &toy_trace(8, 4), 4);
        // A shard emits a handoff no earlier than its own crash schedule
        // first empties a tier, and the peer receives it one failover
        // detection window (two 1 s heartbeat periods) later. So the grant
        // is bounded per shard by max(next due, first tier loss) + this.
        assert_eq!(plan.lookahead, FAILOVER_LATENCY);
        assert_eq!(plan.lookahead, SimDur::from_secs(2));
    }

    /// Runs `cfg` over a small 4-shard market trace and returns each
    /// shard's emission bound and the window grants, in order.
    fn window_schedule(cfg: &AegaeonConfig) -> (Vec<Option<SimTime>>, Vec<SimTime>) {
        use aegaeon_model::Zoo;
        let models = Zoo::replicate(&Zoo::standard().market_band(), 8);
        let trace = toy_trace(40, 8);
        let plan = ShardPlan::partition(cfg, &trace, 4);
        let mut coord = Coordinator::new(cfg, &models, &plan, 2);
        let emit = coord.emit.clone();
        let grants = coord.run();
        (emit, grants)
    }

    #[test]
    fn healthy_and_stochastic_chaos_runs_take_one_window() {
        let mut cfg = four_node_cfg();
        let (emit, grants) = window_schedule(&cfg);
        assert_eq!(emit, vec![None; 4]);
        assert_eq!(grants, vec![SimTime::MAX]);
        // Stochastic crashes never empty a tier, however fast they come.
        cfg.faults = crate::chaos::FaultPlan {
            seed: 5,
            crash_rate_prefill: 1.0,
            crash_rate_decode: 1.0,
            stall_rate: 0.1,
            ..crate::chaos::FaultPlan::none()
        };
        let (emit, grants) = window_schedule(&cfg);
        assert_eq!(emit, vec![None; 4]);
        assert_eq!(grants, vec![SimTime::MAX]);
    }

    #[test]
    fn tier_loss_windows_start_at_the_loss() {
        let mut cfg = four_node_cfg();
        let probe = ShardPlan::partition(&cfg, &toy_trace(40, 8), 4);
        // Shard 2's decode tier dies at 20 s; its global decode indexes
        // follow shards 0 and 1's.
        let before: usize = probe.cfgs[..2]
            .iter()
            .map(|c| c.instance_count() - c.prefill_instances)
            .sum();
        let n = probe.cfgs[2].instance_count() - probe.cfgs[2].prefill_instances;
        cfg.faults = crate::chaos::FaultPlan::crashes(
            &(before..before + n)
                .map(|i| (20.0, InstKind::Decode, i as u32))
                .collect::<Vec<_>>(),
        );
        let (emit, grants) = window_schedule(&cfg);
        let loss = SimTime::from_secs_f64(20.0);
        assert_eq!(emit, vec![None, None, Some(loss), None]);
        assert!(grants.len() > 1, "a tier loss windows the run: {grants:?}");
        assert_eq!(grants[0], loss + FAILOVER_LATENCY);
        for pair in grants.windows(2) {
            assert!(pair[0] < pair[1], "grants advance: {grants:?}");
        }
        assert!(grants.iter().all(|&g| g >= loss + FAILOVER_LATENCY));
    }
}
