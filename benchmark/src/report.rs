//! Metric specifications, measured values, correctness gates, and the
//! printed and JSON forms of one workload's result.

use serde_json::{json, Map, Value as Json};

use crate::spans::{self, Span};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The contract spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the serving system sees.
#[derive(Debug, Clone, Copy)]
pub struct E2eSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen; `None` for a
    /// value checked only for bit-equality at a fixed seed.
    pub bound: Option<f64>,
    /// True when every workload reports it (and so the contract JSON line
    /// carries it); false for metrics only some workloads define.
    pub contract: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    contract: bool,
) -> E2eSpec {
    E2eSpec {
        name,
        unit,
        better,
        bound,
        contract,
    }
}

/// End-to-end metrics. The contract ones are printed by every workload.
pub const END_TO_END: &[E2eSpec] = &[
    e2e("setup_s", "s", Lower, Some(0.25), true),
    e2e("req_per_s", "req/s", Higher, Some(0.25), true),
    e2e("cpu_us_per_tok", "us", Lower, Some(0.25), true),
    e2e("peak_rss_mib", "MiB", Lower, Some(0.10), true),
    e2e("slo_attainment", "fraction", Higher, Some(0.05), true),
    e2e("ttft_ms_p50", "ms", Lower, Some(0.25), true),
    e2e("ttft_ms_p90", "ms", Lower, Some(0.25), true),
    e2e("ttft_ms_p99", "ms", Lower, Some(0.25), false),
    e2e("max_rps_at_slo", "req/s/model", Higher, None, false),
    e2e("failed_share", "fraction", Lower, Some(0.0), false),
    e2e("ttft_samples", "count", Higher, None, false),
];

/// A per-layer metric of the traced run, with the end-to-end metric and
/// workload it should move.
#[derive(Debug, Clone, Copy)]
pub struct LayerSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// True when every workload measures it (the contract JSON line).
    pub contract: bool,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    contract: bool,
    moves: &'static str,
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        contract,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, in ledger order.
pub const PER_LAYER: &[LayerSpec] = &[
    layer("sim.queue.ns_per_op", "ns", Lower, true, "req_per_s on market, agentic, sharded, by at most sim.queue.share"),
    layer("sim.queue.share", "fraction", Lower, true, "bounds what a queue change can give req_per_s on the sim workloads"),
    layer("workload.gen_s", "s", Lower, true, "setup_s on the sim workloads"),
    layer("core.setup_s", "s", Lower, true, "setup_s on market, agentic, observed, sharded"),
    layer("core.finish_s", "s", Lower, true, "req_per_s on market, agentic, observed"),
    layer("core.dispatch.events", "count", Lower, true, "req_per_s on every sim workload (events are the unit of work)"),
    layer("core.dispatch.ns_per_event", "ns", Lower, true, "req_per_s on market, agentic, sharded"),
    layer("core.dispatch.events_per_s", "1/s", Higher, true, "req_per_s on market, agentic, sharded"),
    layer("core.dispatch.chunk_ms_p50", "ms", Lower, true, "req_per_s on the sim workloads; ttft_ms_* on gateway (gw-sim steps in chunks)"),
    layer("core.dispatch.chunk_ms_p99", "ms", Lower, true, "ttft_ms_p90 and ttft_ms_p99 on gateway; req_per_s on the sim workloads"),
    layer("core.dispatch.ns_per_event.low", "ns", Lower, false, "req_per_s on market (Aegaeon at 0.25 rps/model)"),
    layer("core.dispatch.ns_per_event.high", "ns", Lower, false, "req_per_s on market (Aegaeon at 1.0 rps/model); .high/.low shows how dispatch cost scales with load"),
    layer("metrics.attainment_s", "s", Lower, true, "no end-to-end metric: scoring runs outside the timed phase"),
    layer("core.aegaeon.run_s", "s", Lower, false, "req_per_s on market"),
    layer("baselines.serverless.run_s", "s", Lower, false, "req_per_s on market"),
    layer("baselines.muxserve.run_s", "s", Lower, false, "req_per_s on market"),
    layer("engine.scale_ups", "count", Lower, true, "slo_attainment (policy change); bit-equal under a pure speed change"),
    layer("engine.prefetch_hit_ratio", "fraction", Higher, true, "slo_attainment (policy change); bit-equal under a pure speed change"),
    layer("mem.kv_swaps", "count", Lower, true, "slo_attainment (policy change); bit-equal under a pure speed change"),
    layer("mem.kv_sync_ms_p50", "ms", Lower, false, "slo_attainment, ttft_ms_* on the sim workloads (policy change)"),
    layer("gpu.mean_util", "fraction", Higher, true, "slo_attainment (policy change); bit-equal under a pure speed change"),
    layer("core.completed_share", "fraction", Higher, true, "slo_attainment (policy change); bit-equal under a pure speed change"),
    layer("core.sessionbook.prefix_hit_rate", "fraction", Higher, true, "slo_attainment and ttft_ms_* on agentic (0 without sessions)"),
    layer("core.sessionbook.tokens_reused", "count", Higher, true, "slo_attainment on agentic (0 without sessions)"),
    layer("core.sessionbook.tokens_recomputed", "count", Lower, true, "slo_attainment on agentic (0 without sessions)"),
    layer("observers.audit_tax_pct", "%", Lower, true, "req_per_s on observed; cpu_us_per_tok on gateway (0 where the auditor is off)"),
    layer("observers.telemetry_tax_pct", "%", Lower, true, "req_per_s on observed; cpu_us_per_tok on gateway (0 where telemetry is off)"),
    layer("observers.audit_events_checked", "count", Lower, true, "req_per_s on observed (0 where the auditor is off)"),
    layer("observers.audit_tax_pct.fullscan", "%", Lower, false, "req_per_s on observed (trace under the 2,048-request full-scan threshold)"),
    layer("observers.audit_tax_pct.windowed", "%", Lower, false, "req_per_s on observed (windowed auditor)"),
    layer("observers.telemetry_tax_pct.fullscan", "%", Lower, false, "req_per_s on observed"),
    layer("observers.telemetry_tax_pct.windowed", "%", Lower, false, "req_per_s on observed"),
    layer("shard.window_overhead_pct", "%", Lower, true, "req_per_s on sharded (0 for single-queue runs)"),
    layer("shard.partition_s", "s", Lower, false, "setup_s on sharded"),
    layer("shard.imbalance", "ratio", Lower, false, "req_per_s on sharded"),
    layer("shard.event_imbalance", "ratio", Lower, false, "req_per_s on sharded"),
    layer("shard.parallel_speedup", "ratio", Higher, false, "req_per_s on sharded"),
    layer("shard.ideal_speedup", "ratio", Higher, false, "the ceiling on shard.parallel_speedup"),
    layer("gateway.head_ms_p50", "ms", Lower, false, "ttft_ms_* on gateway (admission path)"),
    layer("gateway.http.parse_ns", "ns", Lower, false, "ttft_ms_* and cpu_us_per_tok on gateway (per request)"),
    layer("gateway.api.parse_ns", "ns", Lower, false, "ttft_ms_* and cpu_us_per_tok on gateway (per request)"),
    layer("gateway.api.chunk_ns", "ns", Lower, false, "cpu_us_per_tok on gateway (per token)"),
    layer("gateway.sse.event_ns", "ns", Lower, false, "cpu_us_per_tok on gateway (per token)"),
    layer("gateway.ring.ns", "ns", Lower, false, "cpu_us_per_tok on gateway (per token)"),
    layer("gateway.outbuf.ns", "ns", Lower, false, "cpu_us_per_tok on gateway (per token)"),
    layer("gateway.sim_thread.cpu_us_per_tok", "us", Lower, false, "cpu_us_per_tok and req_per_s on gateway"),
    layer("gateway.io_thread.cpu_us_per_tok", "us", Lower, false, "cpu_us_per_tok and req_per_s on gateway"),
    layer("gateway.ctx_switches_per_tok", "count", Lower, false, "cpu_us_per_tok and ttft_ms_* on gateway"),
    layer("gateway.sim_lag_s", "s", Lower, false, "ttft_ms_* on gateway (sim time trailing the warped clock)"),
    layer("trace.overhead_pct", "%", Lower, true, "none: the cost of recording the spans themselves"),
];

/// The clock a number was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock or CPU accounting.
    Wall,
    /// Simulated time, or a count of simulated behaviour.
    Sim,
}

/// One measured metric value.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name (a name from [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Clock it was read from.
    pub clock: Clock,
    /// True when a fixed seed reproduces it bit for bit.
    pub deterministic: bool,
}

impl Value {
    /// A host-clock measurement.
    pub fn wall(name: &'static str, value: f64) -> Value {
        Value {
            name,
            value,
            clock: Clock::Wall,
            deterministic: false,
        }
    }

    /// A simulated-clock value that a fixed seed reproduces exactly.
    pub fn sim(name: &'static str, value: f64) -> Value {
        Value {
            name,
            value,
            clock: Clock::Sim,
            deterministic: true,
        }
    }

    /// A simulated-clock value that depends on wall timing (the live
    /// gateway stamps arrivals off the warped wall clock).
    pub fn sim_live(name: &'static str, value: f64) -> Value {
        Value {
            name,
            value,
            clock: Clock::Sim,
            deterministic: false,
        }
    }

    /// Unit from the spec tables.
    pub fn unit(&self) -> &'static str {
        unit_of(self.name)
    }
}

/// Unit of a named metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.unit)
        .or_else(|| PER_LAYER.iter().find(|s| s.name == name).map(|s| s.unit))
        .unwrap_or_else(|| panic!("metric {name} is not in the spec tables"))
}

/// One named correctness gate and its tally.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// What was checked.
    pub name: String,
    /// Times checked.
    pub checks: u64,
    /// Times it failed.
    pub failures: u64,
    /// Detail of the first failure.
    pub first_failure: Option<String>,
}

/// Correctness gates plus the attempted/failed operation count. An
/// operation is a run (sim workloads), a stream (gateway), or a
/// workload-level check; it fails when any gate checked for it fails.
#[derive(Debug, Default)]
pub struct Gates {
    /// Gate tallies in first-check order.
    pub rows: Vec<GateRow>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Gates {
    /// Records one check of `name` and returns `ok`.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        let row = match self.rows.iter_mut().position(|r| r.name == name) {
            Some(i) => &mut self.rows[i],
            None => {
                self.rows.push(GateRow {
                    name: name.to_string(),
                    checks: 0,
                    failures: 0,
                    first_failure: None,
                });
                self.rows.last_mut().expect("just pushed")
            }
        };
        row.checks += 1;
        if !ok {
            row.failures += 1;
            if row.first_failure.is_none() {
                row.first_failure = Some(detail());
            }
        }
        ok
    }

    /// Counts one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// A workload-level check that is its own operation.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        let ok = self.check(name, ok, detail);
        self.op(ok);
        ok
    }

    /// True when no gate failed and no operation failed.
    pub fn all_ok(&self) -> bool {
        self.failed == 0 && self.rows.iter().all(|r| r.failures == 0)
    }
}

/// Everything one workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end values (contract metrics plus workload-specific ones).
    pub e2e: Vec<Value>,
    /// Per-layer values (traced runs only).
    pub layers: Vec<Value>,
    /// Correctness gates and operation counts.
    pub gates: Gates,
    /// Extra report lines (run shape, stalls, sample counts).
    pub notes: Vec<String>,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Adds a per-layer value unless the workload already set it.
    pub fn layer_default(&mut self, v: Value) {
        if !self.layers.iter().any(|l| l.name == v.name) {
            self.layers.push(v);
        }
    }
}

fn clock_str(c: Clock) -> &'static str {
    match c {
        Clock::Wall => "wall",
        Clock::Sim => "sim",
    }
}

/// Human-readable report (everything before the final JSON line).
pub fn print_human(workload: &str, out: &Outcome, traced: bool) {
    println!("end-to-end ({workload})");
    for spec in END_TO_END {
        if let Some(v) = out.e2e.iter().find(|v| v.name == spec.name) {
            println!(
                "  {:<16} {:>16.6} {:<12} {:<5} better {:<6} bound {}",
                v.name,
                v.value,
                v.unit(),
                clock_str(v.clock),
                spec.better.as_str(),
                spec.bound
                    .map_or("bit-equal per seed".to_string(), |b| b.to_string())
            );
        }
    }
    for n in &out.notes {
        println!("  note: {n}");
    }
    println!("gates");
    for g in &out.gates.rows {
        let verdict = if g.failures == 0 { "ok  " } else { "FAIL" };
        print!(
            "  {verdict} {:<52} {}/{}",
            g.name,
            g.checks - g.failures,
            g.checks
        );
        match &g.first_failure {
            Some(f) => println!("  first failure: {f}"),
            None => println!(),
        }
    }
    println!(
        "  operations: {} attempted, {} failed",
        out.gates.attempted, out.gates.failed
    );
    if !traced {
        return;
    }
    println!("per-layer ledger ({workload})");
    for spec in PER_LAYER {
        if let Some(v) = out.layers.iter().find(|v| v.name == spec.name) {
            println!(
                "  {:<38} {:>16.6} {:<8} {:<4} {:<6} moves {}",
                v.name,
                v.value,
                spec.unit,
                clock_str(v.clock),
                spec.better.as_str(),
                spec.moves
            );
        }
    }
    println!("span self times ({} spans)", out.spans.len());
    println!(
        "  {:<24} {:>8} {:>12} {:>12}",
        "span", "count", "total s", "self s"
    );
    for r in spans::self_times(&out.spans) {
        println!(
            "  {:<24} {:>8} {:>12.6} {:>12.6}",
            r.name, r.count, r.total_s, r.self_s
        );
    }
}

fn metrics_json(values: &[&Value], detailed: bool) -> Json {
    let mut m = Map::new();
    for v in values {
        let mut entry = Map::new();
        entry.insert("value".into(), json!(v.value));
        entry.insert("unit".into(), json!(v.unit()));
        if detailed {
            entry.insert("clock".into(), json!(clock_str(v.clock)));
            entry.insert("deterministic".into(), json!(v.deterministic));
        }
        m.insert(v.name.to_string(), Json::Object(entry));
    }
    Json::Object(m)
}

/// The contract result line: `correct`, `attempted`, `failed`, and the
/// contract metrics (end-to-end untraced, per-layer traced).
pub fn contract_line(out: &Outcome, traced: bool) -> String {
    let values: Vec<&Value> = if traced {
        PER_LAYER
            .iter()
            .filter(|s| s.contract)
            .filter_map(|s| out.layers.iter().find(|v| v.name == s.name))
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|s| s.contract)
            .filter_map(|s| out.e2e.iter().find(|v| v.name == s.name))
            .collect()
    };
    let doc = json!({
        "correct": out.gates.all_ok(),
        "attempted": out.gates.attempted,
        "failed": out.gates.failed,
        "metrics": metrics_json(&values, false),
    });
    serde_json::to_string(&doc).expect("in-memory JSON serializes")
}

/// The full record written by `--json OUT` and read by `--compare`.
pub fn record_json(
    workload: &str,
    seed: u64,
    seconds: f64,
    nproc: usize,
    traced: bool,
    out: &Outcome,
) -> String {
    let all: Vec<&Value> = out.e2e.iter().chain(&out.layers).collect();
    let doc = json!({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": nproc,
        "traced": traced,
        "correct": out.gates.all_ok(),
        "attempted": out.gates.attempted,
        "failed": out.gates.failed,
        "metrics": metrics_json(&all, true),
    });
    serde_json::to_string_pretty(&doc).expect("in-memory JSON serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract file at the repository root must list exactly the
    /// contract metrics of these tables, with the same units, directions
    /// and bounds.
    #[test]
    fn benchmark_json_matches_spec_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let Json::Object(doc) = serde_json::from_str::<Json>(text).expect("BENCHMARK.json parses")
        else {
            panic!("BENCHMARK.json is not an object");
        };
        let list = |key: &str| -> Vec<Map> {
            match doc.get(key) {
                Some(Json::Array(a)) => a
                    .iter()
                    .map(|e| match e {
                        Json::Object(m) => m.clone(),
                        _ => panic!("{key} entry is not an object"),
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let s = |m: &Map, k: &str| match m.get(k) {
            Some(Json::String(s)) => s.clone(),
            other => panic!("{k}: {other:?}"),
        };
        let e2e = list("end_to_end");
        let want: Vec<&E2eSpec> = END_TO_END.iter().filter(|s| s.contract).collect();
        assert_eq!(e2e.len(), want.len());
        for (m, spec) in e2e.iter().zip(want) {
            assert_eq!(s(m, "name"), spec.name);
            assert_eq!(s(m, "unit"), spec.unit);
            assert_eq!(s(m, "better"), spec.better.as_str());
            let bound = match m.get("bound") {
                Some(Json::F64(b)) => *b,
                Some(Json::U64(b)) => *b as f64,
                other => panic!("bound: {other:?}"),
            };
            assert_eq!(Some(bound), spec.bound, "{}", spec.name);
        }
        let layers = list("per_layer");
        let want: Vec<&LayerSpec> = PER_LAYER.iter().filter(|s| s.contract).collect();
        assert_eq!(layers.len(), want.len());
        for (m, spec) in layers.iter().zip(want) {
            assert_eq!(s(m, "name"), spec.name);
            assert_eq!(s(m, "unit"), spec.unit);
            assert_eq!(s(m, "better"), spec.better.as_str());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|s| s.name)
            .chain(PER_LAYER.iter().map(|s| s.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn gates_count_operations_and_first_failure() {
        let mut g = Gates::default();
        let a = g.check("x", true, || unreachable!());
        let b = g.check("x", false, || "first".into());
        g.check("x", false, || "second".into());
        g.op(a && b);
        g.gate("y", true, String::new);
        assert_eq!((g.attempted, g.failed), (2, 1));
        assert_eq!(g.rows[0].first_failure.as_deref(), Some("first"));
        assert_eq!((g.rows[0].checks, g.rows[0].failures), (3, 2));
        assert!(!g.all_ok());
    }
}
