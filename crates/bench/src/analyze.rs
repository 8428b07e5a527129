//! Post-run SLO analysis: the library behind `aegaeon-analyze`.
//!
//! Consumes the SLO observatory document (the gateway's `GET /v1/slo` body
//! / [`aegaeon_telemetry::slo_json`] output) plus, optionally, a gateway
//! bench report (`BENCH_gateway_throughput.json`) and renders one post-run
//! report as markdown and JSON: per-model attainment (cumulative and over
//! time), TTFT/TBT percentile tables, the switch-cost attribution
//! breakdown, and reactor balance.
//!
//! Everything here is deterministic for a given input (rows render in
//! input order, floats with fixed precision), so reports are golden-
//! testable byte for byte. CI runs the consistency gate
//! ([`Analysis::consistency_errors`]) on every soak/sweep artifact:
//! quantiles must be monotone (p50 ≤ p90 ≤ p99), attainment must lie in
//! [0, 1], and met-token counts can never exceed token counts.

use std::fmt::Write as _;

use serde_json::{Map, Value};

/// One model's cumulative SLO standing.
#[derive(Debug, Clone)]
pub(crate) struct ModelSlo {
    /// Model name (`m0`, `m1`, …).
    pub(crate) model: String,
    /// Completed requests.
    pub(crate) requests: u64,
    /// Tokens counted: those of completed requests, plus the tokens
    /// unfinished requests owed by the horizon once the run has finished.
    pub(crate) tokens: u64,
    /// Tokens produced by their SLO deadline.
    pub(crate) tokens_met: u64,
    /// `tokens_met / tokens` (1.0 when no tokens).
    pub(crate) attainment: f64,
}

/// One sealed observatory window for one model.
#[derive(Debug, Clone)]
pub(crate) struct WindowRow {
    /// Window end, sim nanoseconds.
    pub(crate) window_end_ns: u64,
    /// Model name.
    pub(crate) model: String,
    /// Requests retired in the window.
    pub(crate) requests: u64,
    /// Tokens produced in the window.
    pub(crate) tokens: u64,
    /// Tokens on deadline in the window.
    pub(crate) tokens_met: u64,
    /// TTFT p50/p90/p99 seconds.
    pub(crate) ttft: [f64; 3],
    /// TBT p50/p90/p99 seconds.
    pub(crate) tbt: [f64; 3],
    /// Window attainment.
    pub(crate) attainment: f64,
    /// Window goodput, tokens per second.
    pub(crate) goodput_tps: f64,
}

/// One switch-cost attribution cell.
#[derive(Debug, Clone)]
pub(crate) struct AttribRow {
    /// Instance name (`p0`…, `d0`…).
    pub(crate) instance: String,
    /// Model name.
    pub(crate) model: String,
    /// Cost kind (`model_switch`, `kv_swap_in`, …).
    pub(crate) kind: String,
    /// Attributed seconds.
    pub(crate) secs: f64,
}

/// One model's cumulative agentic-session standing.
#[derive(Debug, Clone)]
pub struct SessionRow {
    /// Model name.
    pub(crate) model: String,
    /// Session turns retired.
    pub(crate) turns: u64,
    /// Turns that prefilled only their delta off a retained prefix.
    pub(crate) prefix_hits: u64,
    /// Deepest session (turn count) observed.
    pub(crate) max_depth: u64,
    /// `prefix_hits / turns`.
    pub(crate) hit_rate: f64,
    /// Turn-latency p50/p90/p99 seconds (arrival → final token per turn;
    /// think gaps excluded by construction).
    pub(crate) latency: [f64; 3],
}

/// The slice of a gateway bench report the analysis uses.
#[derive(Debug, Clone, Default)]
pub(crate) struct BenchRow {
    /// Requests offered by the load generator.
    pub(crate) offered: u64,
    /// Streams completed with the DONE sentinel.
    pub(crate) completed: u64,
    /// 429 rejections.
    pub(crate) rejected: u64,
    /// Client-side goodput, tokens per second.
    pub(crate) goodput_tps: f64,
    /// Client-observed TTFT p50/p90/p99 seconds.
    pub(crate) ttft: [f64; 3],
    /// Client-observed TBT p50/p90/p99 seconds.
    pub(crate) tbt: [f64; 3],
    /// Peak concurrent streams per reactor.
    pub(crate) per_reactor_peak: Vec<u64>,
    /// max/min of the per-reactor peaks.
    pub(crate) balance: f64,
}

/// A parsed, cross-checked post-run analysis.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Per-model cumulative standing (input order).
    pub(crate) models: Vec<ModelSlo>,
    /// Sealed windows (input order: time, then model).
    pub(crate) windows: Vec<WindowRow>,
    /// Attribution ledger rows (input order: instance, model, kind).
    pub(crate) attribution: Vec<AttribRow>,
    /// Per-model agentic-session series (models with no turns omitted).
    pub sessions: Vec<SessionRow>,
    /// Total useful seconds (prefill + decode execution).
    pub(crate) useful_secs: f64,
    /// Total overhead seconds (switches + KV swaps).
    pub(crate) overhead_secs: f64,
    /// Gateway bench summary, when a bench report was provided.
    pub(crate) bench: Option<BenchRow>,
}

// ---- Value accessors for the vendored serde_json's owned tree -------------

fn field<'a>(v: &'a Value, k: &str) -> Option<&'a Value> {
    match v {
        Value::Object(m) => m.get(k),
        _ => None,
    }
}

fn get_f64(v: &Value, k: &str) -> f64 {
    match field(v, k) {
        Some(Value::F64(x)) => *x,
        Some(Value::U64(x)) => *x as f64,
        Some(Value::I64(x)) => *x as f64,
        _ => f64::NAN,
    }
}

fn get_u64(v: &Value, k: &str) -> u64 {
    match field(v, k) {
        Some(Value::U64(x)) => *x,
        _ => 0,
    }
}

fn get_str<'a>(v: &'a Value, k: &str) -> &'a str {
    match field(v, k) {
        Some(Value::String(s)) => s.as_str(),
        _ => "",
    }
}

fn quantiles(v: &Value, prefix: &str) -> [f64; 3] {
    [
        get_f64(v, &format!("{prefix}_p50")),
        get_f64(v, &format!("{prefix}_p90")),
        get_f64(v, &format!("{prefix}_p99")),
    ]
}

fn window_row(v: &Value) -> WindowRow {
    WindowRow {
        window_end_ns: get_u64(v, "window_end_ns"),
        model: get_str(v, "model").to_string(),
        requests: get_u64(v, "requests"),
        tokens: get_u64(v, "tokens"),
        tokens_met: get_u64(v, "tokens_met"),
        ttft: quantiles(v, "ttft"),
        tbt: quantiles(v, "tbt"),
        attainment: get_f64(v, "attainment"),
        goodput_tps: get_f64(v, "goodput_tps"),
    }
}

fn model_slo(v: &Value) -> ModelSlo {
    ModelSlo {
        model: get_str(v, "model").to_string(),
        requests: get_u64(v, "requests"),
        tokens: get_u64(v, "tokens"),
        tokens_met: get_u64(v, "tokens_met"),
        attainment: get_f64(v, "attainment"),
    }
}

fn session_row(v: &Value) -> SessionRow {
    SessionRow {
        model: get_str(v, "model").to_string(),
        turns: get_u64(v, "turns"),
        prefix_hits: get_u64(v, "prefix_hits"),
        max_depth: get_u64(v, "max_depth"),
        hit_rate: get_f64(v, "prefix_hit_rate"),
        latency: quantiles(v, "turn_latency"),
    }
}

fn attrib_row(v: &Value) -> AttribRow {
    AttribRow {
        instance: get_str(v, "instance").to_string(),
        model: get_str(v, "model").to_string(),
        kind: get_str(v, "kind").to_string(),
        secs: get_f64(v, "secs"),
    }
}

fn push_attain_err(errs: &mut Vec<String>, what: &str, a: f64) {
    if !(0.0..=1.0).contains(&a) {
        errs.push(format!("{what}: attainment {a} outside [0, 1]"));
    }
}

impl Analysis {
    /// Parses the SLO document: the single `/v1/slo` object that
    /// [`aegaeon_telemetry::slo_json`] renders. Anything else — including a
    /// telemetry JSONL dump, which carries no SLO rows — is an error, so
    /// the analyzer never reports on an empty document.
    pub fn from_slo_text(text: &str) -> Result<Analysis, String> {
        let doc = serde_json::from_str::<Value>(text.trim())
            .map_err(|e| format!("not one JSON object (the /v1/slo document): {e}"))?;
        if field(&doc, "models").is_none() && field(&doc, "windows").is_none() {
            return Err("not an SLO document: no `models` or `windows` array".to_string());
        }
        Ok(Self::from_slo_value(&doc))
    }

    /// Builds the analysis from the parsed `/v1/slo` object.
    pub(crate) fn from_slo_value(doc: &Value) -> Analysis {
        fn rows<T>(doc: &Value, k: &str, f: fn(&Value) -> T) -> Vec<T> {
            match field(doc, k) {
                Some(Value::Array(items)) => items.iter().map(f).collect(),
                _ => Vec::new(),
            }
        }
        Analysis {
            models: rows(doc, "models", model_slo),
            windows: rows(doc, "windows", window_row),
            attribution: rows(doc, "attribution", attrib_row),
            sessions: rows(doc, "sessions", session_row),
            useful_secs: get_f64(doc, "useful_secs"),
            overhead_secs: get_f64(doc, "overhead_secs"),
            bench: None,
        }
    }

    /// Attaches a gateway bench report (`BENCH_gateway_throughput.json`).
    pub fn with_bench_value(mut self, doc: &Value) -> Analysis {
        let q = |k: &str| match field(doc, k) {
            Some(o) => [get_f64(o, "p50"), get_f64(o, "p90"), get_f64(o, "p99")],
            None => [f64::NAN; 3],
        };
        let peaks = match field(doc, "per_reactor_peak_streams") {
            Some(Value::Array(items)) => items
                .iter()
                .filter_map(|v| match v {
                    Value::U64(p) => Some(*p),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        self.bench = Some(BenchRow {
            offered: get_u64(doc, "offered_requests"),
            completed: get_u64(doc, "completed"),
            rejected: get_u64(doc, "rejected"),
            goodput_tps: get_f64(doc, "goodput_tokens_per_sec"),
            ttft: q("ttft_secs"),
            tbt: q("tbt_secs"),
            per_reactor_peak: peaks,
            balance: get_f64(doc, "reactor_balance_max_over_min"),
        });
        self
    }

    /// The CI gate: every internal-consistency violation in the report.
    /// Empty means the artifact is trustworthy.
    pub fn consistency_errors(&self) -> Vec<String> {
        let mut errs = Vec::new();
        for m in &self.models {
            push_attain_err(&mut errs, &format!("model {}", m.model), m.attainment);
            if m.tokens_met > m.tokens {
                errs.push(format!(
                    "model {}: tokens_met {} > tokens {}",
                    m.model, m.tokens_met, m.tokens
                ));
            }
        }
        for w in &self.windows {
            let tag = format!("window {}ns {}", w.window_end_ns, w.model);
            push_attain_err(&mut errs, &tag, w.attainment);
            if w.tokens_met > w.tokens {
                errs.push(format!(
                    "{tag}: tokens_met {} > tokens {}",
                    w.tokens_met, w.tokens
                ));
            }
            for (name, q) in [("ttft", &w.ttft), ("tbt", &w.tbt)] {
                if !(q[0] <= q[1] && q[1] <= q[2]) {
                    errs.push(format!(
                        "{tag}: {name} quantiles not monotone: {} / {} / {}",
                        q[0], q[1], q[2]
                    ));
                }
            }
        }
        for r in &self.attribution {
            if r.secs < 0.0 || !r.secs.is_finite() {
                errs.push(format!(
                    "attribution {}/{}/{}: negative or non-finite seconds {}",
                    r.instance, r.model, r.kind, r.secs
                ));
            }
        }
        for s in &self.sessions {
            let tag = format!("sessions {}", s.model);
            if s.prefix_hits > s.turns {
                errs.push(format!(
                    "{tag}: prefix_hits {} > turns {}",
                    s.prefix_hits, s.turns
                ));
            }
            if !(0.0..=1.0).contains(&s.hit_rate) {
                errs.push(format!("{tag}: hit rate {} outside [0, 1]", s.hit_rate));
            }
            if s.turns > 0 && !(s.latency[0] <= s.latency[1] && s.latency[1] <= s.latency[2]) {
                errs.push(format!(
                    "{tag}: turn-latency quantiles not monotone: {} / {} / {}",
                    s.latency[0], s.latency[1], s.latency[2]
                ));
            }
        }
        if let Some(b) = &self.bench {
            for (name, q) in [("ttft_secs", &b.ttft), ("tbt_secs", &b.tbt)] {
                if !(q[0] <= q[1] && q[1] <= q[2]) {
                    errs.push(format!(
                        "bench: {name} quantiles not monotone: {} / {} / {}",
                        q[0], q[1], q[2]
                    ));
                }
            }
            if b.completed > b.offered {
                errs.push(format!(
                    "bench: completed {} > offered {}",
                    b.completed, b.offered
                ));
            }
            if !b.per_reactor_peak.is_empty()
                && b.per_reactor_peak.iter().all(|&p| p > 0)
                && b.balance < 1.0
            {
                errs.push(format!("bench: reactor balance {} < 1", b.balance));
            }
        }
        errs
    }

    /// Per-kind attribution totals, in the fixed kind order with any
    /// unknown kinds appended (seconds summed across instances and models).
    pub(crate) fn kind_totals(&self) -> Vec<(String, f64)> {
        const ORDER: [&str; 5] = [
            "model_switch",
            "kv_swap_out",
            "kv_swap_in",
            "prefill_exec",
            "decode_exec",
        ];
        let mut out: Vec<(String, f64)> = ORDER.iter().map(|k| (k.to_string(), 0.0)).collect();
        for r in &self.attribution {
            match out.iter_mut().find(|(k, _)| *k == r.kind) {
                Some((_, secs)) => *secs += r.secs,
                None => out.push((r.kind.clone(), r.secs)),
            }
        }
        out
    }

    /// Renders the markdown report. Deterministic for a given analysis.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# SLO observatory report\n");

        out.push_str("\n## Per-model SLO attainment (cumulative)\n\n");
        if self.models.is_empty() {
            out.push_str("_no models observed_\n");
        } else {
            out.push_str("| model | requests | tokens | tokens met | attainment |\n");
            out.push_str("|---|---:|---:|---:|---:|\n");
            for m in &self.models {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {:.4} |",
                    m.model, m.requests, m.tokens, m.tokens_met, m.attainment
                );
            }
        }

        out.push_str("\n## Attainment and latency over time\n\n");
        if self.windows.is_empty() {
            out.push_str("_no sealed windows_\n");
        } else {
            out.push_str(
                "| window end (s) | model | requests | attainment | goodput (tok/s) \
                 | ttft p50/p90/p99 (s) | tbt p50/p90/p99 (s) |\n",
            );
            out.push_str("|---:|---|---:|---:|---:|---|---|\n");
            for w in &self.windows {
                let _ = writeln!(
                    out,
                    "| {:.1} | {} | {} | {:.4} | {:.1} | {:.4} / {:.4} / {:.4} | {:.4} / {:.4} / {:.4} |",
                    w.window_end_ns as f64 / 1e9,
                    w.model,
                    w.requests,
                    w.attainment,
                    w.goodput_tps,
                    w.ttft[0],
                    w.ttft[1],
                    w.ttft[2],
                    w.tbt[0],
                    w.tbt[1],
                    w.tbt[2],
                );
            }
        }

        out.push_str("\n## Switch-cost attribution\n\n");
        let total = self.useful_secs + self.overhead_secs;
        if self.attribution.is_empty() {
            out.push_str("_no attributed GPU time_\n");
        } else {
            out.push_str("| kind | seconds | share |\n|---|---:|---:|\n");
            for (kind, secs) in self.kind_totals() {
                let share = if total > 0.0 { secs / total } else { 0.0 };
                let _ = writeln!(out, "| {kind} | {secs:.3} | {:.1}% |", share * 100.0);
            }
            let overhead_share = if total > 0.0 {
                self.overhead_secs / total
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "\nUseful {:.3}s, overhead {:.3}s ({:.1}% of attributed GPU time).\n",
                self.useful_secs,
                self.overhead_secs,
                overhead_share * 100.0
            );
            out.push_str("### Per-instance cells\n\n");
            out.push_str("| instance | model | kind | seconds |\n|---|---|---|---:|\n");
            for r in &self.attribution {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {:.3} |",
                    r.instance, r.model, r.kind, r.secs
                );
            }
        }

        if !self.sessions.is_empty() {
            out.push_str("\n## Agentic sessions\n\n");
            out.push_str(
                "| model | turns | prefix hits | hit rate | max depth \
                 | turn latency p50/p90/p99 (s) |\n",
            );
            out.push_str("|---|---:|---:|---:|---:|---|\n");
            for s in &self.sessions {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {:.4} | {} | {:.4} / {:.4} / {:.4} |",
                    s.model,
                    s.turns,
                    s.prefix_hits,
                    s.hit_rate,
                    s.max_depth,
                    s.latency[0],
                    s.latency[1],
                    s.latency[2],
                );
            }
        }

        if let Some(b) = &self.bench {
            out.push_str("\n## Gateway bench\n\n");
            out.push_str("| metric | value |\n|---|---:|\n");
            let _ = writeln!(out, "| offered requests | {} |", b.offered);
            let _ = writeln!(out, "| completed | {} |", b.completed);
            let _ = writeln!(out, "| rejected (429) | {} |", b.rejected);
            let _ = writeln!(out, "| goodput (tok/s) | {:.1} |", b.goodput_tps);
            let _ = writeln!(
                out,
                "| ttft p50/p90/p99 (s) | {:.4} / {:.4} / {:.4} |",
                b.ttft[0], b.ttft[1], b.ttft[2]
            );
            let _ = writeln!(
                out,
                "| tbt p50/p90/p99 (s) | {:.4} / {:.4} / {:.4} |",
                b.tbt[0], b.tbt[1], b.tbt[2]
            );
            if !b.per_reactor_peak.is_empty() {
                let peaks: Vec<String> = b.per_reactor_peak.iter().map(|p| p.to_string()).collect();
                let _ = writeln!(out, "| per-reactor peak streams | {} |", peaks.join(", "));
                let _ = writeln!(out, "| reactor balance (max/min) | {:.2} |", b.balance);
            }
        }

        out.push_str("\n## Consistency\n\n");
        let errs = self.consistency_errors();
        if errs.is_empty() {
            out.push_str(
                "All checks passed: quantiles monotone (p50 \u{2264} p90 \u{2264} p99), \
                 attainment in [0, 1].\n",
            );
        } else {
            for e in &errs {
                let _ = writeln!(out, "- **FAIL** {e}");
            }
        }
        out
    }

    /// Renders the JSON report (the machine-readable twin of the markdown).
    pub fn to_json(&self) -> Value {
        fn num(v: f64) -> Value {
            Value::F64(v)
        }
        let models: Vec<Value> = self
            .models
            .iter()
            .map(|m| {
                let mut o = Map::new();
                o.insert("model".into(), Value::String(m.model.clone()));
                o.insert("requests".into(), Value::U64(m.requests));
                o.insert("tokens".into(), Value::U64(m.tokens));
                o.insert("tokens_met".into(), Value::U64(m.tokens_met));
                o.insert("attainment".into(), num(m.attainment));
                Value::Object(o)
            })
            .collect();
        let windows: Vec<Value> = self
            .windows
            .iter()
            .map(|w| {
                let mut o = Map::new();
                o.insert("window_end_ns".into(), Value::U64(w.window_end_ns));
                o.insert("model".into(), Value::String(w.model.clone()));
                o.insert("requests".into(), Value::U64(w.requests));
                o.insert("tokens".into(), Value::U64(w.tokens));
                o.insert("tokens_met".into(), Value::U64(w.tokens_met));
                o.insert("attainment".into(), num(w.attainment));
                o.insert("goodput_tps".into(), num(w.goodput_tps));
                for (k, v) in [
                    ("ttft_p50", w.ttft[0]),
                    ("ttft_p90", w.ttft[1]),
                    ("ttft_p99", w.ttft[2]),
                    ("tbt_p50", w.tbt[0]),
                    ("tbt_p90", w.tbt[1]),
                    ("tbt_p99", w.tbt[2]),
                ] {
                    o.insert(k.into(), num(v));
                }
                Value::Object(o)
            })
            .collect();
        let kinds: Vec<Value> = self
            .kind_totals()
            .into_iter()
            .map(|(k, s)| {
                let mut o = Map::new();
                o.insert("kind".into(), Value::String(k));
                o.insert("secs".into(), num(s));
                Value::Object(o)
            })
            .collect();
        let cells: Vec<Value> = self
            .attribution
            .iter()
            .map(|r| {
                let mut o = Map::new();
                o.insert("instance".into(), Value::String(r.instance.clone()));
                o.insert("model".into(), Value::String(r.model.clone()));
                o.insert("kind".into(), Value::String(r.kind.clone()));
                o.insert("secs".into(), num(r.secs));
                Value::Object(o)
            })
            .collect();
        let sessions: Vec<Value> = self
            .sessions
            .iter()
            .map(|s| {
                let mut o = Map::new();
                o.insert("model".into(), Value::String(s.model.clone()));
                o.insert("turns".into(), Value::U64(s.turns));
                o.insert("prefix_hits".into(), Value::U64(s.prefix_hits));
                o.insert("max_depth".into(), Value::U64(s.max_depth));
                o.insert("prefix_hit_rate".into(), num(s.hit_rate));
                for (k, v) in [
                    ("turn_latency_p50", s.latency[0]),
                    ("turn_latency_p90", s.latency[1]),
                    ("turn_latency_p99", s.latency[2]),
                ] {
                    o.insert(k.into(), num(v));
                }
                Value::Object(o)
            })
            .collect();
        let mut attribution = Map::new();
        attribution.insert("kinds".into(), Value::Array(kinds));
        attribution.insert("cells".into(), Value::Array(cells));
        attribution.insert("useful_secs".into(), num(self.useful_secs));
        attribution.insert("overhead_secs".into(), num(self.overhead_secs));
        let bench = match &self.bench {
            Some(b) => {
                let mut o = Map::new();
                o.insert("offered".into(), Value::U64(b.offered));
                o.insert("completed".into(), Value::U64(b.completed));
                o.insert("rejected".into(), Value::U64(b.rejected));
                o.insert("goodput_tps".into(), num(b.goodput_tps));
                for (k, v) in [
                    ("ttft_p50", b.ttft[0]),
                    ("ttft_p90", b.ttft[1]),
                    ("ttft_p99", b.ttft[2]),
                    ("tbt_p50", b.tbt[0]),
                    ("tbt_p90", b.tbt[1]),
                    ("tbt_p99", b.tbt[2]),
                ] {
                    o.insert(k.into(), num(v));
                }
                o.insert(
                    "per_reactor_peak".into(),
                    Value::Array(b.per_reactor_peak.iter().map(|&p| Value::U64(p)).collect()),
                );
                o.insert("reactor_balance".into(), num(b.balance));
                Value::Object(o)
            }
            None => Value::Null,
        };
        let errs = self.consistency_errors();
        let mut consistency = Map::new();
        consistency.insert("ok".into(), Value::Bool(errs.is_empty()));
        consistency.insert(
            "errors".into(),
            Value::Array(errs.into_iter().map(Value::String).collect()),
        );
        let mut root = Map::new();
        root.insert("models".into(), Value::Array(models));
        root.insert("windows".into(), Value::Array(windows));
        root.insert("sessions".into(), Value::Array(sessions));
        root.insert("attribution".into(), Value::Object(attribution));
        root.insert("bench".into(), bench);
        root.insert("consistency".into(), Value::Object(consistency));
        Value::Object(root)
    }
}

/// Analyzes a run's telemetry directly (in-process wiring for the
/// bench/figure binaries; Aegaeon and baseline results alike): renders the
/// observatory + ledger through the same document format the gateway
/// serves, so every consumer exercises one parser.
pub fn analyze_run(tel: &aegaeon_telemetry::Telemetry) -> Result<Analysis, String> {
    let doc = aegaeon_telemetry::slo_json(&tel.slo, &tel.attrib);
    Analysis::from_slo_text(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLO_DOC: &str = r#"{"models":[{"model":"m0","requests":2,"tokens":10,"tokens_met":9,"attainment":0.9}],
        "windows":[{"window_end_ns":10000000000,"model":"m0","requests":2,"tokens":10,"tokens_met":9,
        "ttft_p50":0.1,"ttft_p90":0.2,"ttft_p99":0.3,"tbt_p50":0.01,"tbt_p90":0.02,"tbt_p99":0.03,
        "attainment":0.9,"goodput_tps":1.0}],
        "attribution":[{"instance":"p0","model":"m0","kind":"model_switch","secs":1.5},
        {"instance":"d0","model":"m0","kind":"decode_exec","secs":4.5}],
        "useful_secs":4.5,"overhead_secs":1.5}"#;

    #[test]
    fn parses_object_document() {
        let a = Analysis::from_slo_text(SLO_DOC).unwrap();
        assert_eq!(a.models.len(), 1);
        assert_eq!(a.windows.len(), 1);
        assert_eq!(a.attribution.len(), 2);
        assert_eq!(a.useful_secs, 4.5);
        assert!(a.consistency_errors().is_empty());
        let md = a.to_markdown();
        assert!(md.contains("| m0 | 2 | 10 | 9 | 0.9000 |"));
        assert!(md.contains("model_switch"));
        assert!(md.contains("All checks passed"));
        assert_eq!(md, a.to_markdown(), "markdown must be deterministic");
    }

    #[test]
    fn rejects_anything_but_the_slo_object() {
        // A telemetry JSONL dump carries spans, samples, sketches and
        // totals but no SLO rows: the analyzer must refuse it rather than
        // report on nothing. A one-line dump parses as a JSON object, so
        // it exercises the shape check as well as the parser.
        let mut reg = aegaeon_telemetry::MetricsRegistry::enabled();
        let c = reg.counter("completed_requests");
        reg.inc(c, 3);
        let one_line = aegaeon_telemetry::jsonl(&aegaeon_telemetry::SpanLog::disabled(), &reg);
        assert_eq!(one_line.lines().count(), 1, "{one_line}");
        let s = reg.sketch("batch_size", 0.01);
        reg.observe_sketch(s, 4.0);
        let dump = aegaeon_telemetry::jsonl(&aegaeon_telemetry::SpanLog::disabled(), &reg);
        assert!(dump.contains("\"type\":\"sketch\""), "{dump}");
        for text in [one_line.as_str(), dump.as_str(), "{}", ""] {
            assert!(Analysis::from_slo_text(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn consistency_gate_catches_violations() {
        let bad = r#"{"models":[{"model":"m0","requests":1,"tokens":5,"tokens_met":9,"attainment":1.8}],
            "windows":[{"window_end_ns":1,"model":"m0","requests":1,"tokens":5,"tokens_met":5,
            "ttft_p50":0.5,"ttft_p90":0.2,"ttft_p99":0.3,"tbt_p50":0.0,"tbt_p90":0.0,"tbt_p99":0.0,
            "attainment":1.0,"goodput_tps":1.0}],
            "attribution":[],"useful_secs":0,"overhead_secs":0}"#;
        let a = Analysis::from_slo_text(bad).unwrap();
        let errs = a.consistency_errors();
        assert!(errs.iter().any(|e| e.contains("outside [0, 1]")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("tokens_met")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("not monotone")), "{errs:?}");
        let md = a.to_markdown();
        assert!(md.contains("**FAIL**"));
        match &a.to_json() {
            Value::Object(root) => match root.get("consistency") {
                Some(Value::Object(c)) => assert_eq!(c.get("ok"), Some(&Value::Bool(false))),
                other => panic!("bad consistency: {other:?}"),
            },
            other => panic!("bad root: {other:?}"),
        }
    }

    #[test]
    fn session_rows_parse_render_and_gate() {
        // Object form carries a `sessions` array.
        let doc = r#"{"models":[],"windows":[],
            "sessions":[{"model":"m1","turns":8,"prefix_hits":5,"max_depth":4,
            "prefix_hit_rate":0.625,"turn_latency_p50":0.4,"turn_latency_p90":0.9,
            "turn_latency_p99":1.2}],
            "attribution":[],"useful_secs":0,"overhead_secs":0}"#;
        let a = Analysis::from_slo_text(doc).unwrap();
        assert_eq!(a.sessions.len(), 1);
        assert_eq!(a.sessions[0].prefix_hits, 5);
        assert!(a.consistency_errors().is_empty());
        let md = a.to_markdown();
        assert!(md.contains("## Agentic sessions"));
        assert!(md.contains("| m1 | 8 | 5 | 0.6250 | 4 | 0.4000 / 0.9000 / 1.2000 |"));
        match &a.to_json() {
            Value::Object(root) => match root.get("sessions") {
                Some(Value::Array(rows)) => assert_eq!(rows.len(), 1),
                other => panic!("bad sessions: {other:?}"),
            },
            other => panic!("bad root: {other:?}"),
        }

        // The gate catches impossible hit counts and non-monotone latency
        // quantiles.
        let bad = r#"{"models":[],"windows":[],
            "sessions":[{"model":"m1","turns":3,"prefix_hits":7,"max_depth":3,
            "prefix_hit_rate":2.3,"turn_latency_p50":0.9,"turn_latency_p90":0.2,
            "turn_latency_p99":0.3}],
            "attribution":[],"useful_secs":0,"overhead_secs":0}"#;
        let a = Analysis::from_slo_text(bad).unwrap();
        assert_eq!(a.sessions.len(), 1);
        assert_eq!(a.sessions[0].model, "m1");
        let errs = a.consistency_errors();
        assert!(errs.iter().any(|e| e.contains("prefix_hits 7 > turns 3")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("hit rate")), "{errs:?}");
        assert!(
            errs.iter().any(|e| e.contains("turn-latency quantiles not monotone")),
            "{errs:?}"
        );

        // Session-free documents stay session-free.
        assert!(Analysis::from_slo_text(SLO_DOC).unwrap().sessions.is_empty());
    }

    #[test]
    fn bench_report_attaches() {
        let bench: Value = serde_json::from_str(
            r#"{"offered_requests":100,"completed":98,"rejected":2,
            "goodput_tokens_per_sec":1234.5,
            "ttft_secs":{"p50":0.1,"p90":0.2,"p99":0.4},
            "tbt_secs":{"p50":0.01,"p90":0.02,"p99":0.04},
            "per_reactor_peak_streams":[10,12],
            "reactor_balance_max_over_min":1.2}"#,
        )
        .unwrap();
        let a = Analysis::from_slo_text(SLO_DOC)
            .unwrap()
            .with_bench_value(&bench);
        assert!(a.consistency_errors().is_empty());
        let md = a.to_markdown();
        assert!(md.contains("## Gateway bench"));
        assert!(md.contains("| per-reactor peak streams | 10, 12 |"));
        assert!(md.contains("| reactor balance (max/min) | 1.20 |"));
    }
}
