//! Span-log renderers: Chrome Trace Event Format, JSONL and ASCII Gantt.
//!
//! [`chrome_trace`] emits a JSON document loadable in Perfetto or
//! `chrome://tracing`: schedule intervals and request spans become `X`
//! duration events, zero-length spans become `i` instants, and every
//! sampled metric series becomes a `C` counter track. [`jsonl`] emits the
//! same data as line-delimited JSON for scripting. [`render_timeline`]
//! draws a schedule log as one text row per GPU lane.
//!
//! Metric series are change-only step functions (see
//! [`metrics`](crate::metrics)): a `C` event or a JSONL `sample` row holds
//! its value until the series' next one, and each series ends with its
//! final value, which may repeat the previous instant and value.
//!
//! Both emitters are hand-rolled and fully deterministic: timestamps are
//! integer nanoseconds formatted as exact microseconds (`ns/1000` plus a
//! three-digit fraction), never round-tripped through floats, so the same
//! run always produces byte-identical output (the golden test relies on
//! this).

use std::fmt::Write as _;

use aegaeon_sim::SimTime;

use crate::metrics::MetricsRegistry;
use crate::observatory::{AttributionLedger, SloObservatory};
use crate::span::{Span, SpanKind, SpanLog};

/// Quantiles every sketch exposes (as summaries, in reports, in JSONL).
pub(crate) const SUMMARY_QUANTILES: [(f64, &str); 3] = [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")];

/// `pid` used for cluster-side tracks (GPU/link schedule lanes).
pub(crate) const PID_CLUSTER: u32 = 1;
/// `pid` used for per-request span tracks.
pub(crate) const PID_REQUESTS: u32 = 2;
/// `pid` used for sampled counter tracks.
pub(crate) const PID_METRICS: u32 = 3;

/// Appends `ns` nanoseconds as exact microseconds (`123.456`).
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Appends a JSON string literal (with escaping) for `s`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite JSON number for `v` (non-finite values become `0`).
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

fn push_meta(out: &mut String, pid: u32, tid: u32, what: &str, name: &str) {
    let _ = write!(out, "{{\"name\":\"{what}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":");
    push_json_str(out, name);
    out.push_str("}},\n");
}

fn push_span_event(out: &mut String, pid: u32, tid: u32, id: usize, s: &Span) {
    let name = if s.label.is_empty() { s.kind.name() } else { s.label.as_str() };
    out.push_str("{\"name\":");
    push_json_str(out, name);
    out.push_str(",\"cat\":\"");
    out.push_str(s.kind.name());
    if s.start == s.end {
        out.push_str("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
        push_us(out, s.start.as_nanos());
    } else {
        out.push_str("\",\"ph\":\"X\",\"ts\":");
        push_us(out, s.start.as_nanos());
        out.push_str(",\"dur\":");
        push_us(out, (s.end - s.start).as_nanos());
    }
    let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid}");
    let _ = write!(out, ",\"args\":{{\"span\":{id}");
    if !s.parent.is_none() {
        let _ = write!(out, ",\"parent\":{}", s.parent.0);
    }
    if !s.cause.is_none() {
        let _ = write!(out, ",\"cause\":{}", s.cause.0);
    }
    out.push_str("}},\n");
}

/// Renders a full run as Chrome Trace Event Format JSON.
///
/// * `schedule` — the GPU-lane schedule [`SpanLog`] (pid `PID_CLUSTER`,
///   one `tid` per lane, every interval an `X` event without `args`).
/// * `spans` — the request-lifecycle [`SpanLog`] (pid `PID_REQUESTS`, one
///   `tid` per track; zero-length spans export as `i` instants).
/// * `metrics` — sampled counter and gauge series (pid `PID_METRICS`,
///   `C` events named after each instrument).
pub fn chrome_trace(schedule: &SpanLog, spans: &SpanLog, metrics: &MetricsRegistry) -> String {
    let mut out = String::with_capacity(
        1024 + 160 * (schedule.spans().len() + spans.spans().len()),
    );
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");

    // Metadata: stable process/thread names for every track.
    push_meta(&mut out, PID_CLUSTER, 0, "process_name", "cluster");
    push_meta(&mut out, PID_REQUESTS, 0, "process_name", "requests");
    push_meta(&mut out, PID_METRICS, 0, "process_name", "metrics");
    for (tid, lane) in schedule.tracks().iter().enumerate() {
        push_meta(&mut out, PID_CLUSTER, tid as u32, "thread_name", lane);
    }
    for (tid, track) in spans.tracks().iter().enumerate() {
        push_meta(&mut out, PID_REQUESTS, tid as u32, "thread_name", track);
    }

    // Schedule lanes (Gantt intervals) as X events, by lane and start.
    for (tid, iv) in schedule.by_track() {
        out.push_str("{\"name\":");
        push_json_str(&mut out, &iv.label);
        out.push_str(",\"cat\":\"");
        out.push_str(iv.kind.name());
        out.push_str("\",\"ph\":\"X\",\"ts\":");
        push_us(&mut out, iv.start.as_nanos());
        out.push_str(",\"dur\":");
        push_us(&mut out, (iv.end - iv.start).as_nanos());
        let _ = writeln!(out, ",\"pid\":{PID_CLUSTER},\"tid\":{tid}}},");
    }

    // Request-lifecycle spans.
    for (id, s) in spans.spans().iter().enumerate() {
        let tid = spans.track_index(&s.track).unwrap_or(0) as u32;
        push_span_event(&mut out, PID_REQUESTS, tid, id, s);
    }

    // Counter tracks: counters and gauges, in registration order.
    for (tid, (name, samples)) in metrics.counter_series().chain(metrics.gauge_series()).enumerate()
    {
        for s in samples {
            out.push_str("{\"name\":");
            push_json_str(&mut out, name);
            out.push_str(",\"ph\":\"C\",\"ts\":");
            push_us(&mut out, s.at.as_nanos());
            let _ = write!(out, ",\"pid\":{PID_METRICS},\"tid\":{tid},\"args\":{{\"value\":");
            push_json_f64(&mut out, s.value);
            out.push_str("}},\n");
        }
    }

    // Close the list; the trailing comma convention of the Trace Event
    // Format tolerates none, so strip the last ",\n".
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Renders the same telemetry as line-delimited JSON: one object per span,
/// per stored series point, per quantile sketch, and per run-level counter
/// total. `sample` rows are step-function changes: within a series each row
/// holds until the next, and only the final row may repeat the previous
/// instant or value.
pub fn jsonl(spans: &SpanLog, metrics: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (id, s) in spans.spans().iter().enumerate() {
        let _ = write!(out, "{{\"type\":\"span\",\"id\":{id},\"track\":");
        push_json_str(&mut out, &s.track);
        out.push_str(",\"kind\":\"");
        out.push_str(s.kind.name());
        out.push_str("\",\"label\":");
        push_json_str(&mut out, &s.label);
        let _ = write!(
            out,
            ",\"start_ns\":{},\"end_ns\":{}",
            s.start.as_nanos(),
            s.end.as_nanos()
        );
        if !s.parent.is_none() {
            let _ = write!(out, ",\"parent\":{}", s.parent.0);
        }
        if !s.cause.is_none() {
            let _ = write!(out, ",\"cause\":{}", s.cause.0);
        }
        out.push_str("}\n");
    }
    for (class, series) in [
        ("counter", metrics.counter_series().collect::<Vec<_>>()),
        ("gauge", metrics.gauge_series().collect::<Vec<_>>()),
    ] {
        for (name, samples) in series {
            for s in samples {
                let _ = write!(out, "{{\"type\":\"sample\",\"class\":\"{class}\",\"metric\":");
                push_json_str(&mut out, name);
                let _ = write!(out, ",\"at_ns\":{},\"value\":", s.at.as_nanos());
                push_json_f64(&mut out, s.value);
                out.push_str("}\n");
            }
        }
    }
    for (name, sk) in metrics.sketches() {
        out.push_str("{\"type\":\"sketch\",\"metric\":");
        push_json_str(&mut out, name);
        let _ = write!(out, ",\"alpha\":{},\"count\":{},\"sum\":", sk.alpha(), sk.count());
        push_json_f64(&mut out, sk.sum());
        for (q, _) in SUMMARY_QUANTILES {
            // Percentile keys: 0.5 → p50, 0.9 → p90, 0.99 → p99.
            let _ = write!(out, ",\"p{}\":", (q * 100.0).round() as u32);
            push_json_f64(&mut out, sk.quantile(q));
        }
        out.push_str("}\n");
    }
    for (name, value) in metrics.counter_totals() {
        out.push_str("{\"type\":\"total\",\"metric\":");
        push_json_str(&mut out, name);
        out.push_str(",\"value\":");
        push_json_f64(&mut out, value);
        out.push_str("}\n");
    }
    out
}

/// Renders the SLO observatory and attribution ledger as one JSON object —
/// the body of the gateway's `GET /v1/slo` and the one document the
/// analyzer reads. Deterministic for a given observatory state. One
/// [`SloDocument::update`] of a fresh document.
pub fn slo_json(slo: &SloObservatory, attrib: &AttributionLedger) -> String {
    let mut doc = SloDocument::default();
    doc.update(slo, attrib);
    doc.to_json()
}

/// The [`slo_json`] document, kept current by rendering only what changed.
///
/// Sealed windows never change (the observatory only appends them), so
/// each is rendered once; an [`SloDocument::update`] renders the windows
/// sealed since the last one and re-renders the per-model cumulative rows,
/// the session rows and the attribution ledger, none of which grows with
/// the run's length. The document is three strings that are never joined
/// until it is read, so an update copies nothing already rendered. A
/// document follows one observatory for its whole life.
#[derive(Debug, Clone, Default)]
pub struct SloDocument {
    /// Up to and including the `"windows":[` opener.
    head: String,
    /// The rendered windows, comma-separated.
    windows: String,
    /// Windows rendered so far.
    sealed: usize,
    /// From the windows' closing bracket to the end.
    tail: String,
}

impl SloDocument {
    /// Brings the document up to the observers' current state.
    pub fn update(&mut self, slo: &SloObservatory, attrib: &AttributionLedger) {
        let out = &mut self.head;
        out.clear();
        out.push_str("{\"models\":[");
        for (m, c) in slo.cumulative().iter().enumerate() {
            if m > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"model\":\"m{m}\",\"requests\":{},\"tokens\":{},\"tokens_met\":{},\"attainment\":",
                c.requests, c.tokens, c.tokens_met
            );
            push_json_f64(out, c.attainment());
            out.push('}');
        }
        out.push_str("],\"windows\":[");

        let out = &mut self.windows;
        for p in &slo.points()[self.sealed..] {
            if self.sealed > 0 {
                out.push(',');
            }
            self.sealed += 1;
            let _ = write!(
                out,
                "{{\"window_end_ns\":{},\"model\":\"m{}\",\"requests\":{},\"tokens\":{},\"tokens_met\":{}",
                p.window_end_ns, p.model, p.requests, p.tokens, p.tokens_met
            );
            for (key, v) in [
                ("ttft_p50", p.ttft_p50),
                ("ttft_p90", p.ttft_p90),
                ("ttft_p99", p.ttft_p99),
                ("tbt_p50", p.tbt_p50),
                ("tbt_p90", p.tbt_p90),
                ("tbt_p99", p.tbt_p99),
                ("attainment", p.attainment),
                ("goodput_tps", p.goodput_tps),
            ] {
                let _ = write!(out, ",\"{key}\":");
                push_json_f64(out, v);
            }
            out.push('}');
        }

        let out = &mut self.tail;
        out.clear();
        out.push_str("],\"sessions\":[");
        let mut first = true;
        for (m, t) in slo.turn_stats().iter().enumerate() {
            if t.turns == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"model\":\"m{m}\",\"turns\":{},\"prefix_hits\":{},\"max_depth\":{},\"prefix_hit_rate\":",
                t.turns, t.prefix_hits, t.max_depth
            );
            push_json_f64(out, t.prefix_hit_rate());
            for (key, q) in [
                ("turn_latency_p50", 0.50),
                ("turn_latency_p90", 0.90),
                ("turn_latency_p99", 0.99),
            ] {
                let _ = write!(out, ",\"{key}\":");
                push_json_f64(out, t.latency_quantile(q));
            }
            out.push('}');
        }
        out.push_str("],\"attribution\":[");
        for (i, (inst, model, kind, secs)) in attrib.rows().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"instance\":");
            push_json_str(out, inst);
            let _ = write!(
                out,
                ",\"model\":\"m{model}\",\"kind\":\"{}\",\"secs\":",
                kind.name()
            );
            push_json_f64(out, secs);
            out.push('}');
        }
        out.push_str("],\"useful_secs\":");
        push_json_f64(out, attrib.useful_secs());
        out.push_str(",\"overhead_secs\":");
        push_json_f64(out, attrib.overhead_secs());
        out.push_str("}\n");
    }

    /// The document as of the last update (empty before the first).
    pub fn to_json(&self) -> String {
        let parts = [&self.head, &self.windows, &self.tail];
        let mut out = String::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            out.push_str(p);
        }
        out
    }
}

/// Renders the registry's current state in the Prometheus text exposition
/// format (version 0.0.4): one `# TYPE` header per instrument *family*,
/// counters and gauges as their live values, quantile sketches as summaries
/// (p50/p90/p99 plus `_sum` and `_count`). Instrument names may
/// embed a label set verbatim (e.g. `reactor_ready_depth{reactor="3"}`):
/// the sample line carries the full name while the `# TYPE` header uses the
/// base name before the `{` and is emitted once per family. Deterministic:
/// instruments appear in registration order and values are formatted with
/// Rust's default float formatting.
pub fn prometheus_text(metrics: &MetricsRegistry) -> String {
    fn push_value(out: &mut String, v: f64) {
        if v.is_finite() {
            let _ = write!(out, "{v}");
        } else if v.is_nan() {
            out.push_str("NaN");
        } else if v > 0.0 {
            out.push_str("+Inf");
        } else {
            out.push_str("-Inf");
        }
    }
    // Base name of a possibly-labeled instrument: `a{l="1"}` → `a`.
    fn family(name: &str) -> &str {
        name.split('{').next().unwrap_or(name)
    }
    let mut out = String::new();
    let mut typed: Vec<&str> = Vec::new();
    for (name, value) in metrics.counter_totals() {
        let fam = family(name);
        if !typed.contains(&fam) {
            typed.push(fam);
            let _ = writeln!(out, "# TYPE {fam} counter");
        }
        out.push_str(name);
        out.push(' ');
        push_value(&mut out, value);
        out.push('\n');
    }
    typed.clear();
    for (name, value) in metrics.gauge_values() {
        let fam = family(name);
        if !typed.contains(&fam) {
            typed.push(fam);
            let _ = writeln!(out, "# TYPE {fam} gauge");
        }
        out.push_str(name);
        out.push(' ');
        push_value(&mut out, value);
        out.push('\n');
    }
    // Sketches render as summaries. A sketch's registered name may embed a
    // label set (`ttft_seconds{model="m0"}`); the `quantile` label is
    // merged into it, while `_sum`/`_count` keep the original labels.
    typed.clear();
    for (name, sk) in metrics.sketches() {
        let (fam, labels) = match name.find('{') {
            Some(i) => (&name[..i], &name[i..]),
            None => (name, ""),
        };
        if !typed.contains(&fam) {
            typed.push(fam);
            let _ = writeln!(out, "# TYPE {fam} summary");
        }
        for (q, qlabel) in SUMMARY_QUANTILES {
            if labels.is_empty() {
                let _ = write!(out, "{fam}{{quantile=\"{qlabel}\"}} ");
            } else {
                let inner = &labels[1..labels.len() - 1];
                let _ = write!(out, "{fam}{{{inner},quantile=\"{qlabel}\"}} ");
            }
            push_value(&mut out, sk.quantile(q));
            out.push('\n');
        }
        let _ = write!(out, "{fam}_sum{labels} ");
        push_value(&mut out, sk.sum());
        out.push('\n');
        let _ = writeln!(out, "{fam}_count{labels} {}", sk.count());
    }
    out
}

fn kind_char(k: SpanKind) -> char {
    match k {
        SpanKind::Prefill => 'P',
        SpanKind::DecodeRound => 'D',
        SpanKind::Switch => 'S',
        SpanKind::KvTransfer => 'K',
        SpanKind::QueueWait => '.',
        _ => '#',
    }
}

/// Renders a schedule [`SpanLog`] as one ASCII Gantt row per track, `width`
/// characters across the `[start, end)` window.
///
/// Glyphs: `P` prefill, `D` decode round, `S` auto-scaling, `K` KV
/// transfer, `.` waiting, `#` any other kind, space idle. Later intervals
/// overwrite earlier ones; an interval with no instant inside the window
/// is not drawn.
pub fn render_timeline(log: &SpanLog, start: SimTime, end: SimTime, width: usize) -> String {
    assert!(end > start && width > 0);
    let span = (end - start).as_secs_f64();
    let lanes = log.tracks();
    let mut rows: Vec<Vec<char>> = vec![vec![' '; width]; lanes.len()];
    // By lane and start, so overlapping columns paint the same whatever
    // order the intervals were recorded in.
    for (lane, iv) in log.by_track() {
        // The column clamps below would paint an interval wholly outside
        // the window on its first or last column.
        if iv.start >= end || (iv.start < start && iv.end <= start) {
            continue;
        }
        let s = iv.start.saturating_since(start).as_secs_f64() / span;
        let e = iv.end.saturating_since(start).as_secs_f64() / span;
        let c0 = ((s * width as f64) as usize).min(width.saturating_sub(1));
        let c1 = ((e * width as f64).ceil() as usize).clamp(c0 + 1, width);
        for c in &mut rows[lane][c0..c1] {
            *c = kind_char(iv.kind);
        }
    }
    let name_w = lanes.iter().map(|l| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (lane, row) in lanes.iter().zip(rows) {
        out.push_str(&format!("{lane:<name_w$} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out
}

/// Smallest possible structural check that `chrome_trace` output is valid
/// JSON with the fields Perfetto needs; the CI job does the authoritative
/// validation with a real parser.
pub fn looks_like_trace_event_json(s: &str) -> bool {
    s.starts_with('{')
        && s.contains("\"traceEvents\"")
        && s.contains("\"ph\":")
        && s.contains("\"ts\":")
        && s.contains("\"pid\":")
        && s.contains("\"tid\":")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanId;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn sample_run() -> (SpanLog, SpanLog, MetricsRegistry) {
        let mut sched = SpanLog::enabled();
        sched.record_with(|| "gpu0", SpanKind::Prefill, t(0.0), t(1.0), || "P:m1");
        sched.record_with(|| "gpu0", SpanKind::Switch, t(1.0), t(1.5), || "S:m2");
        let mut spans = SpanLog::enabled();
        let root = spans.start(|| "req0", SpanKind::Request, t(0.0), SpanId::NONE, SpanId::NONE, || "r0");
        let d = spans.instant(|| "proxy", SpanKind::Decision, t(0.0), SpanId::NONE, || "place");
        let pf = spans.start(|| "req0", SpanKind::Prefill, t(0.0), root, d, || "P");
        spans.end(pf, t(1.0));
        spans.end(root, t(2.0));
        let mut reg = MetricsRegistry::enabled();
        let c = reg.counter("switches");
        let g = reg.gauge("queue_depth");
        reg.inc(c, 1);
        reg.set(g, 3.0);
        reg.sample(t(1.0));
        (sched, spans, reg)
    }

    #[test]
    fn chrome_trace_has_required_fields_and_is_deterministic() {
        let (sched, spans, reg) = sample_run();
        let a = chrome_trace(&sched, &spans, &reg);
        let b = chrome_trace(&sched, &spans, &reg);
        assert_eq!(a, b, "export must be deterministic");
        assert!(looks_like_trace_event_json(&a));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"ph\":\"M\""));
        assert!(a.contains("\"cat\":\"prefill\""));
        assert!(a.contains("\"cat\":\"switch\""));
        assert!(!a.contains(",\n]"), "no trailing comma before close");
    }

    #[test]
    fn chrome_trace_puts_schedule_lanes_on_the_cluster_pid() {
        let mut sched = SpanLog::enabled();
        sched.record_with(|| "gpu1", SpanKind::Prefill, t(0.0), t(1.0), || "P:m1");
        sched.record_with(|| "gpu0", SpanKind::DecodeRound, t(1.0), t(1.25), || "D:m1");
        sched.record_with(|| "gpu1", SpanKind::Switch, t(1.0), t(1.5), || "S:m2");
        let out = chrome_trace(&sched, &SpanLog::disabled(), &MetricsRegistry::disabled());
        let lines: Vec<&str> = out.lines().collect();
        let lane_meta = [
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"gpu1"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"gpu0"}},"#,
        ];
        for m in lane_meta {
            assert!(lines.contains(&m), "missing lane metadata {m}");
        }
        let events: Vec<&str> = lines.iter().copied().filter(|l| l.contains("\"ph\":\"X\"")).collect();
        assert_eq!(
            events,
            vec![
                r#"{"name":"P:m1","cat":"prefill","ph":"X","ts":0.000,"dur":1000000.000,"pid":1,"tid":0},"#,
                r#"{"name":"S:m2","cat":"switch","ph":"X","ts":1000000.000,"dur":500000.000,"pid":1,"tid":0},"#,
                r#"{"name":"D:m1","cat":"decode-round","ph":"X","ts":1000000.000,"dur":250000.000,"pid":1,"tid":1}"#,
            ]
        );
    }

    #[test]
    fn timeline_renders_lanes() {
        let mut log = SpanLog::enabled();
        log.record_with(|| "gpu0", SpanKind::Prefill, t(0.0), t(5.0), || "P1");
        log.record_with(|| "gpu0", SpanKind::DecodeRound, t(5.0), t(10.0), || "D1");
        log.record_with(|| "gpu1", SpanKind::Switch, t(2.0), t(4.0), || "S");
        let s = render_timeline(&log, t(0.0), t(10.0), 20);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("PPPPPPPPPP"));
        assert!(lines[0].contains("DDDDDDDDDD"));
        assert!(lines[1].contains("SSSS"));
    }

    #[test]
    fn timeline_skips_intervals_outside_the_window() {
        let mut log = SpanLog::enabled();
        log.record_with(|| "gpu0", SpanKind::DecodeRound, t(40.0), t(50.0), || "after");
        log.record_with(|| "gpu1", SpanKind::Switch, t(9.0), t(11.0), || "straddles");
        // Recorded last, so a bug that paints it would overwrite the `S`.
        log.record_with(|| "gpu1", SpanKind::Prefill, t(0.0), t(1.0), || "before");
        let s = render_timeline(&log, t(10.0), t(30.0), 20);
        let blank = " ".repeat(20);
        let straddle = format!("S{}", " ".repeat(19));
        assert_eq!(s, format!("gpu0 |{blank}|\ngpu1 |{straddle}|\n"));
    }

    #[test]
    fn timestamps_are_exact_microseconds() {
        let mut out = String::new();
        push_us(&mut out, 1_234_567); // 1234.567 us
        assert_eq!(out, "1234.567");
        out.clear();
        push_us(&mut out, 1_000);
        assert_eq!(out, "1.000");
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn prometheus_text_exposes_all_instrument_kinds() {
        let mut reg = MetricsRegistry::enabled();
        let c = reg.counter("http_requests");
        let g = reg.gauge("wall_clock_lag_secs");
        let s = reg.sketch("latency_secs", 0.01);
        reg.inc(c, 7);
        reg.set(g, 0.25);
        for v in [0.05, 0.5, 5.0] {
            reg.observe_sketch(s, v);
        }
        let text = prometheus_text(&reg);
        assert!(text.contains("# TYPE http_requests counter\nhttp_requests 7\n"));
        assert!(text.contains("# TYPE wall_clock_lag_secs gauge\nwall_clock_lag_secs 0.25\n"));
        assert!(text.contains("# TYPE latency_secs summary\n"));
        assert!(text.contains("latency_secs_sum 5.55\n"));
        assert!(text.contains("latency_secs_count 3\n"));
        assert_eq!(prometheus_text(&reg), text, "export must be deterministic");
    }

    #[test]
    fn prometheus_text_renders_sketches_as_summaries() {
        let mut reg = MetricsRegistry::enabled();
        let plain = reg.sketch("e2e_seconds", 0.01);
        let labeled = reg.sketch("ttft_seconds{model=\"m0\"}", 0.01);
        for v in [0.1, 0.2, 0.4] {
            reg.observe_sketch(plain, v);
            reg.observe_sketch(labeled, v);
        }
        let text = prometheus_text(&reg);
        assert!(text.contains("# TYPE e2e_seconds summary"));
        assert!(text.contains("e2e_seconds{quantile=\"0.5\"} "));
        assert!(text.contains("e2e_seconds_count 3"));
        assert!(text.contains("# TYPE ttft_seconds summary"));
        assert!(text.contains("ttft_seconds{model=\"m0\",quantile=\"0.99\"} "));
        assert!(text.contains("ttft_seconds_sum{model=\"m0\"} "));
        assert!(text.contains("ttft_seconds_count{model=\"m0\"} 3"));
        assert_eq!(prometheus_text(&reg), text, "export must be deterministic");
    }

    #[test]
    fn slo_exports_render_points_and_ledger() {
        let mut slo = SloObservatory::new(2, 1_000_000_000);
        slo.observe_request(10, 0, 0.25, &[0.05], 2, 1);
        slo.finish();
        let mut attrib = AttributionLedger::enabled();
        let p0 = attrib.instance("p0");
        attrib.add(p0, 0, crate::observatory::CostKind::ModelSwitch, 1.5);
        attrib.add(p0, 0, crate::observatory::CostKind::PrefillExec, 3.0);
        let json = slo_json(&slo, &attrib);
        assert!(json.contains("\"attainment\":0.5"));
        assert!(json.contains("\"kind\":\"model_switch\",\"secs\":1.5"));
        assert!(json.contains("\"useful_secs\":3"));
        assert!(json.contains("\"model\":\"m1\",\"requests\":0"));
    }

    #[test]
    fn incremental_document_equals_slo_json_after_every_seal() {
        // Three models retiring requests over 30 one-second windows; the
        // document is updated after every request and at finish.
        let mut slo = SloObservatory::new(3, 1_000_000_000);
        let mut attrib = AttributionLedger::enabled();
        let p0 = attrib.instance("p0");
        let mut doc = SloDocument::default();
        let mut seals = 0;
        for k in 0..120u64 {
            let before = slo.points().len();
            let model = (k % 3) as u32;
            let gaps = [0.02 + 0.001 * k as f64, 0.05];
            slo.observe_request(
                k * 250_000_000,
                model,
                0.1 * (k % 7) as f64,
                &gaps,
                3,
                k % 4,
            );
            attrib.add(p0, model, crate::observatory::CostKind::DecodeExec, 0.25);
            doc.update(&slo, &attrib);
            seals += usize::from(slo.points().len() > before);
            assert_eq!(doc.to_json(), slo_json(&slo, &attrib), "after request {k}");
        }
        slo.finish();
        doc.update(&slo, &attrib);
        assert_eq!(doc.to_json(), slo_json(&slo, &attrib), "after finish");
        assert!(seals >= 25, "{seals} updates sealed windows");
        assert!(slo.points().len() >= 80, "{} points", slo.points().len());
    }

    #[test]
    fn jsonl_emits_one_object_per_line() {
        let (_, spans, mut reg) = sample_run();
        let sk = reg.sketch("latency_seconds", 0.01);
        reg.observe_sketch(sk, 0.25);
        let text = jsonl(&spans, &reg);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
        }
        assert!(text.contains("\"type\":\"span\""));
        assert!(text.contains("\"type\":\"sample\""));
        assert!(text.contains("\"type\":\"total\""));
        let sketch = text
            .lines()
            .find(|l| l.contains("\"type\":\"sketch\""))
            .expect("sketch line");
        for key in ["\"p50\":", "\"p90\":", "\"p99\":"] {
            assert!(sketch.contains(key), "missing {key}: {sketch}");
        }
        assert!(!sketch.contains("\"p5\":") && !sketch.contains("\"p9\":"), "{sketch}");
    }
}
