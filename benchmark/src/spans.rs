//! In-memory spans recorded around the calls into each layer, written out as
//! Chrome-trace JSON at exit, plus the self-time arithmetic of the ledger.
//!
//! A span's self time is its duration minus the part of it that its child
//! spans cover. Spans of one run (or one gateway request) share a `group`.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary this span times, e.g. `core.dispatch`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// Run or request the span belongs to.
    pub group: u64,
    /// Thread lane (Chrome-trace `tid`).
    pub lane: u32,
}

impl Span {
    /// Duration, seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Handle to an open span; inert when the recorder is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No enclosing span.
    pub const ROOT: SpanId = SpanId(None);
}

/// Per-thread span recorder. When off, every call is a single branch.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    lane: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for one thread lane, timing against a shared `epoch`.
    pub fn new(on: bool, epoch: Instant, lane: u32) -> Recorder {
        Recorder {
            on,
            epoch,
            lane,
            spans: Vec::new(),
        }
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, group: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId::ROOT;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.0,
            group,
            lane: self.lane,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span now.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Consumes the recorder.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Total duration of the spans named `name`, seconds.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Durations of the spans named `name`, seconds, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Self time of every span, nanoseconds: its duration minus the union of
/// its children's intervals clipped to it.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals for the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// Per-name count, total and self time, largest self time first.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let own = self_ns(spans);
    let mut rows: Vec<SelfTime> = Vec::new();
    for (s, own) in spans.iter().zip(own) {
        let row = match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => r,
            None => {
                rows.push(SelfTime {
                    name: s.name,
                    count: 0,
                    total_s: 0.0,
                    self_s: 0.0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.count += 1;
        row.total_s += s.secs();
        row.self_s += own as f64 / 1e9;
    }
    rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    rows
}

/// Chrome-trace JSON (`traceEvents` of complete `X` events, microseconds);
/// `args` carry the span id, its parent id and its group.
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<serde_json::Value> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            serde_json::json!({
                "name": s.name,
                "cat": "benchmark",
                "ph": "X",
                "ts": s.start_ns as f64 / 1e3,
                "dur": s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                "pid": 1u32,
                "tid": s.lane,
                "args": serde_json::json!({
                    "id": id as u64,
                    "parent": s.parent.map_or(serde_json::Value::Null, |p| serde_json::json!(p as u64)),
                    "group": s.group,
                }),
            })
        })
        .collect();
    let doc = serde_json::json!({
        "traceEvents": serde_json::Value::Array(events),
        "displayTimeUnit": "ms",
    });
    serde_json::to_string(&doc).expect("in-memory JSON serializes")
}

/// Parses a document written by [`chrome_json`] and checks that every span
/// with a parent lies inside it, in the same group. Returns the span count.
pub fn check_chrome_json(text: &str) -> Result<usize, String> {
    use serde_json::Value;
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Value::Object(doc) = doc else {
        return Err("top level is not an object".into());
    };
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        return Err("no traceEvents array".into());
    };
    let num = |v: Option<&Value>| match v {
        Some(Value::F64(f)) => Some(*f),
        Some(Value::U64(n)) => Some(*n as f64),
        _ => None,
    };
    // (start, end, parent, group) per event, indexed by id.
    let mut rows: Vec<(f64, f64, Option<usize>, f64)> = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let Value::Object(ev) = ev else {
            return Err(format!("event {i} is not an object"));
        };
        let Some(Value::Object(args)) = ev.get("args") else {
            return Err(format!("event {i} has no args"));
        };
        if num(args.get("id")) != Some(i as f64) {
            return Err(format!("event {i} has id {:?}", args.get("id")));
        }
        let (Some(ts), Some(dur), Some(group)) = (
            num(ev.get("ts")),
            num(ev.get("dur")),
            num(args.get("group")),
        ) else {
            return Err(format!("event {i} lacks ts/dur/group"));
        };
        let parent = num(args.get("parent")).map(|p| p as usize);
        rows.push((ts, ts + dur, parent, group));
    }
    // Timestamps are microseconds with nanosecond digits; allow rounding.
    const EPS: f64 = 1e-3;
    for (i, &(lo, hi, parent, group)) in rows.iter().enumerate() {
        let Some(p) = parent else { continue };
        let Some(&(plo, phi, _, pgroup)) = rows.get(p) else {
            return Err(format!("span {i} names missing parent {p}"));
        };
        if p >= i {
            return Err(format!("span {i} opened before its parent {p}"));
        }
        if lo + EPS < plo || hi > phi + EPS {
            return Err(format!(
                "span {i} [{lo}, {hi}] escapes parent {p} [{plo}, {phi}]"
            ));
        }
        if group != pgroup {
            return Err(format!("span {i} and its parent {p} differ in group"));
        }
    }
    Ok(rows.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            group: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: union 10..50
            span("c", 90, 120, Some(0)), // clipped to 90..100
            span("leaf", 25, 28, Some(2)),
        ];
        assert_eq!(self_ns(&spans), vec![100 - 40 - 10, 20, 30 - 3, 30, 3]);
        let rows = self_times(&spans);
        let run = rows.iter().find(|r| r.name == "run").expect("run row");
        assert_eq!(run.count, 1);
        assert!((run.self_s - 50e-9).abs() < 1e-15);
        assert!((run.total_s - 100e-9).abs() < 1e-15);
        // Self times partition the root's wall time when children nest.
        let nested = vec![
            span("run", 0, 100, None),
            span("a", 0, 60, Some(0)),
            span("b", 60, 100, Some(0)),
            span("x", 10, 20, Some(1)),
        ];
        assert_eq!(self_ns(&nested).iter().sum::<u64>(), 100);
    }

    #[test]
    fn merge_rebases_parents() {
        let merged = merge(vec![
            vec![span("p", 0, 10, None), span("c", 1, 2, Some(0))],
            vec![span("p", 0, 10, None), span("c", 3, 4, Some(0))],
        ]);
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(merged[1].parent, Some(0));
    }

    #[test]
    fn recorder_nests_and_round_trips_through_chrome_json() {
        let mut rec = Recorder::new(true, Instant::now(), 3);
        let outer = rec.begin("outer", 7, SpanId::ROOT);
        let inner = rec.begin("inner", 7, outer);
        rec.end(inner);
        rec.end(outer);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let text = chrome_json(&spans);
        assert_eq!(check_chrome_json(&text), Ok(2));
    }

    #[test]
    fn nesting_check_rejects_escaping_child() {
        let bad = vec![span("p", 0, 1000, None), span("c", 500, 2000, Some(0))];
        assert!(check_chrome_json(&chrome_json(&bad)).is_err());
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), 0);
        let id = rec.begin("x", 0, SpanId::ROOT);
        rec.end(id);
        assert!(rec.into_spans().is_empty());
        assert_eq!(id, SpanId::ROOT);
    }
}
