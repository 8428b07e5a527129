//! Interval tracing for schedule timelines.
//!
//! The experiments for Figures 2 and 6 render Gantt-style schedules
//! (prefill/decoding/switching intervals per GPU). Components record labeled
//! intervals into a [`TraceLog`]; the bench harness renders them as ASCII
//! timelines. Tracing is off by default; when disabled, [`record_with`]
//! costs one branch — the label closure is never called, so label
//! `format!`s in hot loops allocate nothing.
//!
//! Lane names are interned as `Arc<str>`: each recorded interval holds a
//! pointer-sized handle rather than its own `String`, and the distinct-lane
//! list is maintained incrementally at record time instead of being
//! recomputed by an O(intervals × lanes) scan per [`lanes`] call.
//!
//! [`record_with`]: TraceLog::record_with
//! [`lanes`]: TraceLog::lanes

use std::sync::Arc;

use crate::time::SimTime;

/// Classifies an interval for rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A prefill job.
    Prefill,
    /// One or more decoding steps.
    Decode,
    /// Auto-scaling work (model load, engine init, gc, …).
    Switch,
    /// KV cache transfer.
    KvTransfer,
    /// Queue waiting time.
    Wait,
    /// Anything else.
    Other,
}

/// A labeled, half-open interval `[start, end)` on a named lane.
#[derive(Debug, Clone)]
pub struct TraceInterval {
    /// Rendering lane, e.g. `"gpu0"` (interned; clones are pointer copies).
    pub lane: Arc<str>,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// Category.
    pub kind: TraceKind,
    /// Short label, e.g. `"P:modelA"`.
    pub label: String,
}

/// A collection of trace intervals.
#[derive(Debug, Default)]
pub struct TraceLog {
    enabled: bool,
    intervals: Vec<TraceInterval>,
    /// Distinct lanes in first-appearance order; doubles as the intern table.
    lanes: Vec<Arc<str>>,
}

impl TraceLog {
    /// Creates a disabled log (records nothing).
    pub fn disabled() -> Self {
        TraceLog::default()
    }

    /// Creates an enabled log.
    pub fn enabled() -> Self {
        TraceLog {
            enabled: true,
            ..TraceLog::default()
        }
    }

    /// True if recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Returns the interned handle for `lane`, registering it on first use.
    fn intern(&mut self, lane: &str) -> Arc<str> {
        // Lane counts are tiny (one per GPU), so a linear probe beats a map.
        if let Some(l) = self.lanes.iter().find(|l| &***l == lane) {
            return Arc::clone(l);
        }
        let l: Arc<str> = Arc::from(lane);
        self.lanes.push(Arc::clone(&l));
        l
    }

    /// Records an interval if enabled.
    ///
    /// The label here is eagerly constructed; in hot paths prefer
    /// [`record_with`](Self::record_with), whose label closure only runs
    /// when the log is enabled.
    pub fn record(
        &mut self,
        lane: impl AsRef<str>,
        start: SimTime,
        end: SimTime,
        kind: TraceKind,
        label: impl Into<String>,
    ) {
        self.record_with(lane, start, end, kind, || label.into());
    }

    /// Records an interval if enabled, building the label lazily.
    ///
    /// When the log is disabled this is a single branch: neither the label
    /// closure nor any allocation runs.
    pub fn record_with<S: Into<String>>(
        &mut self,
        lane: impl AsRef<str>,
        start: SimTime,
        end: SimTime,
        kind: TraceKind,
        label: impl FnOnce() -> S,
    ) {
        if !self.enabled {
            return;
        }
        debug_assert!(end >= start, "trace interval with negative length");
        let lane = self.intern(lane.as_ref());
        self.intervals.push(TraceInterval {
            lane,
            start,
            end,
            kind,
            label: label().into(),
        });
    }

    /// All recorded intervals in recording order.
    pub fn intervals(&self) -> &[TraceInterval] {
        &self.intervals
    }

    /// Distinct lane names in first-appearance order.
    pub fn lanes(&self) -> &[Arc<str>] {
        &self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        log.record(
            "gpu0",
            SimTime::ZERO,
            SimTime::from_secs_f64(1.0),
            TraceKind::Prefill,
            "P1",
        );
        assert!(log.intervals().is_empty());
        assert!(log.lanes().is_empty());
    }

    #[test]
    fn disabled_log_never_runs_label_closure() {
        let mut log = TraceLog::disabled();
        let mut called = false;
        log.record_with(
            "gpu0",
            SimTime::ZERO,
            SimTime::from_secs_f64(1.0),
            TraceKind::Prefill,
            || {
                called = true;
                "P1"
            },
        );
        assert!(!called, "label closure must not run when disabled");
    }

    #[test]
    fn enabled_log_preserves_order_and_lanes() {
        let mut log = TraceLog::enabled();
        let t1 = SimTime::from_secs_f64(1.0);
        let t2 = SimTime::from_secs_f64(2.0);
        log.record("gpu1", SimTime::ZERO, t1, TraceKind::Prefill, "P1");
        log.record("gpu0", t1, t2, TraceKind::Decode, "D1");
        log.record("gpu1", t1, t2, TraceKind::Switch, "S");
        assert_eq!(log.intervals().len(), 3);
        let lanes: Vec<&str> = log.lanes().iter().map(|l| &**l).collect();
        assert_eq!(lanes, vec!["gpu1", "gpu0"]);
    }

    #[test]
    fn lanes_are_interned() {
        let mut log = TraceLog::enabled();
        let t1 = SimTime::from_secs_f64(1.0);
        log.record("gpu0", SimTime::ZERO, t1, TraceKind::Prefill, "a");
        log.record("gpu0", SimTime::ZERO, t1, TraceKind::Decode, "b");
        let ivs = log.intervals();
        assert!(
            Arc::ptr_eq(&ivs[0].lane, &ivs[1].lane),
            "same lane must share one allocation"
        );
    }
}
