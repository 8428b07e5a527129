//! Request-lifecycle span trees.
//!
//! A [`Span`] is a half-open interval `[start, end)` on a named track with
//! an optional parent (building a tree: request → queue wait → prefill →
//! per-decode-round → …) and an optional *cause* link pointing at the span
//! or instant that triggered it (a scheduler decision, an auto-scale
//! event). Instants are zero-length spans.
//!
//! The same log type holds a run's per-GPU schedule, the Gantt charts of
//! Figures 2 and 6: closed prefill, decode-round and switch intervals on
//! GPU-lane tracks, recorded with [`SpanLog::record_with`].
//!
//! When disabled every recording call is a single branch — neither the
//! track nor the label closure runs, nothing allocates — so the simulation
//! hot path pays nothing. Recording never perturbs the system being
//! observed; the differential telemetry tests assert bit-identical results
//! with the log on and off.

use std::sync::Arc;

use aegaeon_sim::{FxHashMap, SimTime};

/// Classifies a span for export (`cat` in Chrome Trace Event Format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A request's whole lifetime (arrival → completion).
    Request,
    /// Waiting in a prefill or decode queue.
    QueueWait,
    /// Prefill execution.
    Prefill,
    /// A KV-cache transfer (offload, swap-in, cross-node hop).
    KvTransfer,
    /// One decoding round (a batch's turn) or a request's share of it.
    DecodeRound,
    /// Preemptive auto-scaling (model switch).
    Switch,
    /// A proxy retry / failure-recovery re-dispatch.
    Retry,
    /// A preemption (turn quota expired with work left).
    Preempt,
    /// A scheduler decision instant (placement, dispatch).
    Decision,
    /// Anything else.
    Other,
}

impl SpanKind {
    /// Stable lowercase name used by both exporters.
    pub(crate) fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::QueueWait => "queue-wait",
            SpanKind::Prefill => "prefill",
            SpanKind::KvTransfer => "kv-transfer",
            SpanKind::DecodeRound => "decode-round",
            SpanKind::Switch => "switch",
            SpanKind::Retry => "retry",
            SpanKind::Preempt => "preempt",
            SpanKind::Decision => "decision",
            SpanKind::Other => "other",
        }
    }
}

/// Handle to a recorded span. [`SpanId::NONE`] is the null handle: ending
/// it is a no-op, and it is what every recording call returns while the
/// log is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub(crate) u32);

impl SpanId {
    /// The null handle (no span).
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// True if this is the null handle.
    pub(crate) fn is_none(self) -> bool {
        self == SpanId::NONE
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Track the span renders on (interned; clones are pointer copies).
    pub track: Arc<str>,
    /// Category.
    pub kind: SpanKind,
    /// Short label, e.g. `"P:m3"`.
    pub label: String,
    /// Start instant.
    pub start: SimTime,
    /// End instant; `SimTime::MAX` while the span is open.
    pub end: SimTime,
    /// Parent span (tree edge), or [`SpanId::NONE`].
    pub parent: SpanId,
    /// Causal link (the decision/scale event that placed this work), or
    /// [`SpanId::NONE`].
    pub cause: SpanId,
}

impl Span {
    /// True while the span has not been ended.
    pub fn is_open(&self) -> bool {
        self.end == SimTime::MAX
    }
}

/// An append-only log of spans, disabled by default.
#[derive(Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    spans: Vec<Span>,
    /// Distinct tracks in first-appearance order.
    tracks: Vec<Arc<str>>,
    /// Intern table: each track's position in `tracks`. Tracks are per
    /// request, so a linear scan would make recording quadratic.
    index: FxHashMap<Arc<str>, u32>,
}

impl SpanLog {
    /// Creates a disabled log (records nothing).
    pub fn disabled() -> SpanLog {
        SpanLog::default()
    }

    /// Creates an enabled log.
    pub fn enabled() -> SpanLog {
        SpanLog {
            enabled: true,
            ..SpanLog::default()
        }
    }

    /// True if recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn intern(&mut self, track: &str) -> Arc<str> {
        if let Some(&i) = self.index.get(track) {
            return Arc::clone(&self.tracks[i as usize]);
        }
        let t: Arc<str> = Arc::from(track);
        self.index.insert(Arc::clone(&t), self.tracks.len() as u32);
        self.tracks.push(Arc::clone(&t));
        t
    }

    /// Opens a span. Both the track closure and the label closure only run
    /// when the log is enabled; when disabled this is a single branch and
    /// returns [`SpanId::NONE`].
    pub fn start<T, S>(
        &mut self,
        track: impl FnOnce() -> T,
        kind: SpanKind,
        at: SimTime,
        parent: SpanId,
        cause: SpanId,
        label: impl FnOnce() -> S,
    ) -> SpanId
    where
        T: AsRef<str>,
        S: Into<String>,
    {
        if !self.enabled {
            return SpanId::NONE;
        }
        let track = self.intern(track().as_ref());
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            track,
            kind,
            label: label().into(),
            start: at,
            end: SimTime::MAX,
            parent,
            cause,
        });
        id
    }

    /// Interns `track` without recording on it, so a track named up front
    /// keeps its place in [`SpanLog::tracks`] whatever order the tracks
    /// record in. The closure only runs when the log is enabled.
    pub fn add_track<T: AsRef<str>>(&mut self, track: impl FnOnce() -> T) {
        if self.enabled {
            self.intern(track().as_ref());
        }
    }

    /// Every span with its track's position in [`SpanLog::tracks`],
    /// ordered by track, then start, then end: the order does not depend
    /// on when each span was recorded, which is what exporters of an
    /// after-the-fact log (a GPU schedule) need.
    pub(crate) fn by_track(&self) -> Vec<(usize, &Span)> {
        let mut v: Vec<(usize, &Span)> = self
            .spans
            .iter()
            .map(|s| (self.index[&s.track] as usize, s))
            .collect();
        v.sort_by_key(|&(t, s)| (t, s.start, s.end));
        v
    }

    /// Closes `id` at `at`. No-op on the null handle or when disabled.
    pub fn end(&mut self, id: SpanId, at: SimTime) {
        if !self.enabled || id.is_none() {
            return;
        }
        let s = &mut self.spans[id.0 as usize];
        debug_assert!(s.is_open(), "span ended twice");
        debug_assert!(at >= s.start, "span ends before it starts");
        s.end = at;
    }

    /// Records a zero-length instant (decisions, retries, preemptions).
    pub fn instant<T, S>(
        &mut self,
        track: impl FnOnce() -> T,
        kind: SpanKind,
        at: SimTime,
        cause: SpanId,
        label: impl FnOnce() -> S,
    ) -> SpanId
    where
        T: AsRef<str>,
        S: Into<String>,
    {
        let id = self.start(track, kind, at, SpanId::NONE, cause, label);
        self.end(id, at);
        id
    }

    /// Records the closed interval `[start, end)` with no parent or cause
    /// (a schedule lane's prefill, decode round or switch). Like
    /// [`SpanLog::start`], both closures only run when the log is enabled.
    /// The interval is recorded after the fact, so it may start before
    /// earlier records: a log fed this way is for rendering, not for
    /// [`SpanLog::validate`].
    pub fn record_with<T, S>(
        &mut self,
        track: impl FnOnce() -> T,
        kind: SpanKind,
        start: SimTime,
        end: SimTime,
        label: impl FnOnce() -> S,
    ) where
        T: AsRef<str>,
        S: Into<String>,
    {
        let id = self.start(track, kind, start, SpanId::NONE, SpanId::NONE, label);
        self.end(id, end);
    }

    /// Closes every still-open span at `at` (end-of-run truncation), so an
    /// exported trace never contains dangling intervals.
    pub fn close_open(&mut self, at: SimTime) {
        if !self.enabled {
            return;
        }
        for s in &mut self.spans {
            if s.is_open() {
                s.end = s.start.max(at);
            }
        }
    }

    /// All recorded spans in recording order ([`SpanId`] indexes this).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Distinct track names in first-appearance order.
    pub fn tracks(&self) -> &[Arc<str>] {
        &self.tracks
    }

    /// Position of `track` in [`SpanLog::tracks`], if it was recorded.
    pub(crate) fn track_index(&self, track: &str) -> Option<usize> {
        self.index.get(track).map(|&i| i as usize)
    }

    /// Checks structural well-formedness, returning a description of the
    /// first violation: every span must end at or after its start, no span
    /// may remain open, parents must be earlier records whose interval
    /// contains the child's, and start instants must be nondecreasing in
    /// recording order (event-loop monotonicity).
    pub fn validate(&self) -> Option<String> {
        let mut last_start = SimTime::ZERO;
        for (i, s) in self.spans.iter().enumerate() {
            if s.is_open() {
                return Some(format!("span {i} ({}) still open", s.label));
            }
            if s.end < s.start {
                return Some(format!("span {i} ({}) ends before it starts", s.label));
            }
            if s.start < last_start {
                return Some(format!(
                    "span {i} ({}) starts at {:.9}s, before the previous record at {:.9}s",
                    s.label,
                    s.start.as_secs_f64(),
                    last_start.as_secs_f64()
                ));
            }
            last_start = s.start;
            if !s.parent.is_none() {
                let p = s.parent.0 as usize;
                if p >= i {
                    return Some(format!("span {i} ({}) has a non-earlier parent {p}", s.label));
                }
                let parent = &self.spans[p];
                if s.start < parent.start || s.end > parent.end {
                    return Some(format!(
                        "span {i} ({}) [{:.9}, {:.9}] escapes parent {p} ({}) [{:.9}, {:.9}]",
                        s.label,
                        s.start.as_secs_f64(),
                        s.end.as_secs_f64(),
                        parent.label,
                        parent.start.as_secs_f64(),
                        parent.end.as_secs_f64()
                    ));
                }
            }
            if !s.cause.is_none() && s.cause.0 as usize >= self.spans.len() {
                return Some(format!("span {i} ({}) has a dangling cause", s.label));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn disabled_log_is_a_single_branch() {
        let mut log = SpanLog::disabled();
        let mut track_ran = false;
        let mut label_ran = false;
        let id = log.start(
            || {
                track_ran = true;
                "req0"
            },
            SpanKind::Request,
            t(1.0),
            SpanId::NONE,
            SpanId::NONE,
            || {
                label_ran = true;
                "r0"
            },
        );
        assert!(id.is_none());
        assert!(!track_ran && !label_ran, "closures must not run when disabled");
        log.end(id, t(2.0));
        log.record_with(
            || {
                track_ran = true;
                "gpu0"
            },
            SpanKind::Prefill,
            t(1.0),
            t(2.0),
            || {
                label_ran = true;
                "P:m0"
            },
        );
        assert!(!track_ran && !label_ran, "closures must not run when disabled");
        assert!(log.spans().is_empty());
        assert!(log.tracks().is_empty());
    }

    #[test]
    fn span_tree_records_and_validates() {
        let mut log = SpanLog::enabled();
        let root = log.start(|| "req0", SpanKind::Request, t(0.0), SpanId::NONE, SpanId::NONE, || "r0");
        let wait = log.start(|| "req0", SpanKind::QueueWait, t(0.0), root, SpanId::NONE, || "wait");
        log.end(wait, t(1.0));
        let d = log.instant(|| "proxy", SpanKind::Decision, t(1.0), SpanId::NONE, || "place");
        let pf = log.start(|| "req0", SpanKind::Prefill, t(1.0), root, d, || "P");
        log.end(pf, t(2.0));
        log.end(root, t(3.0));
        assert_eq!(log.spans().len(), 4);
        assert!(log.validate().is_none(), "{:?}", log.validate());
        let tracks: Vec<&str> = log.tracks().iter().map(|t| &**t).collect();
        assert_eq!(tracks, vec!["req0", "proxy"]);
    }

    #[test]
    fn validate_flags_open_and_escaping_spans() {
        let mut log = SpanLog::enabled();
        let root = log.start(|| "a", SpanKind::Request, t(0.0), SpanId::NONE, SpanId::NONE, || "r");
        assert!(log.validate().unwrap().contains("still open"));
        log.end(root, t(1.0));
        assert!(log.validate().is_none());

        let child = log.start(|| "a", SpanKind::Prefill, t(0.5), root, SpanId::NONE, || "c");
        log.end(child, t(2.0)); // escapes the parent's [0, 1]
        assert!(log.validate().unwrap().contains("escapes parent"));
    }

    #[test]
    fn close_open_truncates_at_end_of_run() {
        let mut log = SpanLog::enabled();
        let a = log.start(|| "a", SpanKind::Request, t(0.0), SpanId::NONE, SpanId::NONE, || "r");
        let _b = log.start(|| "a", SpanKind::DecodeRound, t(2.0), a, SpanId::NONE, || "d");
        log.close_open(t(5.0));
        assert!(log.validate().is_none(), "{:?}", log.validate());
        assert_eq!(log.spans()[0].end, t(5.0));
        assert_eq!(log.spans()[1].end, t(5.0));
    }

    #[test]
    fn record_with_keeps_closed_intervals_in_recording_order() {
        let mut log = SpanLog::enabled();
        log.record_with(|| "gpu1", SpanKind::Prefill, t(1.0), t(2.0), || "P:m0");
        log.record_with(|| "gpu0", SpanKind::DecodeRound, t(2.0), t(3.0), || "D:m0");
        // A schedule interval is logged when it ends, so it may start
        // before the previous record.
        log.record_with(|| "gpu1", SpanKind::Switch, t(0.5), t(1.0), || "S:m1");
        let got: Vec<(&str, SpanKind, SimTime, SimTime, &str)> = log
            .spans()
            .iter()
            .map(|s| (&*s.track, s.kind, s.start, s.end, s.label.as_str()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("gpu1", SpanKind::Prefill, t(1.0), t(2.0), "P:m0"),
                ("gpu0", SpanKind::DecodeRound, t(2.0), t(3.0), "D:m0"),
                ("gpu1", SpanKind::Switch, t(0.5), t(1.0), "S:m1"),
            ]
        );
        for s in log.spans() {
            assert!(!s.is_open());
            assert!(s.parent.is_none() && s.cause.is_none());
        }
        let tracks: Vec<&str> = log.tracks().iter().map(|t| &**t).collect();
        assert_eq!(tracks, vec!["gpu1", "gpu0"]);
        assert!(log.validate().unwrap().contains("before the previous record"));
    }

    #[test]
    fn tracks_are_interned() {
        let mut log = SpanLog::enabled();
        let a = log.start(|| "gpu0", SpanKind::Prefill, t(0.0), SpanId::NONE, SpanId::NONE, || "x");
        let b = log.start(|| "gpu0", SpanKind::DecodeRound, t(0.5), SpanId::NONE, SpanId::NONE, || "y");
        log.end(a, t(1.0));
        log.end(b, t(1.0));
        let spans = log.spans();
        assert!(
            Arc::ptr_eq(&spans[0].track, &spans[1].track),
            "same track must share one allocation"
        );
        assert_eq!(log.tracks().len(), 1);
    }

    #[test]
    fn interning_keeps_first_appearance_order_at_scale() {
        let mut log = SpanLog::enabled();
        // 7919 is coprime to 10,000: a permutation of 0..10,000, so
        // first-appearance order differs from sorted order.
        let name = |i: u32| format!("req{}", i * 7919 % 10_000);
        let mut ids = Vec::new();
        for i in 0..10_000u32 {
            ids.push(log.instant(|| name(i), SpanKind::Other, t(0.0), SpanId::NONE, || "x"));
            // Revisit an earlier track every third span.
            if i % 3 == 0 {
                ids.push(log.instant(
                    || name(i / 2),
                    SpanKind::Other,
                    t(0.0),
                    SpanId::NONE,
                    || "y",
                ));
            }
        }
        let tracks: Vec<&str> = log.tracks().iter().map(|t| &**t).collect();
        let expected: Vec<String> = (0..10_000).map(name).collect();
        assert_eq!(tracks, expected, "first-appearance order");
        for (i, track) in log.tracks().iter().enumerate() {
            assert_eq!(log.track_index(track), Some(i));
        }
        assert_eq!(log.track_index("nope"), None);
        for id in ids {
            let s = &log.spans()[id.0 as usize];
            let i = log.track_index(&s.track).expect("recorded track");
            assert!(
                Arc::ptr_eq(&s.track, &log.tracks()[i]),
                "repeated track must share its Arc"
            );
        }
    }
}
