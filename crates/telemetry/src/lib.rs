//! Telemetry: request-lifecycle spans, a sim-time metrics registry, and
//! Perfetto/JSONL exporters.
//!
//! The crate has three parts:
//!
//! * [`span`] — [`SpanLog`], an append-only log of request-lifecycle span
//!   trees (arrival → queue wait → prefill → KV transfer → decode rounds)
//!   with parent and cause links.
//! * [`metrics`] — [`MetricsRegistry`], pre-registered counter/gauge/
//!   quantile-sketch handles with dense ids; a poller samples counters and
//!   gauges into time series at a fixed sim-time interval.
//! * [`export`] — [`chrome_trace`] (Chrome Trace Event Format, loadable in
//!   Perfetto / `chrome://tracing`) and [`jsonl`].
//!
//! Everything follows the `TraceLog` discipline: disabled telemetry costs
//! one branch per call site, runs no label closures, and allocates nothing.
//! The observing layer is proven side-effect free by a differential test
//! (telemetry on vs. off produces bit-identical run results); to keep that
//! guarantee the registry poller is driven from the host's dispatch loop
//! via [`Telemetry::sample_due`] rather than by a queue event, so enabling
//! telemetry never changes event counts or tie-breaking.

pub mod export;
pub mod metrics;
pub mod observatory;
pub mod sketch;
pub mod span;

pub use export::{
    chrome_trace, jsonl, looks_like_trace_event_json, prometheus_text, slo_json, PID_CLUSTER,
    PID_METRICS, PID_REQUESTS, SUMMARY_QUANTILES,
};
pub use metrics::{labeled, CounterId, GaugeId, MetricsRegistry, Sample, SketchId};
pub use observatory::{AttributionLedger, CostKind, SloCum, SloObservatory, SloPoint};
pub use sketch::QuantileSketch;
pub use span::{Span, SpanId, SpanKind, SpanLog};

use aegaeon_sim::{SimDur, SimTime};

/// Configuration for a run's telemetry: off by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Record spans and metrics.
    pub enabled: bool,
    /// Sim-time interval between registry samples.
    pub sample_every: SimDur,
    /// Width of the SLO observatory's sim-time windows.
    pub slo_window: SimDur,
}

impl TelemetrySpec {
    /// Telemetry off (the default; zero overhead beyond one branch per hook).
    pub fn disabled() -> TelemetrySpec {
        TelemetrySpec {
            enabled: false,
            sample_every: SimDur::from_millis(100),
            slo_window: SimDur::from_secs(10),
        }
    }

    /// Telemetry on with the default 100 ms sampling interval.
    pub fn enabled() -> TelemetrySpec {
        TelemetrySpec {
            enabled: true,
            ..TelemetrySpec::disabled()
        }
    }

    /// Telemetry on with a custom sampling interval.
    pub fn with_sample_every(sample_every: SimDur) -> TelemetrySpec {
        TelemetrySpec {
            enabled: true,
            sample_every,
            ..TelemetrySpec::disabled()
        }
    }
}

impl Default for TelemetrySpec {
    fn default() -> TelemetrySpec {
        TelemetrySpec::disabled()
    }
}

/// A run's telemetry state: the span log, the metrics registry, and the
/// sampling cursor for the dispatch-loop poller.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Request-lifecycle spans.
    pub spans: SpanLog,
    /// Counters, gauges and quantile sketches.
    pub metrics: MetricsRegistry,
    /// Windowed per-model SLO series (configured by the host, which knows
    /// the model count; stays inert until [`SloObservatory::new`] replaces
    /// it).
    pub slo: SloObservatory,
    /// Switch-cost attribution ledger (instances registered by the host).
    pub attrib: AttributionLedger,
    sample_every: SimDur,
    next_sample: SimTime,
}

impl Telemetry {
    /// Builds telemetry from a spec; disabled specs produce an inert value.
    pub fn new(spec: &TelemetrySpec) -> Telemetry {
        if !spec.enabled {
            return Telemetry::disabled();
        }
        Telemetry {
            spans: SpanLog::enabled(),
            metrics: MetricsRegistry::enabled(),
            slo: SloObservatory::disabled(),
            attrib: AttributionLedger::enabled(),
            sample_every: spec.sample_every.max(SimDur::from_nanos(1)),
            next_sample: SimTime::ZERO,
        }
    }

    /// An inert telemetry value (every hook is one branch).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// True if this run records telemetry.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.spans.is_enabled()
    }

    /// Dispatch-loop poller: if a sample boundary has been reached, returns
    /// the boundary-quantized instant to stamp the sample with and advances
    /// the cursor. Call in a `while let Some(at) = …` loop, compute gauges,
    /// then call `metrics.sample(at)`.
    ///
    /// Sample instants are always exact multiples of `sample_every`
    /// regardless of the event times that triggered polling, and the poller
    /// never schedules queue events, so telemetry cannot perturb event
    /// counts or FIFO tie-breaking in the simulation.
    #[inline]
    pub fn sample_due(&mut self, now: SimTime) -> Option<SimTime> {
        if !self.is_enabled() || now < self.next_sample {
            return None;
        }
        let at = self.next_sample;
        self.next_sample = at + self.sample_every;
        Some(at)
    }

    /// End-of-run hook: closes any spans still open at `end` and takes one
    /// final registry sample stamped at the last boundary not after `end`.
    pub fn finish(&mut self, end: SimTime) {
        if !self.is_enabled() {
            return;
        }
        self.spans.close_open(end);
        self.slo.finish();
        let step = self.sample_every.as_nanos().max(1);
        let at = SimTime::from_nanos(end.as_nanos() / step * step);
        self.metrics.sample(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spec_builds_inert_telemetry() {
        let t = Telemetry::new(&TelemetrySpec::disabled());
        assert!(!t.is_enabled());
        let mut t = t;
        assert!(t.sample_due(SimTime::from_secs_f64(100.0)).is_none());
    }

    #[test]
    fn sample_due_quantizes_to_boundaries() {
        let spec = TelemetrySpec::with_sample_every(SimDur::from_millis(10));
        let mut t = Telemetry::new(&spec);
        // First event at t=3ms: boundary 0 is due.
        assert_eq!(t.sample_due(SimTime::from_nanos(3_000_000)), Some(SimTime::ZERO));
        assert_eq!(t.sample_due(SimTime::from_nanos(3_000_000)), None);
        // An event at t=27ms drains boundaries 10ms and 20ms.
        let now = SimTime::from_nanos(27_000_000);
        assert_eq!(t.sample_due(now), Some(SimTime::from_nanos(10_000_000)));
        assert_eq!(t.sample_due(now), Some(SimTime::from_nanos(20_000_000)));
        assert_eq!(t.sample_due(now), None);
    }

    #[test]
    fn finish_closes_spans_and_takes_final_sample() {
        let spec = TelemetrySpec::with_sample_every(SimDur::from_millis(10));
        let mut t = Telemetry::new(&spec);
        let g = t.metrics.gauge("depth");
        t.metrics.set(g, 7.0);
        let s = t.spans.start(|| "req0", SpanKind::Request, SimTime::ZERO, SpanId::NONE, SpanId::NONE, || "r");
        let _ = s;
        t.finish(SimTime::from_nanos(25_000_000));
        assert!(t.spans.validate().is_none(), "{:?}", t.spans.validate());
        let (_, samples) = t.metrics.gauge_series().next().unwrap();
        assert_eq!(samples.last().unwrap().at, SimTime::from_nanos(20_000_000));
        assert_eq!(samples.last().unwrap().value, 7.0);
    }
}
