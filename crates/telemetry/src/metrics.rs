//! Sim-time metrics registry.
//!
//! Components register named instruments once at setup time (string work is
//! fine there) and get back dense integer ids; the hot-path operations —
//! [`inc`](MetricsRegistry::inc), [`set`](MetricsRegistry::set),
//! [`observe_sketch`](MetricsRegistry::observe_sketch) — are an index plus
//! an update, with a single branch when the registry is disabled. A poller
//! calls [`sample`](MetricsRegistry::sample) at a fixed sim-time interval to
//! snapshot every counter and gauge into a time series; quantile sketches,
//! the one distribution instrument, accumulate over the whole run.
//!
//! Sample timestamps are quantized to multiples of the sampling interval so
//! a series is reproducible regardless of the exact event times that
//! triggered the poll.

use aegaeon_sim::SimTime;

use crate::sketch::QuantileSketch;

/// Builds a labeled instrument name (`name{label="value"}`) with the label
/// value escaped per the Prometheus text exposition rules (`\\`, `\"`,
/// `\n`). The registry treats the result as an opaque name; the exporter
/// splits it back apart when it needs to merge extra labels (summaries).
pub fn labeled(name: &str, label: &str, value: &str) -> String {
    let mut out = String::with_capacity(name.len() + label.len() + value.len() + 6);
    out.push_str(name);
    out.push('{');
    out.push_str(label);
    out.push_str("=\"");
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push_str("\"}");
    out
}

/// Handle to a registered counter (monotone, reset never).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(pub u16);

/// Handle to a registered gauge (set to the current level each poll).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaugeId(pub u16);

/// Handle to a registered quantile sketch (summary-style instrument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SketchId(pub u16);

impl CounterId {
    /// Null handle returned by a disabled registry; all ops on it no-op.
    pub const NONE: CounterId = CounterId(u16::MAX);
}
impl GaugeId {
    /// Null handle returned by a disabled registry; all ops on it no-op.
    pub const NONE: GaugeId = GaugeId(u16::MAX);
}
impl SketchId {
    /// Null handle returned by a disabled registry; all ops on it no-op.
    pub const NONE: SketchId = SketchId(u16::MAX);
}

/// One sampled point of a counter or gauge series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Quantized sample instant (a multiple of the sampling interval).
    pub at: SimTime,
    /// Instrument value at that instant.
    pub value: f64,
}

#[derive(Debug)]
struct Series {
    name: String,
    value: f64,
    samples: Vec<Sample>,
}

/// Pre-registered counters, gauges and quantile sketches with dense ids.
///
/// Disabled by default; a disabled registry hands out null ids and every
/// hot-path operation on it is one branch.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Vec<Series>,
    gauges: Vec<Series>,
    sketches: Vec<(String, QuantileSketch)>,
}

impl MetricsRegistry {
    /// Creates a disabled registry (null ids, no-op operations).
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Creates an enabled registry.
    pub fn enabled() -> MetricsRegistry {
        MetricsRegistry {
            enabled: true,
            ..MetricsRegistry::default()
        }
    }

    /// True if recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers a counter (setup path; do not call per event).
    pub fn counter(&mut self, name: &str) -> CounterId {
        if !self.enabled {
            return CounterId::NONE;
        }
        debug_assert!(
            !self.counters.iter().any(|s| s.name == name),
            "duplicate counter {name}"
        );
        self.counters.push(Series {
            name: name.to_string(),
            value: 0.0,
            samples: Vec::new(),
        });
        CounterId((self.counters.len() - 1) as u16)
    }

    /// Registers a gauge (setup path).
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if !self.enabled {
            return GaugeId::NONE;
        }
        debug_assert!(
            !self.gauges.iter().any(|s| s.name == name),
            "duplicate gauge {name}"
        );
        self.gauges.push(Series {
            name: name.to_string(),
            value: 0.0,
            samples: Vec::new(),
        });
        GaugeId((self.gauges.len() - 1) as u16)
    }

    /// Registers a quantile sketch with relative accuracy `alpha` (setup
    /// path). Sketches render as Prometheus summaries.
    pub fn sketch(&mut self, name: &str, alpha: f64) -> SketchId {
        if !self.enabled {
            return SketchId::NONE;
        }
        debug_assert!(
            !self.sketches.iter().any(|(n, _)| n == name),
            "duplicate sketch {name}"
        );
        self.sketches
            .push((name.to_string(), QuantileSketch::new(alpha)));
        SketchId((self.sketches.len() - 1) as u16)
    }

    /// Records one sketch observation. One branch when disabled.
    #[inline]
    pub fn observe_sketch(&mut self, id: SketchId, value: f64) {
        if !self.enabled || id == SketchId::NONE {
            return;
        }
        self.sketches[id.0 as usize].1.insert(value);
    }

    /// Records a batch of sketch observations in order
    /// ([`QuantileSketch::insert_all`]). One branch when disabled.
    #[inline]
    pub fn observe_sketch_all(&mut self, id: SketchId, values: &[f64]) {
        if !self.enabled || id == SketchId::NONE {
            return;
        }
        self.sketches[id.0 as usize].1.insert_all(values);
    }

    /// All sketches as `(name, sketch)` in registration order.
    pub fn sketches(&self) -> impl Iterator<Item = (&str, &QuantileSketch)> {
        self.sketches.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Adds `by` to a counter. One branch when disabled or null-id.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        if !self.enabled || id == CounterId::NONE {
            return;
        }
        self.counters[id.0 as usize].value += by as f64;
    }

    /// Sets a counter to an absolute value (for surfacing counters that are
    /// already maintained elsewhere, e.g. `EventQueue::events_dispatched`).
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, value: u64) {
        if !self.enabled || id == CounterId::NONE {
            return;
        }
        self.counters[id.0 as usize].value = value as f64;
    }

    /// Sets a gauge level. One branch when disabled or null-id.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        if !self.enabled || id == GaugeId::NONE {
            return;
        }
        self.gauges[id.0 as usize].value = value;
    }

    /// Current value of a counter (for tests and run-level summaries).
    pub fn counter_value(&self, id: CounterId) -> f64 {
        if !self.enabled || id == CounterId::NONE {
            return 0.0;
        }
        self.counters[id.0 as usize].value
    }

    /// Snapshots every counter and gauge at quantized instant `at`.
    ///
    /// The poller is responsible for passing a boundary-quantized `at` (a
    /// multiple of the sampling interval) so series are independent of the
    /// precise event times that triggered polling.
    pub fn sample(&mut self, at: SimTime) {
        if !self.enabled {
            return;
        }
        for s in self.counters.iter_mut().chain(self.gauges.iter_mut()) {
            s.samples.push(Sample { at, value: s.value });
        }
    }

    /// All counter series as `(name, samples)` in registration order.
    pub fn counter_series(&self) -> impl Iterator<Item = (&str, &[Sample])> {
        self.counters.iter().map(|s| (s.name.as_str(), s.samples.as_slice()))
    }

    /// All gauge series as `(name, samples)` in registration order.
    pub fn gauge_series(&self) -> impl Iterator<Item = (&str, &[Sample])> {
        self.gauges.iter().map(|s| (s.name.as_str(), s.samples.as_slice()))
    }

    /// Final `(name, value)` of every counter, in registration order.
    pub fn counter_totals(&self) -> impl Iterator<Item = (&str, f64)> {
        self.counters.iter().map(|s| (s.name.as_str(), s.value))
    }

    /// Current `(name, value)` of every gauge, in registration order (the
    /// live value, independent of whether a sample boundary has passed).
    pub fn gauge_values(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|s| (s.name.as_str(), s.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn disabled_registry_is_inert() {
        let mut reg = MetricsRegistry::disabled();
        let c = reg.counter("x");
        let g = reg.gauge("y");
        assert_eq!(c, CounterId::NONE);
        assert_eq!(g, GaugeId::NONE);
        reg.inc(c, 3);
        reg.set(g, 5.0);
        reg.sample(t(1.0));
        assert_eq!(reg.counter_series().count(), 0);
        assert_eq!(reg.gauge_series().count(), 0);
    }

    #[test]
    fn counters_and_gauges_sample_into_series() {
        let mut reg = MetricsRegistry::enabled();
        let c = reg.counter("switches");
        let g = reg.gauge("queue_depth");
        reg.inc(c, 1);
        reg.set(g, 4.0);
        reg.sample(t(1.0));
        reg.inc(c, 2);
        reg.set(g, 2.0);
        reg.sample(t(2.0));
        let (name, samples) = reg.counter_series().next().unwrap();
        assert_eq!(name, "switches");
        assert_eq!(samples, &[Sample { at: t(1.0), value: 1.0 }, Sample { at: t(2.0), value: 3.0 }]);
        let (gname, gsamples) = reg.gauge_series().next().unwrap();
        assert_eq!(gname, "queue_depth");
        assert_eq!(gsamples[1].value, 2.0);
        assert_eq!(reg.counter_value(c), 3.0);
    }

    #[test]
    fn sketches_register_and_observe() {
        let mut reg = MetricsRegistry::enabled();
        let s = reg.sketch("ttft_seconds", 0.01);
        reg.observe_sketch(s, 0.5);
        reg.observe_sketch(s, 1.5);
        let (name, sk) = reg.sketches().next().unwrap();
        assert_eq!(name, "ttft_seconds");
        assert_eq!(sk.count(), 2);
        let mut off = MetricsRegistry::disabled();
        assert_eq!(off.sketch("x", 0.01), SketchId::NONE);
        off.observe_sketch(SketchId::NONE, 1.0);
        assert_eq!(off.sketches().count(), 0);
    }

    #[test]
    fn labeled_escapes_label_values() {
        assert_eq!(labeled("ttft", "model", "m0"), "ttft{model=\"m0\"}");
        assert_eq!(
            labeled("x", "l", "a\"b\\c\nd"),
            "x{l=\"a\\\"b\\\\c\\nd\"}"
        );
    }

    #[test]
    fn set_counter_overwrites_for_surfaced_stats() {
        let mut reg = MetricsRegistry::enabled();
        let c = reg.counter("events_dispatched");
        reg.set_counter(c, 1234);
        assert_eq!(reg.counter_value(c), 1234.0);
    }
}
