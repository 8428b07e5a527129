//! Sim-time metrics registry.
//!
//! Components register named instruments once at setup time (string work is
//! fine there) and get back dense integer ids; the hot-path operations —
//! [`inc`](MetricsRegistry::inc), [`set`](MetricsRegistry::set),
//! [`observe_sketch`](MetricsRegistry::observe_sketch) — are an index plus
//! an update, with a single branch when the registry is disabled. A poller
//! calls [`sample`](MetricsRegistry::sample) at a fixed sim-time interval;
//! quantile sketches, the one distribution instrument, accumulate over the
//! whole run.
//!
//! Series are change-only step functions. A sample appends a point to a
//! counter or gauge series only when the value differs (bit for bit) from
//! the series' last point, so an idle series costs nothing however much sim
//! time passes. A point holds until the next one.
//! [`sample_final`](MetricsRegistry::sample_final) closes the run by
//! appending every series' final value unconditionally, so a series' last
//! point is always its final value. The registry counts its sample calls
//! ([`samples_taken`](MetricsRegistry::samples_taken)), and [`expand`]
//! rebuilds from that count the dense series of one point per sample.
//!
//! Sample timestamps are quantized to multiples of the sampling interval so
//! a series is reproducible regardless of the exact event times that
//! triggered the poll.

use aegaeon_sim::{SimDur, SimTime};

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
pub struct CounterId(pub(crate) u16);

/// Handle to a registered gauge (set to the current level each poll).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaugeId(pub(crate) u16);

/// Handle to a registered quantile sketch (summary-style instrument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SketchId(pub(crate) u16);

impl CounterId {
    /// Null handle returned by a disabled registry; all ops on it no-op.
    pub(crate) const NONE: CounterId = CounterId(u16::MAX);
}
impl GaugeId {
    /// Null handle returned by a disabled registry; all ops on it no-op.
    pub(crate) const NONE: GaugeId = GaugeId(u16::MAX);
}
impl SketchId {
    /// Null handle returned by a disabled registry; all ops on it no-op.
    pub(crate) const NONE: SketchId = SketchId(u16::MAX);
}

/// One point of a counter or gauge series: the value from `at` until the
/// series' next point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Quantized sample instant (a multiple of the sampling interval).
    pub at: SimTime,
    /// Instrument value from that instant on.
    pub value: f64,
}

/// Rebuilds the dense series a finished change-only series stands for: one
/// point per sample call, on the grid `0, every, …, (taken − 1) × every`,
/// each holding the value of the last stored point at or before it, then
/// the final point [`MetricsRegistry::sample_final`] appended.
pub fn expand(points: &[Sample], every: SimDur, taken: u64) -> Vec<Sample> {
    let Some((last, changes)) = points.split_last() else {
        return Vec::new();
    };
    let mut out = Vec::with_capacity(taken as usize + 1);
    let mut changes = changes.iter().peekable();
    let mut value = f64::NAN;
    for k in 0..taken {
        let at = SimTime::from_nanos(k * every.as_nanos());
        while let Some(p) = changes.next_if(|p| p.at <= at) {
            value = p.value;
        }
        out.push(Sample { at, value });
    }
    out.push(*last);
    out
}

#[derive(Debug)]
struct Series {
    name: String,
    value: f64,
    points: Vec<Sample>,
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
    samples_taken: u64,
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

    /// True if this registry records.
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
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
            points: Vec::new(),
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
            points: Vec::new(),
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
    /// (`QuantileSketch::insert_all`). One branch when disabled.
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

    /// Samples every counter and gauge at quantized instant `at`: a series
    /// gets a point only when its value differs from its last point
    /// (compared with `f64::to_bits`, so a held NaN stores one point).
    ///
    /// The poller is responsible for passing a boundary-quantized `at` (a
    /// multiple of the sampling interval) so series are independent of the
    /// precise event times that triggered polling.
    pub fn sample(&mut self, at: SimTime) {
        if !self.enabled {
            return;
        }
        self.samples_taken += 1;
        for s in self.counters.iter_mut().chain(self.gauges.iter_mut()) {
            if s.points.last().is_none_or(|p| p.value.to_bits() != s.value.to_bits()) {
                s.points.push(Sample { at, value: s.value });
            }
        }
    }

    /// Appends every counter's and gauge's value at `at`, changed or not:
    /// the final point of each series. Not counted as a sample call.
    pub fn sample_final(&mut self, at: SimTime) {
        for s in self.counters.iter_mut().chain(self.gauges.iter_mut()) {
            s.points.push(Sample { at, value: s.value });
        }
    }

    /// [`sample`](Self::sample) calls so far: the length of the dense grid
    /// [`expand`] rebuilds.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// All counter series as `(name, points)` in registration order.
    pub fn counter_series(&self) -> impl Iterator<Item = (&str, &[Sample])> {
        self.counters.iter().map(|s| (s.name.as_str(), s.points.as_slice()))
    }

    /// All gauge series as `(name, points)` in registration order.
    pub fn gauge_series(&self) -> impl Iterator<Item = (&str, &[Sample])> {
        self.gauges.iter().map(|s| (s.name.as_str(), s.points.as_slice()))
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
        reg.sample_final(t(1.0));
        assert_eq!(reg.counter_series().count(), 0);
        assert_eq!(reg.gauge_series().count(), 0);
        assert_eq!(reg.samples_taken(), 0);
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
        assert_eq!(reg.counter_totals().collect::<Vec<_>>(), [("switches", 3.0)]);
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
        reg.inc(c, 7);
        reg.set_counter(c, 1234);
        assert_eq!(reg.counter_totals().collect::<Vec<_>>(), [("events_dispatched", 1234.0)]);
    }

    #[test]
    fn counter_totals_read_the_unsampled_value() {
        let mut reg = MetricsRegistry::enabled();
        let c = reg.counter("scale_ups");
        reg.inc(c, 2);
        reg.inc(c, 5);
        assert_eq!(reg.counter_series().next().unwrap().1, &[] as &[Sample]);
        assert_eq!(reg.counter_totals().collect::<Vec<_>>(), [("scale_ups", 7.0)]);
        assert_eq!(MetricsRegistry::disabled().counter_totals().count(), 0);
    }

    #[test]
    fn batched_sketch_observations_equal_single_ones() {
        let mut reg = MetricsRegistry::enabled();
        let one = reg.sketch("one", 0.01);
        let all = reg.sketch("all", 0.01);
        let vals = [0.3, 1.7, 0.02, 9.0, 1.7, 4.4];
        for &v in &vals {
            reg.observe_sketch(one, v);
        }
        reg.observe_sketch_all(all, &vals);
        let s: Vec<&QuantileSketch> = reg.sketches().map(|(_, s)| s).collect();
        assert_eq!(s[0].count(), s[1].count());
        assert_eq!(s[0].sum().to_bits(), s[1].sum().to_bits());
        for q in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(s[0].quantile(q).to_bits(), s[1].quantile(q).to_bits());
        }
        // A disabled registry ignores the batch.
        let mut off = MetricsRegistry::disabled();
        let id = off.sketch("x", 0.01);
        off.observe_sketch_all(id, &vals);
        assert_eq!(off.sketches().count(), 0);
    }

    #[test]
    fn a_value_changed_and_restored_between_samples_stores_no_point() {
        let mut reg = MetricsRegistry::enabled();
        let g = reg.gauge("depth");
        reg.set(g, 3.0);
        reg.sample(t(0.0));
        reg.set(g, 5.0);
        reg.set(g, 3.0);
        reg.sample(t(1.0));
        reg.sample(t(2.0));
        let (_, points) = reg.gauge_series().next().unwrap();
        assert_eq!(points, &[Sample { at: t(0.0), value: 3.0 }]);
        assert_eq!(reg.samples_taken(), 3);
    }

    #[test]
    fn a_held_nan_gauge_stores_one_point() {
        let mut reg = MetricsRegistry::enabled();
        let g = reg.gauge("ratio");
        reg.set(g, f64::NAN);
        for s in 0..4 {
            reg.sample(t(s as f64));
        }
        let (_, points) = reg.gauge_series().next().unwrap();
        assert_eq!(points.len(), 1);
        assert!(points[0].value.is_nan());
        // Zero and negative zero differ in bits, so the flip is stored.
        reg.set(g, 0.0);
        reg.sample(t(4.0));
        reg.set(g, -0.0);
        reg.sample(t(5.0));
        let (_, points) = reg.gauge_series().next().unwrap();
        assert_eq!(points.len(), 3);
    }

    #[test]
    fn sample_final_appends_even_when_nothing_changed() {
        let mut reg = MetricsRegistry::enabled();
        let c = reg.counter("switches");
        reg.inc(c, 2);
        reg.sample(t(0.0));
        reg.sample(t(1.0));
        reg.sample_final(t(1.0));
        let (_, points) = reg.counter_series().next().unwrap();
        assert_eq!(
            points,
            &[Sample { at: t(0.0), value: 2.0 }, Sample { at: t(1.0), value: 2.0 }]
        );
        assert_eq!(reg.samples_taken(), 2, "the final point is no sample call");
    }

    #[test]
    fn expand_rebuilds_the_dense_grid() {
        let mut reg = MetricsRegistry::enabled();
        let g = reg.gauge("depth");
        let mut dense = Vec::new();
        for (k, v) in [1.0, 1.0, 4.0, 4.0, 4.0, 1.0].into_iter().enumerate() {
            reg.set(g, v);
            reg.sample(t(k as f64));
            dense.push(Sample { at: t(k as f64), value: v });
        }
        reg.set(g, 9.0);
        reg.sample_final(t(5.0));
        dense.push(Sample { at: t(5.0), value: 9.0 });
        let (_, points) = reg.gauge_series().next().unwrap();
        assert_eq!(points.len(), 4, "three changes and the final point");
        let every = SimDur::from_secs(1);
        assert_eq!(expand(points, every, reg.samples_taken()), dense);
        assert_eq!(expand(&[], every, 3), []);
    }
}
