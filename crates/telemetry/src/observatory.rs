//! The SLO observatory: windowed per-model SLO series and the
//! switch-cost attribution ledger.
//!
//! Both live inside [`Telemetry`](crate::Telemetry), which run results
//! exclude from their fingerprint — so, like spans and the metrics
//! registry, everything here is observer-only by construction. Both follow
//! the registry discipline: a disabled value costs one branch per call and
//! allocates nothing.
//!
//! # Windowing
//!
//! The observatory slices sim time into fixed windows (`window_ns` wide,
//! aligned to multiples of the width). A request is attributed to the
//! window of its **retirement** instant — retirement is the only moment
//! all of its token timings are known, and it keeps the feeding hook a
//! single call site. Hosts call [`SloObservatory::observe_request`] with
//! the retirement time; the observatory seals every window boundary that
//! has passed first, so points are emitted in nondecreasing window order
//! regardless of event jitter. Empty windows are skipped (a quiescent gap
//! produces no points rather than a run of zeros).
//!
//! # Cumulative totals
//!
//! Per-model cumulative totals take every retired request as it retires.
//! At the end of a run the host adds every request that never retired
//! (rejected, starved, or cut off by the hard stop) through
//! [`SloObservatory::observe_unfinished`], scored by the same token-deadline
//! rule as the offline figure, so after finish the cumulative rows equal
//! `aegaeon_metrics::slo::attainment_per_model`. Unfinished requests have
//! no retirement instant, so they join no window.
//!
//! # Attribution
//!
//! The [`AttributionLedger`] answers the paper's auto-scaling-overhead
//! question: of each instance's busy seconds, how many were useful
//! (prefill/decode execution) versus overhead (model switches, KV swap
//! traffic)? Cells are keyed `(instance, model, kind)` with instances
//! registered once at setup, so the hot-path [`AttributionLedger::add`]
//! is an index bump into a dense per-instance row — and walking the rows
//! in index order is key order, so exports stay deterministic.

use crate::sketch::QuantileSketch;

/// Relative accuracy used by every observatory sketch (1%).
pub const SLO_SKETCH_ALPHA: f64 = 0.01;

/// Width of the observatory's sim-time windows every run uses (10 s).
pub const SLO_WINDOW_NS: u64 = 10_000_000_000;

/// One sealed window of one model's SLO series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloPoint {
    /// Exclusive end of the window (a multiple of the window width, except
    /// for the final partial window sealed by `finish`).
    pub(crate) window_end_ns: u64,
    /// Model index.
    pub(crate) model: u32,
    /// Requests retired in this window.
    pub(crate) requests: u64,
    /// Tokens produced by those requests.
    pub(crate) tokens: u64,
    /// Tokens that met their per-token deadline.
    pub(crate) tokens_met: u64,
    /// TTFT quantiles over requests retired in the window (NaN when none).
    pub(crate) ttft_p50: f64,
    /// 90th-percentile TTFT.
    pub(crate) ttft_p90: f64,
    /// 99th-percentile TTFT.
    pub(crate) ttft_p99: f64,
    /// Median time-between-tokens.
    pub(crate) tbt_p50: f64,
    /// 90th-percentile TBT.
    pub(crate) tbt_p90: f64,
    /// 99th-percentile TBT.
    pub(crate) tbt_p99: f64,
    /// `tokens_met / tokens` (1.0 for an all-met or empty window).
    pub(crate) attainment: f64,
    /// Tokens per simulated second of window width.
    pub(crate) goodput_tps: f64,
}

/// Per-model accumulator for the currently open window.
#[derive(Debug)]
struct ModelWindow {
    ttft: QuantileSketch,
    tbt: QuantileSketch,
    totals: SloCum,
}

impl ModelWindow {
    fn new() -> ModelWindow {
        ModelWindow {
            ttft: QuantileSketch::new(SLO_SKETCH_ALPHA),
            tbt: QuantileSketch::new(SLO_SKETCH_ALPHA),
            totals: SloCum::default(),
        }
    }

    fn clear(&mut self) {
        self.ttft.clear();
        self.tbt.clear();
        self.totals = SloCum::default();
    }
}

/// Per-model token totals: a window's, or the whole run's.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloCum {
    /// Requests retired.
    pub requests: u64,
    /// Tokens counted: every token of a retired request, plus (cumulative
    /// totals only, from finish onwards) the tokens unfinished requests
    /// owed by the horizon.
    pub tokens: u64,
    /// Tokens that met their deadline.
    pub tokens_met: u64,
}

impl SloCum {
    fn add(&mut self, requests: u64, tokens: u64, tokens_met: u64) {
        self.requests += requests;
        self.tokens += tokens;
        self.tokens_met += tokens_met;
    }

    /// Attainment ratio `tokens_met / tokens` (1.0 when no tokens yet).
    pub(crate) fn attainment(&self) -> f64 {
        if self.tokens == 0 {
            1.0
        } else {
            self.tokens_met as f64 / self.tokens as f64
        }
    }
}

/// Cumulative (whole-run) per-model agentic-turn series.
///
/// Turn latency is **turn-scoped**: arrival → final token of one session
/// turn. The think gap between a turn's completion and the next turn's
/// arrival is client time, not serving time — turns are separate requests,
/// so inter-turn gaps never enter the TBT sketches by construction, and
/// this series keeps them out of turn latency too (each turn's clock
/// starts at its own arrival).
#[derive(Debug)]
pub(crate) struct TurnCum {
    /// Session turns retired (requests with a session id).
    pub(crate) turns: u64,
    /// Turns that prefilled only their delta off a retained prefix.
    pub(crate) prefix_hits: u64,
    /// Deepest turn index observed, plus one (session depth reached).
    pub(crate) max_depth: u32,
    latency: QuantileSketch,
}

impl TurnCum {
    fn new() -> TurnCum {
        TurnCum {
            turns: 0,
            prefix_hits: 0,
            max_depth: 0,
            latency: QuantileSketch::new(SLO_SKETCH_ALPHA),
        }
    }

    /// Turn-latency quantile (NaN when no turns retired).
    pub(crate) fn latency_quantile(&self, q: f64) -> f64 {
        self.latency.quantile(q)
    }

    /// `prefix_hits / turns` (0.0 when no turns retired).
    pub(crate) fn prefix_hit_rate(&self) -> f64 {
        if self.turns == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / self.turns as f64
        }
    }
}

/// Windowed per-model SLO series (see module docs).
#[derive(Debug, Default)]
pub struct SloObservatory {
    enabled: bool,
    window_ns: u64,
    /// Exclusive end of the currently open window.
    next_roll: u64,
    cur: Vec<ModelWindow>,
    cum: Vec<SloCum>,
    points: Vec<SloPoint>,
    turns: Vec<TurnCum>,
}

impl SloObservatory {
    /// An enabled observatory for `n_models` models with `window_ns`-wide
    /// windows (clamped to ≥ 1 ns).
    pub fn new(n_models: usize, window_ns: u64) -> SloObservatory {
        let window_ns = window_ns.max(1);
        SloObservatory {
            enabled: true,
            window_ns,
            next_roll: window_ns,
            cur: (0..n_models).map(|_| ModelWindow::new()).collect(),
            cum: vec![SloCum::default(); n_models],
            points: Vec::new(),
            turns: (0..n_models).map(|_| TurnCum::new()).collect(),
        }
    }

    /// An inert observatory (the `Default`).
    pub(crate) fn disabled() -> SloObservatory {
        SloObservatory::default()
    }

    /// True if this observatory records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of models tracked.
    pub fn n_models(&self) -> usize {
        self.cum.len()
    }

    /// Seals every window whose end is ≤ `now_ns`.
    fn advance(&mut self, now_ns: u64) {
        while self.next_roll <= now_ns {
            let end = self.next_roll;
            self.seal(end);
            // Fast-forward across fully idle stretches instead of stepping
            // one empty window at a time.
            if self.cur.iter().all(|w| w.totals.requests == 0)
                && self.next_roll + self.window_ns <= now_ns
            {
                let gap = (now_ns - self.next_roll) / self.window_ns;
                self.next_roll += gap * self.window_ns;
            }
            self.next_roll += self.window_ns;
        }
    }

    fn seal(&mut self, end_ns: u64) {
        let window_secs = self.window_ns as f64 / 1e9;
        for (m, w) in self.cur.iter_mut().enumerate() {
            let t = w.totals;
            if t.requests == 0 {
                continue;
            }
            self.points.push(SloPoint {
                window_end_ns: end_ns,
                model: m as u32,
                requests: t.requests,
                tokens: t.tokens,
                tokens_met: t.tokens_met,
                ttft_p50: w.ttft.quantile(0.50),
                ttft_p90: w.ttft.quantile(0.90),
                ttft_p99: w.ttft.quantile(0.99),
                tbt_p50: w.tbt.quantile(0.50),
                tbt_p90: w.tbt.quantile(0.90),
                tbt_p99: w.tbt.quantile(0.99),
                attainment: t.attainment(),
                goodput_tps: t.tokens as f64 / window_secs,
            });
            w.clear();
        }
    }

    /// Records one retired request: its TTFT, each inter-token gap, and how
    /// many of its `tokens` met their deadline. `retired_ns` drives window
    /// sealing and must be nondecreasing across calls (event time is).
    pub fn observe_request(
        &mut self,
        retired_ns: u64,
        model: u32,
        ttft_secs: f64,
        tbts_secs: &[f64],
        tokens: u64,
        tokens_met: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.advance(retired_ns);
        let w = &mut self.cur[model as usize];
        w.ttft.insert(ttft_secs);
        w.tbt.insert_all(tbts_secs);
        w.totals.add(1, tokens, tokens_met);
        self.cum[model as usize].add(1, tokens, tokens_met);
    }

    /// Adds a request that never retired to `model`'s cumulative totals:
    /// the `tokens` it owed by the horizon and the `tokens_met` among them.
    /// It counts as no retired request, adds no latency sample and joins no
    /// window (see the module docs).
    pub fn observe_unfinished(&mut self, model: u32, tokens: u64, tokens_met: u64) {
        if !self.enabled {
            return;
        }
        self.cum[model as usize].add(0, tokens, tokens_met);
    }

    /// Records one retired **session turn** on top of its
    /// [`SloObservatory::observe_request`] call. `latency_secs` is
    /// turn-scoped (this turn's arrival → its final token); the preceding
    /// think gap is excluded because the turn is its own request — see
    /// `TurnCum`.
    pub fn observe_turn(
        &mut self,
        retired_ns: u64,
        model: u32,
        turn_index: u32,
        latency_secs: f64,
        prefix_hit: bool,
    ) {
        if !self.enabled {
            return;
        }
        self.advance(retired_ns);
        let t = &mut self.turns[model as usize];
        t.turns += 1;
        t.prefix_hits += u64::from(prefix_hit);
        t.max_depth = t.max_depth.max(turn_index + 1);
        t.latency.insert(latency_secs);
    }

    /// Cumulative agentic-turn series per model (empty when disabled).
    pub(crate) fn turn_stats(&self) -> &[TurnCum] {
        &self.turns
    }

    /// End-of-run hook: seals the final (possibly partial) window at its
    /// natural boundary so no retired request is missing from the series.
    pub(crate) fn finish(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.next_roll;
        self.seal(end);
        self.next_roll = end + self.window_ns;
    }

    /// Every sealed point, in (window, model) order.
    pub fn points(&self) -> &[SloPoint] {
        &self.points
    }

    /// Cumulative totals per model.
    pub fn cumulative(&self) -> &[SloCum] {
        &self.cum
    }

    /// Cumulative attainment for one model (1.0 when out of range or idle).
    pub fn attainment(&self, model: usize) -> f64 {
        self.cum.get(model).map_or(1.0, |c| c.attainment())
    }
}

/// Where an instance's busy seconds went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostKind {
    /// Loading/activating a model's weights (auto-scaling switch).
    ModelSwitch,
    /// KV offload traffic GPU → host.
    KvSwapOut,
    /// KV swap-in traffic host → GPU.
    KvSwapIn,
    /// Useful prefill execution.
    PrefillExec,
    /// Useful decode execution.
    DecodeExec,
}

impl CostKind {
    /// Stable snake_case name for exports.
    pub fn name(&self) -> &'static str {
        match self {
            CostKind::ModelSwitch => "model_switch",
            CostKind::KvSwapOut => "kv_swap_out",
            CostKind::KvSwapIn => "kv_swap_in",
            CostKind::PrefillExec => "prefill_exec",
            CostKind::DecodeExec => "decode_exec",
        }
    }

    /// True for time spent making tokens rather than moving state.
    pub(crate) fn is_useful(&self) -> bool {
        matches!(self, CostKind::PrefillExec | CostKind::DecodeExec)
    }

    /// All kinds, in export order.
    pub(crate) const ALL: [CostKind; 5] = [
        CostKind::ModelSwitch,
        CostKind::KvSwapOut,
        CostKind::KvSwapIn,
        CostKind::PrefillExec,
        CostKind::DecodeExec,
    ];
}

/// Seconds attributed per `(instance, model, kind)` cell (see module docs).
#[derive(Debug, Default)]
pub struct AttributionLedger {
    enabled: bool,
    instances: Vec<String>,
    /// `cells[inst][model * KINDS + kind]`; `None` for a cell never added
    /// to. Row-major over `(model, kind)`, so walking a row in index order
    /// is key order.
    cells: Vec<Vec<Option<f64>>>,
}

/// Cells per `(instance, model)` pair: one per [`CostKind`].
const KINDS: usize = CostKind::ALL.len();

impl AttributionLedger {
    /// An enabled, empty ledger.
    pub(crate) fn enabled() -> AttributionLedger {
        AttributionLedger {
            enabled: true,
            ..AttributionLedger::default()
        }
    }

    /// True if this ledger records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers an instance (setup path) and returns its dense id.
    pub fn instance(&mut self, name: &str) -> u32 {
        if !self.enabled {
            return u32::MAX;
        }
        self.instances.push(name.to_string());
        self.cells.push(Vec::new());
        (self.instances.len() - 1) as u32
    }

    /// Adds `secs` to the `(inst, model, kind)` cell. One branch when
    /// disabled (null instance ids from a disabled ledger also no-op).
    #[inline]
    pub fn add(&mut self, inst: u32, model: u32, kind: CostKind, secs: f64) {
        if !self.enabled || inst == u32::MAX {
            return;
        }
        let row = &mut self.cells[inst as usize];
        let i = model as usize * KINDS + kind as usize;
        if i >= row.len() {
            row.resize(i + 1, None);
        }
        *row[i].get_or_insert(0.0) += secs;
    }

    /// Every cell as `(instance name, model, kind, secs)` in key order.
    pub fn rows(&self) -> impl Iterator<Item = (&str, u32, CostKind, f64)> {
        self.instances
            .iter()
            .zip(&self.cells)
            .flat_map(|(name, row)| {
                row.iter().enumerate().filter_map(move |(i, c)| {
                    c.map(|secs| {
                        (
                            name.as_str(),
                            (i / KINDS) as u32,
                            CostKind::ALL[i % KINDS],
                            secs,
                        )
                    })
                })
            })
    }

    /// Total seconds in useful (prefill/decode) cells.
    pub fn useful_secs(&self) -> f64 {
        self.rows()
            .filter(|(_, _, k, _)| k.is_useful())
            .map(|(_, _, _, s)| s)
            .sum()
    }

    /// Total seconds in overhead (switch/swap) cells.
    pub fn overhead_secs(&self) -> f64 {
        self.rows()
            .filter(|(_, _, k, _)| !k.is_useful())
            .map(|(_, _, _, s)| s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observatory_is_inert() {
        let mut o = SloObservatory::disabled();
        o.observe_request(5_000_000_000, 0, 0.1, &[0.05], 3, 3);
        o.observe_unfinished(0, 3, 0);
        o.finish();
        assert!(o.points().is_empty());
        assert_eq!(o.attainment(0), 1.0);
    }

    #[test]
    fn windows_seal_in_order_and_skip_empty() {
        let w = 10_000_000_000u64; // 10 s
        let mut o = SloObservatory::new(2, w);
        o.observe_request(1_000_000_000, 0, 0.2, &[0.05, 0.06], 3, 2);
        o.observe_request(2_000_000_000, 0, 0.4, &[], 1, 1);
        // Long idle gap, then traffic for model 1 in window [40s, 50s).
        o.observe_request(41 * 1_000_000_000, 1, 1.0, &[0.2], 2, 0);
        o.finish();
        let pts = o.points();
        assert_eq!(pts.len(), 2, "{pts:?}");
        assert_eq!(pts[0].window_end_ns, w);
        assert_eq!(pts[0].model, 0);
        assert_eq!(pts[0].requests, 2);
        assert_eq!(pts[0].tokens, 4);
        assert_eq!(pts[0].tokens_met, 3);
        assert!((pts[0].attainment - 0.75).abs() < 1e-12);
        assert!((pts[0].goodput_tps - 0.4).abs() < 1e-12);
        assert_eq!(pts[1].window_end_ns, 5 * w);
        assert_eq!(pts[1].model, 1);
        assert!((pts[1].attainment - 0.0).abs() < 1e-12);
        // Cumulative totals survive sealing.
        assert!((o.attainment(0) - 0.75).abs() < 1e-12);
        assert_eq!(o.cumulative()[1].tokens, 2);
    }

    #[test]
    fn unfinished_requests_move_cumulative_totals_only() {
        let mut o = SloObservatory::new(2, 10_000_000_000);
        o.observe_request(1_000_000_000, 0, 0.2, &[0.05], 2, 2);
        o.finish();
        let points = o.points().to_vec();
        o.observe_unfinished(0, 6, 1);
        o.observe_unfinished(1, 4, 0);
        assert_eq!(o.points(), points, "no window takes unfinished requests");
        let cum = o.cumulative();
        let want = |requests, tokens, tokens_met| SloCum {
            requests,
            tokens,
            tokens_met,
        };
        assert_eq!(cum[0], want(1, 8, 3));
        assert_eq!(cum[1], want(0, 4, 0));
        assert!((o.attainment(0) - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(o.attainment(1), 0.0);
    }

    #[test]
    fn quantiles_come_from_window_sketches() {
        let mut o = SloObservatory::new(1, 1_000_000_000);
        for i in 1..=100 {
            o.observe_request(10, 0, i as f64 * 0.01, &[], 1, 1);
        }
        o.finish();
        let p = &o.points()[0];
        assert!((p.ttft_p50 - 0.50).abs() <= 0.50 * 0.01 + 1e-9);
        assert!((p.ttft_p99 - 0.99).abs() <= 0.99 * 0.01 + 1e-9);
        assert!(p.tbt_p50.is_nan(), "no TBT samples recorded");
    }

    /// A 30-second think gap between two turns of one session must never
    /// surface in the TBT quantiles: each turn is its own request, so TBT
    /// only sees intra-request gaps, and the turn series carries the
    /// turn-scoped latencies separately.
    #[test]
    fn think_gaps_stay_out_of_tbt_quantiles() {
        let w = 60 * 1_000_000_000u64;
        let mut o = SloObservatory::new(1, w);
        // Turn 0 retires at t=2s; the client "thinks" for 30 s; turn 1
        // arrives at t=32s and retires at t=33s. Intra-request gaps are
        // all 50 ms.
        o.observe_request(2_000_000_000, 0, 0.3, &[0.05, 0.05], 3, 3);
        o.observe_turn(2_000_000_000, 0, 0, 2.0, false);
        o.observe_request(33_000_000_000, 0, 0.2, &[0.05], 2, 2);
        o.observe_turn(33_000_000_000, 0, 1, 1.0, true);
        o.finish();
        let p = &o.points()[0];
        assert!(
            p.tbt_p99 <= 0.05 * (1.0 + SLO_SKETCH_ALPHA) + 1e-9,
            "think gap leaked into TBT: p99={}",
            p.tbt_p99
        );
        let t = &o.turn_stats()[0];
        assert_eq!(t.turns, 2);
        assert_eq!(t.prefix_hits, 1);
        assert_eq!(t.max_depth, 2);
        assert!((t.prefix_hit_rate() - 0.5).abs() < 1e-12);
        // Turn latency is turn-scoped: its max is 2 s, not 31 s.
        assert!(t.latency_quantile(0.99) <= 2.0 * (1.0 + SLO_SKETCH_ALPHA));
    }

    #[test]
    fn ledger_accumulates_and_splits_useful_vs_overhead() {
        let mut l = AttributionLedger::enabled();
        let p0 = l.instance("p0");
        let d0 = l.instance("d0");
        l.add(p0, 0, CostKind::PrefillExec, 2.0);
        l.add(p0, 0, CostKind::ModelSwitch, 1.0);
        l.add(p0, 0, CostKind::PrefillExec, 0.5);
        l.add(d0, 1, CostKind::DecodeExec, 4.0);
        l.add(d0, 1, CostKind::KvSwapIn, 0.25);
        assert!((l.useful_secs() - 6.5).abs() < 1e-12);
        assert!((l.overhead_secs() - 1.25).abs() < 1e-12);
        let rows: Vec<_> = l.rows().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0], ("p0", 0, CostKind::ModelSwitch, 1.0));
    }

    #[test]
    fn ledger_rows_match_a_sorted_map() {
        // Dense rows must walk cells in `(instance, model, kind)` order and
        // sum them exactly as a sorted map would, zero-second cells included.
        for (i, k) in CostKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "ALL must follow declaration order");
        }
        let mut l = AttributionLedger::enabled();
        let insts = [l.instance("p0"), l.instance("p1"), l.instance("d0")];
        let mut reference = std::collections::BTreeMap::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for n in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let inst = insts[(x % 3) as usize];
            let model = ((x >> 8) % 23) as u32;
            let kind = CostKind::ALL[((x >> 16) % 5) as usize];
            let secs = if n % 97 == 0 {
                0.0
            } else {
                ((x >> 24) % 1000) as f64 * 1e-3
            };
            l.add(inst, model, kind, secs);
            *reference.entry((inst, model, kind)).or_insert(0.0) += secs;
        }
        let rows: Vec<_> = l
            .rows()
            .map(|(n, m, k, s)| (n, m, k, s.to_bits()))
            .collect();
        let names = ["p0", "p1", "d0"];
        let expected: Vec<_> = reference
            .iter()
            .map(|(&(i, m, k), &s): (&(u32, u32, CostKind), &f64)| {
                (names[i as usize], m, k, s.to_bits())
            })
            .collect();
        assert_eq!(rows, expected);
        let useful: f64 = reference
            .iter()
            .filter(|((_, _, k), _)| k.is_useful())
            .map(|(_, &s)| s)
            .sum();
        assert_eq!(l.useful_secs().to_bits(), useful.to_bits());
    }

    #[test]
    fn disabled_ledger_is_inert() {
        let mut l = AttributionLedger::default();
        let i = l.instance("x");
        assert_eq!(i, u32::MAX);
        l.add(i, 0, CostKind::DecodeExec, 1.0);
        assert_eq!(l.rows().count(), 0);
    }
}
