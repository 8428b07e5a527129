//! Mergeable streaming quantile sketch (DDSketch-style).
//!
//! Values are binned into logarithmic buckets: bucket `k` covers
//! `(γ^(k-1), γ^k]` with `γ = (1+α)/(1-α)`, so any value in a bucket is
//! within relative error `α` of the bucket's midpoint estimate
//! `2·γ^k/(γ+1)`. Bucket indices are integers and counts are integers, so
//! [`QuantileSketch::merge`] is exact: merging per-shard sketches in any
//! order yields the same sketch as observing the combined stream in any
//! order. That is the property the rest of the repo leans on — per-window,
//! per-model and per-reactor sketches can be rolled up without resorting
//! full sample vectors.
//!
//! Storage is a dense `Vec<u64>` of counts indexed from `lo`, the lowest
//! occupied bucket key, so an insert is an index bump rather than a tree
//! walk. The vector grows at either end as new keys arrive; latency
//! streams occupy a narrow key range (a factor of 10 spans ~115 keys at
//! α = 0.01), so it stays small. Walking it in index order visits keys in
//! ascending order, which keeps every rendered quantile and export
//! deterministic. Non-positive and sub-`MIN_VALUE` observations collapse
//! into a dedicated zero bucket — latencies are never negative, and a zero
//! latency has no meaningful relative error anyway.

/// Observations at or below this value land in the zero bucket. Keeps the
/// bucket index range tiny (|k| ≲ 3500 at α = 0.01) and avoids `ln`
/// blow-ups near zero.
const MIN_VALUE: f64 = 1e-12;

/// A mergeable log-bucketed quantile sketch with fixed relative error.
///
/// Equality is logical: two sketches are equal when they hold the same
/// bucket keys and counts (and the same zero bucket, count, sum and
/// extremes), however their storage happens to be laid out.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    alpha: f64,
    gamma: f64,
    inv_ln_gamma: f64,
    /// `buckets[i]` counts key `lo + i`; empty until the first positive
    /// observation after construction or [`QuantileSketch::clear`]. When
    /// non-empty, the first and last buckets are occupied: keys are only
    /// ever added with a count, so storage never carries zero padding.
    buckets: Vec<u64>,
    lo: i32,
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// Creates a sketch with relative accuracy `alpha` (e.g. `0.01` = every
    /// reported quantile is within 1% of a true stream value at that rank).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> QuantileSketch {
        let (gamma, inv_ln_gamma) = accuracy(alpha);
        QuantileSketch {
            alpha,
            gamma,
            inv_ln_gamma,
            buckets: Vec::new(),
            lo: 0,
            zero: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The configured relative accuracy.
    pub(crate) fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Records one observation. NaN is ignored; values ≤ `MIN_VALUE`
    /// (including all non-positive values) land in the zero bucket.
    pub fn insert(&mut self, v: f64) {
        self.insert_all(std::slice::from_ref(&v));
    }

    /// Records every value of `vals` in order, exactly as repeated
    /// [`QuantileSketch::insert`] calls would (the running sum adds them in
    /// the same order), with the totals kept in registers across the batch.
    pub(crate) fn insert_all(&mut self, vals: &[f64]) {
        let inv_ln_gamma = self.inv_ln_gamma;
        self.insert_pairs(vals.iter().map(|&v| (v, key(inv_ln_gamma, v))));
    }

    /// Records the values of `batch` in order, exactly as
    /// [`QuantileSketch::insert_all`] would, but with the bucket keys the
    /// batch computed once for every sketch of its accuracy.
    ///
    /// # Panics
    ///
    /// Panics if the batch was keyed at another accuracy.
    pub(crate) fn insert_keyed(&mut self, batch: &KeyedValues) {
        assert_eq!(
            self.alpha.to_bits(),
            batch.alpha.to_bits(),
            "keyed values of another accuracy"
        );
        self.insert_pairs(batch.vals.iter().copied().zip(batch.keys.iter().copied()));
    }

    /// Records each `(value, key)` in order; `key` is the value's bucket key
    /// when the value is above [`MIN_VALUE`] and is ignored otherwise.
    #[inline]
    fn insert_pairs(&mut self, pairs: impl Iterator<Item = (f64, i32)>) {
        let (mut count, mut sum, mut min, mut max) = (self.count, self.sum, self.min, self.max);
        for (v, k) in pairs {
            if v.is_nan() {
                continue;
            }
            if v <= MIN_VALUE {
                self.zero += 1;
            } else {
                // Fast path: `k` is already inside the dense range (a wrapped
                // negative offset lands past the end, like an empty sketch).
                match self
                    .buckets
                    .get_mut(k.wrapping_sub(self.lo) as u32 as usize)
                {
                    Some(c) => *c += 1,
                    None => {
                        self.cover(k, k);
                        self.buckets[(k - self.lo) as usize] += 1;
                    }
                }
            }
            count += 1;
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        (self.count, self.sum, self.min, self.max) = (count, sum, min, max);
    }

    /// Merges another sketch into this one. Exact: the result is identical
    /// to having observed both streams in any interleaving.
    ///
    /// # Panics
    ///
    /// Debug-asserts that both sketches share the same `alpha`.
    pub fn merge(&mut self, other: &QuantileSketch) {
        debug_assert_eq!(
            self.alpha.to_bits(),
            other.alpha.to_bits(),
            "merging sketches with different accuracies"
        );
        if !other.buckets.is_empty() {
            let hi = other.lo + (other.buckets.len() - 1) as i32;
            self.cover(other.lo, hi);
            let off = (other.lo - self.lo) as usize;
            for (dst, &c) in self.buckets[off..].iter_mut().zip(&other.buckets) {
                *dst += c;
            }
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets to empty, keeping the configured accuracy and the bucket
    /// vector's capacity, so a reused sketch (an observatory window) stops
    /// allocating once it has seen its widest key range.
    pub(crate) fn clear(&mut self) {
        self.buckets.clear();
        self.zero = 0;
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Estimates the `q`-quantile (`q ∈ [0, 1]`): a value within relative
    /// error `alpha` of the true stream value at rank `⌊q·(n-1)⌋`. Returns
    /// `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let target = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).floor() as u64;
        let mut cum = self.zero;
        if target < cum {
            // Zero-bucket values are all ≤ MIN_VALUE; min is exact for them.
            return self.min.clamp(0.0, MIN_VALUE);
        }
        for (k, &c) in (self.lo..).zip(&self.buckets) {
            cum += c;
            if target < cum {
                let est = 2.0 * self.gamma.powi(k) / (self.gamma + 1.0);
                // Clamping to the observed range only tightens the estimate
                // (the true ranked value lies inside it by definition).
                return est.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

impl QuantileSketch {
    /// Grows `buckets` so keys `lo..=hi` are addressable.
    fn cover(&mut self, lo: i32, hi: i32) {
        if self.buckets.is_empty() {
            self.lo = lo;
        } else if lo < self.lo {
            let grow = (self.lo - lo) as usize;
            self.buckets.resize(self.buckets.len() + grow, 0);
            self.buckets.rotate_right(grow);
            self.lo = lo;
        }
        let len = (hi - self.lo) as usize + 1;
        if self.buckets.len() < len {
            self.buckets.resize(len, 0);
        }
    }

    /// The occupied key range as `(first key, counts)`; `lo` of an empty
    /// sketch is stale and does not count.
    fn occupied(&self) -> (i32, &[u64]) {
        if self.buckets.is_empty() {
            (0, &[])
        } else {
            (self.lo, &self.buckets)
        }
    }
}

/// `γ` and `1 / ln γ` of relative accuracy `alpha`.
///
/// # Panics
///
/// Panics unless `0 < alpha < 1`.
fn accuracy(alpha: f64) -> (f64, f64) {
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
    let gamma = (1.0 + alpha) / (1.0 - alpha);
    (gamma, 1.0 / gamma.ln())
}

/// Bucket key of `v` at the accuracy whose `1 / ln γ` is `inv_ln_gamma`;
/// 0 for a value the zero bucket takes (at or below [`MIN_VALUE`], or NaN).
/// `+∞` takes the key just past `f64::MAX`'s, whose estimate still
/// overflows to `+∞`, so one infinite observation cannot stretch the dense
/// range to `i32::MAX`.
#[inline]
fn key(inv_ln_gamma: f64, v: f64) -> i32 {
    if v.is_nan() || v <= MIN_VALUE {
        0
    } else if v.is_finite() {
        // `x.ceil() as i32` without a libm call: the saturating cast
        // truncates toward zero, so it is one short exactly when `x` is
        // above it, i.e. positive and not an integer.
        let x = v.ln() * inv_ln_gamma;
        let t = x as i32;
        t.saturating_add(i32::from((t as f64) < x))
    } else {
        (f64::MAX.ln() * inv_ln_gamma).ceil() as i32 + 1
    }
}

/// A batch of values keyed once for every sketch of one accuracy.
///
/// A value's bucket key costs an `ln`. Sketches that share an accuracy
/// (the per-model `tbt_seconds` summary and the SLO observatory's window
/// both use `SLO_SKETCH_ALPHA`) would each pay it for the same value;
/// fed a batch ([`MetricsRegistry::observe_sketch_keyed`],
/// [`SloObservatory::observe_request`]), each reads the keys the batch
/// computed as the values were pushed instead. Each sketch still keeps its
/// own count, sum and extremes, in push order. The batch is scratch:
/// clearing keeps its capacity.
///
/// [`MetricsRegistry::observe_sketch_keyed`]: crate::MetricsRegistry::observe_sketch_keyed
/// [`SloObservatory::observe_request`]: crate::SloObservatory::observe_request
#[derive(Debug, Clone)]
pub struct KeyedValues {
    alpha: f64,
    inv_ln_gamma: f64,
    vals: Vec<f64>,
    keys: Vec<i32>,
}

impl KeyedValues {
    /// An empty batch keyed at relative accuracy `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> KeyedValues {
        KeyedValues {
            alpha,
            inv_ln_gamma: accuracy(alpha).1,
            vals: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Empties the batch, keeping its capacity.
    pub fn clear(&mut self) {
        self.vals.clear();
        self.keys.clear();
    }

    /// Appends `v` with its bucket key.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.vals.push(v);
        self.keys.push(key(self.inv_ln_gamma, v));
    }
}

impl Extend<f64> for KeyedValues {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, vals: I) {
        for v in vals {
            self.push(v);
        }
    }
}

impl PartialEq for QuantileSketch {
    fn eq(&self, other: &QuantileSketch) -> bool {
        self.alpha == other.alpha
            && self.occupied() == other.occupied()
            && self.zero == other.zero
            && self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        sorted[(q * (sorted.len() - 1) as f64).floor() as usize]
    }

    #[test]
    fn empty_sketch_reports_nan() {
        let s = QuantileSketch::new(0.01);
        assert!(s.quantile(0.5).is_nan());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn quantiles_respect_relative_error() {
        let mut s = QuantileSketch::new(0.01);
        let mut vals: Vec<f64> = (1..=10_000).map(|i| (i as f64) * 0.37e-3).collect();
        for &v in &vals {
            s.insert(v);
        }
        vals.sort_by(|a, b| a.total_cmp(b));
        for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let truth = exact_quantile(&vals, q);
            let est = s.quantile(q);
            assert!(
                (est - truth).abs() <= 0.01 * truth + 1e-12,
                "q={q}: est {est} vs truth {truth}"
            );
        }
        assert_eq!(s.count(), 10_000);
        assert!((s.sum() - vals.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = QuantileSketch::new(0.02);
        let mut b = QuantileSketch::new(0.02);
        let mut all = QuantileSketch::new(0.02);
        for i in 0..500 {
            let v = ((i * 2654435761_u64) % 10_000) as f64 / 100.0 + 0.01;
            if i % 3 == 0 {
                a.insert(v);
            } else {
                b.insert(v);
            }
            all.insert(v);
        }
        // Bucket counts, ranks and extremes merge exactly (float `sum` can
        // differ in the last ulp because addition is not associative).
        let check = |m: &QuantileSketch| {
            assert_eq!(m.count(), all.count());
            assert_eq!(m.min.to_bits(), all.min.to_bits());
            assert_eq!(m.max.to_bits(), all.max.to_bits());
            for i in 0..=100 {
                let q = i as f64 / 100.0;
                assert_eq!(m.quantile(q).to_bits(), all.quantile(q).to_bits(), "q={q}");
            }
            assert!((m.sum() - all.sum()).abs() < 1e-9 * all.sum().abs());
        };
        let mut merged = a.clone();
        merged.merge(&b);
        check(&merged);
        // Merge in the other order too.
        let mut merged2 = b;
        merged2.merge(&a);
        check(&merged2);
    }

    #[test]
    fn zero_and_negative_values_go_to_zero_bucket() {
        let mut s = QuantileSketch::new(0.01);
        s.insert(0.0);
        s.insert(-3.0);
        s.insert(1.0);
        assert_eq!(s.count(), 3);
        assert!(s.quantile(0.0) <= MIN_VALUE);
        assert!((s.quantile(1.0) - 1.0).abs() <= 0.01);
    }

    #[test]
    fn clear_resets() {
        let mut s = QuantileSketch::new(0.01);
        s.insert(5.0);
        s.clear();
        assert_eq!(s.count(), 0);
        assert!(s.quantile(0.5).is_nan());
    }

    /// The sparse `BTreeMap` sketch the dense storage replaced, kept as a
    /// differential oracle: same keying, same rank walk.
    struct RefSketch {
        gamma: f64,
        inv_ln_gamma: f64,
        buckets: BTreeMap<i32, u64>,
        zero: u64,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    }

    impl RefSketch {
        fn new(alpha: f64) -> RefSketch {
            let gamma = (1.0 + alpha) / (1.0 - alpha);
            RefSketch {
                gamma,
                inv_ln_gamma: 1.0 / gamma.ln(),
                buckets: BTreeMap::new(),
                zero: 0,
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            }
        }

        fn insert(&mut self, v: f64) {
            if v.is_nan() {
                return;
            }
            if v <= MIN_VALUE {
                self.zero += 1;
            } else {
                let k = (v.ln() * self.inv_ln_gamma).ceil() as i32;
                *self.buckets.entry(k).or_insert(0) += 1;
            }
            self.count += 1;
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }

        fn merge(&mut self, other: &RefSketch) {
            for (&k, &c) in &other.buckets {
                *self.buckets.entry(k).or_insert(0) += c;
            }
            self.zero += other.zero;
            self.count += other.count;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }

        fn clear(&mut self) {
            self.buckets.clear();
            self.zero = 0;
            self.count = 0;
            self.sum = 0.0;
            self.min = f64::INFINITY;
            self.max = f64::NEG_INFINITY;
        }

        fn quantile(&self, q: f64) -> f64 {
            if self.count == 0 {
                return f64::NAN;
            }
            let target = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).floor() as u64;
            let mut cum = self.zero;
            if target < cum {
                return self.min.clamp(0.0, MIN_VALUE);
            }
            for (&k, &c) in &self.buckets {
                cum += c;
                if target < cum {
                    let est = 2.0 * self.gamma.powi(k) / (self.gamma + 1.0);
                    return est.clamp(self.min, self.max);
                }
            }
            self.max
        }
    }

    const ALPHA: f64 = 0.01;

    /// Asserts bit-equal state and answers, and the dense-storage invariant.
    fn assert_matches(s: &QuantileSketch, r: &RefSketch, what: &str) {
        let dense: BTreeMap<i32, u64> = (s.lo..)
            .zip(&s.buckets)
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (k, c))
            .collect();
        assert_eq!(dense, r.buckets, "{what}: bucket counts");
        if let (Some(first), Some(last)) = (s.buckets.first(), s.buckets.last()) {
            assert!(*first > 0 && *last > 0, "{what}: zero padding at an end");
        }
        assert_eq!(s.zero, r.zero, "{what}: zero bucket");
        assert_eq!(s.count(), r.count, "{what}: count");
        assert_eq!(s.sum.to_bits(), r.sum.to_bits(), "{what}: sum");
        assert_eq!(s.min.to_bits(), r.min.to_bits(), "{what}: min");
        assert_eq!(s.max.to_bits(), r.max.to_bits(), "{what}: max");
        for i in 0..=200 {
            let q = i as f64 / 200.0;
            assert_eq!(
                s.quantile(q).to_bits(),
                r.quantile(q).to_bits(),
                "{what}: q={q}"
            );
        }
    }

    /// Deterministic stream: log-uniform over `[10^lo_exp, 10^hi_exp]`,
    /// with every 17th value in the zero bucket.
    fn stream(seed: u64, n: usize, lo_exp: f64, hi_exp: f64) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                match i % 17 {
                    16 => [0.0, -2.5, MIN_VALUE, 1e-13][i / 17 % 4],
                    _ => 10f64.powf(lo_exp + u * (hi_exp - lo_exp)),
                }
            })
            .collect()
    }

    /// The dense sketch fed half one value at a time and half in batches,
    /// beside the reference fed one value at a time.
    fn both(vals: &[f64]) -> (QuantileSketch, RefSketch) {
        let mut s = QuantileSketch::new(ALPHA);
        let mut r = RefSketch::new(ALPHA);
        let (singles, batched) = vals.split_at(vals.len() / 2);
        for &v in singles {
            s.insert(v);
        }
        for chunk in batched.chunks(37) {
            s.insert_all(chunk);
        }
        for &v in vals {
            r.insert(v);
        }
        (s, r)
    }

    #[test]
    fn dense_storage_matches_btreemap_reference() {
        // Mostly sub-second values: negative keys, plus zero-bucket values.
        let (s, r) = both(&stream(1, 5000, -9.0, 3.0));
        assert_matches(&s, &r, "mixed stream");

        // Values at and next to bucket boundaries γ^k, where the key's
        // rounding is decided.
        let gamma = (1.0 + ALPHA) / (1.0 - ALPHA);
        let edges: Vec<f64> = (-300..300)
            .map(|k| gamma.powi(k))
            .flat_map(|b| {
                [
                    b,
                    f64::from_bits(b.to_bits() - 1),
                    f64::from_bits(b.to_bits() + 1),
                ]
            })
            .chain([1.0, f64::MAX, f64::MIN_POSITIVE, 2e-12])
            .collect();
        let (s, r) = both(&edges);
        assert_matches(&s, &r, "bucket edges");

        // A descending stream puts every new key below `lo`.
        let desc: Vec<f64> = (0..600).map(|i| 1e3 * 0.93f64.powi(i)).collect();
        let (s, r) = both(&desc);
        assert_matches(&s, &r, "descending stream");

        // Disjoint merges in both orders, and overlapping merges.
        let (lo_s, lo_r) = both(&stream(2, 700, -6.0, -3.0));
        let (hi_s, hi_r) = both(&stream(3, 900, 1.0, 3.0));
        let (mid_s, mid_r) = both(&stream(4, 800, -4.0, 2.0));
        for (what, a, ar, b, br) in [
            ("disjoint, low into high", &hi_s, &hi_r, &lo_s, &lo_r),
            ("disjoint, high into low", &lo_s, &lo_r, &hi_s, &hi_r),
            (
                "overlapping, wider into narrower",
                &lo_s,
                &lo_r,
                &mid_s,
                &mid_r,
            ),
            (
                "overlapping, narrower into wider",
                &mid_s,
                &mid_r,
                &hi_s,
                &hi_r,
            ),
        ] {
            let mut s = a.clone();
            s.merge(b);
            let mut r = RefSketch::new(ALPHA);
            r.merge(ar);
            r.merge(br);
            assert_matches(&s, &r, what);
        }

        // Merging into and from an empty sketch.
        let mut s = QuantileSketch::new(ALPHA);
        s.merge(&mid_s);
        s.merge(&QuantileSketch::new(ALPHA));
        assert_matches(&s, &mid_r, "empty merges");

        // clear, then reuse over a range below the old one: capacity is
        // kept and the stale `lo` is not.
        let (mut s, mut r) = both(&stream(5, 1000, 0.0, 3.0));
        let cap = s.buckets.capacity();
        s.clear();
        r.clear();
        assert_eq!(s.buckets.capacity(), cap, "clear must keep capacity");
        assert_matches(&s, &r, "cleared");
        for v in stream(6, 1000, -8.0, -1.0) {
            s.insert(v);
            r.insert(v);
        }
        assert_matches(&s, &r, "reused after clear");
    }

    /// Asserts bit-equal storage and totals (not only equal answers).
    fn assert_same_bits(a: &QuantileSketch, b: &QuantileSketch, what: &str) {
        assert_eq!(a.occupied(), b.occupied(), "{what}: buckets");
        assert_eq!(a.zero, b.zero, "{what}: zero bucket");
        assert_eq!(a.count, b.count, "{what}: count");
        assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "{what}: sum");
        assert_eq!(a.min.to_bits(), b.min.to_bits(), "{what}: min");
        assert_eq!(a.max.to_bits(), b.max.to_bits(), "{what}: max");
    }

    #[test]
    fn shared_keys_feed_each_sketch_like_its_own_insert_all() {
        // Two sketches fed the same keyed batches, beside two fed the raw
        // values: one starts with a mid-range stream, so later batches grow
        // it at both ends, and one starts empty.
        let mut keyed = [QuantileSketch::new(ALPHA), QuantileSketch::new(ALPHA)];
        keyed[0].insert_all(&stream(7, 300, -3.0, -1.0));
        let (lo, hi) = (keyed[0].lo, keyed[0].lo + keyed[0].buckets.len() as i32);
        let mut plain = keyed.clone();
        let odd = [
            f64::NAN,
            f64::INFINITY,
            0.0,
            -1.0,
            f64::NEG_INFINITY,
            1e-13,
            MIN_VALUE,
            2e-12,
            f64::MIN_POSITIVE,
            f64::MAX,
            0.25,
            f64::NAN,
        ];
        let batches = [
            stream(8, 400, -9.0, 4.0),
            odd.to_vec(),
            Vec::new(),
            (0..200).map(|i| 1e3 * 0.9f64.powi(i)).collect(),
            stream(9, 50, 5.0, 8.0),
        ];
        let mut batch = KeyedValues::new(ALPHA);
        for (n, vals) in batches.iter().enumerate() {
            batch.clear();
            batch.extend(vals.iter().copied());
            for (i, (k, p)) in keyed.iter_mut().zip(&mut plain).enumerate() {
                k.insert_keyed(&batch);
                p.insert_all(vals);
                assert_same_bits(k, p, &format!("sketch {i} after batch {n}"));
            }
        }
        assert!(keyed[0].zero > 0 && keyed[0].max == f64::INFINITY);
        let grown = keyed[0].lo + keyed[0].buckets.len() as i32;
        assert!(
            keyed[0].lo < lo && grown > hi,
            "the range grew at both ends"
        );
    }

    #[test]
    #[should_panic(expected = "another accuracy")]
    fn keyed_values_of_another_accuracy_are_refused() {
        let mut batch = KeyedValues::new(0.02);
        batch.push(1.0);
        QuantileSketch::new(ALPHA).insert_keyed(&batch);
    }

    #[test]
    fn infinite_observation_keeps_storage_compact() {
        let (mut s, mut r) = both(&[0.5, 2.0]);
        s.insert(f64::INFINITY);
        r.insert(f64::INFINITY);
        assert!(s.buckets.len() < 100_000, "{} buckets", s.buckets.len());
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(s.quantile(q).to_bits(), r.quantile(q).to_bits(), "q={q}");
        }
        assert_eq!(s.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn equal_observations_compare_equal_in_any_order() {
        // Multiples of 1/8 sum exactly, so `sum` is order-independent too.
        let vals: Vec<f64> = (0..400).map(|i| ((i * 37) % 251) as f64 / 8.0).collect();
        let mut forward = QuantileSketch::new(ALPHA);
        vals.iter().for_each(|&v| forward.insert(v));
        let mut backward = QuantileSketch::new(ALPHA);
        vals.iter().rev().for_each(|&v| backward.insert(v));
        // Three interleaved parts merged in two different orders, one of
        // them into a sketch that was used and cleared first.
        let mut parts = [0, 1, 2].map(|_| QuantileSketch::new(ALPHA));
        for (i, &v) in vals.iter().enumerate() {
            parts[i % 3].insert(v);
        }
        let mut merged = parts[2].clone();
        merged.merge(&parts[0]);
        merged.merge(&parts[1]);
        let mut reused = QuantileSketch::new(ALPHA);
        reused.insert(1e6);
        reused.clear();
        for p in &parts {
            reused.merge(p);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward, merged);
        assert_eq!(forward, reused);
        let mut other = forward.clone();
        other.insert(1.0);
        assert_ne!(forward, other);
        // An emptied sketch keeps a stale `lo` but equals a fresh one.
        other.clear();
        assert_eq!(other, QuantileSketch::new(ALPHA));
    }
}
