//! Property tests for `TokenTimes` against a `Vec<SimTime>` oracle: any
//! sequence of instants — equal ones, backward steps, gaps at and beyond
//! the four-byte limit — decodes to itself from either end, yields the
//! same saturating gaps, compares equal exactly when the sequences do, and
//! holds no slack when sized once to its length.

use proptest::prelude::*;

use aegaeon_metrics::TokenTimes;
use aegaeon_sim::{SimDur, SimTime};

const LIMIT: i64 = u32::MAX as i64;

/// One step between consecutive instants, in nanoseconds: repeats, short
/// and long narrow steps, the values around the four-byte limit, gaps far
/// beyond it, and backward steps of both sizes.
fn step() -> impl Strategy<Value = i64> {
    prop_oneof![
        0i64..1,
        0i64..5_000_000,
        0i64..LIMIT,
        (LIMIT - 2)..(LIMIT + 3),
        (LIMIT + 3)..(1i64 << 40),
        -5_000_000i64..0,
        -(1i64 << 40)..-LIMIT,
    ]
}

/// The instants a start and its steps describe, clamped to the clock.
fn instants(start: u64, steps: &[i64]) -> Vec<SimTime> {
    let mut t = start;
    let mut v = vec![SimTime::from_nanos(t)];
    for &s in steps {
        t = t.saturating_add_signed(s);
        v.push(SimTime::from_nanos(t));
    }
    v
}

/// Records `v` the way a request does: sized once, at the first token, to
/// its final length.
fn record(v: &[SimTime]) -> TokenTimes {
    let mut t = TokenTimes::new();
    for &x in v {
        if t.is_empty() {
            t.reserve_exact(v.len());
        }
        t.push(x);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Length, ends, forward order, every reverse suffix and every gap
    /// match the oracle.
    #[test]
    fn decodes_like_the_oracle(
        start in 0u64..(1u64 << 50),
        steps in prop::collection::vec(step(), 0..80),
        empty in 0u32..8,
    ) {
        // Now and then the empty record.
        let v = if empty == 0 { Vec::new() } else { instants(start, &steps) };
        let t = record(&v);
        prop_assert_eq!(t.len(), v.len());
        prop_assert_eq!(t.is_empty(), v.is_empty());
        prop_assert_eq!(t.first(), v.first().copied());
        prop_assert_eq!(t.last(), v.last().copied());
        prop_assert_eq!(t.iter().len(), v.len());
        prop_assert_eq!(t.iter().collect::<Vec<_>>(), v.clone());
        for k in 0..=v.len() {
            let suffix: Vec<SimTime> = t.iter().rev().take(k).collect();
            let want: Vec<SimTime> = v.iter().rev().take(k).copied().collect();
            prop_assert_eq!(suffix, want, "reverse suffix of {}", k);
        }
        let gaps: Vec<SimDur> = v.windows(2).map(|w| w[1].saturating_since(w[0])).collect();
        prop_assert_eq!(t.gaps().len(), gaps.len());
        prop_assert_eq!(t.gaps().collect::<Vec<_>>(), gaps);
        let backward = v.windows(2).filter(|w| w[1] < w[0]).count();
        prop_assert!(t.wide_gaps() >= backward);
        // Collecting encodes the same record.
        prop_assert_eq!(v.iter().copied().collect::<TokenTimes>(), t.clone());
        prop_assert_eq!(format!("{t:?}"), format!("{v:?}"));
    }

    /// Reading from both ends at once meets in the middle, whatever the
    /// interleaving.
    #[test]
    fn both_ends_interleave(
        start in 0u64..(1u64 << 50),
        steps in prop::collection::vec(step(), 0..40),
        picks in prop::collection::vec(0u32..2, 0..50),
    ) {
        let v = instants(start, &steps);
        let t = record(&v);
        let (mut it, mut lo, mut hi) = (t.iter(), 0, v.len());
        for &back in &picks {
            let got = if back == 1 { it.next_back() } else { it.next() };
            let want = if lo == hi {
                None
            } else if back == 1 {
                hi -= 1;
                Some(v[hi])
            } else {
                lo += 1;
                Some(v[lo - 1])
            };
            prop_assert_eq!(got, want);
            prop_assert_eq!(it.len(), hi - lo);
        }
    }

    /// Two records are equal exactly when their sequences are.
    #[test]
    fn equal_exactly_when_the_sequences_are(
        start in 0u64..(1u64 << 50),
        steps in prop::collection::vec(step(), 0..40),
        at in 0usize..41,
        nudge in -3i64..4,
    ) {
        let v = instants(start, &steps);
        let mut w = v.clone();
        let i = at % w.len();
        w[i] = SimTime::from_nanos(w[i].as_nanos().saturating_add_signed(nudge));
        prop_assert_eq!(record(&v) == record(&w), v == w);
        prop_assert!(record(&v) == record(&v));
    }

    /// A record sized once to its length holds no slack: its capacity is
    /// its length, and it stores four bytes per narrow step plus eight per
    /// wide one and for the first instant.
    #[test]
    fn sized_once_holds_no_slack(
        start in 0u64..(1u64 << 50),
        steps in prop::collection::vec(step(), 0..80),
    ) {
        let v = instants(start, &steps);
        let t = record(&v);
        prop_assert_eq!(t.capacity(), t.len());
        let wide_room = t.stored_bytes() - 8 - 4 * (t.len() - 1);
        prop_assert!(wide_room >= 8 * t.wide_gaps(), "{} bytes for {} wide", wide_room, t.wide_gaps());
    }
}
