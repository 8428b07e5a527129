//! Property tests for the Prometheus exposition path and the quantile
//! sketch: arbitrary observation streams must always yield a summary whose
//! `_count` and `_sum` match the stream and whose quantile lines are
//! monotone, label values must round-trip the exposition escaping, and the
//! sketch must honor its relative-error contract — including after an
//! exact merge.

use proptest::prelude::*;

use aegaeon_telemetry::{labeled, prometheus_text, MetricsRegistry, QuantileSketch};

/// Parses the summary of unlabeled `family` out of the exposition text: the
/// `family{quantile="..."} v` lines in emission order, then the `_sum` and
/// `_count` lines.
fn parse_summary(text: &str, family: &str) -> (Vec<(String, f64)>, f64, u64) {
    let quantile_prefix = format!("{family}{{quantile=\"");
    let mut quantiles = Vec::new();
    let mut sum = f64::NAN;
    let mut count = u64::MAX;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(quantile_prefix.as_str()) {
            let (q, v) = rest.split_once("\"} ").expect("quantile line shape");
            quantiles.push((q.to_string(), v.trim().parse().expect("quantile value")));
        } else if let Some(rest) = line.strip_prefix(&format!("{family}_sum ")) {
            sum = rest.trim().parse().expect("sum value");
        } else if let Some(rest) = line.strip_prefix(&format!("{family}_count ")) {
            count = rest.trim().parse().expect("count value");
        }
    }
    (quantiles, sum, count)
}

/// The exact rank the sketch estimates: the value at index `⌊q·(n-1)⌋` of
/// the sorted stream.
fn exact_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[(q * (sorted.len() - 1) as f64).floor() as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Summary exposition is internally consistent for any observation
    /// stream: `_count` is the number of observations, `_sum` is their
    /// in-order sum bit for bit, and the p50/p90/p99 lines are monotone.
    #[test]
    fn summary_count_sum_and_quantiles_match_the_stream(
        obs in prop::collection::vec(0.0f64..1e6, 0..200),
    ) {
        let mut reg = MetricsRegistry::enabled();
        let s = reg.sketch("lat_secs", 0.01);
        for &v in &obs {
            reg.observe_sketch(s, v);
        }
        let text = prometheus_text(&reg);
        prop_assert!(text.contains("# TYPE lat_secs summary\n"), "{text}");
        let (quantiles, sum, count) = parse_summary(&text, "lat_secs");
        prop_assert_eq!(count, obs.len() as u64);
        let expect = obs.iter().fold(0.0f64, |acc, &v| acc + v);
        prop_assert_eq!(sum.to_bits(), expect.to_bits(), "sum {} vs {}", sum, expect);
        let labels: Vec<&str> = quantiles.iter().map(|(q, _)| q.as_str()).collect();
        prop_assert_eq!(labels, vec!["0.5", "0.9", "0.99"]);
        if obs.is_empty() {
            prop_assert!(quantiles.iter().all(|(_, v)| v.is_nan()), "{quantiles:?}");
        } else {
            prop_assert!(quantiles.windows(2).all(|w| w[0].1 <= w[1].1), "{quantiles:?}");
        }
    }

    /// `labeled()` escapes exactly the three characters the exposition
    /// format requires, and unescaping its output recovers the input.
    /// The palette over-weights the specials (`"`, `\`, newline) so every
    /// case exercises the escaping path.
    #[test]
    fn label_values_round_trip_escaping(
        codes in prop::collection::vec(0u32..96, 0..40),
    ) {
        let value: String = codes
            .iter()
            .map(|&c| match c {
                0..=9 => '"',
                10..=19 => '\\',
                20..=29 => '\n',
                c => char::from_u32(c + 3).unwrap(),
            })
            .collect();
        let name = labeled("ttft_seconds", "model", &value);
        let inner = name
            .strip_prefix("ttft_seconds{model=\"")
            .and_then(|s| s.strip_suffix("\"}"))
            .expect("labeled() shape");
        // No raw specials survive: every `"` and `\n` is escaped, and every
        // backslash starts a valid escape.
        let mut chars = inner.chars();
        let mut unescaped = String::new();
        while let Some(c) = chars.next() {
            match c {
                '"' | '\n' => prop_assert!(false, "raw special in {inner:?}"),
                '\\' => match chars.next() {
                    Some('\\') => unescaped.push('\\'),
                    Some('"') => unescaped.push('"'),
                    Some('n') => unescaped.push('\n'),
                    other => prop_assert!(false, "dangling escape {other:?}"),
                },
                c => unescaped.push(c),
            }
        }
        prop_assert_eq!(unescaped, value);
    }

    /// Every reported quantile of an arbitrary positive stream is within
    /// the sketch's `alpha` relative-error bound of the exact rank value.
    #[test]
    fn sketch_respects_relative_error_bound(
        vals in prop::collection::vec(1e-6f64..1e6, 1..400),
        q in 0.0f64..1.0,
    ) {
        let alpha = 0.01;
        let mut s = QuantileSketch::new(alpha);
        for &v in &vals {
            s.insert(v);
        }
        let mut sorted = vals;
        sorted.sort_by(|a, b| a.total_cmp(b));
        let exact = exact_rank(&sorted, q);
        let approx = s.quantile(q);
        prop_assert!(
            (approx - exact).abs() <= alpha * 1.000001 * exact,
            "q={q}: {approx} vs exact {exact}"
        );
    }

    /// Merging two sketches is exact: the merged sketch answers every
    /// quantile with the same error contract as one sketch fed the
    /// concatenated stream — and bit-identically to that single sketch.
    #[test]
    fn merge_equals_single_stream(
        a in prop::collection::vec(1e-6f64..1e6, 0..200),
        b in prop::collection::vec(1e-6f64..1e6, 1..200),
    ) {
        let alpha = 0.02;
        let mut sa = QuantileSketch::new(alpha);
        let mut sb = QuantileSketch::new(alpha);
        let mut whole = QuantileSketch::new(alpha);
        for &v in &a {
            sa.insert(v);
            whole.insert(v);
        }
        for &v in &b {
            sb.insert(v);
            whole.insert(v);
        }
        sa.merge(&sb);
        prop_assert_eq!(sa.count(), whole.count());
        let mut combined = [a, b].concat();
        combined.sort_by(|a, b| a.total_cmp(b));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let merged_q = sa.quantile(q);
            // Bit-identical to the single-stream sketch (bucket counts are
            // integers; merge is exact addition).
            prop_assert_eq!(merged_q.to_bits(), whole.quantile(q).to_bits(), "q={}", q);
            let exact = exact_rank(&combined, q);
            prop_assert!(
                (merged_q - exact).abs() <= alpha * 1.000001 * exact,
                "q={q}: merged {merged_q} vs exact {exact}"
            );
        }
    }
}
