//! Golden test for the SLO observatory analyzer: a fixed-seed run must
//! render byte-identical markdown, release after release. Regenerate the
//! golden file after an intentional format change with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p aegaeon-bench --test slo_analyze
//! ```

use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_bench::analyze::Analysis;
use aegaeon_bench::{analyze, market_models, uniform_trace};
use aegaeon_telemetry::TelemetrySpec;
use aegaeon_workload::LengthDist;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/slo_report.md");

fn fixed_run_markdown() -> String {
    let n_models = 3;
    let models = market_models(n_models);
    let trace = uniform_trace(n_models, 0.08, 60.0, 20250713, LengthDist::sharegpt());
    let mut cfg = AegaeonConfig::small_testbed(2, 3);
    cfg.seed = 20250713;
    cfg.telemetry = TelemetrySpec::enabled();
    let r = ServingSystem::run(&cfg, &models, &trace);
    analyze::analyze_run(&r.telemetry).expect("analyzable run").to_markdown()
}

#[test]
fn analyzer_markdown_matches_golden_byte_for_byte() {
    let md = fixed_run_markdown();
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &md).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing — run with REGEN_GOLDEN=1 to create it");
    assert_eq!(
        md, golden,
        "analyzer markdown drifted from tests/golden/slo_report.md; \
         regenerate with REGEN_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn analyzer_markdown_is_deterministic_across_runs() {
    assert_eq!(fixed_run_markdown(), fixed_run_markdown());
}

#[test]
fn analyzer_round_trips_through_the_exported_document() {
    // The in-process path (`analyze_run`) and the file path the CLI takes
    // (`slo_json` → `from_slo_text`) must agree exactly.
    let n_models = 3;
    let models = market_models(n_models);
    let trace = uniform_trace(n_models, 0.08, 60.0, 20250713, LengthDist::sharegpt());
    let mut cfg = AegaeonConfig::small_testbed(2, 3);
    cfg.seed = 20250713;
    cfg.telemetry = TelemetrySpec::enabled();
    let r = ServingSystem::run(&cfg, &models, &trace);
    let direct = analyze::analyze_run(&r.telemetry).expect("analyzable run");
    let doc = aegaeon_telemetry::slo_json(&r.telemetry.slo, &r.telemetry.attrib);
    let via_text = Analysis::from_slo_text(&doc).expect("parsable export");
    assert_eq!(direct.to_markdown(), via_text.to_markdown());
    assert!(direct.consistency_errors().is_empty(), "{:?}", direct.consistency_errors());
}
