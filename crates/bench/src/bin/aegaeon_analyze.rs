//! `aegaeon-analyze`: post-run SLO report generator.
//!
//! Reads an SLO observatory document (the gateway's `GET /v1/slo` body, or
//! `slo_json` output written by the bench binaries) and, optionally, a
//! gateway bench report, then emits the combined markdown and JSON report
//! and gates on internal consistency (p50 ≤ p90 ≤ p99, attainment ∈ [0, 1],
//! met ≤ produced).
//!
//! ```text
//! aegaeon-analyze --slo slo.json [--bench BENCH_gateway_throughput.json]
//!                 [--out-md report.md] [--out-json report.json] [--check]
//! ```
//!
//! Without `--out-md` the markdown goes to stdout. `--check` exits 2 when
//! any consistency check fails (CI gates on this). A `--slo` file that is
//! not an SLO document — a telemetry JSONL dump, say — exits 65.

use std::process::ExitCode;

use aegaeon_bench::analyze::Analysis;

struct Args {
    slo: Option<String>,
    bench: Option<String>,
    out_md: Option<String>,
    out_json: Option<String>,
    check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: aegaeon-analyze --slo <slo.json> \
         [--bench <bench.json>] [--out-md <path>] [--out-json <path>] [--check]"
    );
    std::process::exit(64);
}

fn parse_args() -> Args {
    let mut args = Args {
        slo: None,
        bench: None,
        out_md: None,
        out_json: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| {
            eprintln!("{name} needs a value");
            usage()
        });
        match a.as_str() {
            "--slo" => args.slo = Some(val("--slo")),
            "--bench" => args.bench = Some(val("--bench")),
            "--out-md" => args.out_md = Some(val("--out-md")),
            "--out-json" => args.out_json = Some(val("--out-json")),
            "--check" => args.check = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if args.slo.is_none() && args.bench.is_none() {
        usage();
    }
    args
}

fn read(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(66);
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut analysis = match &args.slo {
        Some(path) => match Analysis::from_slo_text(&read(path)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::from(65);
            }
        },
        None => Analysis::default(),
    };
    if let Some(path) = &args.bench {
        match serde_json::from_str::<serde_json::Value>(&read(path)) {
            Ok(doc) => analysis = analysis.with_bench_value(&doc),
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::from(65);
            }
        }
    }

    let md = analysis.to_markdown();
    match &args.out_md {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &md) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(74);
            }
            println!("[md] {path}");
        }
        None => print!("{md}"),
    }
    if let Some(path) = &args.out_json {
        let json = serde_json::to_string_pretty(&analysis.to_json()).expect("serializable");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(74);
        }
        println!("[json] {path}");
    }

    let errs = analysis.consistency_errors();
    if !errs.is_empty() {
        for e in &errs {
            eprintln!("[consistency] {e}");
        }
        if args.check {
            return ExitCode::from(2);
        }
    } else if args.check {
        println!("[consistency] all checks passed");
    }
    ExitCode::SUCCESS
}
