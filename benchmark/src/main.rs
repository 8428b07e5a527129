//! `benchmark`: one benchmark for the whole serving stack.
//!
//! Drives five workloads through each layer's public entry points, times
//! them from outside, prints the end-to-end metrics by name and unit,
//! checks that the outputs are correct, and exits non-zero if a check
//! fails. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, holding the end-to-end
//! metrics, or with `--trace` the per-layer ledger of a second, traced run.
//! See `README.md` next to this package for the workloads and metrics.

mod compare;
mod gateway;
mod procfs;
mod report;
mod sim;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::Command;

use report::Value;

const USAGE: &str = "\
usage: benchmark --workload market|agentic|observed|sharded|gateway|all
                 [--seed S] [--seconds N] [--trace 0|1|SPANS.json] [--json OUT]
       benchmark --compare A.json... -- B.json...

  --seed S       workload seed (default aegaeon_bench::SEED); per-run seeds
                 come from sweep::derive_seed(S, i)
  --seconds N    length of the timed phase in seconds (default 15)
  --trace T      0: end-to-end metrics only (default). 1 or a file: run the
                 workload again with spans, print the per-layer ledger, and
                 write Chrome-trace JSON (1 writes target/benchmark/W.spans.json)
  --json OUT     also write the full record (every metric, with its clock)
  --compare      compare two sets of --json records, per workload";

const WORKLOADS: [&str; 5] = ["market", "agentic", "observed", "sharded", "gateway"];

/// Settings a workload runs with.
pub struct Opts {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Also run the traced pass.
    pub traced: bool,
    /// Host parallelism: load threads, connections and shard workers.
    pub nproc: usize,
}

struct RunArgs {
    workload: String,
    opts: Opts,
    spans_out: Option<PathBuf>,
    json_out: Option<PathBuf>,
}

enum Cmd {
    Run(RunArgs),
    Compare(Vec<PathBuf>, Vec<PathBuf>),
    Help,
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Cmd::Help);
    }
    if args.first().map(String::as_str) == Some("--compare") {
        let rest = &args[1..];
        let split = rest
            .iter()
            .position(|a| a == "--")
            .ok_or("--compare needs `--` between the two sets")?;
        let (a, b) = (&rest[..split], &rest[split + 1..]);
        if a.is_empty() || b.is_empty() {
            return Err("--compare needs at least one file on each side".into());
        }
        return Ok(Cmd::Compare(
            a.iter().map(PathBuf::from).collect(),
            b.iter().map(PathBuf::from).collect(),
        ));
    }
    let mut workload = None;
    let mut seed = aegaeon_bench::SEED;
    let mut seconds = 15.0;
    let mut trace = String::from("0");
    let mut json_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => trace = value()?,
            "--json" => json_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let spans_out = match trace.as_str() {
        "0" => None,
        "1" => Some(PathBuf::from(format!(
            "target/benchmark/{workload}.spans.json"
        ))),
        path => Some(PathBuf::from(path)),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Cmd::Run(RunArgs {
        workload,
        opts: Opts {
            seed,
            seconds,
            traced: spans_out.is_some(),
            nproc,
        },
        spans_out,
        json_out,
    }))
}

/// `path` with `.workload` inserted before its extension.
fn per_workload(path: &Path, workload: &str) -> PathBuf {
    let stem = path
        .file_stem()
        .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
    let name = match path.extension() {
        Some(ext) => format!("{stem}.{workload}.{}", ext.to_string_lossy()),
        None => format!("{stem}.{workload}"),
    };
    path.with_file_name(name)
}

/// `all`: re-runs this binary once per workload, one after another, so
/// each workload's peak memory is its own process's.
fn run_all(args: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return 2;
        }
    };
    let mut worst = 0;
    for w in WORKLOADS {
        let mut child_args = Vec::with_capacity(args.len());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            child_args.push(a.clone());
            if !matches!(a.as_str(), "--workload" | "--json" | "--trace") {
                continue;
            }
            let Some(v) = it.next() else { break };
            child_args.push(match a.as_str() {
                "--workload" => w.to_string(),
                "--trace" if v == "0" || v == "1" => v.clone(),
                _ => per_workload(Path::new(v), w).display().to_string(),
            });
        }
        match Command::new(&exe).args(&child_args).status() {
            Ok(s) => worst = worst.max(s.code().unwrap_or(1)),
            Err(e) => {
                eprintln!("benchmark: cannot run workload {w}: {e}");
                worst = worst.max(2);
            }
        }
    }
    worst
}

/// Writes `text` to `path`, creating its directory first.
fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir)?,
        _ => {}
    }
    std::fs::write(path, text)
}

fn run_one(run: &RunArgs) -> i32 {
    let o = &run.opts;
    println!(
        "benchmark workload={} seed={} seconds={} nproc={} traced={}",
        run.workload, o.seed, o.seconds, o.nproc, o.traced
    );
    let mut out = match run.workload.as_str() {
        "market" => sim::market(o),
        "agentic" => sim::agentic(o),
        "observed" => sim::observed(o),
        "sharded" => sim::sharded(o),
        _ => gateway::run(o),
    };
    out.e2e
        .push(Value::wall("peak_rss_mib", procfs::peak_rss_mib()));
    if let Some(path) = &run.spans_out {
        let text = spans::chrome_json(&out.spans);
        let written = write_file(path, &text)
            .map_err(|e| e.to_string())
            .and_then(|()| std::fs::read_to_string(path).map_err(|e| e.to_string()))
            .and_then(|back| spans::check_chrome_json(&back));
        let n = out.spans.len();
        out.gates
            .gate("span JSON parses and nests", written == Ok(n), || {
                format!("{}: {written:?}", path.display())
            });
        out.notes
            .push(format!("{n} spans written to {}", path.display()));
    }
    let g = &out.gates;
    // Attempts include timing repeats, whose count follows the wall clock.
    out.e2e.push(Value::wall(
        "failed_share",
        g.failed as f64 / g.attempted.max(1) as f64,
    ));
    report::print_human(&run.workload, &out, o.traced);
    if let Some(path) = &run.json_out {
        let record = report::record_json(&run.workload, o.seed, o.seconds, o.nproc, o.traced, &out);
        if let Err(e) = write_file(path, &(record + "\n")) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return 2;
        }
    }
    println!("{}", report::contract_line(&out, o.traced));
    if out.gates.all_ok() {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Ok(Cmd::Help) => {
            println!("{USAGE}");
            0
        }
        Ok(Cmd::Compare(a, b)) => compare::run(&a, &b),
        Ok(Cmd::Run(run)) if run.workload == "all" => run_all(&args),
        Ok(Cmd::Run(run)) => run_one(&run),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let Ok(Cmd::Run(r)) = parse(&args("--workload market --seed 7 --seconds 10 --trace 1"))
        else {
            panic!("should parse");
        };
        assert_eq!(r.workload, "market");
        assert_eq!(r.opts.seed, 7);
        assert_eq!(r.opts.seconds, 10.0);
        assert!(r.opts.traced);
        assert_eq!(
            r.spans_out,
            Some(PathBuf::from("target/benchmark/market.spans.json"))
        );
        let Ok(Cmd::Run(r)) = parse(&args("--workload gateway --trace 0")) else {
            panic!("should parse");
        };
        assert!(!r.opts.traced && r.spans_out.is_none());
        assert_eq!(r.opts.seed, aegaeon_bench::SEED);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload market --seconds 0")).is_err());
        assert!(parse(&args("--workload market --bogus")).is_err());
        assert!(parse(&args("--compare a.json b.json")).is_err());
        assert!(
            matches!(parse(&args("--compare a.json -- b.json")), Ok(Cmd::Compare(a, b)) if a.len() == 1 && b.len() == 1)
        );
    }

    #[test]
    fn per_workload_paths() {
        assert_eq!(
            per_workload(Path::new("out/run.json"), "market"),
            PathBuf::from("out/run.market.json")
        );
        assert_eq!(
            per_workload(Path::new("spans"), "gateway"),
            PathBuf::from("spans.gateway")
        );
    }
}
