//! `--compare A.json… -- B.json…`: per workload, every metric's median and
//! quartiles on both sides. An end-to-end metric whose medians differ by
//! more than its bound is flagged, and so is a deterministic metric that
//! differs at all between runs of the same seed.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde_json::Value as Json;

use crate::report::{END_TO_END, PER_LAYER};
use crate::stats;

/// One `--json` record.
struct Record {
    workload: String,
    seed: u64,
    /// (name, value, deterministic)
    metrics: Vec<(String, f64, bool)>,
}

fn load(path: &PathBuf) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let Json::Object(doc) = serde_json::from_str::<Json>(&text).map_err(|e| bad(&e.to_string()))?
    else {
        return Err(bad("not a JSON object"));
    };
    let Some(Json::String(workload)) = doc.get("workload") else {
        return Err(bad("no workload"));
    };
    let Some(Json::U64(seed)) = doc.get("seed") else {
        return Err(bad("no seed"));
    };
    let Some(Json::Object(metrics)) = doc.get("metrics") else {
        return Err(bad("no metrics"));
    };
    let mut out = Vec::new();
    for (name, m) in metrics.iter() {
        let Json::Object(m) = m else {
            return Err(bad(&format!("metric {name} is not an object")));
        };
        let value = match m.get("value") {
            Some(Json::F64(v)) => *v,
            Some(Json::U64(v)) => *v as f64,
            Some(Json::I64(v)) => *v as f64,
            _ => return Err(bad(&format!("metric {name} has no numeric value"))),
        };
        let det = matches!(m.get("deterministic"), Some(Json::Bool(true)));
        out.push((name.clone(), value, det));
    }
    Ok(Record {
        workload: workload.clone(),
        seed: *seed,
        metrics: out,
    })
}

/// Bound of an end-to-end metric, if it is one.
fn bound(name: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .find(|s| s.name == name)
        .and_then(|s| s.bound)
}

/// Runs the comparison; returns the process exit code (1 when anything is
/// flagged or a file cannot be read).
pub fn run(a: &[PathBuf], b: &[PathBuf]) -> i32 {
    let read =
        |paths: &[PathBuf]| -> Result<Vec<Record>, String> { paths.iter().map(load).collect() };
    let (a, b) = match (read(a), read(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return 1;
        }
    };
    let mut workloads: Vec<&str> = a.iter().chain(&b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let order: Vec<&str> = END_TO_END
        .iter()
        .map(|s| s.name)
        .chain(PER_LAYER.iter().map(|s| s.name))
        .collect();
    let mut flags = 0;
    for w in workloads {
        let ra: Vec<&Record> = a.iter().filter(|r| r.workload == w).collect();
        let rb: Vec<&Record> = b.iter().filter(|r| r.workload == w).collect();
        println!("workload {w}: {} run(s) vs {} run(s)", ra.len(), rb.len());
        println!(
            "  {:<38} {:>14} {:>27} {:>14} {:>27} {:>8}",
            "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "delta"
        );
        for name in &order {
            let values = |rs: &[&Record]| -> Vec<(u64, f64, bool)> {
                rs.iter()
                    .flat_map(|r| {
                        r.metrics
                            .iter()
                            .filter(|m| m.0 == *name)
                            .map(move |m| (r.seed, m.1, m.2))
                    })
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let xs = |v: &[(u64, f64, bool)]| v.iter().map(|x| x.1).collect::<Vec<f64>>();
            let (xa, xb) = (xs(&va), xs(&vb));
            let (ma, mb) = (
                stats::median(&xa).unwrap_or(0.0),
                stats::median(&xb).unwrap_or(0.0),
            );
            let (qa, qb) = (
                stats::quartiles(&xa).unwrap_or_default(),
                stats::quartiles(&xb).unwrap_or_default(),
            );
            let delta = if ma == 0.0 {
                if mb == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (mb - ma) / ma.abs()
            };
            let mut why = Vec::new();
            if let Some(b) = bound(name) {
                if delta.abs() > b {
                    why.push(format!("medians differ by more than the bound {b}"));
                }
            }
            if va.iter().chain(&vb).any(|x| x.2) {
                // Deterministic: every run of one seed must read the same.
                let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
                for &(seed, v, _) in va.iter().chain(&vb) {
                    by_seed.entry(seed).or_default().push(v);
                }
                for (seed, vs) in by_seed {
                    if vs.iter().any(|v| v.to_bits() != vs[0].to_bits()) {
                        why.push(format!("deterministic metric differs at seed {seed}"));
                    }
                }
            }
            println!(
                "  {:<38} {:>14.6} [{:>12.6}, {:>12.6}] {:>14.6} [{:>12.6}, {:>12.6}] {:>+7.2}%{}",
                name,
                ma,
                qa.0,
                qa.1,
                mb,
                qb.0,
                qb.1,
                delta * 100.0,
                if why.is_empty() {
                    String::new()
                } else {
                    format!("  FLAG: {}", why.join("; "))
                }
            );
            if !why.is_empty() {
                flags += 1;
            }
        }
    }
    if flags > 0 {
        println!("{flags} metric(s) flagged");
        1
    } else {
        println!("no metric flagged");
        0
    }
}
