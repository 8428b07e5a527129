//! Process and thread accounting read from Linux procfs: CPU time, context
//! switches and peak resident memory.

use std::fs;

/// Kernel clock ticks per second in `stat` CPU fields (`USER_HZ`, 100 on
/// every mainstream Linux architecture).
const TICKS_PER_SEC: f64 = 100.0;

/// The fields this benchmark reads from one `stat` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat {
    /// Command name (the thread name for `/proc/self/task/*/stat`).
    pub comm: String,
    /// User-mode CPU, clock ticks.
    pub utime: u64,
    /// Kernel-mode CPU, clock ticks.
    pub stime: u64,
}

impl Stat {
    /// User plus kernel CPU time, seconds.
    pub fn cpu_secs(&self) -> f64 {
        (self.utime + self.stime) as f64 / TICKS_PER_SEC
    }
}

/// Parses a `/proc/<pid>/stat` line. The command name sits in parentheses
/// and may itself contain spaces and `)`, so it runs from the first `(` to
/// the *last* `)`; the numeric fields follow.
pub fn parse_stat(line: &str) -> Option<Stat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    // Fields after the command: state is field 3, utime 14, stime 15.
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let utime = rest.get(11)?.parse().ok()?;
    let stime = rest.get(12)?.parse().ok()?;
    Some(Stat { comm, utime, stime })
}

/// CPU time of the whole process so far (threads that already exited
/// included), seconds. 0 when procfs is unavailable.
pub fn process_cpu_secs() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0.0, |s| s.cpu_secs())
}

/// Value of a `Key:   123 kB`-style line in a `status` file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// CPU and scheduling counters of one live thread of this process.
#[derive(Debug, Clone)]
pub struct ThreadStat {
    /// Thread name.
    pub comm: String,
    /// User plus kernel CPU time, seconds.
    pub cpu_secs: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// Every live thread of this process whose name starts with `prefix`.
pub fn threads(prefix: &str) -> Vec<ThreadStat> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let path = entry.path();
        let Some(stat) = fs::read_to_string(path.join("stat"))
            .ok()
            .and_then(|s| parse_stat(&s))
        else {
            continue;
        };
        if !stat.comm.starts_with(prefix) {
            continue;
        }
        let status = fs::read_to_string(path.join("status")).unwrap_or_default();
        let ctx_switches = status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
        out.push(ThreadStat {
            cpu_secs: stat.cpu_secs(),
            comm: stat.comm,
            ctx_switches,
        });
    }
    out.sort_by(|a, b| a.comm.cmp(&b.comm));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_stat_line() {
        let line = "4242 (gw-sim) S 1 4242 4242 0 -1 4194368 120 0 0 0 731 52 0 0 20 0 3 0 \
                    1234 0 0 18446744073709551615";
        let s = parse_stat(line).expect("parses");
        assert_eq!(s.comm, "gw-sim");
        assert_eq!((s.utime, s.stime), (731, 52));
        assert!((s.cpu_secs() - 7.83).abs() < 1e-9);
    }

    #[test]
    fn command_with_spaces_and_parens_does_not_shift_fields() {
        let line = "77 (a) b) (c d)) R 1 77 77 0 -1 0 0 0 0 0 15 4 0 0 20 0 1 0 99 0 0";
        let s = parse_stat(line).expect("parses");
        assert_eq!(s.comm, "a) b) (c d)");
        assert_eq!((s.utime, s.stime), (15, 4));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert_eq!(parse_stat("no parens here"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
        assert_eq!(parse_stat("1 (x) S 1 2 3 4 5 6 7 8 9 u s"), None);
    }

    #[test]
    fn reads_status_fields() {
        let status = "Name:\tx\nVmHWM:\t  20480 kB\nvoluntary_ctxt_switches:\t7\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(20480));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(status_field(status, "VmRSS"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(threads("").iter().any(|t| t.cpu_secs >= 0.0));
    }
}
