//! CPU time and peak memory of a process, read from `/proc` — of the server
//! child for the wire workloads, of the benchmark itself for the in-process
//! ones.

use std::io;

/// `/proc/<pid>/stat` counts CPU time in clock ticks of `USER_HZ`, which
/// Linux fixes at 100 for user space whatever the kernel's own tick rate.
const TICKS_PER_SECOND: f64 = 100.0;

fn bad_data(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// User + system CPU milliseconds consumed so far by every thread (live or
/// exited) of `pid`.
pub fn cpu_ms(pid: u32) -> io::Result<f64> {
    parse_cpu_ms(&std::fs::read_to_string(format!("/proc/{pid}/stat"))?)
}

fn parse_cpu_ms(stat: &str) -> io::Result<f64> {
    // The command name (field 2) may itself hold spaces and parentheses;
    // everything after its *last* closing parenthesis is space-separated.
    let (_, rest) = stat.rsplit_once(')').ok_or_else(|| bad_data("no comm in stat".into()))?;
    let mut fields = rest.split_ascii_whitespace().skip(11); // state is field 3
    let mut next = |name: &str| {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| bad_data(format!("no {name} in stat")))
    };
    let ticks = next("utime")? + next("stime")?;
    Ok(ticks as f64 * 1000.0 / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) of `pid` in MB (10^6 bytes).
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string(format!("/proc/{pid}/status"))?)
}

fn parse_peak_rss_mb(status: &str) -> io::Result<f64> {
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<u64>().ok())
        .ok_or_else(|| bad_data("no VmHWM in status".into()))?;
    Ok(kib as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 7 3 20 0 3 0 1 2 3";
        assert_eq!(parse_cpu_ms(stat).unwrap(), 3000.0);
        assert!(parse_cpu_ms("4242 (x) S 1 2").is_err());
    }

    #[test]
    fn peak_rss_reads_vmhwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  146392 kB\nVmRSS:\t 1 kB\n";
        assert!((parse_peak_rss_mb(status).unwrap() - 149.905408).abs() < 1e-9);
        assert!(parse_peak_rss_mb("Name:\tx\n").is_err());
    }

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_ms(std::process::id()).unwrap() >= 0.0);
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
    }
}
