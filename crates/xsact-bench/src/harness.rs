//! What the figure binaries share besides their workloads: a registry of
//! the numbers they print, flushed as `BENCH_<bin>.json`, and the smoke
//! mode CI runs them in. Timing lives in the stand-alone `bench/` package.

use std::sync::Mutex;

/// One machine-readable measurement, accumulated by [`record`] and flushed
/// to `BENCH_<bin>.json` by [`emit_json`].
#[derive(Debug, Clone)]
struct Record {
    name: String,
    metric: String,
    value: f64,
}

static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// Registers one numeric measurement for [`emit_json`] — the counters and
/// DoD values the figure binaries also print in human form.
pub fn record(name: &str, metric: &str, value: f64) {
    RECORDS.lock().expect("bench record registry poisoned").push(Record {
        name: name.to_owned(),
        metric: metric.to_owned(),
        value,
    });
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes every measurement this process recorded to `BENCH_<bin>.json`
/// in the current directory — a flat, dependency-free JSON document CI
/// and regression tooling can diff without scraping the human-oriented
/// stdout (which stays byte-identical to the goldens). Each entry carries
/// the bench name, the metric, the value, and the machine's available
/// parallelism so cross-machine comparisons can be normalised.
pub fn emit_json(bin: &str) {
    let parallelism = std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1);
    let records = RECORDS.lock().expect("bench record registry poisoned");
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(bin)));
    body.push_str(&format!("  \"parallelism\": {parallelism},\n"));
    body.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"metric\": \"{}\", \"value\": {}}}{sep}\n",
            json_escape(&r.name),
            json_escape(&r.metric),
            r.value
        ));
    }
    body.push_str("  ]\n}\n");
    let path = format!("BENCH_{bin}.json");
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

/// Whether this process should run in smoke mode: shrunken workloads, one
/// timing sample. Enabled by `XSACT_BENCH_QUICK` (any value but
/// `0`/empty) or a `--quick` argument; CI sets the environment variable so
/// every figure binary is exercised on every PR without costing minutes.
pub fn quick_mode() -> bool {
    std::env::var_os("XSACT_BENCH_QUICK").is_some_and(|v| !v.is_empty() && v != "0")
        || std::env::args().any(|a| a == "--quick")
}

/// `full`, shrunk to `quick` in [smoke mode](quick_mode) — the one-liner
/// the figure binaries use to scale their workloads.
pub fn scaled(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_only_shrinks_in_quick_mode() {
        // The harness honours however this test process was launched, so
        // assert consistency rather than a fixed mode.
        if quick_mode() {
            assert_eq!(scaled(400, 40), 40);
        } else {
            assert_eq!(scaled(400, 40), 400);
        }
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny"), "x\\ny");
    }

    #[test]
    fn emit_json_writes_recorded_measurements() {
        let dir = std::env::temp_dir().join(format!("xsact_bench_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        record("test/emit", "median_ns", 42.0);
        emit_json("harness_selftest");
        let text = std::fs::read_to_string("BENCH_harness_selftest.json").unwrap();
        std::env::set_current_dir(old).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(text.contains("\"bench\": \"harness_selftest\""));
        assert!(text.contains("\"parallelism\": "));
        assert!(
            text.contains("{\"name\": \"test/emit\", \"metric\": \"median_ns\", \"value\": 42}")
        );
    }
}
