//! The timed window of an untraced run, and the statistics over it.
//!
//! The boxes this runs on are shared VMs, and their speed is not constant.
//! Two things were measured here before this design was chosen:
//!
//! * **Bursts.** Several times a run, for a few hundred milliseconds, a
//!   neighbour takes cycles and every op in flight reads 20–40 % slow; and
//!   now and then the scheduler puts client and server thread on one CPU
//!   and a cached round trip reads 3× *fast*. How many of either a run
//!   catches is luck. So the window is cut into [`SLICES`] equal time
//!   slices, every timing metric is computed **per slice**, and the run
//!   reports the **median over the slices** — blind to whatever happens in
//!   fewer than half of them.
//! * **Regimes.** For minutes at a time the whole machine runs 20–40 %
//!   slower or faster (CPU time per op moves with wall time, so it is
//!   cycles per instruction, not stolen time). No statistic inside one run
//!   sees that, and raw times of identical runs minutes apart differed by
//!   30 %. So a fixed piece of work — the [`Calibrator`] — is timed at every
//!   slice boundary, and a slice's times are reported **calibrated**:
//!   multiplied by the calibrator's nominal time over its measured time at
//!   that slice's two boundaries. The raw values are printed beside them.
//!
//! A change to the program slows every slice alike and leaves the
//! calibrator alone, so it shows in full; a burst is outvoted by the other
//! slices; a regime moves the op and the calibrator together and cancels
//! (to within 5–10 %: the two do not slow down by exactly the same factor).
//! Evaluated offline on 12 recorded sets of every workload against a dozen
//! other estimators (whole-run, fastest half, middle half, run-level
//! factors): this one had the smallest worst-case spread.

use crate::procfs;
use crate::report::Report;
use crate::stats;
use std::time::{Duration, Instant};

/// Time slices per window.
pub const SLICES: usize = 16;

/// A fixed piece of CPU work whose duration says how fast the machine is
/// right now: AND+popcount over two 64 KiB buffers (ALU-bound, cache
/// resident) and sorting 8192 pseudo-random words (branchy, allocation
/// free). About 2 ms; it uses none of the product's code, so a change to the
/// product cannot move it.
#[derive(Debug)]
pub struct Calibrator {
    a: Vec<u64>,
    b: Vec<u64>,
    scratch: Vec<u64>,
}

/// What [`Calibrator::run`] takes on the box this benchmark was defined on
/// in its usual regime. Only a scale: it makes calibrated times read like
/// that box's raw ones.
pub const NOMINAL_CALIBRATION_US: f64 = 1840.0;

impl Default for Calibrator {
    fn default() -> Self {
        let mut rng = crate::rng::Rng::new(crate::stream::POOL_SEED);
        let mut words = |n| (0..n).map(|_| rng.next_u64()).collect::<Vec<u64>>();
        Calibrator { a: words(8192), b: words(8192), scratch: vec![0; 8192] }
    }
}

impl Calibrator {
    /// Does the fixed work once; returns how long it took in microseconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut ones = 0u32;
        for _ in 0..200 {
            let pairs = std::hint::black_box(&self.a).iter().zip(&self.b);
            ones = ones.wrapping_add(pairs.map(|(x, y)| (x & y).count_ones()).sum::<u32>());
        }
        std::hint::black_box(ones);
        for round in 0..4u64 {
            for (slot, word) in self.scratch.iter_mut().zip(&self.a) {
                *slot = word.rotate_left(round as u32 * 7) ^ round;
            }
            self.scratch.sort_unstable();
            std::hint::black_box(&self.scratch);
        }
        start.elapsed().as_secs_f64() * 1e6
    }

    /// Times `work` and returns its result with its duration in calibrated
    /// seconds: raw seconds scaled by the calibrator's reading just before
    /// and just after.
    pub fn time<R>(&mut self, work: impl FnOnce() -> R) -> (R, f64) {
        let before = self.run();
        let start = Instant::now();
        let result = work();
        let raw_s = start.elapsed().as_secs_f64();
        let reading = (before + self.run()) / 2.0;
        (result, raw_s * NOMINAL_CALIBRATION_US / reading)
    }
}

#[derive(Debug, Default, Clone)]
struct Slice {
    latencies_ms: Vec<f64>,
    cpu_ms: f64,
    /// Mean of the calibrator readings at the slice's two boundaries.
    calibration_us: f64,
}

/// Where the CPU time of an op is read from.
#[derive(Debug, Clone, Copy)]
pub enum Cpu {
    /// One long-lived process (the server child, or the benchmark itself)
    /// holds the corpus: its counter is sampled at slice boundaries.
    Process(u32),
    /// Every op has a process of its own; the caller passes its CPU time to
    /// [`Window::record`].
    PerOp,
}

#[derive(Debug)]
pub struct Window {
    start: Instant,
    length: Duration,
    cpu: Cpu,
    calibrator: Calibrator,
    /// CPU counter and calibrator reading at the last slice boundary.
    cpu_mark: f64,
    calibration_mark: f64,
    current: usize,
    slices: Vec<Slice>,
}

impl Window {
    /// Takes the first calibrator reading, then starts the clock.
    pub fn open(length: Duration, cpu: Cpu, mut calibrator: Calibrator) -> Window {
        let calibration_mark = calibrator.run();
        let mut window = Window {
            start: Instant::now(),
            length,
            cpu,
            calibrator,
            cpu_mark: 0.0,
            calibration_mark,
            current: 0,
            slices: vec![Slice::default(); SLICES],
        };
        window.cpu_mark = window.cpu_now();
        window.start = Instant::now();
        window
    }

    fn cpu_now(&self) -> f64 {
        match self.cpu {
            // A process that is gone has stopped using CPU: its last
            // reading stands.
            Cpu::Process(pid) => procfs::cpu_ms(pid).unwrap_or(self.cpu_mark),
            Cpu::PerOp => 0.0,
        }
    }

    /// Whether the window still has time left for another op.
    pub fn running(&self) -> bool {
        self.start.elapsed() < self.length
    }

    /// Books an op that just completed into the slice the clock is in.
    /// `op_cpu_ms` is only read under [`Cpu::PerOp`].
    pub fn record(&mut self, latency_ms: f64, op_cpu_ms: f64) {
        let position = self.start.elapsed().as_secs_f64() / self.length.as_secs_f64();
        let slice = ((position * SLICES as f64) as usize).min(SLICES - 1);
        if slice != self.current {
            self.close_current();
            self.current = slice;
        }
        self.slices[slice].latencies_ms.push(latency_ms);
        if matches!(self.cpu, Cpu::PerOp) {
            self.slices[slice].cpu_ms += op_cpu_ms;
        }
    }

    /// Ends the current slice: charges it the CPU used since the last
    /// boundary and gives it the mean of its two boundary calibrations.
    /// (The calibrator runs between ops, on the client's side of the closed
    /// loop, so no op's latency contains it.)
    fn close_current(&mut self) {
        if let Cpu::Process(_) = self.cpu {
            let now = self.cpu_now();
            self.slices[self.current].cpu_ms += now - self.cpu_mark;
        }
        let reading = self.calibrator.run();
        self.slices[self.current].calibration_us = (self.calibration_mark + reading) / 2.0;
        self.calibration_mark = reading;
        // Read again, so that when the process watched is the benchmark
        // itself the calibrator's own CPU is charged to no slice.
        self.cpu_mark = self.cpu_now();
    }

    pub fn ops(&self) -> usize {
        self.slices.iter().map(|s| s.latencies_ms.len()).sum()
    }

    /// Closes the window and fills the end-to-end metrics: each is computed
    /// per slice in calibrated time, then the median over the slices is
    /// taken. `setup_s` are the set-up rounds in calibrated seconds
    /// ([`Calibrator::time`]). `failed` ops are in the samples (a failed op
    /// took time too) but not in `ops_per_s`.
    pub fn summarize(
        mut self,
        report: &mut Report,
        setup_s: &[f64],
        failed: u64,
        peak_rss_mb: f64,
    ) {
        self.close_current();
        let total = self.ops();
        let correct_share = 1.0 - failed as f64 / total as f64;
        let filled: Vec<&Slice> =
            self.slices.iter().filter(|s| !s.latencies_ms.is_empty()).collect();
        let per_slice: Vec<[f64; 4]> = filled.iter().map(|s| s.metrics(correct_share)).collect();
        let over_slices = |metric: usize, calibrated: bool| {
            let values: Vec<f64> = per_slice
                .iter()
                .zip(&filled)
                .map(|(m, s)| if calibrated { s.calibrated(metric, m[metric]) } else { m[metric] })
                .collect();
            stats::median(&values)
        };
        report.set("setup_s", stats::median(setup_s));
        report.set("op_p50_ms", over_slices(P50, true));
        report.set("op_p95_ms", over_slices(P95, true));
        report.set("ops_per_s", over_slices(OPS_PER_S, true));
        report.set("cpu_ms_per_op", over_slices(CPU_PER_OP, true));
        report.set("peak_rss_mb", peak_rss_mb);
        let per_slice_ops: Vec<f64> = filled.iter().map(|s| s.latencies_ms.len() as f64).collect();
        let readings: Vec<f64> = filled.iter().map(|s| s.calibration_us).collect();
        report.note(format!(
            "samples: {total} ops in {} slices of {:.3} s (median {} ops a slice)",
            filled.len(),
            self.length.as_secs_f64() / SLICES as f64,
            stats::median(&per_slice_ops)
        ));
        report.note(format!(
            "calibration: the calibrator read {:.0} us (median over the slices, nominal \
             {NOMINAL_CALIBRATION_US} us); uncalibrated medians over the slices: op_p50_ms {:.6} \
             op_p95_ms {:.6} ops_per_s {:.3} cpu_ms_per_op {:.6}",
            stats::median(&readings),
            over_slices(P50, false),
            over_slices(P95, false),
            over_slices(OPS_PER_S, false),
            over_slices(CPU_PER_OP, false)
        ));
    }
}

/// Indexes into [`Slice::metrics`].
const P50: usize = 0;
const P95: usize = 1;
const OPS_PER_S: usize = 2;
const CPU_PER_OP: usize = 3;

impl Slice {
    /// `[op_p50_ms, op_p95_ms, ops_per_s, cpu_ms_per_op]` of this slice's
    /// ops, in raw time.
    fn metrics(&self, correct_share: f64) -> [f64; 4] {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let ops = sorted.len() as f64;
        let busy_s = sorted.iter().sum::<f64>() / 1000.0;
        [
            stats::quantile(&sorted, 0.50),
            stats::quantile(&sorted, 0.95),
            ops * correct_share / busy_s,
            self.cpu_ms / ops,
        ]
    }

    /// A raw value of this slice in calibrated time: durations scale with
    /// nominal over measured calibrator time, the one rate inversely.
    fn calibrated(&self, metric: usize, raw: f64) -> f64 {
        let factor = NOMINAL_CALIBRATION_US / self.calibration_us;
        if metric == OPS_PER_S {
            raw / factor
        } else {
            raw * factor
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(latencies_ms: &[f64], cpu_ms: f64, calibration_us: f64) -> Slice {
        Slice { latencies_ms: latencies_ms.to_vec(), cpu_ms, calibration_us }
    }

    #[test]
    fn a_window_reports_the_median_over_its_slices_in_calibrated_time() {
        let mut window = Window::open(Duration::from_secs(3600), Cpu::PerOp, Calibrator::default());
        // An hour-long window never leaves slice 0; make the slices by hand.
        // The machine runs at half its nominal speed throughout.
        let slow = 2.0 * NOMINAL_CALIBRATION_US;
        window.slices[0] = slice(&[2.0, 2.0, 2.0, 2.0], 8.0, slow);
        window.slices[1] = slice(&[9.0, 9.0, 9.0, 9.0], 36.0, slow); // a burst
        window.slices[2] = slice(&[2.0, 2.0, 2.0, 6.0], 12.0, slow); // one slow op
        window.slices[3] = slice(&[0.5, 0.5, 0.5, 0.5], 2.0, slow); // a lucky placement
        window.slices[4] = slice(&[2.0, 2.0, 2.0, 2.0], 8.0, slow);
        window.current = 5; // the closing calibration lands in an empty slice
        assert_eq!(window.ops(), 20);
        let mut report = Report::default();
        window.summarize(&mut report, &[0.3, 0.1, 0.2], 0, 50.0);
        assert_eq!(report.get("setup_s"), Some(0.2));
        // The median slice reads 2 ms, 500 ops/s and 2 ms of CPU per op in
        // raw time; the calibrator took twice its nominal time, so the
        // calibrated times halve and the rate doubles.
        assert_eq!(report.get("op_p50_ms"), Some(1.0));
        assert_eq!(report.get("op_p95_ms"), Some(1.0));
        assert_eq!(report.get("ops_per_s"), Some(1000.0));
        assert_eq!(report.get("cpu_ms_per_op"), Some(1.0));
        assert_eq!(report.get("peak_rss_mb"), Some(50.0));
    }

    #[test]
    fn a_slice_is_calibrated_by_its_own_reading() {
        let s = slice(&[1.0, 3.0], 8.0, NOMINAL_CALIBRATION_US / 2.0); // a fast stretch
        let m = s.metrics(1.0);
        assert_eq!(m, [2.0, 2.9, 500.0, 4.0]);
        assert_eq!(s.calibrated(P50, m[P50]), 4.0);
        assert_eq!(s.calibrated(OPS_PER_S, m[OPS_PER_S]), 250.0);
        assert_eq!(slice(&[1.0, 3.0], 8.0, 1.0).metrics(0.5)[OPS_PER_S], 250.0);
    }

    #[test]
    fn ops_are_booked_into_the_slice_the_clock_is_in() {
        let mut window =
            Window::open(Duration::from_millis(800), Cpu::PerOp, Calibrator::default());
        while window.running() {
            window.record(1.0, 0.5);
            std::thread::sleep(Duration::from_millis(10));
        }
        let filled: Vec<&Slice> =
            window.slices.iter().filter(|s| !s.latencies_ms.is_empty()).collect();
        assert!(filled.len() >= SLICES / 2, "{} of {SLICES} slices filled", filled.len());
        assert!(filled[..filled.len() - 1].iter().all(|s| s.calibration_us > 0.0));
    }

    #[test]
    fn the_calibrator_does_the_same_work_every_time() {
        let mut calibrator = Calibrator::default();
        let first = calibrator.scratch.clone();
        assert!(calibrator.run() > 0.0);
        let sorted = calibrator.scratch.clone();
        assert!(sorted != first && sorted.windows(2).all(|w| w[0] <= w[1]));
        calibrator.run();
        assert_eq!(calibrator.scratch, sorted);
        let ((), seconds) = calibrator.time(|| std::thread::sleep(Duration::from_millis(20)));
        assert!(seconds > 0.0);
    }
}
