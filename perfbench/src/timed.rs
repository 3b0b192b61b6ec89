//! The timed loop shared by every workload.
//!
//! A run's measured time is cut into slices of [`SLICE_S`] seconds. Each
//! slice steps the workload until its share of the time is used; between
//! slices the clock is stopped and the slice's outputs are checked and
//! dropped, so the harness's own memory stays bounded by one slice.
//! Throughput and step percentiles cover the whole loop: operations over
//! the summed slice wall time, and exact percentiles over every step
//! sample. The per-slice rates are kept only as a noise diagnostic.

use std::time::Instant;

use crate::stats::nearest_rank;

/// Length of one slice in seconds.
pub const SLICE_S: f64 = 1.0;

/// What a timed loop measured.
#[derive(Debug, Clone, Default)]
pub struct Slices {
    /// Every step's wall time (ns), sorted once the loop ends.
    pub step_ns: Vec<u64>,
    /// Operations per second of each slice (diagnostic only).
    pub rates: Vec<f64>,
    /// Operations run over all slices.
    pub ops: u64,
    /// Wall time inside the slices (check time excluded), in seconds.
    pub wall_s: f64,
}

impl Slices {
    /// Operations per second of the whole loop.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    /// Exact nearest-rank `q` percentile of every step time, in µs.
    pub fn step_us(&self, q: f64) -> f64 {
        nearest_rank(&self.step_ns, q).unwrap_or(0) as f64 / 1e3
    }

    /// Steps over all slices.
    pub fn total_steps(&self) -> u64 {
        self.step_ns.len() as u64
    }

    /// One line describing the sample counts behind the figures.
    pub fn describe(&self) -> String {
        let rates: Vec<String> = self.rates.iter().map(|r| format!("{r:.0}")).collect();
        format!(
            "{} steps in {} slices over {:.3} s; step percentiles from all {} samples; \
             step p90 {:.1} us, p99 {:.1} us; slice ops/s: {}",
            self.total_steps(),
            self.rates.len(),
            self.wall_s,
            self.total_steps(),
            self.step_us(0.90),
            self.step_us(0.99),
            rates.join(" ")
        )
    }
}

/// Runs `step` on `state` for `seconds` in equal slices of about
/// [`SLICE_S`] seconds (at least two), calling
/// `check` after every slice with the clock stopped. `ops_per_step`
/// converts steps into operations for the throughput figure.
pub fn run_slices<S>(
    state: &mut S,
    seconds: f64,
    ops_per_step: u64,
    mut step: impl FnMut(&mut S),
    mut check: impl FnMut(&mut S),
) -> Slices {
    let slices = ((seconds / SLICE_S).round() as usize).max(2);
    let slice_s = seconds / slices as f64;
    let mut out = Slices::default();
    let mut slice_ns = Vec::new();
    for _ in 0..slices {
        slice_ns.clear();
        let start = Instant::now();
        let mut last = start;
        loop {
            step(state);
            let now = Instant::now();
            slice_ns.push((now - last).as_nanos() as u64);
            last = now;
            if (now - start).as_secs_f64() >= slice_s {
                break;
            }
        }
        let wall = (last - start).as_secs_f64();
        let ops = slice_ns.len() as u64 * ops_per_step;
        out.wall_s += wall;
        out.ops += ops;
        out.rates.push(ops as f64 / wall);
        out.step_ns.extend_from_slice(&slice_ns);
        check(state);
    }
    out.step_ns.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_cover_the_time_and_check_between() {
        let mut state = (0u64, 0u64); // (steps, checks)
        let slices = run_slices(
            &mut state,
            0.05,
            3,
            |s| {
                s.0 += 1;
                std::thread::sleep(std::time::Duration::from_micros(200));
            },
            |s| s.1 += 1,
        );
        assert_eq!(state.1, 2);
        assert_eq!(slices.total_steps(), state.0);
        assert_eq!(slices.ops, 3 * state.0);
        assert_eq!(slices.rates.len(), 2);
        assert!(slices.wall_s >= 0.05);
        assert!(slices.step_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(slices.step_us(0.5) <= slices.step_us(0.9));
        assert!(slices.step_us(0.9) <= slices.step_us(0.99));
        assert!(slices.step_us(0.5) >= 200.0);
        let rate = slices.ops_per_s();
        assert!(rate > 0.0 && rate <= 3.0 / 200e-6);
        assert!((rate - slices.ops as f64 / slices.wall_s).abs() < 1e-9);
    }
}
