//! The `mc-sweep` workload: the researcher's threshold sweep.
//!
//! `DecodeEngine::run_batch` on 2 threads over {batch QECOOL, on-line
//! QECOOL, union-find, MWPM} × d ∈ {5, 9, 13} at phenomenological
//! p = 0.5% (`TrialConfig::standard`, so rounds = d). One **step** is one
//! `run_batch` call that gives every point one chunk of
//! [`CHUNK_SHOTS`] shots, as a threshold sweep does: `sweep_on` puts
//! every point into one `run_batch`, and a campaign runs its quotas in
//! chunks of that size, one engine shard each. Step `k` of point `i`
//! runs trials `k · CHUNK_SHOTS ..` of seed stream `i`.
//!
//! Between the timed slices (clock stopped), one seeded chunk per point
//! of the slice is recomputed serially with `run_trial` at its
//! `derive_seed` seeds and must aggregate to the identical `McResult`.

use std::time::Instant;

use qecool::{QecoolConfig, QecoolDecoder, RunReport, DEFAULT_BOUNDARY_PENALTY};
use qecool_mwpm::MwpmDecoder;
use qecool_sfq::budget::CycleBudget;
use qecool_sim::campaign::derive_seed;
use qecool_sim::engine::{DecodeEngine, McJob};
use qecool_sim::montecarlo::McResult;
use qecool_sim::trials::{
    run_trial, run_trial_into, DecoderKind, TrialConfig, TrialOutcome, TrialScratch,
};
use qecool_surface_code::{CodePatch, Lattice, NoiseSpec, SyndromeHistory};
use qecool_uf::UnionFindDecoder;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, percentile_u64, unaccounted_share};
use crate::timed::{run_slices, Slices};
use crate::trace::{Kind, Tracer, ROOT};

/// Code distances of the sweep.
pub const DISTANCES: [usize; 3] = [5, 9, 13];
/// Phenomenological error rate of every point.
pub const P: f64 = 0.005;
/// Shots every point gets per `run_batch` step: the campaign driver's
/// default chunk (`CampaignConfig::with_seed`), which is also the
/// engine's default shard (`DEFAULT_SHARD_SHOTS`).
pub const CHUNK_SHOTS: usize = 64;
/// Engine worker threads (the box has 2 cores).
pub const THREADS: usize = 2;
/// QECOOL clock for the on-line decoder's per-layer budget.
pub const CLOCK_HZ: f64 = 2.0e9;
/// Serial shots per point in the traced run's per-`d` breakdown.
pub const SERIAL_SHOTS: usize = 64;
/// Set-ups an untraced run times before its timed loop; it times one
/// more after every slice's check, so `setup_s`, their median, samples
/// the host across the whole run (21 set-ups in a 15-s run).
pub const SETUP_BEFORE: usize = 6;
/// Steps an untraced run runs after set-up, before the timed loop, to
/// take `peak_rss_mb` at the same point on every commit.
pub const MEMORY_STEPS: usize = 4;

/// The decoders of the sweep, with their metric names.
pub fn decoders() -> [(&'static str, DecoderKind); 4] {
    let budget_cycles = CycleBudget::at_clock(CLOCK_HZ).cycles_per_round();
    [
        ("batch_qecool", DecoderKind::BatchQecool),
        ("online_qecool", DecoderKind::OnlineQecool { budget_cycles }),
        ("uf", DecoderKind::UnionFind),
        ("mwpm", DecoderKind::Mwpm),
    ]
}

/// The sweep's points, `(decoder index, d)`; a point's index is its
/// seed stream.
pub fn points() -> Vec<(usize, usize)> {
    DISTANCES
        .iter()
        .flat_map(|&d| (0..decoders().len()).map(move |k| (k, d)))
        .collect()
}

fn trial(point: (usize, usize)) -> TrialConfig {
    TrialConfig::standard(point.1, P, decoders()[point.0].1)
}

/// The jobs of sweep step `step`.
fn jobs(seed: u64, step: u64) -> Vec<McJob> {
    points()
        .into_iter()
        .enumerate()
        .map(|(i, point)| McJob {
            trial: trial(point),
            shots: CHUNK_SHOTS,
            base_seed: seed,
            stream: i as u64,
            first_trial: step * CHUNK_SHOTS as u64,
        })
        .collect()
}

/// Recomputes step `step` of point `i` serially with `run_trial`.
fn serial_chunk(seed: u64, i: usize, step: u64) -> McResult {
    let cfg = trial(points()[i]);
    let mut result = McResult::default();
    for k in 0..CHUNK_SHOTS as u64 {
        let seed = derive_seed(seed, i as u64, step * CHUNK_SHOTS as u64 + k);
        result.absorb(&run_trial(&cfg, seed));
    }
    result
}

/// The sweep state the timed loop steps: the engine and the results of
/// the steps not yet checked.
struct Sweep<'t> {
    seed: u64,
    engine: DecodeEngine,
    /// Next step index.
    step: u64,
    /// `(step, per-point results)` of the unchecked steps.
    pending: Vec<(u64, Vec<McResult>)>,
    /// Draws which chunk of each slice is recomputed.
    rng: ChaCha8Rng,
    tracer: Option<&'t mut Tracer>,
    /// Shots run, warm-up included.
    shots: u64,
    /// Shots of chunks that failed their check.
    failed: u64,
}

impl<'t> Sweep<'t> {
    /// Builds the engine and runs the warm-up step (step 0).
    fn setup(seed: u64, tracer: Option<&'t mut Tracer>) -> Self {
        let mut sweep = Self {
            seed,
            engine: DecodeEngine::with_threads(THREADS),
            step: 0,
            pending: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(derive_seed(seed, u64::MAX, 0)),
            tracer: None,
            shots: 0,
            failed: 0,
        };
        sweep.run_step();
        sweep.tracer = tracer;
        sweep
    }

    /// One `run_batch` over every point.
    fn run_step(&mut self) {
        let batch = jobs(self.seed, self.step);
        let out = match self.tracer.as_mut() {
            Some(t) => t.time(Kind::RunBatch, ROOT, self.step as u32, 0, || {
                self.engine.run_batch(&batch)
            }),
            None => self.engine.run_batch(&batch),
        };
        self.shots += (points().len() * CHUNK_SHOTS) as u64;
        self.pending.push((self.step, out));
        self.step += 1;
    }

    /// Recomputes one seeded chunk per point of the pending steps
    /// serially and compares; every pending step must also have run all
    /// its shots. Then forgets the pending steps.
    fn check(&mut self) {
        for i in 0..points().len() {
            let (step, results) = &self.pending[self.rng.gen_range(0..self.pending.len())];
            if results[i] != serial_chunk(self.seed, i, *step) {
                self.failed += CHUNK_SHOTS as u64;
            }
        }
        for (_, results) in &self.pending {
            for r in results {
                self.failed += (CHUNK_SHOTS as u64).saturating_sub(r.shots as u64);
            }
        }
        self.pending.clear();
    }
}

/// Runs `seconds` of sweep slices, checking each slice with the clock
/// stopped, then calling `between`.
fn measure(sweep: &mut Sweep<'_>, seconds: f64, mut between: impl FnMut()) -> Slices {
    run_slices(
        sweep,
        seconds,
        (points().len() * CHUNK_SHOTS) as u64,
        Sweep::run_step,
        |sweep| {
            sweep.check();
            between();
        },
    )
}

/// One timed set-up: engine build and the warm-up step. Its time is
/// pushed onto `times`.
fn timed_setup(seed: u64, times: &mut Vec<f64>) -> Sweep<'static> {
    let t0 = Instant::now();
    let sweep = Sweep::setup(seed, None);
    times.push(t0.elapsed().as_secs_f64());
    sweep
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_BEFORE {
        drop(kept.take());
        kept = Some(timed_setup(seed, &mut setup_s));
    }
    let mut sweep = kept.expect("at least one set-up");
    for _ in 0..MEMORY_STEPS {
        sweep.run_step();
    }
    let rss_mb = peak_rss_mb();
    let slices = measure(&mut sweep, seconds, || {
        timed_setup(seed, &mut setup_s);
    });

    let mut report = Report::new(sweep.shots, sweep.failed, sweep.failed == 0);
    report.note(format!(
        "{} points x {CHUNK_SHOTS} shots per step; {}; {} failed shots",
        points().len(),
        slices.describe(),
        sweep.failed
    ));
    report.metric("ops_per_s", slices.ops_per_s());
    report.metric("step_p50_us", slices.step_us(0.50));
    report.metric("setup_s", median(&setup_s));
    report.metric("peak_rss_mb", rss_mb);
    report.note(format!("set-up times (s): {setup_s:.4?}"));
    report
}

/// Per-shot serial breakdown of the sweep points: `run_trial_into` on a
/// warm scratch, and the same shots split into sampling and bare
/// decoding.
struct Breakdown {
    /// Median serial `run_trial_into` time per point (ns).
    trial_ns: Vec<u64>,
    /// Median time to sample one shot's history, per distance, over the
    /// shots of every decoder at that distance (ns).
    sample_ns: Vec<u64>,
    /// Median bare-decoder time per point, on the same shots as the
    /// serial trials (ns).
    decode_ns: Vec<u64>,
}

fn breakdown(seed: u64, tracer: &mut Tracer) -> Breakdown {
    let points = points();
    let mut trial_ns = Vec::with_capacity(points.len());
    let mut scratch = TrialScratch::new();
    let mut outcome = TrialOutcome::default();
    for (i, &point) in points.iter().enumerate() {
        let cfg = trial(point);
        // Warm the scratch as an engine worker's is, so the serial time
        // is the per-shot cost the engine pays.
        run_trial_into(
            &cfg,
            derive_seed(seed, i as u64, 0),
            &mut scratch,
            &mut outcome,
        );
        let mut times: Vec<u64> = (0..SERIAL_SHOTS as u64)
            .map(|k| {
                let t0 = tracer.now_ns();
                run_trial_into(
                    &cfg,
                    derive_seed(seed, i as u64, k),
                    &mut scratch,
                    &mut outcome,
                );
                let t1 = tracer.now_ns();
                tracer.push(Kind::Trial, ROOT, i as u32, point.0 as u16, t0, t1);
                t1 - t0
            })
            .collect();
        trial_ns.push(percentile_u64(&mut times, 0.5));
    }

    let budget = CycleBudget::at_clock(CLOCK_HZ).cycles_per_round();
    let noise = NoiseSpec::Phenomenological { p: P }.build();
    let mut sample_ns = Vec::new();
    let mut decode_ns = vec![0; points.len()];
    for &d in &DISTANCES {
        let lattice = Lattice::new(d).expect("valid code distance");
        let mut patch = CodePatch::new(lattice.clone());
        let mut history = SyndromeHistory::new(lattice.clone());
        let mut batch = QecoolDecoder::new(
            lattice.clone(),
            QecoolConfig::batch(d + 1).with_boundary_penalty(DEFAULT_BOUNDARY_PENALTY),
        );
        let mut online = QecoolDecoder::new(
            lattice.clone(),
            QecoolConfig::online().with_boundary_penalty(DEFAULT_BOUNDARY_PENALTY),
        );
        let uf = UnionFindDecoder::new(lattice.clone());
        let mwpm = MwpmDecoder::new(lattice.clone());
        let mut report = RunReport::default();
        let mut sample_times = Vec::new();
        for (i, &(dec, _)) in points.iter().enumerate().filter(|(_, p)| p.1 == d) {
            let mut decode_times = Vec::with_capacity(SERIAL_SHOTS);
            for k in 0..SERIAL_SHOTS as u64 {
                // The same shots the serial trials ran: d noisy rounds
                // plus the closing perfect round, from the trial's seed.
                let t0 = tracer.now_ns();
                let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, i as u64, k));
                patch.reset();
                history.clear();
                for _ in 0..d {
                    patch.noisy_round_into(&noise, &mut rng, history.begin_round());
                }
                patch.perfect_round_into(history.begin_round());
                let t1 = tracer.now_ns();
                tracer.push(Kind::SampleShot, ROOT, i as u32, 0, t0, t1);
                sample_times.push(t1 - t0);

                let t0 = tracer.now_ns();
                match dec {
                    0 => {
                        batch.reset();
                        for round in history.iter() {
                            batch
                                .push_round(round)
                                .expect("batch capacity covers the shot");
                        }
                        batch.drain_into(&mut report);
                    }
                    1 => {
                        online.reset();
                        for (r, round) in history.iter().enumerate() {
                            if online.push_round(round).is_err() {
                                break;
                            }
                            if r < d {
                                online.run_into(Some(budget), &mut report);
                            } else {
                                online.drain_into(&mut report);
                            }
                        }
                    }
                    2 => {
                        std::hint::black_box(uf.decode(&history));
                    }
                    _ => {
                        std::hint::black_box(mwpm.decode(&history).expect("matchable"));
                    }
                }
                let t1 = tracer.now_ns();
                tracer.push(Kind::DecodeShot, ROOT, i as u32, dec as u16, t0, t1);
                decode_times.push(t1 - t0);
            }
            decode_ns[i] = percentile_u64(&mut decode_times, 0.5);
        }
        sample_ns.push(percentile_u64(&mut sample_times, 0.5));
    }
    Breakdown {
        trial_ns,
        sample_ns,
        decode_ns,
    }
}

/// The traced run: an untraced half, a traced half with a span per
/// `run_batch`, then the serial per-`d` breakdown.
pub fn run_traced(seed: u64, seconds: f64, trace_out: &std::path::Path) -> Report {
    let mut plain = Sweep::setup(seed, None);
    let plain_slices = measure(&mut plain, seconds / 2.0, || {});

    let mut tracer = Tracer::with_capacity(1 << 16);
    let mut sweep = Sweep::setup(seed, Some(&mut tracer));
    let slices = measure(&mut sweep, seconds / 2.0, || {});
    let (shots, failed) = (sweep.shots, sweep.failed);
    drop(sweep);
    let run_batch_s = tracer.busy_s(Kind::RunBatch);
    let parts = breakdown(seed, &mut tracer);

    let mut report = Report::new(
        plain.shots + shots,
        plain.failed + failed,
        plain.failed == 0 && failed == 0,
    );
    let points = points();
    let names = decoders();
    let us = |ns: u64| ns as f64 / 1e3;
    // Σ serial trial time of the shots the traced loop ran.
    let shots_per_point = slices.total_steps() * CHUNK_SHOTS as u64;
    let serial_s: f64 = parts
        .trial_ns
        .iter()
        .map(|&ns| ns as f64 * 1e-9 * shots_per_point as f64)
        .sum();
    let decode_busy = |decs: &[usize]| {
        tracer
            .durations(Kind::DecodeShot, |s| decs.contains(&(s.tag as usize)))
            .iter()
            .sum::<u64>() as f64
            * 1e-9
    };
    report.metric("step_p90_us", plain_slices.step_us(0.90));
    report.metric("step_p99_us", plain_slices.step_us(0.99));
    report.metric("surface_code.sample_s", tracer.busy_s(Kind::SampleShot));
    report.metric("decode.qecool_s", decode_busy(&[0, 1]));
    report.metric("decode.uf_s", decode_busy(&[2]));
    report.metric("sim.engine.run_batch_s", run_batch_s);
    report.metric(
        "sim.engine.parallel_efficiency",
        serial_s / (run_batch_s * THREADS as f64),
    );
    for (i, &(dec, d)) in points.iter().enumerate() {
        let name = names[dec].0;
        report.metric(
            &format!("sim.trials.shot_us.{name}.d{d}"),
            us(parts.trial_ns[i]),
        );
        report.metric(
            &format!("decode.shot_us.{name}.d{d}"),
            us(parts.decode_ns[i]),
        );
    }
    for (j, &d) in DISTANCES.iter().enumerate() {
        report.metric(
            &format!("surface_code.sample_shot_us.d{d}"),
            us(parts.sample_ns[j]),
        );
    }
    report.metric(
        "unaccounted_share",
        unaccounted_share(slices.wall_s, &[run_batch_s]),
    );
    report.metric(
        "trace_overhead",
        plain_slices.ops_per_s() / slices.ops_per_s(),
    );
    report.note(format!("untraced half: {}", plain_slices.describe()));
    report.note(format!(
        "traced half: {}; {SERIAL_SHOTS} serial shots per point in the breakdown",
        slices.describe()
    ));
    match tracer.write_tsv(trace_out) {
        Ok(()) => report.note(format!("spans written to {}", trace_out.display())),
        Err(e) => report.note(format!(
            "could not write spans to {}: {e}",
            trace_out.display()
        )),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_steps_match_their_serial_recomputation() {
        let seed = 3;
        let mut sweep = Sweep::setup(seed, None);
        sweep.run_step();
        let results = sweep.pending.clone();
        assert_eq!(results[1].1[0], serial_chunk(seed, 0, 1));
        sweep.check();
        assert_eq!(sweep.failed, 0);
        assert_eq!(sweep.shots, 2 * (points().len() * CHUNK_SHOTS) as u64);

        // A tampered aggregate is caught, whichever chunk is drawn.
        sweep.pending = results;
        for (_, step) in &mut sweep.pending {
            for r in step.iter_mut() {
                r.matches += 1;
            }
        }
        sweep.check();
        assert_eq!(sweep.failed, (points().len() * CHUNK_SHOTS) as u64);
    }
}
