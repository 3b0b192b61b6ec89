//! The two serve workloads: 64 sessions of a d = 9 patch served through
//! one `ShardedDecodeService` shard with 2 pump workers, in a closed
//! loop with one caller.
//!
//! One **step** samples (or reads) one round for every session, pushes
//! the batch into the ring, pumps, then polls every session and feeds
//! its corrections back. The next step starts only after every session's
//! corrections are back: the live feedback loop, with the fabric's
//! caller-driven `pump`.
//!
//! * `serve-live-qecool`: each session runs its own `SimulatedSource`
//!   (phenomenological p = 0.3%) and the on-line QECOOL backend at a
//!   2 GHz budget.
//! * `serve-replay-uf`: rounds come from a `QECPACK1` recording that
//!   set-up writes from the seed (in memory; the loop cycles through it)
//!   and the backend is the windowed union-find decoder (W = 3d, S = d).
//!
//! Between the timed slices (clock stopped), every session's polled
//! correction stream is checked against a direct single-threaded run of
//! the same `api::Decoder` backend over the same rounds; the closing
//! streams are checked after the sessions close.

use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use qecool::{
    DecodeOutput, Decoder, QecoolConfig, QecoolDecoder, SimulatedSource, SyndromeSource,
    DEFAULT_BOUNDARY_PENALTY,
};
use qecool_sfq::budget::CycleBudget;
use qecool_sim::campaign::derive_seed;
use qecool_sim::service::{ServiceBackend, ServiceConfig, SessionId, StreamingUf, WindowConfig};
use qecool_sim::shard::{ShardStats, ShardedDecodeService, ShardedServiceConfig};
use qecool_surface_code::{
    CodePatch, DetectionRound, Edge, Lattice, NoiseSpec, PackedReader, PackedWriter,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::report::{peak_rss_mb, Report};
use crate::stats::{
    histogram_add, histogram_mean, histogram_percentile, median, percentile_u64, unaccounted_share,
};
use crate::timed::{run_slices, Slices};
use crate::trace::{traced, Kind, Tracer, ROOT};

/// Concurrent sessions (logical qubits) served.
pub const SESSIONS: usize = 64;
/// Code distance of every session's patch.
pub const DISTANCE: usize = 9;
/// Phenomenological error rate (data and measurement).
pub const P: f64 = 0.003;
/// QECOOL clock: 2 GHz × 1 µs measurement interval = 2000 cycles/round.
pub const CLOCK_HZ: f64 = 2.0e9;
/// Pump worker threads (the box has 2 cores).
pub const PUMP_WORKERS: usize = 2;
/// Service shards.
pub const SHARDS: usize = 1;
/// Rounds per stream in the replay recording; the loop cycles through it.
pub const RECORDING_ROUNDS: usize = 512;
/// Steps served during set-up: the first union-find window fill
/// (W = 3d rounds) plus one slide, which also spawns the lazy pump pool.
pub const WARMUP_STEPS: u64 = 4 * DISTANCE as u64;
/// Set-ups an untraced run times before its timed loop; it times one
/// more after every slice's check, so `setup_s`, their median, samples
/// the host across the whole run (21 set-ups in a 15-s run).
pub const SETUP_BEFORE: usize = 6;
/// Steps an untraced run serves after set-up, before the timed loop and
/// before the reference exists, to take `peak_rss_mb` at the same point
/// on every commit: one pass through the replay recording.
pub const MEMORY_STEPS: u64 = RECORDING_ROUNDS as u64;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Simulated rounds with feedback, QECOOL backend.
    LiveQecool,
    /// Recorded rounds, windowed union-find backend.
    ReplayUf,
}

impl Mode {
    fn backend(self) -> ServiceBackend {
        match self {
            Mode::LiveQecool => ServiceBackend::Qecool,
            Mode::ReplayUf => ServiceBackend::UnionFind,
        }
    }

    /// The direct decoder the fabric's sessions run, built the way the
    /// service builds its backends.
    fn direct_decoder(self, lattice: &Lattice) -> Box<dyn Decoder + Send> {
        match self {
            Mode::LiveQecool => Box::new(QecoolDecoder::new(
                lattice.clone(),
                QecoolConfig::online().with_boundary_penalty(DEFAULT_BOUNDARY_PENALTY),
            )),
            Mode::ReplayUf => Box::new(StreamingUf::with_config(
                lattice.clone(),
                WindowConfig::default_for(DISTANCE),
            )),
        }
    }
}

fn lattice() -> Lattice {
    Lattice::new(DISTANCE).expect("valid code distance")
}

fn budget_cycles() -> u64 {
    CycleBudget::at_clock(CLOCK_HZ).cycles_per_round()
}

/// One simulated source per session; session `s` draws from
/// `derive_seed(seed, s, 0)`.
fn live_sources(seed: u64, lattice: &Lattice) -> Vec<SimulatedSource> {
    let noise = NoiseSpec::Phenomenological { p: P }.build();
    (0..SESSIONS)
        .map(|s| {
            SimulatedSource::new(
                CodePatch::new(lattice.clone()),
                noise,
                ChaCha8Rng::seed_from_u64(derive_seed(seed, s as u64, 0)),
            )
        })
        .collect()
}

/// Writes the replay workload's `QECPACK1` recording: every session's
/// simulated stream, [`RECORDING_ROUNDS`] rounds, round-major. Pure
/// sampling — the patch latch makes detection events independent of
/// feedback — so the bytes depend only on `seed`.
pub fn write_recording(seed: u64) -> Vec<u8> {
    let lattice = lattice();
    let mut sources = live_sources(seed, &lattice);
    let mut writer = PackedWriter::new(
        Cursor::new(Vec::new()),
        DISTANCE as u32,
        lattice.num_ancillas() as u32,
        SESSIONS as u32,
        0,
    )
    .expect("valid recording shape");
    let mut round = DetectionRound::zeros(lattice.num_ancillas());
    for _ in 0..RECORDING_ROUNDS {
        for source in &mut sources {
            source
                .next_round_into(&mut round)
                .expect("an unlimited simulated source never runs dry");
            writer
                .write_plane(round.events(), None)
                .expect("in-memory write");
        }
    }
    writer.finish().expect("in-memory finish").into_inner()
}

fn open_recording(bytes: &Arc<[u8]>) -> PackedReader<Cursor<Arc<[u8]>>> {
    PackedReader::new(Cursor::new(Arc::clone(bytes))).expect("recording header is valid")
}

/// Where the sessions' rounds come from.
enum Feed {
    Live(Vec<SimulatedSource>),
    Replay {
        bytes: Arc<[u8]>,
        reader: PackedReader<Cursor<Arc<[u8]>>>,
    },
}

impl Feed {
    fn new(mode: Mode, seed: u64, recording: Option<&Arc<[u8]>>, lattice: &Lattice) -> Self {
        match mode {
            Mode::LiveQecool => Feed::Live(live_sources(seed, lattice)),
            Mode::ReplayUf => {
                let bytes = Arc::clone(recording.expect("replay needs a recording"));
                let reader = open_recording(&bytes);
                Feed::Replay { bytes, reader }
            }
        }
    }

    /// The span kind of this feed's per-session read.
    fn read_kind(&self) -> Kind {
        match self {
            Feed::Live(_) => Kind::Sample,
            Feed::Replay { .. } => Kind::PackedRead,
        }
    }

    /// Session `s`'s next round. Replay sessions must be read in
    /// session order every step (the file is round-major); at the end of
    /// the recording the reader starts over.
    fn next_round(&mut self, s: usize, out: &mut DetectionRound) {
        match self {
            Feed::Live(sources) => {
                sources[s]
                    .next_round_into(out)
                    .expect("an unlimited simulated source never runs dry");
            }
            Feed::Replay { bytes, reader } => {
                if SyndromeSource::next_round_into(reader, out).is_none() {
                    if let Some(e) = reader.take_error() {
                        panic!("recording unreadable: {e}");
                    }
                    *reader = open_recording(bytes);
                    SyndromeSource::next_round_into(reader, out)
                        .expect("recording holds at least one round");
                }
            }
        }
    }

    fn apply(&mut self, s: usize, corrections: &[Edge]) {
        match self {
            Feed::Live(sources) => sources[s].apply_corrections(corrections),
            Feed::Replay { reader, .. } => SyndromeSource::apply_corrections(reader, corrections),
        }
    }
}

/// One session's polled output since the last check, as the caller saw
/// it.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Corrections returned by each successful poll, one entry per step.
    pub counts: Vec<u32>,
    /// Every polled correction, concatenated.
    pub edges: Vec<Edge>,
    /// Commit watermark at each poll, as `committed_through + 1`
    /// (0 = nothing committed yet).
    pub committed: Vec<u64>,
    /// Step whose poll reported the session failed, if any.
    pub overflow_step: Option<u64>,
}

impl Observed {
    fn record_poll(&mut self, corrections: &[Edge], committed_through: Option<u64>) {
        self.counts.push(corrections.len() as u32);
        self.edges.extend_from_slice(corrections);
        self.committed.push(committed_through.map_or(0, |w| w + 1));
    }

    /// Forgets the checked steps, keeping the allocations.
    fn clear(&mut self) {
        self.counts.clear();
        self.edges.clear();
        self.committed.clear();
    }
}

/// What `close_session` handed back for one session.
#[derive(Debug, Clone, Default)]
pub struct Closing {
    /// The closing corrections.
    pub edges: Vec<Edge>,
    /// Final watermark, as `committed_through + 1`.
    pub committed: u64,
}

/// A set-up fabric with its sessions and feed, serving steps.
struct Serving {
    fabric: ShardedDecodeService,
    ids: Vec<SessionId>,
    feed: Feed,
    rounds: Vec<DetectionRound>,
    observed: Vec<Observed>,
    /// Steps served so far; step `t` carries every session's round `t`.
    steps: u64,
}

impl Serving {
    /// Builds the fabric, opens the sessions, opens the feed and serves
    /// the warm-up steps.
    fn setup(mode: Mode, seed: u64, recording: Option<&Arc<[u8]>>) -> Self {
        let lattice = lattice();
        let config = ServiceConfig::new(DISTANCE, mode.backend(), CycleBudget::at_clock(CLOCK_HZ))
            .with_threads(PUMP_WORKERS);
        let fabric = ShardedDecodeService::new(ShardedServiceConfig::new(config, SHARDS))
            .expect("valid code distance");
        let ids = (0..SESSIONS).map(|_| fabric.open_session()).collect();
        let mut serving = Self {
            fabric,
            ids,
            feed: Feed::new(mode, seed, recording, &lattice),
            rounds: (0..SESSIONS)
                .map(|_| DetectionRound::zeros(lattice.num_ancillas()))
                .collect(),
            observed: vec![Observed::default(); SESSIONS],
            steps: 0,
        };
        for _ in 0..WARMUP_STEPS {
            serving.step(&mut None);
        }
        serving
    }

    /// One closed-loop step over every session.
    fn step(&mut self, tracer: &mut Option<&mut Tracer>) {
        let req = self.steps as u32;
        let parent = match tracer {
            Some(t) => t.open(Kind::Step, ROOT, req),
            None => ROOT,
        };
        let read_kind = self.feed.read_kind();
        let Self {
            fabric,
            ids,
            feed,
            rounds,
            observed,
            steps,
        } = self;
        for (s, round) in rounds.iter_mut().enumerate() {
            traced(tracer, read_kind, parent, req, s as u16, || {
                feed.next_round(s, round)
            });
        }
        traced(tracer, Kind::Push, parent, req, 0, || {
            fabric.push_rounds(ids.iter().copied().zip(rounds.iter()))
        });
        traced(tracer, Kind::Pump, parent, req, 0, || fabric.pump());
        for (s, &id) in ids.iter().enumerate() {
            let polled = traced(tracer, Kind::Poll, parent, req, s as u16, || {
                fabric.poll_corrections(id)
            });
            match polled {
                Ok(polled) => {
                    observed[s].record_poll(&polled.corrections, polled.committed_through);
                    traced(tracer, Kind::Feedback, parent, req, s as u16, || {
                        feed.apply(s, &polled.corrections)
                    });
                }
                Err(_) => {
                    observed[s].overflow_step.get_or_insert(*steps);
                }
            }
        }
        if let Some(t) = tracer {
            t.close(parent);
        }
        *steps += 1;
    }

    /// Closes every session; returns the closing reports, the ring
    /// accounting and the pump workers the fabric spawned.
    fn close(self) -> (Vec<Closing>, ShardStats, usize) {
        let stats = self.fabric.total_stats();
        let workers = self.fabric.pool_workers();
        let closing = self
            .ids
            .iter()
            .map(|&id| {
                let report = self.fabric.close_session(id).expect("session is open");
                Closing {
                    edges: report.corrections,
                    committed: report.committed_through.map_or(0, |w| w + 1),
                }
            })
            .collect();
        (closing, stats, workers)
    }
}

/// The direct reference: one single-threaded backend per session, fed
/// the same rounds through `ingest` + `decode_step` (and `finish` at
/// close), compared step by step with what the fabric returned. Live
/// sessions are re-sampled from their seeds and receive the feedback the
/// loop applied, so they see exactly the served rounds.
///
/// It also takes the exact counts of the steps from `timed_from` on:
/// `DecodeOutput.cycles`, overruns, commit lags and corrections.
pub struct Checker {
    mode: Mode,
    budget: u64,
    feed: Feed,
    decoders: Vec<Box<dyn Decoder + Send>>,
    round: DetectionRound,
    out: DecodeOutput,
    ref_overflowed: Vec<bool>,
    ref_committed: Vec<u64>,
    /// Watermark of each session's last checked poll (commit lags).
    polled_committed: Vec<u64>,
    /// First step not yet checked.
    next_step: u64,
    timed_from: u64,
    /// Session-rounds whose output differs from the reference (closing
    /// streams count as one operation each).
    pub mismatched: u64,
    /// Session-rounds failed: mismatched, or in a session that had
    /// overflowed by then.
    pub failed: u64,
    /// `DecodeOutput.cycles` histogram (QECOOL only).
    pub cycles: Vec<u64>,
    /// Budgeted steps that stopped with work pending (QECOOL only).
    pub overruns: u64,
    /// Commit-lag histogram: rounds behind the stream head (round `t` at
    /// step `t`) when each round committed.
    pub lags: Vec<u64>,
    /// Corrections polled.
    pub corrections: u64,
}

impl Checker {
    /// A reference for every session of `mode` from `seed`, counting
    /// from step `timed_from`.
    pub fn new(mode: Mode, seed: u64, recording: Option<&Arc<[u8]>>, timed_from: u64) -> Self {
        let lattice = lattice();
        Self {
            mode,
            budget: budget_cycles(),
            feed: Feed::new(mode, seed, recording, &lattice),
            decoders: (0..SESSIONS)
                .map(|_| mode.direct_decoder(&lattice))
                .collect(),
            round: DetectionRound::zeros(lattice.num_ancillas()),
            out: DecodeOutput::default(),
            ref_overflowed: vec![false; SESSIONS],
            ref_committed: vec![0; SESSIONS],
            polled_committed: vec![0; SESSIONS],
            next_step: 0,
            timed_from,
            mismatched: 0,
            failed: 0,
            cycles: Vec::new(),
            overruns: 0,
            lags: Vec::new(),
            corrections: 0,
        }
    }

    /// Checks steps `next_step..through`, held in `observed`, then
    /// forgets them. Decode calls of counted steps are timed as
    /// `DecodeRound` spans when a tracer is given.
    pub fn check(
        &mut self,
        observed: &mut [Observed],
        through: u64,
        mut tracer: Option<&mut Tracer>,
    ) {
        let first = self.next_step;
        let mut cursors = vec![0usize; SESSIONS];
        for t in first..through {
            let counted = t >= self.timed_from;
            let idx = (t - first) as usize;
            for (s, obs) in observed.iter().enumerate() {
                self.feed.next_round(s, &mut self.round);
                let obs_failed = obs.overflow_step.is_some_and(|o| o <= t);
                if self.ref_overflowed[s] {
                    self.failed += 1;
                    self.mismatched += u64::from(!obs_failed);
                    continue;
                }
                let (decoder, round, out, budget) = (
                    &mut self.decoders[s],
                    &self.round,
                    &mut self.out,
                    self.budget,
                );
                let mut step = || {
                    let ok = decoder.ingest(round).is_ok();
                    if ok {
                        decoder.decode_step(Some(budget), out);
                    }
                    ok
                };
                let ok = match (&mut tracer, counted) {
                    (Some(tr), true) => tr.time(Kind::DecodeRound, ROOT, t as u32, s as u16, step),
                    _ => step(),
                };
                if !ok {
                    self.ref_overflowed[s] = true;
                    self.failed += 1;
                    self.mismatched += u64::from(obs.overflow_step != Some(t));
                    continue;
                }
                if counted && self.mode == Mode::LiveQecool {
                    histogram_add(&mut self.cycles, self.out.cycles);
                    self.overruns += u64::from(!self.out.idle);
                }
                if let Some(w) = self.out.committed_through {
                    self.ref_committed[s] = self.ref_committed[s].max(w + 1);
                }
                if obs_failed || idx >= obs.counts.len() {
                    self.mismatched += 1;
                    self.failed += 1;
                    continue;
                }
                let count = obs.counts[idx] as usize;
                let polled = &obs.edges[cursors[s]..cursors[s] + count];
                cursors[s] += count;
                let committed = obs.committed[idx];
                if committed != self.ref_committed[s] || polled != self.out.corrections {
                    self.mismatched += 1;
                    self.failed += 1;
                }
                if counted {
                    self.corrections += count as u64;
                    for r in self.polled_committed[s]..committed {
                        histogram_add(&mut self.lags, t - r);
                    }
                }
                self.polled_committed[s] = self.polled_committed[s].max(committed);
                // The loop fed the fabric's corrections back; do the same
                // so a live source replays exactly the served rounds.
                self.feed.apply(s, polled);
            }
        }
        self.next_step = through;
        observed.iter_mut().for_each(Observed::clear);
    }

    /// Compares every session's closing report with the reference's
    /// `finish`.
    pub fn finish(&mut self, closing: &[Closing]) {
        for (s, close) in closing.iter().enumerate() {
            if self.ref_overflowed[s] {
                continue;
            }
            self.decoders[s].finish(&mut self.out);
            if let Some(w) = self.out.committed_through {
                self.ref_committed[s] = self.ref_committed[s].max(w + 1);
            }
            if close.committed != self.ref_committed[s] || close.edges != self.out.corrections {
                self.mismatched += 1;
                self.failed += 1;
            }
        }
    }
}

/// One measured serve phase.
struct Measured {
    slices: Slices,
    checker: Checker,
    stats: ShardStats,
    workers: usize,
    /// Steps served, warm-up included.
    steps: u64,
    any_overflow: bool,
}

impl Measured {
    fn attempted(&self) -> u64 {
        self.steps * SESSIONS as u64
    }

    /// Failed session-rounds, plus ring drops the sessions' own failures
    /// do not explain.
    fn failed(&self) -> u64 {
        self.checker.failed
            + if self.any_overflow {
                0
            } else {
                self.stats.dropped
            }
    }
}

/// Serves `seconds` of slices on a set-up fabric, checking every slice
/// against the direct reference with the clock stopped, then calling
/// `between`.
fn measure(
    mode: Mode,
    seed: u64,
    recording: Option<&Arc<[u8]>>,
    serving: Serving,
    seconds: f64,
    tracer: Option<&mut Tracer>,
    mut between: impl FnMut(),
) -> Measured {
    let mut checker = Checker::new(mode, seed, recording, serving.steps);
    let mut state = (serving, tracer, false);
    let slices = run_slices(
        &mut state,
        seconds,
        SESSIONS as u64,
        |(serving, tracer, _)| serving.step(tracer),
        |(serving, tracer, any_overflow)| {
            *any_overflow |= serving.observed.iter().any(|o| o.overflow_step.is_some());
            let through = serving.steps;
            checker.check(&mut serving.observed, through, tracer.as_deref_mut());
            between();
        },
    );
    let (serving, _, any_overflow) = state;
    let steps = serving.steps;
    let (closing, stats, workers) = serving.close();
    checker.finish(&closing);
    Measured {
        slices,
        checker,
        stats,
        workers,
        steps,
        any_overflow,
    }
}

fn recording_for(mode: Mode, seed: u64) -> Option<Arc<[u8]>> {
    (mode == Mode::ReplayUf).then(|| Arc::from(write_recording(seed)))
}

/// One timed set-up: recording write, fabric build, session open and
/// warm-up. Its time is pushed onto `times`.
fn timed_setup(mode: Mode, seed: u64, times: &mut Vec<f64>) -> (Serving, Option<Arc<[u8]>>) {
    let t0 = Instant::now();
    let recording = recording_for(mode, seed);
    let serving = Serving::setup(mode, seed, recording.as_ref());
    times.push(t0.elapsed().as_secs_f64());
    (serving, recording)
}

/// The untraced run: end-to-end metrics.
pub fn run(mode: Mode, seed: u64, seconds: f64) -> Report {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_BEFORE {
        drop(kept.take());
        kept = Some(timed_setup(mode, seed, &mut setup_s));
    }
    let (mut serving, recording) = kept.expect("at least one set-up");
    for _ in 0..MEMORY_STEPS {
        serving.step(&mut None);
    }
    let rss_mb = peak_rss_mb();
    let m = measure(
        mode,
        seed,
        recording.as_ref(),
        serving,
        seconds,
        None,
        || {
            timed_setup(mode, seed, &mut setup_s);
        },
    );

    let mut report = Report::new(m.attempted(), m.failed(), m.checker.mismatched == 0);
    report.note(format!(
        "{SESSIONS} sessions; {}; {} mismatched session-rounds",
        m.slices.describe(),
        m.checker.mismatched
    ));
    report.metric("ops_per_s", m.slices.ops_per_s());
    report.metric("step_p50_us", m.slices.step_us(0.50));
    report.metric("setup_s", median(&setup_s));
    report.metric("peak_rss_mb", rss_mb);
    report.note(format!("set-up times (s): {setup_s:.4?}"));
    report
}

/// The traced run: an untraced half, then a traced half whose spans give
/// the per-layer metrics.
pub fn run_traced(mode: Mode, seed: u64, seconds: f64, trace_out: &std::path::Path) -> Report {
    let recording = recording_for(mode, seed);
    let plain = measure(
        mode,
        seed,
        recording.as_ref(),
        Serving::setup(mode, seed, recording.as_ref()),
        seconds / 2.0,
        None,
        || {},
    );

    // Size the span store from the untraced rate so it never grows
    // inside the timed loop: per step, 3 spans per session plus 3, and
    // one reference decode span per session.
    let expected_steps = (plain.slices.total_steps() as f64 * 1.5) as usize + 64;
    let mut tracer = Tracer::with_capacity(expected_steps * (4 * SESSIONS + 3));
    let m = measure(
        mode,
        seed,
        recording.as_ref(),
        Serving::setup(mode, seed, recording.as_ref()),
        seconds / 2.0,
        Some(&mut tracer),
        || {},
    );

    let mut report = Report::new(
        plain.attempted() + m.attempted(),
        plain.failed() + m.failed(),
        plain.checker.mismatched == 0 && m.checker.mismatched == 0,
    );
    let us = |ns: u64| ns as f64 / 1e3;
    let sample_s = tracer.busy_s(Kind::Sample);
    let packed_s = tracer.busy_s(Kind::PackedRead);
    let feedback_s = tracer.busy_s(Kind::Feedback);
    let push_s = tracer.busy_s(Kind::Push);
    let pump_s = tracer.busy_s(Kind::Pump);
    let poll_s = tracer.busy_s(Kind::Poll);
    let decode_s = tracer.busy_s(Kind::DecodeRound);
    let mut sample_ns = tracer.durations(Kind::Sample, |_| true);
    let mut pump_ns = tracer.durations(Kind::Pump, |_| true);
    let mut decode_ns = tracer.durations(Kind::DecodeRound, |_| true);
    let c = &m.checker;

    report.metric("step_p90_us", plain.slices.step_us(0.90));
    report.metric("step_p99_us", plain.slices.step_us(0.99));
    report.metric("surface_code.sample_s", sample_s);
    report.metric(
        "surface_code.sample_round_us_p50",
        us(percentile_u64(&mut sample_ns, 0.50)),
    );
    report.metric("surface_code.feedback_s", feedback_s);
    report.metric("surface_code.packed_read_s", packed_s);
    report.metric("sim.shard.push_s", push_s);
    report.metric("sim.shard.stalls", m.stats.stalls as f64);
    report.metric("sim.shard.dropped", m.stats.dropped as f64);
    report.metric("sim.shard.backpressure", m.stats.backpressure as f64);
    report.metric("sim.service.pump_s", pump_s);
    report.metric(
        "sim.service.pump_us_p50",
        us(percentile_u64(&mut pump_ns, 0.50)),
    );
    report.metric(
        "sim.service.pump_us_p99",
        us(percentile_u64(&mut pump_ns, 0.99)),
    );
    report.metric("sim.service.pump_workers", m.workers as f64);
    let decode_name = match mode {
        Mode::LiveQecool => "decode.qecool_s",
        Mode::ReplayUf => "decode.uf_s",
    };
    report.metric(decode_name, decode_s);
    report.metric(
        "decode.round_us_p50",
        us(percentile_u64(&mut decode_ns, 0.50)),
    );
    report.metric(
        "decode.round_us_p99",
        us(percentile_u64(&mut decode_ns, 0.99)),
    );
    report.metric(
        "decode.qecool_cycles_p99",
        histogram_percentile(&c.cycles, 0.99) as f64,
    );
    report.metric("decode.qecool_overruns", c.overruns as f64);
    report.metric("sim.service.pump_per_decode", pump_s / decode_s);
    report.metric("sim.service.poll_s", poll_s);
    report.metric("sim.service.corrections", c.corrections as f64);
    report.metric(
        "sim.service.committed_rounds",
        c.lags.iter().sum::<u64>() as f64,
    );
    report.metric(
        "sim.service.commit_lag_p99_rounds",
        histogram_percentile(&c.lags, 0.99) as f64,
    );
    report.metric(
        "sim.service.commit_lag_mean_rounds",
        histogram_mean(&c.lags),
    );
    report.metric(
        "unaccounted_share",
        unaccounted_share(
            m.slices.wall_s,
            &[sample_s, packed_s, feedback_s, push_s, pump_s, poll_s],
        ),
    );
    report.metric(
        "trace_overhead",
        plain.slices.ops_per_s() / m.slices.ops_per_s(),
    );
    report.note(format!("untraced half: {}", plain.slices.describe()));
    report.note(format!(
        "traced half: {}; {} spans",
        m.slices.describe(),
        tracer.spans().len()
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
    fn recording_depends_only_on_the_seed() {
        let a = write_recording(11);
        let b = write_recording(11);
        let c = write_recording(12);
        assert_eq!(&a[..8], b"QECPACK1");
        assert_eq!(a, b, "same seed, same bytes");
        assert_ne!(a, c, "another seed, another recording");
        let bytes: Arc<[u8]> = Arc::from(a);
        let header = *open_recording(&bytes).header();
        assert_eq!(header.rounds, RECORDING_ROUNDS as u64);
        assert_eq!(header.streams, SESSIONS as u32);
        assert_eq!(header.distance, DISTANCE as u32);
    }

    /// Serves a few steps of each workload and checks them clean; then
    /// flips one polled correction edge and checks that the reference
    /// comparison catches it.
    #[test]
    fn reference_check_catches_one_flipped_edge() {
        for mode in [Mode::LiveQecool, Mode::ReplayUf] {
            let seed = 5;
            let recording = recording_for(mode, seed);
            let mut serving = Serving::setup(mode, seed, recording.as_ref());
            for _ in 0..DISTANCE {
                serving.step(&mut None);
            }
            let steps = serving.steps;
            let mut observed = std::mem::take(&mut serving.observed);
            let mut flipped = observed.clone();
            let s = flipped
                .iter()
                .position(|o| !o.edges.is_empty())
                .expect("some session polled a correction");
            let edges = lattice().num_data_qubits();
            flipped[s].edges[0] = Edge((flipped[s].edges[0].index() + 1) % edges);

            let mut clean = Checker::new(mode, seed, recording.as_ref(), 0);
            clean.check(&mut observed, steps, None);
            let (closing, stats, _) = serving.close();
            clean.finish(&closing);
            assert_eq!(stats.dropped, 0);
            assert_eq!(clean.mismatched, 0, "{mode:?}: clean run must match");
            assert_eq!(clean.failed, 0);
            assert!(clean.corrections > 0);

            let mut caught = Checker::new(mode, seed, recording.as_ref(), 0);
            caught.check(&mut flipped, steps, None);
            assert_eq!(caught.mismatched, 1, "{mode:?}: flipped edge missed");
            assert_eq!(caught.failed, 1);
            assert_eq!(caught.corrections, clean.corrections);
            assert!(
                flipped.iter().all(|o| o.counts.is_empty()),
                "checked steps are dropped"
            );
        }
    }

    #[test]
    fn commit_lags_follow_the_polled_watermark() {
        let mode = Mode::LiveQecool;
        let mut serving = Serving::setup(mode, 9, None);
        let steps = serving.steps;
        let watermarks: Vec<Vec<u64>> = serving
            .observed
            .iter()
            .map(|o| o.committed.clone())
            .collect();
        let mut checker = Checker::new(mode, 9, None, 0);
        checker.check(&mut serving.observed, steps, None);
        assert_eq!(checker.mismatched, 0);
        // Every round up to each session's last watermark committed once,
        // and no lag exceeds the step count.
        let committed: u64 = watermarks.iter().map(|w| *w.last().unwrap()).sum();
        assert_eq!(checker.lags.iter().sum::<u64>(), committed);
        assert!(checker.lags.len() as u64 <= steps);
    }
}
