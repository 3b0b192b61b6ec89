//! The parallel streaming decode engine: every Monte-Carlo campaign in
//! the workspace — figure sweeps, table drivers, examples, tests — runs
//! through this one machine.
//!
//! # Threading model
//!
//! A campaign is split into **shards** of consecutive trial seeds. Each
//! job's shards are capped at [`EngineConfig::shard_shots`] trials and
//! cut so a job of at least as many trials as workers spans at least
//! one shard per worker: a 64-shot job on 2 workers runs as two 32-shot
//! shards, a 10 000-shot job as 64-shot shards. Without the split, the
//! heaviest point of a d-ascending sweep (MWPM at the largest `d`) would
//! be queued last as one shard and run alone while the other workers
//! wait. Shard boundaries thus depend on the worker count, but results
//! do not: every [`McResult`] field merges by sum or max, and partials
//! merge in trial order, so the same campaign produces byte-identical
//! aggregates on 1, 2 or 64 threads and at any shard size:
//!
//! * a lock-free single-producer/multi-consumer work queue (an atomic
//!   cursor over the precomputed shard list) feeds N worker threads;
//! * each worker owns a reusable [`TrialScratch`] (decoder, patch,
//!   syndrome buffers) and one recycled
//!   [`TrialOutcome`], so the hot loop does
//!   no per-shot construction;
//! * scalar counters stream into the engine's [`EngineTally`] of atomic
//!   counters the moment a shard retires — live observability with no
//!   mutex on the aggregate;
//! * per-shard partial [`McResult`]s are merged **in shard order** after
//!   the scope joins, which keeps the histogram and cycle aggregates
//!   independent of thread scheduling.
//!
//! Trial `i` of a job uses seed
//! [`derive_seed`]`(base_seed, stream, first_trial + i)` — a pure
//! function of the job's identity and the trial's logical position, so
//! engine results equal serial results bit for bit and a chunk of a job
//! (via [`McJob::first_trial`]) reproduces exactly the seeds the full
//! job would have used.
//!
//! # Example
//!
//! ```
//! use qecool_sim::engine::DecodeEngine;
//! use qecool_sim::trials::{DecoderKind, TrialConfig};
//!
//! let engine = DecodeEngine::with_threads(2);
//! let cfg = TrialConfig::standard(3, 0.01, DecoderKind::BatchQecool);
//! let result = engine.run(&cfg, 40, 7);
//! assert_eq!(result.shots, 40);
//! assert_eq!(engine.tally().shots(), 40);
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::campaign::derive_seed;
use crate::montecarlo::McResult;
use crate::trials::{run_trial_into, TrialConfig, TrialOutcome, TrialScratch};

/// Default largest shard: big enough to amortize queue traffic, small
/// enough to load-balance the heavy tails of near-threshold campaigns.
pub const DEFAULT_SHARD_SHOTS: usize = 64;

/// Tuning knobs of a [`DecodeEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; `0` uses all available parallelism.
    pub threads: usize,
    /// Largest shard, in trials. A job is cut into shards of
    /// `min(shard_shots, ceil(shots / workers))` trials, so it spans at
    /// least one shard per worker. Neither this nor the worker count
    /// changes any result: per-trial seeds are position-derived and
    /// partials merge by sum/max in trial order.
    pub shard_shots: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            shard_shots: DEFAULT_SHARD_SHOTS,
        }
    }
}

/// One Monte-Carlo job: `shots` trials of `trial` seeded from
/// `base_seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McJob {
    /// The trial configuration to sample.
    pub trial: TrialConfig,
    /// Number of independent trials.
    pub shots: usize,
    /// Campaign-level seed; trial `i` uses
    /// [`derive_seed`]`(base_seed, stream, first_trial + i)`.
    pub base_seed: u64,
    /// Seed stream of this job (e.g. its sweep-point index). Two jobs
    /// sharing a `base_seed` draw independent trials when their streams
    /// differ; `McJob::new` uses stream 0.
    pub stream: u64,
    /// Logical index of this job's first trial within its stream. A
    /// chunk `[first_trial, first_trial + shots)` of a larger job
    /// reproduces exactly the seeds the monolithic job would have used
    /// for those trials — the hook `campaign` chunking is built on.
    pub first_trial: u64,
}

impl McJob {
    /// A whole-job (`stream` 0, `first_trial` 0) Monte-Carlo job.
    pub fn new(trial: TrialConfig, shots: usize, base_seed: u64) -> Self {
        Self {
            trial,
            shots,
            base_seed,
            stream: 0,
            first_trial: 0,
        }
    }
}

/// Live atomic counters streamed while campaigns run: totals over the
/// engine's lifetime, readable from any thread without stopping work.
#[derive(Debug, Default)]
pub struct EngineTally {
    shots: AtomicU64,
    failures: AtomicU64,
    overflows: AtomicU64,
    matches: AtomicU64,
}

impl EngineTally {
    /// Trials retired so far.
    pub fn shots(&self) -> u64 {
        self.shots.load(Ordering::Relaxed)
    }

    /// Logical failures (including overflows) so far.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Register-overflow failures so far.
    pub fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed)
    }

    /// Matches resolved so far.
    pub fn matches(&self) -> u64 {
        self.matches.load(Ordering::Relaxed)
    }

    fn absorb(&self, partial: &McResult) {
        self.shots
            .fetch_add(partial.shots as u64, Ordering::Relaxed);
        self.failures
            .fetch_add(partial.failures as u64, Ordering::Relaxed);
        self.overflows
            .fetch_add(partial.overflows as u64, Ordering::Relaxed);
        self.matches.fetch_add(partial.matches, Ordering::Relaxed);
    }
}

/// One shard of one job on the global work queue.
#[derive(Debug, Clone, Copy)]
struct Shard {
    job: usize,
    /// First trial index (relative to the job's `base_seed`).
    start: usize,
    len: usize,
}

/// Cuts every job into shards of consecutive trials, in job order and
/// then trial order. A job's shards hold
/// `min(shard_shots, ceil(shots / workers))` trials (the last one may be
/// shorter), so no shard exceeds `shard_shots` and every job of at least
/// `workers` trials spans at least `workers` shards.
fn plan_shards(jobs: &[McJob], shard_shots: usize, workers: usize) -> Vec<Shard> {
    let mut shards = Vec::new();
    for (job_idx, job) in jobs.iter().enumerate() {
        let size = shard_shots.min(job.shots.div_ceil(workers));
        let mut start = 0;
        while start < job.shots {
            let len = size.min(job.shots - start);
            shards.push(Shard {
                job: job_idx,
                start,
                len,
            });
            start += len;
        }
    }
    shards
}

/// The parallel Monte-Carlo decode engine. See the module docs for the
/// threading model.
#[derive(Debug, Default)]
pub struct DecodeEngine {
    config: EngineConfig,
    tally: EngineTally,
}

impl DecodeEngine {
    /// An engine with default configuration (all cores).
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        assert!(config.shard_shots > 0, "shard_shots must be positive");
        Self {
            config,
            tally: EngineTally::default(),
        }
    }

    /// An engine pinned to `threads` workers (`0` = all cores).
    pub fn with_threads(threads: usize) -> Self {
        Self::with_config(EngineConfig {
            threads,
            ..EngineConfig::default()
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Live lifetime counters (streamed as shards retire).
    pub fn tally(&self) -> &EngineTally {
        &self.tally
    }

    /// The configured worker count, resolving `0` to the available
    /// parallelism.
    fn workers(&self) -> usize {
        if self.config.threads > 0 {
            self.config.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }

    /// Runs one campaign; equivalent to a single-job [`Self::run_batch`].
    pub fn run(&self, trial: &TrialConfig, shots: usize, base_seed: u64) -> McResult {
        let job = McJob::new(*trial, shots, base_seed);
        self.run_batch(std::slice::from_ref(&job))
            .pop()
            .expect("one job in, one result out")
    }

    /// Runs many campaigns through one shared worker pool, returning one
    /// aggregate per job in job order.
    ///
    /// All jobs' shards go onto a single queue, so a sweep's cheap
    /// points do not leave workers idle while an expensive point
    /// finishes — cross-job work stealing for free.
    pub fn run_batch(&self, jobs: &[McJob]) -> Vec<McResult> {
        let workers = self.workers();
        let shards = plan_shards(jobs, self.config.shard_shots, workers);
        let cursor = AtomicUsize::new(0);
        let threads = workers.min(shards.len()).max(1);

        let per_worker: Vec<Vec<(usize, McResult)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = TrialScratch::new();
                        let mut outcome = TrialOutcome::default();
                        let mut retired: Vec<(usize, McResult)> = Vec::new();
                        loop {
                            let shard_idx = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(shard) = shards.get(shard_idx) else {
                                break;
                            };
                            let job = &jobs[shard.job];
                            let mut partial = McResult::default();
                            for k in 0..shard.len {
                                let seed = derive_seed(
                                    job.base_seed,
                                    job.stream,
                                    job.first_trial + (shard.start + k) as u64,
                                );
                                run_trial_into(&job.trial, seed, &mut scratch, &mut outcome);
                                partial.absorb(&outcome);
                            }
                            self.tally.absorb(&partial);
                            retired.push((shard_idx, partial));
                        }
                        retired
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("engine worker panicked"))
                .collect()
        });

        // Deterministic aggregation: merge partials in shard order, which
        // is trial order within each job — never which worker ran what,
        // or when. Every field merges by sum or max, so where the shard
        // boundaries fall cannot change the result either.
        let mut flat: Vec<(usize, McResult)> = per_worker.into_iter().flatten().collect();
        flat.sort_unstable_by_key(|&(shard_idx, _)| shard_idx);
        let mut results = vec![McResult::default(); jobs.len()];
        for (shard_idx, partial) in flat {
            results[shards[shard_idx].job].merge(partial);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trials::DecoderKind;

    fn campaign(threads: usize, shard_shots: usize) -> McResult {
        let engine = DecodeEngine::with_config(EngineConfig {
            threads,
            shard_shots,
        });
        let cfg = TrialConfig::standard(5, 0.03, DecoderKind::BatchQecool);
        engine.run(&cfg, 150, 42)
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let reference = campaign(1, DEFAULT_SHARD_SHOTS);
        for threads in [2, 4, 8] {
            let parallel = campaign(threads, DEFAULT_SHARD_SHOTS);
            assert_eq!(parallel.shots, reference.shots, "{threads} threads");
            assert_eq!(parallel.failures, reference.failures);
            assert_eq!(parallel.overflows, reference.overflows);
            assert_eq!(parallel.matches, reference.matches);
            assert_eq!(parallel.layer_cycles, reference.layer_cycles);
            assert_eq!(parallel.vertical_hist, reference.vertical_hist);
        }
    }

    fn shard_lens(shots: usize, shard_shots: usize, workers: usize) -> Vec<usize> {
        let cfg = TrialConfig::standard(3, 0.01, DecoderKind::BatchQecool);
        plan_shards(&[McJob::new(cfg, shots, 0)], shard_shots, workers)
            .iter()
            .map(|s| s.len)
            .collect()
    }

    #[test]
    fn shard_plan_splits_every_job_across_the_workers() {
        assert_eq!(shard_lens(64, 64, 2), [32, 32]);
        let mut long = vec![64; 15];
        long.push(40);
        assert_eq!(shard_lens(1000, 64, 2), long);
        assert_eq!(shard_lens(1, 64, 8), [1]);
        assert_eq!(shard_lens(3, 64, 8), [1, 1, 1]);
        assert_eq!(shard_lens(65, 64, 2), [33, 32]);
        let mut capped = vec![7; 9];
        capped.push(1);
        assert_eq!(shard_lens(64, 7, 2), capped);
        assert!(shard_lens(0, 64, 2).is_empty());

        // Shards run in job order, then trial order, and tile each job.
        let cfg = TrialConfig::standard(3, 0.01, DecoderKind::BatchQecool);
        let jobs = [McJob::new(cfg, 10, 0), McJob::new(cfg, 5, 0)];
        let plan: Vec<_> = plan_shards(&jobs, 64, 2)
            .iter()
            .map(|s| (s.job, s.start, s.len))
            .collect();
        assert_eq!(plan, [(0, 0, 5), (0, 5, 5), (1, 0, 3), (1, 3, 2)]);
    }

    #[test]
    fn mixed_batch_is_identical_across_threads_and_shard_sizes() {
        let budget_cycles = 400;
        let mut jobs = Vec::new();
        for d in [3usize, 5] {
            for kind in [
                DecoderKind::BatchQecool,
                DecoderKind::OnlineQecool { budget_cycles },
                DecoderKind::UnionFind,
                DecoderKind::Mwpm,
            ] {
                let mut job = McJob::new(TrialConfig::standard(d, 0.03, kind), 30, 11);
                job.stream = jobs.len() as u64;
                jobs.push(job);
            }
        }
        // The heaviest job (MWPM at d = 5) sits last, as in a sweep.
        jobs.last_mut().unwrap().shots = 70;
        let reference = DecodeEngine::with_threads(1).run_batch(&jobs);
        for threads in [1, 2, 3, 8] {
            for shard_shots in [1, 7, 64] {
                let results = DecodeEngine::with_config(EngineConfig {
                    threads,
                    shard_shots,
                })
                .run_batch(&jobs);
                assert_eq!(results, reference, "{threads} threads, shard {shard_shots}");
            }
        }
    }

    #[test]
    fn shard_size_does_not_change_results() {
        let reference = campaign(4, 64);
        for shard_shots in [1, 7, 150, 1000] {
            let chunked = campaign(4, shard_shots);
            assert_eq!(chunked.failures, reference.failures, "shard {shard_shots}");
            assert_eq!(chunked.layer_cycles, reference.layer_cycles);
        }
    }

    #[test]
    fn engine_matches_serial_trials() {
        let cfg = TrialConfig::standard(5, 0.04, DecoderKind::BatchQecool);
        let mc = DecodeEngine::new().run(&cfg, 80, 9);
        let serial_failures = (0..80u64)
            .filter(|&i| crate::trials::run_trial(&cfg, derive_seed(9, 0, i)).logical_error)
            .count();
        assert_eq!(mc.failures, serial_failures);
    }

    #[test]
    fn batch_results_are_per_job_and_job_ordered() {
        let low = TrialConfig::standard(3, 0.001, DecoderKind::BatchQecool);
        let high = TrialConfig::standard(3, 0.15, DecoderKind::BatchQecool);
        let jobs = [McJob::new(low, 60, 1), McJob::new(high, 90, 2)];
        let results = DecodeEngine::new().run_batch(&jobs);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].shots, 60);
        assert_eq!(results[1].shots, 90);
        assert!(
            results[0].failures < results[1].failures,
            "p=0.001 ({}) should fail less than p=0.15 ({})",
            results[0].failures,
            results[1].failures
        );
        // Batch equals running each job alone.
        let alone = DecodeEngine::new().run(&high, 90, 2);
        assert_eq!(alone.failures, results[1].failures);
        assert_eq!(alone.layer_cycles, results[1].layer_cycles);
    }

    #[test]
    fn tally_streams_lifetime_totals() {
        let engine = DecodeEngine::with_threads(2);
        let cfg = TrialConfig::standard(3, 0.1, DecoderKind::BatchQecool);
        let a = engine.run(&cfg, 50, 0);
        let b = engine.run(&cfg, 30, 50);
        assert_eq!(engine.tally().shots(), 80);
        assert_eq!(engine.tally().failures(), (a.failures + b.failures) as u64);
        assert_eq!(engine.tally().matches(), a.matches + b.matches);
    }

    #[test]
    fn zero_shots_is_a_clean_noop() {
        let cfg = TrialConfig::standard(3, 0.01, DecoderKind::BatchQecool);
        let mc = DecodeEngine::new().run(&cfg, 0, 5);
        assert_eq!(mc.shots, 0);
        assert_eq!(mc.failures, 0);
    }

    #[test]
    fn mixed_decoder_jobs_share_one_pool() {
        let jobs = [
            McJob::new(
                TrialConfig::standard(3, 0.02, DecoderKind::BatchQecool),
                40,
                3,
            ),
            McJob::new(TrialConfig::standard(3, 0.02, DecoderKind::Mwpm), 40, 3),
            McJob::new(
                TrialConfig::standard(3, 0.02, DecoderKind::UnionFind),
                40,
                3,
            ),
        ];
        let results = DecodeEngine::with_threads(2).run_batch(&jobs);
        assert!(results.iter().all(|r| r.shots == 40));
    }
}
