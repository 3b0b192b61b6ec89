//! Distribution tests for the geometric-gap noise sampler.
//!
//! Every noise family is run twice: through the library (gap sampling
//! via `bernoulli_hits`) and through a per-site `gen_bool` reference —
//! the loops the library ran before gap sampling. Both must pass the
//! same checks against the distribution each family defines:
//!
//! * i.i.d. planes (data flips, measurement flips, erasure flags): a χ²
//!   test on the per-site marginals, a χ² test of the flips-per-round
//!   histogram against Binomial(n, r), and a z-test on the number of
//!   adjacent flipped pairs (independence between neighbours);
//! * bursts: the start rate and the run-continuation rate (which fixes
//!   the mean run length), read off the Markov chain a pure-burst plane
//!   is; with background noise on top, a two-sample χ² test of the
//!   flips-per-round histograms of library and reference.
//!
//! Seeds are fixed, so each check passes or fails deterministically.
//! The bounds sit at 5σ: a correct sampler stays far from them, while
//! a broken stream (a skipped site, a wrong gap law) misses by orders of
//! magnitude at the larger rates.

use qecool_surface_code::{BitVec, CodePatch, Lattice, NoiseModel, NoiseSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Site counts: ancillas at d = 9, data qubits at d = 9 and d = 13.
const WIDTHS: [usize; 3] = [72, 145, 313];
/// Rates: the service's operating point, the sweep's, and two dense ones.
const RATES: [f64; 4] = [1e-3, 5e-3, 0.1, 0.5];
/// Every bound is this many standard deviations out.
const Z: f64 = 5.0;

/// Rounds for a plane flipping at rate `r`: ~20 expected flips per site,
/// kept between 2 000 and 20 000 rounds.
fn rounds_for(r: f64) -> usize {
    ((20.0 / r).ceil() as usize).clamp(2_000, 20_000)
}

/// Upper bound of χ²(k) at `Z` σ, by the Wilson–Hilferty cube-root
/// normal approximation.
fn chi2_bound(k: usize) -> f64 {
    let k = k as f64;
    let h = 2.0 / (9.0 * k);
    k * (1.0 - h + Z * h.sqrt()).powi(3)
}

/// Asserts `observed` successes of `trials` Bernoulli(`r`) trials lie
/// within `Z` σ of their mean.
fn assert_binomial(what: &str, observed: u64, trials: u64, r: f64) {
    let mean = trials as f64 * r;
    let sd = (mean * (1.0 - r)).sqrt();
    assert!(
        (observed as f64 - mean).abs() <= Z * sd.max(1.0),
        "{what}: {observed} of {trials}, expected {mean:.1} ± {sd:.1}"
    );
}

/// Which generator a round is drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sampler {
    /// The library: geometric-gap sampling.
    Gaps,
    /// The per-site `gen_bool` loops the library replaced.
    PerSite,
}

const SAMPLERS: [Sampler; 2] = [Sampler::Gaps, Sampler::PerSite];

/// The per-site reference for `bernoulli_hits`: one coin per site.
fn per_site_hits<F: FnMut(usize, &mut ChaCha8Rng)>(
    n: usize,
    p: f64,
    rng: &mut ChaCha8Rng,
    mut hit: F,
) {
    if p == 0.0 {
        return;
    }
    for i in 0..n {
        if rng.gen_bool(p) {
            hit(i, rng);
        }
    }
}

/// One data round of `spec` drawn per site, as the library did before
/// gap sampling.
fn reference_data_round(
    spec: NoiseSpec,
    errors: &mut BitVec,
    mut flags: Option<&mut BitVec>,
    rng: &mut ChaCha8Rng,
) {
    let n = errors.len();
    if let Some(flags) = flags.as_deref_mut() {
        flags.clear();
    }
    match spec {
        NoiseSpec::Erasure { p, e } => {
            per_site_hits(n, p, rng, |q, _| errors.toggle(q));
            per_site_hits(n, e, rng, |q, rng| {
                if let Some(flags) = flags.as_deref_mut() {
                    flags.set(q, true);
                }
                if rng.gen_bool(0.5) {
                    errors.toggle(q);
                }
            });
        }
        NoiseSpec::Burst { p, burst, mean_len } => {
            per_site_hits(n, p, rng, |q, _| errors.toggle(q));
            if burst == 0.0 {
                return;
            }
            let cont = 1.0 - 1.0 / mean_len;
            let mut q = 0;
            while q < n {
                if rng.gen_bool(burst) {
                    errors.toggle(q);
                    q += 1;
                    while q < n && cont > 0.0 && rng.gen_bool(cont) {
                        errors.toggle(q);
                        q += 1;
                    }
                } else {
                    q += 1;
                }
            }
        }
        _ => {
            let r = spec.build().data_error_rate();
            per_site_hits(n, r, rng, |q, _| errors.toggle(q));
        }
    }
}

/// One data round of `spec` from `sampler`.
fn data_round(
    sampler: Sampler,
    spec: NoiseSpec,
    errors: &mut BitVec,
    flags: Option<&mut BitVec>,
    rng: &mut ChaCha8Rng,
) {
    match sampler {
        Sampler::Gaps => spec.build().apply_data_round(errors, flags, rng),
        Sampler::PerSite => reference_data_round(spec, errors, flags, rng),
    }
}

/// Tallies of one bit plane over many independent rounds.
struct PlaneStats {
    rounds: u64,
    /// Rounds in which each site was set.
    per_site: Vec<u64>,
    /// Rounds with exactly `k` sites set, for `k = 0..=n`.
    per_round: Vec<u64>,
    /// Sites `i` with both `i` and `i + 1` set, summed over rounds.
    adjacent: u64,
}

impl PlaneStats {
    fn new(n: usize) -> Self {
        Self {
            rounds: 0,
            per_site: vec![0; n],
            per_round: vec![0; n + 1],
            adjacent: 0,
        }
    }

    fn add(&mut self, plane: &BitVec) {
        let mut count = 0;
        let mut prev = None;
        for i in plane.iter_ones() {
            self.per_site[i] += 1;
            count += 1;
            if i > 0 && prev == Some(i - 1) {
                self.adjacent += 1;
            }
            prev = Some(i);
        }
        self.per_round[count] += 1;
        self.rounds += 1;
    }

    /// Asserts the plane's sites were set independently at rate `r`.
    fn assert_iid(&self, what: &str, r: f64) {
        let n = self.per_site.len();
        let rounds = self.rounds as f64;

        // Per-site marginals: Σ (c − Rr)² / (Rr(1 − r)) ~ χ²(n).
        let var = rounds * r * (1.0 - r);
        let chi2: f64 = self
            .per_site
            .iter()
            .map(|&c| (c as f64 - rounds * r).powi(2) / var)
            .sum();
        assert!(
            chi2 <= chi2_bound(n),
            "{what}: per-site χ² {chi2:.1} over {n} sites exceeds {:.1}",
            chi2_bound(n)
        );

        // Flips per round against Binomial(n, r), adjacent bins merged
        // until each expects at least 5 rounds.
        let mut pmf = (1.0 - r).powi(n as i32);
        let mut bins: Vec<(f64, u64)> = Vec::new();
        let (mut expected, mut observed) = (0.0, 0);
        for k in 0..=n {
            expected += rounds * pmf;
            observed += self.per_round[k];
            if expected >= 5.0 {
                bins.push((expected, observed));
                (expected, observed) = (0.0, 0);
            }
            pmf *= (n - k) as f64 / (k + 1) as f64 * r / (1.0 - r);
        }
        let last = bins.last_mut().expect("at least one bin");
        last.0 += expected;
        last.1 += observed;
        if bins.len() >= 2 {
            let chi2: f64 = bins.iter().map(|&(e, o)| (o as f64 - e).powi(2) / e).sum();
            let dof = bins.len() - 1;
            assert!(
                chi2 <= chi2_bound(dof),
                "{what}: flips-per-round χ² {chi2:.1} over {dof} dof exceeds {:.1}",
                chi2_bound(dof)
            );
        }

        // Adjacent pairs: mean (n−1)r² per round; neighbouring pairs
        // share a site, which adds 2(n−2)(r³ − r⁴) to the variance.
        let (nf, r2) = (n as f64, r * r);
        let mean = rounds * (nf - 1.0) * r2;
        let var = rounds * ((nf - 1.0) * r2 * (1.0 - r2) + 2.0 * (nf - 2.0) * (r2 * r - r2 * r2));
        let z = (self.adjacent as f64 - mean) / var.sqrt().max(1.0);
        assert!(
            z.abs() <= Z,
            "{what}: {} adjacent pairs, expected {mean:.1} (z = {z:.1})",
            self.adjacent
        );
    }
}

/// Runs `rounds` fresh data rounds of `spec` from `sampler` on `n`
/// sites; returns the error plane's and the erasure plane's tallies.
fn data_stats(
    sampler: Sampler,
    spec: NoiseSpec,
    n: usize,
    rounds: usize,
    flagged: bool,
    seed: u64,
) -> (PlaneStats, PlaneStats) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (mut errors, mut flags) = (BitVec::zeros(n), BitVec::zeros(n));
    let (mut error_stats, mut flag_stats) = (PlaneStats::new(n), PlaneStats::new(n));
    for _ in 0..rounds {
        errors.clear();
        let plane = flagged.then_some(&mut flags);
        data_round(sampler, spec, &mut errors, plane, &mut rng);
        error_stats.add(&errors);
        if flagged {
            flag_stats.add(&flags);
        }
    }
    (error_stats, flag_stats)
}

#[test]
fn iid_data_families_flip_each_site_independently() {
    let mut seed = 100;
    for n in WIDTHS {
        for p in RATES {
            for spec in [
                NoiseSpec::Phenomenological { p },
                NoiseSpec::Asymmetric { p, q: p / 2.0 },
                NoiseSpec::CodeCapacity { p },
                NoiseSpec::Biased { p, eta: 1.0 },
            ] {
                let r = spec.build().data_error_rate();
                for sampler in SAMPLERS {
                    seed += 1;
                    let (stats, _) = data_stats(sampler, spec, n, rounds_for(r), false, seed);
                    stats.assert_iid(&format!("{sampler:?} {spec} n={n}"), r);
                }
            }
        }
    }
}

#[test]
fn measurement_flips_are_independent_per_ancilla() {
    // With no data noise the true syndrome stays zero, so the reported
    // syndrome is the measurement-flip plane; it is recovered from the
    // detection events by undoing the latch (events = reported ⊕ last).
    let mut seed = 200;
    for d in [5, 9, 13] {
        for q in RATES {
            let spec = NoiseSpec::Asymmetric { p: 0.0, q };
            let noise = spec.build();
            for sampler in SAMPLERS {
                seed += 1;
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let lattice = Lattice::new(d).unwrap();
                let n = lattice.num_ancillas();
                let mut patch = CodePatch::new(lattice);
                let mut stats = PlaneStats::new(n);
                let mut reported = BitVec::zeros(n);
                for _ in 0..rounds_for(q) {
                    match sampler {
                        Sampler::Gaps => {
                            let round = patch.measure(&noise, &mut rng);
                            let mut flips = round.events().clone();
                            flips ^= &reported;
                            reported = flips;
                        }
                        Sampler::PerSite => {
                            reported.clear();
                            per_site_hits(n, q, &mut rng, |i, _| reported.toggle(i));
                        }
                    }
                    stats.add(&reported);
                }
                stats.assert_iid(&format!("{sampler:?} measure {spec} d={d}"), q);
            }
        }
    }
}

#[test]
fn erasure_flags_and_flips_hit_their_rates() {
    let mut seed = 400;
    for n in WIDTHS {
        for e in RATES {
            let p = e / 2.0;
            let spec = NoiseSpec::Erasure { p, e };
            // A flip is the background flip XOR an erasure's 50/50 coin.
            let flip = p * (1.0 - e / 2.0) + (1.0 - p) * e / 2.0;
            for sampler in SAMPLERS {
                for flagged in [true, false] {
                    seed += 1;
                    let rounds = rounds_for(flip.min(e));
                    let (errors, flags) = data_stats(sampler, spec, n, rounds, flagged, seed);
                    let what = format!("{sampler:?} {spec} n={n} flagged={flagged}");
                    errors.assert_iid(&format!("{what} flips"), flip);
                    if flagged {
                        flags.assert_iid(&format!("{what} flags"), e);
                    }
                }
            }
        }
    }
}

#[test]
fn bursts_start_and_continue_at_their_rates() {
    // A pure-burst plane is a Markov chain along the sites: a clear site
    // is followed by a start with probability `burst`; a set site is
    // followed by a set one with probability c + (1 − c)·burst (the run
    // continues, or ends and a new one starts at once), where
    // c = 1 − 1/mean_len. The mean length of a maximal run is
    // 1 / ((1 − c)(1 − burst)).
    let mut seed = 500;
    for n in WIDTHS {
        for burst in RATES {
            for mean_len in [1.0, 3.0] {
                let spec = NoiseSpec::Burst {
                    p: 0.0,
                    burst,
                    mean_len,
                };
                let c = 1.0 - 1.0 / mean_len;
                let stay = c + (1.0 - c) * burst;
                for sampler in SAMPLERS {
                    seed += 1;
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let mut errors = BitVec::zeros(n);
                    let (mut starts, mut clear) = (0u64, 0u64);
                    let (mut stays, mut set) = (0u64, 0u64);
                    for _ in 0..rounds_for(burst) {
                        errors.clear();
                        data_round(sampler, spec, &mut errors, None, &mut rng);
                        // Site 0 follows an implicit clear site.
                        let mut prev = false;
                        for i in 0..n {
                            let bit = errors.get(i);
                            if prev {
                                set += 1;
                                stays += u64::from(bit);
                            } else {
                                clear += 1;
                                starts += u64::from(bit);
                            }
                            prev = bit;
                        }
                    }
                    let what = format!("{sampler:?} {spec} n={n}");
                    assert_binomial(&format!("{what} start rate"), starts, clear, burst);
                    // The continuation rate fixes the mean run length
                    // 1 / (1 − stay) = 1 / ((1 − c)(1 − burst)).
                    assert_binomial(&format!("{what} continuation rate"), stays, set, stay);
                }
            }
        }
    }
}

#[test]
fn bursts_on_background_noise_match_the_reference() {
    // Background flips XOR bursts: no closed form for the flips-per-round
    // law, so library and reference are compared with a two-sample χ²
    // test on their histograms (bins merged until each holds ≥ 10).
    let mut seed = 600;
    for n in WIDTHS {
        for p in RATES {
            let spec = NoiseSpec::Burst {
                p,
                burst: p / 4.0,
                mean_len: 3.0,
            };
            let rounds = rounds_for(p);
            seed += 2;
            let (gaps, _) = data_stats(Sampler::Gaps, spec, n, rounds, false, seed);
            let (per_site, _) = data_stats(Sampler::PerSite, spec, n, rounds, false, seed + 1);
            let mut bins: Vec<(u64, u64)> = Vec::new();
            let (mut a, mut b) = (0, 0);
            for (x, y) in gaps.per_round.iter().zip(&per_site.per_round) {
                a += x;
                b += y;
                if a + b >= 10 {
                    bins.push((a, b));
                    (a, b) = (0, 0);
                }
            }
            if let Some(last) = bins.last_mut() {
                last.0 += a;
                last.1 += b;
            }
            let chi2: f64 = bins
                .iter()
                .map(|&(x, y)| (x as f64 - y as f64).powi(2) / (x + y) as f64)
                .sum();
            let dof = bins.len().saturating_sub(1).max(1);
            assert!(
                chi2 <= chi2_bound(dof),
                "{spec} n={n}: two-sample χ² {chi2:.1} over {dof} dof exceeds {:.1}",
                chi2_bound(dof)
            );
            // And the mean flip count per site agrees.
            let total = |s: &PlaneStats| s.per_site.iter().sum::<u64>() as f64;
            let (x, y) = (total(&gaps), total(&per_site));
            assert!(
                (x - y).abs() <= Z * (x + y).sqrt().max(1.0) * 1.5,
                "{spec} n={n}: {x} flips against the reference's {y}"
            );
        }
    }
}

#[test]
fn zero_and_unit_rates_leave_the_rng_untouched() {
    use rand::RngCore;
    let unit_burst = |mean_len| NoiseSpec::Burst {
        p: 0.0,
        burst: 1.0,
        mean_len,
    };
    for (spec, flips) in [
        (NoiseSpec::Phenomenological { p: 0.0 }, 0),
        (NoiseSpec::Phenomenological { p: 1.0 }, 145),
        (NoiseSpec::CodeCapacity { p: 1.0 }, 145),
        (NoiseSpec::Erasure { p: 1.0, e: 0.0 }, 145),
        (NoiseSpec::Erasure { p: 0.0, e: 0.0 }, 0),
        (
            NoiseSpec::Burst {
                p: 1.0,
                burst: 0.0,
                mean_len: 3.0,
            },
            145,
        ),
        // Every site starts a burst of length exactly 1: no run coins.
        (unit_burst(1.0), 145),
    ] {
        let fresh = ChaCha8Rng::seed_from_u64(700);
        let mut rng = fresh.clone();
        let mut errors = BitVec::zeros(145);
        let mut flags = BitVec::zeros(145);
        spec.build()
            .apply_data_round(&mut errors, Some(&mut flags), &mut rng);
        assert_eq!(rng.next_u64(), fresh.clone().next_u64(), "{spec}");
        assert_eq!(errors.count_ones(), flips, "{spec}");
        assert!(flags.is_zero(), "{spec}");
    }
}
