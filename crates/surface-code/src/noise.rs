//! Noise models for the quantum error simulator: a matrix of noise
//! *families*, each a [`NoiseModel`], named and parameterized by the
//! serializable [`NoiseSpec`] enum.
//!
//! The paper evaluates QECOOL under the **phenomenological noise model**
//! (Dennis et al. \[4\]): in every measurement round each data qubit
//! suffers a Pauli-X flip with probability `p`, and each syndrome
//! measurement result is read out wrongly with probability `q`. The paper
//! assumes `q = p` ("the error probabilities of data and ancilla qubits
//! are equal", §III-C). That model is still the default, but it is now
//! one row of a family matrix:
//!
//! | family             | spec variant                       | model                    |
//! |--------------------|------------------------------------|--------------------------|
//! | `phenomenological` | [`NoiseSpec::Phenomenological`]    | [`PhenomenologicalNoise`] with `q = p` |
//! | `asymmetric`       | [`NoiseSpec::Asymmetric`]          | [`PhenomenologicalNoise`] with `q ≠ p` |
//! | `code_capacity`    | [`NoiseSpec::CodeCapacity`]        | [`CodeCapacityNoise`] (perfect measurement, the "2-D" Table IV columns) |
//! | `biased`           | [`NoiseSpec::Biased`]              | [`BiasedNoise`] (Z-heavy bias `eta` starves the X sector) |
//! | `erasure`          | [`NoiseSpec::Erasure`]             | [`ErasureNoise`] (heralded erasures flagged per data qubit) |
//! | `burst`            | [`NoiseSpec::Burst`]               | [`BurstNoise`] (correlated runs with geometric lengths) |
//!
//! [`NoiseSpec`] is the one construction site for all of them: it parses
//! the CLI `family[:k=v,…]` syntax ([`NoiseSpec::parse`]), validates
//! every rate with the offending field named ([`NoiseSpec::validate`],
//! so the CLI path never reaches a model constructor's panic), and
//! builds the enum-dispatched [`AnyNoise`] ([`NoiseSpec::build`]).
//! Every model reports its spec back via [`NoiseModel::spec`], so perf
//! and campaign artifacts can name the family they ran under.
//!
//! Families that go beyond i.i.d. per-qubit flips implement
//! [`NoiseModel::apply_data_round`], which owns the whole per-round data
//! error pass (and the optional per-data-qubit erasure flags).
//!
//! # Sampling
//!
//! Every i.i.d. per-site pass — data flips, measurement flips, erasures,
//! burst starts — runs through [`bernoulli_hits`], which skips from one
//! flipped site to the next by geometric gaps (the rare-error sampling
//! of Stim, Gidney 2021, arXiv:2103.02202). A pass over `n` sites at
//! rate `p` costs one RNG draw per flipped site plus at most one that
//! ends the pass — about `n·p + 1` instead of `n`. At d = 9 and
//! p = 0.3% a round (145 data qubits, 72 ancillas) takes ~2.7 draws
//! instead of 217.
//!
//! The gaps need a logarithm. It is a short plain-Rust series rather
//! than `f64::ln_1p`: calling libm from here faults its pages into every
//! process that samples noise (0.25–0.54 MB more peak RSS in the repo
//! benchmark), and a libc-independent `ln` makes the gaps — and so every
//! seeded result — the same on every platform.
//!
//! The draw order is part of every seeded result (Monte-Carlo tallies,
//! session digests, recordings), so a change to it is a versioned change:
//! campaign checkpoints carry a schema version that is bumped with it.

use crate::bitvec::BitVec;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A per-round error process for the simulator.
///
/// A noise model answers two questions for each round: with what probability
/// does each data qubit flip, and with what probability is each syndrome
/// readout wrong. Correlated families additionally override
/// [`NoiseModel::apply_data_round`] to own the whole data-error pass.
pub trait NoiseModel {
    /// Probability that a given data qubit suffers an X flip in one round.
    fn data_error_rate(&self) -> f64;

    /// Probability that a given syndrome measurement is misread in one round.
    fn measurement_error_rate(&self) -> f64;

    /// The serializable spec this model was built from, for artifacts that
    /// must name the noise family they ran under.
    fn spec(&self) -> NoiseSpec;

    /// Whether [`NoiseModel::apply_data_round`] produces erasure flags.
    /// Sources use this to decide whether to allocate a flag plane.
    fn tracks_erasures(&self) -> bool {
        false
    }

    /// Applies one round of data-qubit noise to `errors` (one bit per data
    /// qubit), optionally writing per-qubit erasure flags to `erasures`
    /// (same length; cleared first).
    ///
    /// The default body flips each data qubit independently at
    /// [`Self::data_error_rate`], through [`bernoulli_hits`]: one RNG
    /// draw per flipped qubit plus at most one more, not one per qubit.
    fn apply_data_round<R: Rng + ?Sized>(
        &self,
        errors: &mut BitVec,
        erasures: Option<&mut BitVec>,
        rng: &mut R,
    ) {
        if let Some(flags) = erasures {
            flags.clear();
        }
        bernoulli_hits(errors.len(), self.data_error_rate(), rng, |q, _| {
            errors.toggle(q);
        });
    }
}

/// Calls `hit(i, rng)` once for every site `i < n` that an independent
/// Bernoulli(`p`) trial flips, in increasing order of `i`.
///
/// Rather than one coin per site, the pass jumps from hit to hit by
/// geometric gaps `G = floor(ln U / ln(1 − p))` with
/// `U = 1 − k·2⁻⁵³ ∈ (0, 1]`, `k` the top 53 bits of one `next_u64`:
/// `P(G ≥ g) = (1 − p)^g`, the chance that `g` sites in a row stay clean.
/// The pass consumes one draw per hit plus at most one that ends it, so
/// its cost follows the number of flips, not `n`. `hit` gets the RNG
/// back for draws of its own (an erasure's 50/50 flip, a burst's run);
/// those interleave with the gap draws without biasing them, since every
/// gap is a fresh draw.
///
/// `p == 0` and `n == 0` consume no draws; `p == 1` hits every site and
/// consumes no draws either. Like [`Rng::gen_bool`], the resolution is
/// 2⁻⁵³: a `p` below that still hits with probability ~2⁻⁵³ per pass.
///
/// # Panics
///
/// Panics unless `0.0 <= p <= 1.0`.
///
/// # Example
///
/// ```
/// use qecool_surface_code::noise::bernoulli_hits;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut flips = Vec::new();
/// bernoulli_hits(1000, 0.01, &mut rng, |i, _| flips.push(i));
/// assert!(flips.windows(2).all(|w| w[0] < w[1]));
/// assert!(flips.len() < 50);
/// ```
pub fn bernoulli_hits<R, F>(n: usize, p: f64, rng: &mut R, mut hit: F)
where
    R: Rng + ?Sized,
    F: FnMut(usize, &mut R),
{
    assert!((0.0..=1.0).contains(&p), "p={p} not a probability");
    if p == 0.0 {
        return;
    }
    if p == 1.0 {
        for i in 0..n {
            hit(i, rng);
        }
        return;
    }
    let ln_miss = ln_1p(-p);
    let mut i = 0usize;
    while i < n {
        // U − 1 = −k·2⁻⁵³ is exact, so ln U loses nothing to rounding.
        let u_minus_1 = -((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
        // The cast saturates: a gap past usize::MAX (tiny p) ends the pass.
        let gap = (ln_1p(u_minus_1) / ln_miss) as usize;
        match i.checked_add(gap) {
            Some(site) if site < n => {
                hit(site, rng);
                i = site + 1;
            }
            _ => return,
        }
    }
}

/// `1 / (2k + 1)` for `k = 0..10`: the `atanh` series coefficients.
const ODD_RECIPROCALS: [f64; 10] = [
    1.0,
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
];

/// `2·atanh(s) = ln((1 + s) / (1 − s))` by its first ten odd terms.
/// For `|s| ≤ 0.172` the truncation is below 1e-17 relative.
#[inline]
fn two_atanh(s: f64) -> f64 {
    let s2 = s * s;
    let series = ODD_RECIPROCALS
        .iter()
        .rev()
        .fold(0.0, |acc, &c| acc * s2 + c);
    2.0 * s * series
}

/// `ln(1 + x)` for `x ∈ (−1, 0]`, in plain Rust (see the module docs for
/// why not libm). Within 1e-15 relative of libm's `log1p`.
fn ln_1p(x: f64) -> f64 {
    debug_assert!(x > -1.0 && x <= 0.0, "ln_1p domain is (-1, 0], got {x}");
    if x > -0.25 {
        // 1 + x ∈ (0.75, 1]: use ln(1 + x) = 2·atanh(x / (2 + x)) without
        // forming 1 + x, which would round a tiny x (p = 1e-12) away.
        return two_atanh(x / (2.0 + x));
    }
    // 1 + x = m·2^e with m ∈ [1, 2) read off the bits (1 + x ≥ 2⁻⁵³ is a
    // normal float), then m folded into [√½, √2] so |s| ≤ 0.172.
    let bits = (1.0 + x).to_bits();
    let mut e = (bits >> 52) as i32 - 1023;
    let mut m = f64::from_bits((bits & ((1u64 << 52) - 1)) | (1023u64 << 52));
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    f64::from(e) * std::f64::consts::LN_2 + two_atanh((m - 1.0) / (m + 1.0))
}

/// A serializable description of a noise family and its parameters: the
/// one construction site for every [`NoiseModel`] in the workspace.
///
/// Specs flow through `TrialConfig`, campaign checkpoints (hashed into the
/// job-list fingerprint) and the bench `--noise family[:k=v,…]` flag; a
/// model hands its spec back via [`NoiseModel::spec`].
///
/// # Example
///
/// ```
/// use qecool_surface_code::{NoiseModel, NoiseSpec};
///
/// let spec = NoiseSpec::parse("asymmetric:p=0.01,q=0.03")?;
/// let noise = spec.build();
/// assert_eq!(noise.data_error_rate(), 0.01);
/// assert_eq!(noise.measurement_error_rate(), 0.03);
/// assert_eq!(noise.spec(), spec);
/// # Ok::<(), qecool_surface_code::NoiseSpecError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoiseSpec {
    /// The paper's model: data and measurement flips at the same rate `p`.
    Phenomenological {
        /// Shared data/measurement error rate per round.
        p: f64,
    },
    /// Phenomenological noise with independent data (`p`) and
    /// measurement (`q`) rates.
    Asymmetric {
        /// Data error rate per round.
        p: f64,
        /// Measurement error rate per round.
        q: f64,
    },
    /// Perfect measurements (`q = 0`), single-round experiments.
    CodeCapacity {
        /// Data error rate.
        p: f64,
    },
    /// Z-biased noise: of a total physical error rate `p`, only the
    /// `1 / (1 + eta)` X-fraction lands in this simulator's X sector
    /// (measurements still flip at `p`).
    Biased {
        /// Total physical error rate per round.
        p: f64,
        /// Bias ratio `eta = p_Z / p_X`; `eta = 0` recovers the
        /// phenomenological rates.
        eta: f64,
    },
    /// Heralded erasures: background phenomenological noise at `p`, plus
    /// each data qubit is erased with probability `e` per round — flagged,
    /// and depolarized into a 50/50 flip.
    Erasure {
        /// Background data/measurement error rate per round.
        p: f64,
        /// Per-qubit erasure rate per round.
        e: f64,
    },
    /// Burst/correlated errors: background phenomenological noise at `p`,
    /// plus bursts that start at any data qubit with probability `burst`
    /// and flip a geometric-length run (mean `mean_len`) of consecutive
    /// qubits.
    Burst {
        /// Background data/measurement error rate per round.
        p: f64,
        /// Per-qubit burst-start probability per round.
        burst: f64,
        /// Mean burst run length in qubits (`>= 1`).
        mean_len: f64,
    },
}

/// A malformed [`NoiseSpec`]: the reject reason always names the field,
/// so CLI parsing can exit with a usable message instead of a model
/// constructor's panic.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseSpecError {
    /// A probability field outside `[0, 1]` (or not finite).
    RateOutOfRange {
        /// Which field was rejected (`"p"`, `"q"`, `"e"`, `"burst"`).
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A shape parameter outside its domain (`eta >= 0`, `mean_len >= 1`).
    ParamOutOfRange {
        /// Which field was rejected.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// The domain it must lie in, e.g. `">= 1"`.
        domain: &'static str,
    },
    /// The family name before the `:` is not one of the six families.
    UnknownFamily(String),
    /// A `k=v` key the named family does not take.
    UnknownKey {
        /// The family being parsed.
        family: &'static str,
        /// The rejected key.
        key: String,
    },
    /// A `k=v` entry whose value is not a float, or with no `=` at all.
    BadValue {
        /// The key (or the whole malformed entry).
        key: String,
        /// The unparsable value text.
        value: String,
    },
}

impl fmt::Display for NoiseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RateOutOfRange { field, value } => {
                write!(f, "noise rate '{field}' = {value} is out of [0,1]")
            }
            Self::ParamOutOfRange {
                field,
                value,
                domain,
            } => {
                write!(f, "noise parameter '{field}' = {value} must be {domain}")
            }
            Self::UnknownFamily(name) => write!(
                f,
                "unknown noise family '{name}' (expected one of: phenomenological, \
                 asymmetric, code_capacity, biased, erasure, burst)"
            ),
            Self::UnknownKey { family, key } => {
                write!(f, "noise family '{family}' takes no parameter '{key}'")
            }
            Self::BadValue { key, value } => {
                write!(f, "noise parameter '{key}' has unparsable value '{value}'")
            }
        }
    }
}

impl std::error::Error for NoiseSpecError {}

fn check_rate(field: &'static str, value: f64) -> Result<(), NoiseSpecError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(NoiseSpecError::RateOutOfRange { field, value })
    }
}

impl NoiseSpec {
    /// Every family name [`NoiseSpec::parse`] accepts, in parse order.
    pub const FAMILIES: &'static [&'static str] = &[
        "phenomenological",
        "asymmetric",
        "code_capacity",
        "biased",
        "erasure",
        "burst",
    ];

    /// The family name, as spelled on the CLI and in perf records.
    pub fn family(&self) -> &'static str {
        match self {
            Self::Phenomenological { .. } => "phenomenological",
            Self::Asymmetric { .. } => "asymmetric",
            Self::CodeCapacity { .. } => "code_capacity",
            Self::Biased { .. } => "biased",
            Self::Erasure { .. } => "erasure",
            Self::Burst { .. } => "burst",
        }
    }

    /// The primary physical error rate `p` — the sweep axis every family
    /// shares.
    pub fn rate(&self) -> f64 {
        match *self {
            Self::Phenomenological { p }
            | Self::Asymmetric { p, .. }
            | Self::CodeCapacity { p }
            | Self::Biased { p, .. }
            | Self::Erasure { p, .. }
            | Self::Burst { p, .. } => p,
        }
    }

    /// The same family with the primary rate replaced by `p` (shape
    /// parameters — `q`, `eta`, `e`, burst geometry — are kept). This is
    /// how sweeps move one spec along the error-rate axis.
    #[must_use]
    pub fn with_rate(self, p: f64) -> Self {
        match self {
            Self::Phenomenological { .. } => Self::Phenomenological { p },
            Self::Asymmetric { q, .. } => Self::Asymmetric { p, q },
            Self::CodeCapacity { .. } => Self::CodeCapacity { p },
            Self::Biased { eta, .. } => Self::Biased { p, eta },
            Self::Erasure { e, .. } => Self::Erasure { p, e },
            Self::Burst {
                burst, mean_len, ..
            } => Self::Burst { p, burst, mean_len },
        }
    }

    /// The parameters as `k=v` pairs joined by `,` — the tail of the CLI
    /// syntax, and what perf records archive as `noise_params`.
    pub fn params(&self) -> String {
        match *self {
            Self::Phenomenological { p } | Self::CodeCapacity { p } => format!("p={p}"),
            Self::Asymmetric { p, q } => format!("p={p},q={q}"),
            Self::Biased { p, eta } => format!("p={p},eta={eta}"),
            Self::Erasure { p, e } => format!("p={p},e={e}"),
            Self::Burst { p, burst, mean_len } => {
                format!("p={p},burst={burst},mean_len={mean_len}")
            }
        }
    }

    /// Checks every field against its domain, naming the offender.
    ///
    /// # Errors
    ///
    /// The first out-of-domain field, as a [`NoiseSpecError`].
    pub fn validate(&self) -> Result<(), NoiseSpecError> {
        match *self {
            Self::Phenomenological { p } | Self::CodeCapacity { p } => check_rate("p", p),
            Self::Asymmetric { p, q } => {
                check_rate("p", p)?;
                check_rate("q", q)
            }
            Self::Biased { p, eta } => {
                check_rate("p", p)?;
                if eta.is_finite() && eta >= 0.0 {
                    Ok(())
                } else {
                    Err(NoiseSpecError::ParamOutOfRange {
                        field: "eta",
                        value: eta,
                        domain: ">= 0 and finite",
                    })
                }
            }
            Self::Erasure { p, e } => {
                check_rate("p", p)?;
                check_rate("e", e)
            }
            Self::Burst { p, burst, mean_len } => {
                check_rate("p", p)?;
                check_rate("burst", burst)?;
                if mean_len.is_finite() && mean_len >= 1.0 {
                    Ok(())
                } else {
                    Err(NoiseSpecError::ParamOutOfRange {
                        field: "mean_len",
                        value: mean_len,
                        domain: ">= 1 and finite",
                    })
                }
            }
        }
    }

    /// Parses the CLI syntax `family[:k=v,…]`; omitted keys take the
    /// family's defaults. The result is always validated.
    ///
    /// # Errors
    ///
    /// A [`NoiseSpecError`] naming the unknown family, unknown key,
    /// unparsable value, or out-of-domain field.
    pub fn parse(text: &str) -> Result<Self, NoiseSpecError> {
        let (family, tail) = match text.split_once(':') {
            Some((f, t)) => (f, t),
            None => (text, ""),
        };
        let mut spec = match family {
            "phenomenological" => Self::Phenomenological { p: 0.01 },
            "asymmetric" => Self::Asymmetric { p: 0.01, q: 0.02 },
            "code_capacity" => Self::CodeCapacity { p: 0.01 },
            "biased" => Self::Biased { p: 0.01, eta: 10.0 },
            "erasure" => Self::Erasure { p: 0.005, e: 0.01 },
            "burst" => Self::Burst {
                p: 0.005,
                burst: 0.001,
                mean_len: 3.0,
            },
            other => return Err(NoiseSpecError::UnknownFamily(other.to_owned())),
        };
        for entry in tail.split(',').filter(|e| !e.is_empty()) {
            let Some((key, value)) = entry.split_once('=') else {
                return Err(NoiseSpecError::BadValue {
                    key: entry.to_owned(),
                    value: String::new(),
                });
            };
            let parsed: f64 = value.parse().map_err(|_| NoiseSpecError::BadValue {
                key: key.to_owned(),
                value: value.to_owned(),
            })?;
            spec = spec.with_key(key, parsed)?;
        }
        spec.validate()?;
        Ok(spec)
    }

    fn with_key(self, key: &str, value: f64) -> Result<Self, NoiseSpecError> {
        let reject = |family| {
            Err(NoiseSpecError::UnknownKey {
                family,
                key: key.to_owned(),
            })
        };
        Ok(match (self, key) {
            (spec, "p") => spec.with_rate(value),
            (Self::Asymmetric { p, .. }, "q") => Self::Asymmetric { p, q: value },
            (Self::Biased { p, .. }, "eta") => Self::Biased { p, eta: value },
            (Self::Erasure { p, .. }, "e") => Self::Erasure { p, e: value },
            (Self::Burst { p, mean_len, .. }, "burst") => Self::Burst {
                p,
                burst: value,
                mean_len,
            },
            (Self::Burst { p, burst, .. }, "mean_len") => Self::Burst {
                p,
                burst,
                mean_len: value,
            },
            (spec, _) => return reject(spec.family()),
        })
    }

    /// Builds the model this spec describes — the workspace's single
    /// noise construction site.
    ///
    /// # Panics
    ///
    /// Panics if the spec was never validated and a rate is out of
    /// domain; [`NoiseSpec::parse`] and [`NoiseSpec::validate`] are the
    /// non-panicking gates in front of this.
    pub fn build(&self) -> AnyNoise {
        match *self {
            Self::Phenomenological { p } => {
                AnyNoise::Phenomenological(PhenomenologicalNoise::symmetric(p))
            }
            Self::Asymmetric { p, q } => {
                AnyNoise::Phenomenological(PhenomenologicalNoise::new(p, q))
            }
            Self::CodeCapacity { p } => AnyNoise::CodeCapacity(CodeCapacityNoise::new(p)),
            Self::Biased { p, eta } => AnyNoise::Biased(BiasedNoise::new(p, eta)),
            Self::Erasure { p, e } => AnyNoise::Erasure(ErasureNoise::new(p, e)),
            Self::Burst { p, burst, mean_len } => {
                AnyNoise::Burst(BurstNoise::new(p, burst, mean_len))
            }
        }
    }
}

impl fmt::Display for NoiseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.family(), self.params())
    }
}

/// Phenomenological noise: data flips with probability `p` *and* measurement
/// flips with probability `q` per round.
///
/// # Example
///
/// ```
/// use qecool_surface_code::{NoiseModel, PhenomenologicalNoise};
///
/// let noise = PhenomenologicalNoise::symmetric(0.01);
/// assert_eq!(noise.data_error_rate(), 0.01);
/// assert_eq!(noise.measurement_error_rate(), 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhenomenologicalNoise {
    p: f64,
    q: f64,
}

impl PhenomenologicalNoise {
    /// Creates a model with independent data (`p`) and measurement (`q`)
    /// error rates.
    ///
    /// # Panics
    ///
    /// Panics unless both rates lie in `[0, 1]`. CLI paths must validate
    /// through [`NoiseSpec::parse`] instead of reaching this assert.
    pub fn new(p: f64, q: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "data error rate out of [0,1]");
        assert!(
            (0.0..=1.0).contains(&q),
            "measurement error rate out of [0,1]"
        );
        Self { p, q }
    }

    /// The paper's setting: equal data and measurement error rates.
    ///
    /// # Panics
    ///
    /// Panics unless `p` lies in `[0, 1]`.
    pub fn symmetric(p: f64) -> Self {
        Self::new(p, p)
    }
}

impl NoiseModel for PhenomenologicalNoise {
    fn data_error_rate(&self) -> f64 {
        self.p
    }

    fn measurement_error_rate(&self) -> f64 {
        self.q
    }

    fn spec(&self) -> NoiseSpec {
        if self.p == self.q {
            NoiseSpec::Phenomenological { p: self.p }
        } else {
            NoiseSpec::Asymmetric {
                p: self.p,
                q: self.q,
            }
        }
    }
}

/// Code-capacity noise: data flips with probability `p`, measurements are
/// perfect. Used for "2-D" (single-layer) threshold experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeCapacityNoise {
    p: f64,
}

impl CodeCapacityNoise {
    /// Creates a code-capacity model with data error rate `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `p` lies in `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "data error rate out of [0,1]");
        Self { p }
    }
}

impl NoiseModel for CodeCapacityNoise {
    fn data_error_rate(&self) -> f64 {
        self.p
    }

    fn measurement_error_rate(&self) -> f64 {
        0.0
    }

    fn spec(&self) -> NoiseSpec {
        NoiseSpec::CodeCapacity { p: self.p }
    }
}

/// Z-biased noise in an X-sector simulation: of the total physical error
/// rate `p`, X flips get the `1 / (1 + eta)` fraction (`eta = p_Z / p_X`);
/// measurements still flip at the full `p`. `eta = 0` recovers the
/// phenomenological model; large `eta` starves this sector, which is
/// exactly how biased-noise hardware buys distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasedNoise {
    p: f64,
    eta: f64,
}

impl BiasedNoise {
    /// Creates a biased model with total rate `p` and bias ratio `eta`.
    ///
    /// # Panics
    ///
    /// Panics unless `p` lies in `[0, 1]` and `eta >= 0` is finite.
    pub fn new(p: f64, eta: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "data error rate out of [0,1]");
        assert!(eta.is_finite() && eta >= 0.0, "bias ratio out of [0,inf)");
        Self { p, eta }
    }
}

impl NoiseModel for BiasedNoise {
    fn data_error_rate(&self) -> f64 {
        self.p / (1.0 + self.eta)
    }

    fn measurement_error_rate(&self) -> f64 {
        self.p
    }

    fn spec(&self) -> NoiseSpec {
        NoiseSpec::Biased {
            p: self.p,
            eta: self.eta,
        }
    }
}

/// Heralded-erasure noise: background phenomenological noise at `p`, plus
/// each data qubit is *erased* with probability `e` per round. An erased
/// qubit is flagged in the erasure plane and depolarizes — in the X
/// sector, a 50/50 flip on top of the background.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErasureNoise {
    p: f64,
    e: f64,
}

impl ErasureNoise {
    /// Creates an erasure model with background rate `p` and erasure
    /// rate `e`.
    ///
    /// # Panics
    ///
    /// Panics unless both rates lie in `[0, 1]`.
    pub fn new(p: f64, e: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "data error rate out of [0,1]");
        assert!((0.0..=1.0).contains(&e), "erasure rate out of [0,1]");
        Self { p, e }
    }
}

impl NoiseModel for ErasureNoise {
    fn data_error_rate(&self) -> f64 {
        self.p
    }

    fn measurement_error_rate(&self) -> f64 {
        self.p
    }

    fn spec(&self) -> NoiseSpec {
        NoiseSpec::Erasure {
            p: self.p,
            e: self.e,
        }
    }

    fn tracks_erasures(&self) -> bool {
        true
    }

    fn apply_data_round<R: Rng + ?Sized>(
        &self,
        errors: &mut BitVec,
        mut erasures: Option<&mut BitVec>,
        rng: &mut R,
    ) {
        if let Some(flags) = erasures.as_deref_mut() {
            flags.clear();
        }
        let n = errors.len();
        bernoulli_hits(n, self.p, rng, |q, _| errors.toggle(q));
        bernoulli_hits(n, self.e, rng, |q, rng| {
            // With no flag plane offered, erasures still flip, just
            // unheralded.
            if let Some(flags) = erasures.as_deref_mut() {
                flags.set(q, true);
            }
            if rng.gen_bool(0.5) {
                errors.toggle(q);
            }
        });
    }
}

/// Burst/correlated noise: background phenomenological noise at `p`, plus
/// bursts — a burst starts at any data qubit with probability `burst` per
/// round and flips a run of consecutive qubits whose length is geometric
/// with mean `mean_len`. Runs of index-consecutive data qubits are
/// spatially local in the lattice's row-major edge order, giving the
/// correlated stripes that stress a nearest-pair decoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstNoise {
    p: f64,
    burst: f64,
    mean_len: f64,
}

impl BurstNoise {
    /// Creates a burst model with background rate `p`, burst-start rate
    /// `burst`, and mean run length `mean_len`.
    ///
    /// # Panics
    ///
    /// Panics unless `p` and `burst` lie in `[0, 1]` and
    /// `mean_len >= 1` is finite.
    pub fn new(p: f64, burst: f64, mean_len: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "data error rate out of [0,1]");
        assert!((0.0..=1.0).contains(&burst), "burst rate out of [0,1]");
        assert!(
            mean_len.is_finite() && mean_len >= 1.0,
            "mean burst length out of [1,inf)"
        );
        Self { p, burst, mean_len }
    }
}

impl NoiseModel for BurstNoise {
    fn data_error_rate(&self) -> f64 {
        self.p
    }

    fn measurement_error_rate(&self) -> f64 {
        self.p
    }

    fn spec(&self) -> NoiseSpec {
        NoiseSpec::Burst {
            p: self.p,
            burst: self.burst,
            mean_len: self.mean_len,
        }
    }

    fn apply_data_round<R: Rng + ?Sized>(
        &self,
        errors: &mut BitVec,
        erasures: Option<&mut BitVec>,
        rng: &mut R,
    ) {
        if let Some(flags) = erasures {
            flags.clear();
        }
        let n = errors.len();
        bernoulli_hits(n, self.p, rng, |q, _| errors.toggle(q));
        // Geometric run lengths: continue the run with probability
        // 1 - 1/mean_len, so E[len] = mean_len. A run's qubits cannot
        // start a burst of their own, so a start inside the previous run
        // is skipped; the qubit right after a run may start one.
        let cont = 1.0 - 1.0 / self.mean_len;
        let mut run_end = 0;
        bernoulli_hits(n, self.burst, rng, |start, rng| {
            if start < run_end {
                return;
            }
            errors.toggle(start);
            let mut q = start + 1;
            while q < n && cont > 0.0 && rng.gen_bool(cont) {
                errors.toggle(q);
                q += 1;
            }
            run_end = q;
        });
    }
}

/// Enum dispatch over every noise family, so one concrete type can flow
/// through `TrialConfig` and the simulated syndrome source. Built by
/// [`NoiseSpec::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnyNoise {
    /// Phenomenological (symmetric or asymmetric rates).
    Phenomenological(PhenomenologicalNoise),
    /// Code capacity (perfect measurement).
    CodeCapacity(CodeCapacityNoise),
    /// Z-biased.
    Biased(BiasedNoise),
    /// Heralded erasure.
    Erasure(ErasureNoise),
    /// Burst/correlated.
    Burst(BurstNoise),
}

impl NoiseModel for AnyNoise {
    fn data_error_rate(&self) -> f64 {
        match self {
            Self::Phenomenological(n) => n.data_error_rate(),
            Self::CodeCapacity(n) => n.data_error_rate(),
            Self::Biased(n) => n.data_error_rate(),
            Self::Erasure(n) => n.data_error_rate(),
            Self::Burst(n) => n.data_error_rate(),
        }
    }

    fn measurement_error_rate(&self) -> f64 {
        match self {
            Self::Phenomenological(n) => n.measurement_error_rate(),
            Self::CodeCapacity(n) => n.measurement_error_rate(),
            Self::Biased(n) => n.measurement_error_rate(),
            Self::Erasure(n) => n.measurement_error_rate(),
            Self::Burst(n) => n.measurement_error_rate(),
        }
    }

    fn spec(&self) -> NoiseSpec {
        match self {
            Self::Phenomenological(n) => n.spec(),
            Self::CodeCapacity(n) => n.spec(),
            Self::Biased(n) => n.spec(),
            Self::Erasure(n) => n.spec(),
            Self::Burst(n) => n.spec(),
        }
    }

    fn tracks_erasures(&self) -> bool {
        match self {
            Self::Phenomenological(n) => n.tracks_erasures(),
            Self::CodeCapacity(n) => n.tracks_erasures(),
            Self::Biased(n) => n.tracks_erasures(),
            Self::Erasure(n) => n.tracks_erasures(),
            Self::Burst(n) => n.tracks_erasures(),
        }
    }

    // Explicit delegation (not the trait default) so families that
    // override the data pass keep their override behind the enum.
    fn apply_data_round<R: Rng + ?Sized>(
        &self,
        errors: &mut BitVec,
        erasures: Option<&mut BitVec>,
        rng: &mut R,
    ) {
        match self {
            Self::Phenomenological(n) => n.apply_data_round(errors, erasures, rng),
            Self::CodeCapacity(n) => n.apply_data_round(errors, erasures, rng),
            Self::Biased(n) => n.apply_data_round(errors, erasures, rng),
            Self::Erasure(n) => n.apply_data_round(errors, erasures, rng),
            Self::Burst(n) => n.apply_data_round(errors, erasures, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn symmetric_sets_both_rates() {
        let n = PhenomenologicalNoise::symmetric(0.02);
        assert_eq!(n.data_error_rate(), 0.02);
        assert_eq!(n.measurement_error_rate(), 0.02);
    }

    #[test]
    fn asymmetric_rates_are_independent() {
        let n = PhenomenologicalNoise::new(0.01, 0.05);
        assert_eq!(n.data_error_rate(), 0.01);
        assert_eq!(n.measurement_error_rate(), 0.05);
    }

    #[test]
    fn code_capacity_has_perfect_measurement() {
        let n = CodeCapacityNoise::new(0.1);
        assert_eq!(n.data_error_rate(), 0.1);
        assert_eq!(n.measurement_error_rate(), 0.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        bernoulli_hits(100, n.measurement_error_rate(), &mut rng, |i, _| {
            panic!("perfect measurement misread ancilla {i}")
        });
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn rejects_invalid_rate() {
        PhenomenologicalNoise::symmetric(1.5);
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn bernoulli_hits_rejects_invalid_rate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        bernoulli_hits(10, -0.1, &mut rng, |_, _| {});
    }

    #[test]
    fn sample_statistics_are_plausible() {
        // 10k sites at p = 0.3: expect ~3000 hits; allow a wide band.
        let n = PhenomenologicalNoise::symmetric(0.3);
        let mut errors = BitVec::zeros(10_000);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        n.apply_data_round(&mut errors, None, &mut rng);
        let hits = errors.count_ones();
        assert!((2500..3500).contains(&hits), "got {hits} hits");
    }

    #[test]
    fn zero_rate_never_fires() {
        let n = PhenomenologicalNoise::symmetric(0.0);
        let mut errors = BitVec::zeros(1000);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let untouched = rng.clone();
        n.apply_data_round(&mut errors, None, &mut rng);
        assert!(errors.is_zero());
        assert_eq!(next(rng), next(untouched), "p = 0 consumed RNG draws");
    }

    #[test]
    fn unit_rate_always_fires() {
        let n = PhenomenologicalNoise::symmetric(1.0);
        let mut errors = BitVec::zeros(1000);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let untouched = rng.clone();
        n.apply_data_round(&mut errors, None, &mut rng);
        assert_eq!(errors.count_ones(), 1000);
        assert_eq!(next(rng), next(untouched), "p = 1 consumed RNG draws");
    }

    /// The next draw of `rng`: equal for two generators iff (with
    /// overwhelming probability) they sit at the same stream position.
    fn next(mut rng: rand_chacha::ChaCha8Rng) -> u64 {
        use rand::RngCore;
        rng.next_u64()
    }

    /// Counts the `next_u64` draws a sampler makes.
    struct CountingRng {
        inner: rand_chacha::ChaCha8Rng,
        draws: usize,
    }

    impl rand::RngCore for CountingRng {
        fn next_u32(&mut self) -> u32 {
            unreachable!("the sampler draws whole u64s")
        }

        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn bernoulli_hits_edge_cases() {
        let fresh = rand_chacha::ChaCha8Rng::seed_from_u64(8);
        let mut rng = fresh.clone();
        // n = 0 at any rate, and p = 0 / p = 1 at any n: no draws.
        for p in [0.0, 1e-12, 0.3, 1.0] {
            bernoulli_hits(0, p, &mut rng, |i, _| panic!("n = 0 hit site {i}"));
        }
        bernoulli_hits(313, 0.0, &mut rng, |i, _| panic!("p = 0 hit site {i}"));
        let mut all = Vec::new();
        bernoulli_hits(313, 1.0, &mut rng, |i, _| all.push(i));
        assert_eq!(all, (0..313).collect::<Vec<_>>());
        assert_eq!(
            next(rng),
            next(fresh.clone()),
            "an edge case consumed RNG draws"
        );

        // Vanishing rates: the gap saturates instead of overflowing, the
        // pass ends after one draw, and nothing is hit.
        for p in [1e-12, 1e-300, f64::MIN_POSITIVE, 5e-324] {
            let mut rng = CountingRng {
                inner: fresh.clone(),
                draws: 0,
            };
            for _ in 0..1000 {
                bernoulli_hits(313, p, &mut rng, |i, _| panic!("p = {p:e} hit site {i}"));
            }
            assert_eq!(rng.draws, 1000, "p = {p:e}");
        }
    }

    #[test]
    fn bernoulli_hits_draws_once_per_hit_plus_at_most_one() {
        let mut rng = CountingRng {
            inner: rand_chacha::ChaCha8Rng::seed_from_u64(12),
            draws: 0,
        };
        for (n, p) in [(145, 0.003), (313, 0.1), (72, 0.5), (5, 0.99)] {
            for _ in 0..200 {
                let before = rng.draws;
                let mut hits = 0;
                let mut last = None;
                bernoulli_hits(n, p, &mut rng, |i, _| {
                    assert!(
                        i < n && last.is_none_or(|l| i > l),
                        "hit {i} after {last:?}"
                    );
                    last = Some(i);
                    hits += 1;
                });
                let draws = rng.draws - before;
                assert!(
                    draws == hits || draws == hits + 1,
                    "n = {n}, p = {p}: {draws} draws for {hits} hits"
                );
            }
        }
    }

    #[test]
    fn ln_1p_matches_libm() {
        let check = |x: f64| {
            let (got, want) = (ln_1p(x), x.ln_1p());
            assert!(
                (got - want).abs() <= 1e-15 * want.abs(),
                "ln_1p({x:e}) = {got:e}, libm {want:e}"
            );
        };
        // Every sampler input is x = −k·2⁻⁵³: sweep k over its whole range
        // on a log scale, plus both ends and the branch points.
        let top = (1u64 << 53) as f64;
        for i in 0..=200_000 {
            let k = top.powf(f64::from(i) / 200_000.0).floor().min(top - 1.0);
            check(-k / top);
        }
        for x in [
            0.0,
            -0.25,
            -0.25 + 1e-17,
            -0.5,
            -1.0 + 1.0 / top,
            -1e-12,
            -1e-300,
        ] {
            check(x);
        }
        // ln U for U ∈ (0, 1] agrees with libm's ln as well.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(15);
        for _ in 0..200_000 {
            use rand::RngCore;
            let k = (rng.next_u64() >> 11) as f64;
            let (got, want) = (ln_1p(-k / top), (1.0 - k / top).ln());
            assert!((got - want).abs() <= 1e-15 * want.abs().max(f64::MIN_POSITIVE));
        }
    }

    #[test]
    fn parse_accepts_every_family_with_defaults() {
        for family in NoiseSpec::FAMILIES {
            let spec = NoiseSpec::parse(family).expect(family);
            assert_eq!(spec.family(), *family);
            spec.validate().expect(family);
            // Building a validated spec never panics.
            let _ = spec.build();
        }
    }

    #[test]
    fn parse_round_trips_through_display() {
        for text in [
            "phenomenological:p=0.02",
            "asymmetric:p=0.01,q=0.03",
            "code_capacity:p=0.1",
            "biased:p=0.01,eta=4",
            "erasure:p=0.001,e=0.02",
            "burst:p=0.001,burst=0.0005,mean_len=5",
        ] {
            let spec = NoiseSpec::parse(text).expect(text);
            let again = NoiseSpec::parse(&spec.to_string()).expect(text);
            assert_eq!(spec, again, "{text}");
        }
    }

    #[test]
    fn parse_names_the_bad_field() {
        match NoiseSpec::parse("phenomenological:p=1.5") {
            Err(NoiseSpecError::RateOutOfRange { field: "p", value }) => {
                assert_eq!(value, 1.5);
            }
            other => panic!("expected RateOutOfRange, got {other:?}"),
        }
        assert!(matches!(
            NoiseSpec::parse("asymmetric:q=nope"),
            Err(NoiseSpecError::BadValue { .. })
        ));
        assert!(matches!(
            NoiseSpec::parse("glitch"),
            Err(NoiseSpecError::UnknownFamily(_))
        ));
        assert!(matches!(
            NoiseSpec::parse("code_capacity:q=0.1"),
            Err(NoiseSpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            NoiseSpec::parse("burst:mean_len=0.5"),
            Err(NoiseSpecError::ParamOutOfRange {
                field: "mean_len",
                ..
            })
        ));
    }

    #[test]
    fn spec_round_trips_through_every_model() {
        for text in [
            "phenomenological:p=0.02",
            "asymmetric:p=0.01,q=0.03",
            "code_capacity:p=0.1",
            "biased:p=0.01,eta=4",
            "erasure:p=0.001,e=0.02",
            "burst:p=0.001,burst=0.0005,mean_len=5",
        ] {
            let spec = NoiseSpec::parse(text).expect(text);
            assert_eq!(spec.build().spec(), spec, "{text}");
        }
    }

    #[test]
    fn with_rate_keeps_shape_parameters() {
        let spec = NoiseSpec::parse("burst:p=0.001,burst=0.0005,mean_len=5").unwrap();
        assert_eq!(
            spec.with_rate(0.09),
            NoiseSpec::Burst {
                p: 0.09,
                burst: 0.0005,
                mean_len: 5.0
            }
        );
        let spec = NoiseSpec::parse("asymmetric:p=0.01,q=0.03").unwrap();
        assert_eq!(
            spec.with_rate(0.02),
            NoiseSpec::Asymmetric { p: 0.02, q: 0.03 }
        );
        assert_eq!(spec.with_rate(0.02).rate(), 0.02);
    }

    #[test]
    fn biased_noise_starves_the_x_sector() {
        let n = BiasedNoise::new(0.1, 9.0);
        assert!((n.data_error_rate() - 0.01).abs() < 1e-12);
        assert_eq!(n.measurement_error_rate(), 0.1);
    }

    #[test]
    fn erasure_noise_flags_and_flips() {
        let n = ErasureNoise::new(0.0, 1.0);
        let mut errors = BitVec::zeros(200);
        let mut flags = BitVec::zeros(200);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        n.apply_data_round(&mut errors, Some(&mut flags), &mut rng);
        // e = 1: every qubit erased; about half flip.
        assert_eq!(flags.count_ones(), 200);
        let flips = errors.count_ones();
        assert!((60..=140).contains(&flips), "got {flips} flips");
        assert!(n.tracks_erasures());
    }

    #[test]
    fn erasure_noise_flips_even_without_a_flag_plane() {
        let n = ErasureNoise::new(0.0, 1.0);
        let mut errors = BitVec::zeros(200);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        n.apply_data_round(&mut errors, None, &mut rng);
        let flips = errors.count_ones();
        assert!((60..=140).contains(&flips), "got {flips} flips");
    }

    #[test]
    fn burst_noise_produces_runs() {
        // Pure bursts, no background: every 1-region is a consecutive
        // run, and with mean_len = 4 the average run is well above 1.
        let n = BurstNoise::new(0.0, 0.02, 4.0);
        let mut errors = BitVec::zeros(4096);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        n.apply_data_round(&mut errors, None, &mut rng);
        let ones = errors.count_ones();
        assert!(ones > 0, "no bursts fired");
        let mut runs = 0usize;
        let mut prev = false;
        for q in 0..errors.len() {
            let bit = errors.get(q);
            if bit && !prev {
                runs += 1;
            }
            prev = bit;
        }
        let mean_run = ones as f64 / runs as f64;
        assert!(mean_run > 1.5, "mean run {mean_run} too short for bursts");
    }

    #[test]
    fn any_noise_dispatches_the_override() {
        // Through AnyNoise, the erasure model must still produce flags —
        // i.e. enum dispatch reaches the override, not the default body.
        let spec = NoiseSpec::Erasure { p: 0.0, e: 1.0 };
        let n = spec.build();
        let mut errors = BitVec::zeros(64);
        let mut flags = BitVec::zeros(64);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        n.apply_data_round(&mut errors, Some(&mut flags), &mut rng);
        assert_eq!(flags.count_ones(), 64);
        assert!(n.tracks_erasures());
    }
}
