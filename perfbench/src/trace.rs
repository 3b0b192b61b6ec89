//! In-memory span recorder for the traced run.
//!
//! Every call the harness makes into a program layer is wrapped in a
//! span: which layer ([`Kind`]), which request it served (the step index
//! on the serve workloads, the job index on mc-sweep), its parent span,
//! and its start and end on one monotonic clock. Spans stay in a
//! pre-sized vector while the run measures and are written out as a TSV
//! file once it ends, so tracing does no I/O inside the timed loop.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The layer boundary a span covers. Names follow the repo's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One whole serve step or one mc `run_batch` sweep step.
    Step,
    /// `SimulatedSource::next_round_into`.
    Sample,
    /// `PackedReader::next_round_into`.
    PackedRead,
    /// `SyndromeSource::apply_corrections`.
    Feedback,
    /// `ShardedDecodeService::push_rounds`.
    Push,
    /// `ShardedDecodeService::pump`.
    Pump,
    /// `ShardedDecodeService::poll_corrections`.
    Poll,
    /// `Decoder::ingest` + `Decoder::decode_step` on the direct reference.
    DecodeRound,
    /// `DecodeEngine::run_batch`.
    RunBatch,
    /// One serial `run_trial_into` on a warm scratch.
    Trial,
    /// Sampling one shot's noisy rounds plus the closing round.
    SampleShot,
    /// Decoding one pre-sampled shot with a bare decoder.
    DecodeShot,
}

impl Kind {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Step => "step",
            Kind::Sample => "surface_code.sample",
            Kind::PackedRead => "surface_code.packed_read",
            Kind::Feedback => "surface_code.feedback",
            Kind::Push => "sim.shard.push",
            Kind::Pump => "sim.service.pump",
            Kind::Poll => "sim.service.poll",
            Kind::DecodeRound => "decode.round",
            Kind::RunBatch => "sim.engine.run_batch",
            Kind::Trial => "sim.trials.run_trial_into",
            Kind::SampleShot => "surface_code.sample_shot",
            Kind::DecodeShot => "decode.shot",
        }
    }
}

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span (24 bytes).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Nanoseconds from the tracer's epoch to the span's start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u32,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// Shared request id (step or job index).
    pub request: u32,
    /// Layer boundary.
    pub kind: Kind,
    /// Free tag: session index on serve spans, decoder index on
    /// `DecodeShot` spans, 0 elsewhere.
    pub tag: u16,
}

/// The span store. `None`-able at call sites: untraced runs pass no
/// tracer and pay no clock reads.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that will have children; close it with [`Self::close`].
    pub fn open(&mut self, kind: Kind, parent: u32, request: u32) -> u32 {
        let start_ns = self.now_ns();
        self.push(kind, parent, request, 0, start_ns, start_ns)
    }

    /// Closes a span opened with [`Self::open`].
    pub fn close(&mut self, idx: u32) {
        let now = self.now_ns();
        let span = &mut self.spans[idx as usize];
        span.dur_ns = now.saturating_sub(span.start_ns).min(u64::from(u32::MAX)) as u32;
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        kind: Kind,
        parent: u32,
        request: u32,
        tag: u16,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns).min(u64::from(u32::MAX)) as u32,
            parent,
            request,
            kind,
            tag,
        });
        idx
    }

    /// Times `f` as a span of `kind` under `parent`.
    pub fn time<R>(
        &mut self,
        kind: Kind,
        parent: u32,
        request: u32,
        tag: u16,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(kind, parent, request, tag, start, end);
        out
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span of `kind` matching `filter`.
    pub fn durations(&self, kind: Kind, filter: impl Fn(&Span) -> bool) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.kind == kind && filter(s))
            .map(|s| u64::from(s.dur_ns))
            .collect()
    }

    /// Total busy time of `kind` in seconds.
    pub fn busy_s(&self, kind: Kind) -> f64 {
        self.durations(kind, |_| true).iter().sum::<u64>() as f64 * 1e-9
    }

    /// Writes every span as one TSV line:
    /// `index kind request parent tag start_ns dur_ns` (`parent` is -1
    /// for root spans).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tkind\trequest\tparent\ttag\tstart_ns\tdur_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.kind.name(),
                s.request,
                s.tag,
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, timing it as a span when a tracer is present.
pub fn traced<R>(
    tracer: &mut Option<&mut Tracer>,
    kind: Kind,
    parent: u32,
    request: u32,
    tag: u16,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.time(kind, parent, request, tag, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut t = Tracer::with_capacity(8);
        let step = t.open(Kind::Step, ROOT, 7);
        let x = t.time(Kind::Sample, step, 7, 3, || 41 + 1);
        assert_eq!(x, 42);
        t.push(Kind::Pump, step, 7, 0, 100, 350);
        t.close(step);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, step);
        assert_eq!(spans[1].tag, 3);
        assert!(spans.iter().all(|s| s.request == 7));
        assert_eq!(t.durations(Kind::Pump, |_| true), vec![250]);
        assert!((t.busy_s(Kind::Pump) - 250e-9).abs() < 1e-15);
        assert!(spans[0].dur_ns >= spans[1].dur_ns);
    }
}
