//! In-memory spans for the traced run.
//!
//! A span has a name, a start and end (ns since the run's epoch), the
//! index of the span that caused it, the request id it belongs to, and
//! `n`, the number of operations (or, for counter spans, the count) it
//! covers. Spans are recorded from the benchmark's own code around calls
//! into the program, kept in memory, written out when the run ends, and
//! every per-layer metric is derived from them alone.

use crate::hist::Histogram;
use std::io::Write;
use std::time::Instant;

pub const ROOT: u32 = u32::MAX;

/// Recording stops at this many spans so a long traced run has bounded
/// memory; dropped spans are counted and reported.
const MAX_SPANS: usize = 2_000_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u64,
    pub n: u64,
}

/// One thread's span log. A disabled tracer records nothing and never
/// reads the clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// An empty tracer for another thread, on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A timestamp for a span boundary (0 when tracing is off).
    #[inline]
    pub fn now(&self) -> u64 {
        if self.on {
            self.at(Instant::now())
        } else {
            0
        }
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span and return its index (for children's `parent`).
    #[inline]
    pub fn span(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u32,
        req: u64,
        n: u64,
    ) -> u32 {
        if !self.on {
            return ROOT;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
            n,
        });
        (self.spans.len() - 1) as u32
    }

    /// Move span `id`'s end (a parent grows as its children finish).
    pub fn close(&mut self, id: u32, end: u64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end = end;
        }
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of `name` spans per operation they cover (ns).
    pub fn ns_per_op(&self, name: &str) -> f64 {
        let (dur, n) = self
            .named(name)
            .fold((0u64, 0u64), |(d, n), s| (d + (s.end - s.start), n + s.n));
        if n == 0 {
            0.0
        } else {
            dur as f64 / n as f64
        }
    }

    /// Sum of `n` over `name` spans (counter spans carry their count
    /// there).
    pub fn total(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.n).sum()
    }

    /// The `q`-quantile of `name` span durations (ns).
    pub fn duration_quantile(&self, name: &str, q: f64) -> u64 {
        let mut hist = Histogram::default();
        for s in self.named(name) {
            hist.record(s.end - s.start);
        }
        hist.quantile(q)
    }

    /// Write every span as a tab-separated line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq\tn")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start, s.end, s.req, s.n
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.now(), 0);
        assert_eq!(t.span("x", 0, 5, ROOT, 1, 1), ROOT);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn absorb_rebases_parents_and_metrics_aggregate() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let root = a.span("batch", 0, 100, ROOT, 0, 4);
        a.span("op", 10, 30, root, 0, 2);
        let mut b = Tracer::new(true, epoch);
        let root_b = b.span("batch", 100, 200, ROOT, 4, 4);
        b.span("op", 110, 170, root_b, 4, 2);
        a.absorb(b);
        assert_eq!(a.spans[3].parent, 2);
        assert_eq!(a.ns_per_op("op"), 80.0 / 4.0);
        assert_eq!(a.total("batch"), 8);
        assert_eq!(a.duration_quantile("op", 1.0), 60);
        assert_eq!(a.ns_per_op("absent"), 0.0);
    }
}
