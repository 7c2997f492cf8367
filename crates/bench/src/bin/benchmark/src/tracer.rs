//! Benchmark-local spans around calls into each layer's public functions.
//!
//! The product crates are measured from outside: nothing here reaches into
//! them. A span is `{id, parent, op, name, start_ns, end_ns}`; every cold or
//! warm start and every steady operation is a root span whose children are
//! the layer calls it made. Spans stay in memory and are written as one JSON
//! line each when the run ends.
//!
//! [`Tracer::time`] reads the clock whether or not spans are recorded, so a
//! traced and an untraced run execute the same code except for the `Vec`
//! push — that difference is what `trace.overhead_share` reports.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Identifier shared by all spans of one operation (one root).
    pub op: u64,
    /// `layer.call`, e.g. `io.load`; roots are named after the operation.
    pub name: &'static str,
    /// Model or tenant the call was for; empty when there is only one.
    pub detail: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans on the measuring thread, innermost last.
    stack: Vec<u32>,
    ops: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            ops: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between phases of one process (the traced
    /// run times its steady loop both ways to report the overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` as a new operation: a root span with a fresh `op` id.
    /// Returns `f`'s result and the elapsed milliseconds.
    pub fn root<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        self.ops += 1;
        self.time(name, "", f)
    }

    /// Runs `f` inside a span that is a child of the innermost open span.
    /// Returns `f`'s result and the elapsed milliseconds, traced or not.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let slot = self.enabled.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                op: self.ops,
                name,
                detail,
                start_ns: 0,
                end_ns: 0,
            });
            self.stack.push(id);
            id
        });
        let start = Instant::now();
        let result = f(self);
        let end = Instant::now();
        if let Some(id) = slot {
            self.stack.pop();
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            let span = &mut self.spans[id as usize];
            span.start_ns = start_ns;
            span.end_ns = end_ns;
        }
        (result, end.duration_since(start).as_secs_f64() * 1e3)
    }

    /// Records a span whose interval was clocked elsewhere (another thread's
    /// reply, a request timed from its due time). `parent` of `None` makes
    /// it the root of a new operation; returns its id for its children.
    pub fn record(
        &mut self,
        name: &'static str,
        detail: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        if parent.is_none() {
            self.ops += 1;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            op: self.ops,
            name,
            detail,
            start_ns: self.ns(start),
            end_ns: self.ns(end.max(start)),
        });
        Some(id)
    }

    /// A span's self time: its duration minus what its direct children
    /// cover, for every span, indexed by id.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let covered = span.end_ns - span.start_ns;
                own[parent as usize] = own[parent as usize].saturating_sub(covered);
            }
        }
        own
    }

    /// For each root named `root`, the summed milliseconds of its
    /// descendants named `name` (any detail), in root order.
    pub fn per_root_ms(&self, root: &str, name: &str) -> Vec<f64> {
        let mut sums: Vec<(u64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| (s.op, 0.0))
            .collect();
        for span in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some())
        {
            if let Ok(i) = sums.binary_search_by_key(&span.op, |&(op, _)| op) {
                sums[i].1 += span.ms();
            }
        }
        sums.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Share of the roots named `root` that their direct children cover:
    /// 1 − Σ self time ÷ Σ duration.
    pub fn covered_share(&self, root: &str) -> f64 {
        let own = self.self_ns();
        let (mut total, mut uncovered) = (0u64, 0u64);
        for span in self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
        {
            total += span.end_ns - span.start_ns;
            uncovered += own[span.id as usize];
        }
        if total == 0 {
            0.0
        } else {
            1.0 - uncovered as f64 / total as f64
        }
    }

    /// Writes one JSON object per span, in id order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if span.detail.is_empty() { "" } else { "." };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}{sep}{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                span.id,
                span.op,
                span.name,
                span.detail,
                span.start_ns,
                span.end_ns,
                own[span.id as usize]
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        // root 0..100, children 10..30 and 40..90, grandchild 50..60.
        let root = t.record("op", "", None, at(0), at(100));
        t.record("a", "", root, at(10), at(30));
        let b = t.record("b", "m", root, at(40), at(90));
        t.record("c", "", b, at(50), at(60));
        assert_eq!(t.self_ns(), vec![30_000, 20_000, 40_000, 10_000]);
        assert!((t.covered_share("op") - 0.70).abs() < 1e-12);
        // Grandchildren count towards their root's per-name sums.
        assert_eq!(t.per_root_ms("op", "c"), vec![0.01]);
        assert_eq!(t.per_root_ms("op", "missing"), vec![0.0]);
        assert_eq!(t.spans()[3].op, t.spans()[0].op);
    }

    #[test]
    fn nested_time_calls_link_parents_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let ((), ms) = t.root("op", |t| {
            t.time("inner", "x", |_| ());
        });
        assert!(ms >= 0.0);
        t.root("op", |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_ne!(spans[0].op, spans[2].op);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        let (value, _) = off.root("op", |t| t.time("inner", "", |_| 7).0);
        assert_eq!(value, 7);
        assert!(off.spans().is_empty());
    }
}
