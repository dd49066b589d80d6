//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files around the calls it
//! makes into each crate. A span has a name (`<crate>.<part>`), start and
//! duration relative to a shared origin, its parent span, the job it
//! belongs to, and a call count. Hot inner loops (one DUT tick per
//! simulated cycle) are not recorded call by call: the loop accumulates
//! host time per layer and [`Recorder::add`] records one span per layer
//! and job whose duration is the sum and whose `calls` is the call count.
//! A layer's self time is its spans' durations minus what their child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<crate>.<part>`.
    pub name: &'static str,
    /// Job index the span belongs to (None for campaign-level phases).
    pub job: Option<u32>,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, nanoseconds after the run's origin.
    pub start_ns: u64,
    /// Duration (summed, for accumulated loop spans), nanoseconds.
    pub dur_ns: u64,
    /// Calls the span stands for.
    pub calls: u64,
}

/// Per-thread span and count recorder; merge worker recorders at the end.
pub struct Recorder {
    origin: Instant,
    /// Recorded spans; a parent always precedes its children.
    pub spans: Vec<Span>,
    /// Counts recorded at the same boundaries, by name.
    pub counts: BTreeMap<&'static str, u64>,
    open: Vec<usize>,
    job: Option<u32>,
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

impl Recorder {
    /// An empty recorder timing against `origin`.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            counts: BTreeMap::new(),
            open: Vec::new(),
            job: None,
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len();
        let depth = self.open.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: ns_between(self.origin, Instant::now()),
            dur_ns: 0,
            calls: 1,
        });
        self.open.push(idx);
        let out = f(self);
        // A panic caught inside `f` may have left inner spans open.
        self.open.truncate(depth);
        let end = ns_between(self.origin, Instant::now());
        self.spans[idx].dur_ns = end.saturating_sub(self.spans[idx].start_ns);
        out
    }

    /// Run `f` as the root span of job `job`.
    pub fn job<T>(&mut self, job: usize, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.job = Some(job as u32);
        let out = self.span("campaign.job", f);
        self.job = None;
        out
    }

    /// Record host time a loop accumulated in one layer, as a single span
    /// under the open span. Nothing is recorded for zero calls.
    pub fn add(&mut self, name: &'static str, first: Option<Instant>, dur_ns: u64, calls: u64) {
        if calls == 0 {
            return;
        }
        let start_ns = first.map_or(0, |t| ns_between(self.origin, t));
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns,
            dur_ns,
            calls,
        });
    }

    /// Add `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Append another recorder's spans and counts.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counts {
            self.count(k, v);
        }
    }

    /// Self time (nanoseconds) and calls per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += s.dur_ns.saturating_sub(child);
            e.1 += s.calls;
        }
        out
    }

    /// Summed duration (children included) of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Write spans and counts as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{},\"calls\":{}}}",
                s.name,
                opt(s.job.map(u64::from)),
                opt(s.parent.map(|p| p as u64)),
                s.start_ns,
                s.dur_ns,
                s.calls
            )?;
        }
        for (k, v) in &self.counts {
            writeln!(w, "{{\"count\":\"{k}\",\"value\":{v}}}")?;
        }
        w.flush()
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Accumulates the host time of one layer inside a hot loop.
#[derive(Default, Clone, Copy)]
pub struct Acc {
    /// First call's start.
    pub first: Option<Instant>,
    /// Summed duration, nanoseconds.
    pub ns: u64,
    /// Calls.
    pub calls: u64,
}

impl Acc {
    /// Account one call that started at `t0` and ended at `t1`.
    pub fn add(&mut self, t0: Instant, t1: Instant) {
        self.first.get_or_insert(t0);
        self.ns += ns_between(t0, t1);
        self.calls += 1;
    }

    /// Record as a span named `name` under the recorder's open span.
    pub fn flush(&self, rec: &mut Recorder, name: &'static str) {
        rec.add(name, self.first, self.ns, self.calls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut r = Recorder::new(origin);
        r.span("a.outer", |r| {
            r.add("b.inner", Some(origin), 40, 3);
        });
        let outer = r.spans[0].dur_ns;
        let t = r.self_times();
        assert_eq!(t["b.inner"], (40, 3));
        assert_eq!(t["a.outer"].0, outer.saturating_sub(40));
    }

    #[test]
    fn merge_rebases_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        a.span("x.a", |_| {});
        let mut b = Recorder::new(origin);
        b.job(7, |r| r.span("x.b", |_| {}));
        b.count("n", 2);
        a.merge(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[2].job, Some(7));
        assert_eq!(a.counts["n"], 2);
    }
}
