//! In-memory spans recorded around calls into the program's crates.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! made), the span that was open when it started, the phase of the run
//! it belongs to, and a unit count of work (records, examples, models…)
//! that per-layer metrics divide by. A disabled tracer records nothing,
//! so the untraced run pays one branch per call site and nothing more.

use std::io::Write;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub phase: Phase,
    pub work: u64,
}

/// The part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup,
    /// The measured rounds, and counts taken from their outputs.
    Run,
    /// Work only the traced run does after the measured rounds, for
    /// layers the rounds do not exercise (solo lane passes and the
    /// like).
    Probe,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Run => "run",
            Phase::Probe => "probe",
        }
    }
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Tracer::close`].
#[must_use = "an open span must be closed"]
pub struct Open(Option<usize>);

/// Records spans when enabled; does nothing when disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    phase: Phase,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            phase: Phase::Setup,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Opens a span named `name`, nested under the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            phase: self.phase,
            work: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `span` with `work` units done inside it.
    ///
    /// # Panics
    ///
    /// Panics if `span` is not the innermost open span.
    pub fn close(&mut self, span: Open, work: u64) {
        let Some(id) = span.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        let end_ns = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.work = work;
    }

    /// Runs `f` inside a span whose work count is `f`'s second result.
    pub fn timed<T>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Self) -> (T, u64),
    ) -> T {
        let span = self.open(name);
        let (out, work) = f(self);
        self.close(span, work);
        out
    }

    /// Records a count as a span of no duration.
    pub fn note(&mut self, name: impl Into<String>, count: u64) {
        let span = self.open(name);
        if let Some(id) = span.0 {
            self.spans[id].end_ns = self.spans[id].start_ns;
            self.spans[id].work = count;
            self.stack.pop();
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and work of the spans named `name`: those of the
    /// set-up and the measured rounds when there are any, else those of
    /// the probe. `None` when no span has the name.
    pub fn layer(&self, name: &str) -> Option<(u64, u64)> {
        let sum = |probe: bool| {
            self.spans.iter().filter(|s| s.name == name && (s.phase == Phase::Probe) == probe).fold(
                None,
                |acc: Option<(u64, u64)>, s| {
                    let (ns, work) = acc.unwrap_or((0, 0));
                    Some((ns + s.duration_ns(), work + s.work))
                },
            )
        };
        sum(false).or_else(|| sum(true))
    }

    /// Writes every span as one tab-separated line:
    /// `id parent phase name start_ns end_ns work` (`-` for no parent).
    pub fn write_tsv(&self, mut out: impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\tphase\tname\tstart_ns\tend_ns\twork")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.phase.name(),
                s.name,
                s.start_ns,
                s.end_ns,
                s.work
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_work() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer");
        t.timed("inner", |_| ((), 7));
        t.close(outer, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(t.layer("inner").map(|(_, work)| work), Some(7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn layers_prefer_measured_spans_over_probe_spans() {
        let mut t = Tracer::new(true);
        t.set_phase(Phase::Probe);
        t.note("a", 5);
        t.note("b", 9);
        t.set_phase(Phase::Run);
        t.note("a", 2);
        assert_eq!(t.layer("a"), Some((0, 2)));
        assert_eq!(t.layer("b"), Some((0, 9)));
        assert_eq!(t.layer("c"), None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("x");
        t.close(s, 1);
        assert!(t.spans().is_empty());
    }
}
