//! In-memory spans recorded around the benchmark's calls into the
//! program's public functions.
//!
//! A span holds a name, start and end (ns since the tracer's origin),
//! its parent span and the workload-run id it belongs to. A span
//! marked `remeasured` times a layer that normally runs inside another
//! public call (the build inside `elaborate`, the inverse inside the
//! build, a job's compute inside the daemon) by calling that layer's
//! public function again on the same input; it is never a child.
//! Spans stay in memory and are written once, when the run ends.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
    pub remeasured: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. A disabled tracer records nothing, so the untraced
/// runs that give the end-to-end numbers share the traced code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Starts a new workload-run id (one per timed operation).
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        self.open_span(name, false);
    }

    /// Opens a re-measured span: a layer timed again, outside the call
    /// that normally runs it.
    pub fn enter_remeasured(&mut self, name: &'static str) {
        self.open_span(name, true);
    }

    fn open_span(&mut self, name: &'static str, remeasured: bool) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: if remeasured {
                None
            } else {
                self.open.last().copied()
            },
            run: self.run,
            remeasured,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = end;
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Takes another tracer's spans (e.g. a client thread's), keeping
    /// their parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (s) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_secs(&self, idx: usize) -> f64 {
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = 0u64;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        self.spans[idx].secs() - covered as f64 * 1e-9
    }

    /// Writes every span as one JSON line to standard error.
    pub fn write(&self, workload: &str) {
        use std::io::Write as _;
        let mut err = std::io::stderr().lock();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                err,
                "{{\"span\":{i},\"workload\":\"{workload}\",\"run\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"remeasured\":{},\"self_s\":{}}}",
                s.run,
                s.name,
                s.start_ns,
                s.end_ns,
                s.remeasured,
                self.self_secs(i)
            );
        }
    }
}
