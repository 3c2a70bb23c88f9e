//! In-memory span recording for the traced run.
//!
//! Spans are opened by the benchmark's own code around its calls into
//! each crate's public functions; the program itself is not
//! instrumented. A span's name is `<layer>.<operation>` (`storage.open`,
//! `core.build_stream`, ...), so per-layer self time is a group-by on
//! the prefix. Spans are kept in memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer recording iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval (for timings taken on
    /// another thread, such as a wire client's request) under `parent`,
    /// returning its index. Instants before the tracer's epoch clamp to it.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: u64,
        parent: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                parent,
                request,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its children (overlapping children count once,
/// and a child running past its parent is clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("bench.request", 0, 100, None),
            span("storage.open", 10, 30, Some(0)),
            span("core.build_stream", 40, 90, Some(0)),
            // Grandchild: charged against its parent, not the root.
            span("runtime.discover", 50, 70, Some(2)),
            // Overlaps its sibling: the covered interval counts once.
            span("core.first_match", 80, 95, Some(0)),
        ];
        let st = self_times_ns(&spans);
        // Root: 100 - union([10,30], [40,90], [80,95]) = 100 - 75.
        assert_eq!(st, vec![25, 20, 30, 20, 15]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["bench"], 25);
        assert_eq!(by_layer["storage"], 20);
        assert_eq!(by_layer["core"], 45);
        assert_eq!(by_layer["runtime"], 20);
    }

    #[test]
    fn children_past_the_parent_are_clipped() {
        let spans = vec![
            span("bench.request", 0, 50, None),
            span("net.wire", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 40]);
    }

    #[test]
    fn tracer_nests_and_stamps_requests() {
        let mut t = Tracer::new(true);
        t.set_request(7);
        let v = t.span("bench.request", |t| {
            t.span("storage.open", |_| ());
            t.span("core.drain", |t| t.span("core.inner", |_| 3))
        });
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.request == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("storage.open", |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
