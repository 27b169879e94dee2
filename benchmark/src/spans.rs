//! In-memory spans recorded by the benchmark around each call into a
//! layer, and the self-time arithmetic over them.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Recorder`].
pub type SpanId = u32;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`; the layer is a crate name.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one; `None` for a pass's root.
    pub parent: Option<SpanId>,
    /// The measured pass the span belongs to.
    pub run_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one clock. Shared by the timing adaptors of
/// a pass through `&Recorder`; all of them run on the calling thread.
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Nanoseconds from the recorder's creation to `at`.
    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that ends at [`Recorder::close`]; children recorded
    /// meanwhile name it as their parent.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, run_id: u32) -> SpanId {
        let start_ns = self.ns(Instant::now());
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run_id,
        })
    }

    pub fn close(&self, id: SpanId) {
        let end_ns = self.ns(Instant::now());
        if let Some(span) = self.spans.borrow_mut().get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Records a finished span and returns its id.
    pub fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.borrow_mut();
        spans.push(span);
        SpanId::try_from(spans.len() - 1).expect("fewer than 2^32 spans per run")
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Where a traced pass hangs its spans: under `root`, in `rec`.
#[derive(Clone, Copy)]
pub struct TraceCtx<'a> {
    pub rec: &'a Recorder,
    pub root: SpanId,
    pub run_id: u32,
}

impl TraceCtx<'_> {
    /// Records a child of the root that ran from `start` to `end`.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        self.rec.push(Span {
            name,
            start_ns: self.rec.ns(start),
            end_ns: self.rec.ns(end),
            parent: Some(self.root),
            run_id: self.run_id,
        });
    }
}

/// A span's self time: its duration minus the part of it that its
/// direct children cover. Children run one after another on one
/// thread, so their clipped durations add without overlap.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let Some(parent) = spans.get(id as usize) else {
        return 0;
    };
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            end.saturating_sub(start)
        })
        .sum();
    parent.duration_ns().saturating_sub(covered)
}

/// Durations, in recording order, of the spans called `name`.
pub fn durations_ns<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = u64> + 'a {
    spans
        .iter()
        .filter(move |s| s.name == name)
        .map(Span::duration_ns)
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 4);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run_id\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.run_id
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("sim.run", 0, 1000, None),
            span("core.decide", 100, 400, Some(0)),
            span("trace.fill_chunk", 500, 600, Some(0)),
            // A grandchild must not be subtracted from the root twice.
            span("linalg.inner", 150, 250, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 1000 - 300 - 100);
        assert_eq!(self_time_ns(&spans, 1), 300 - 100);
        assert_eq!(self_time_ns(&spans, 2), 100);
        assert_eq!(self_time_ns(&spans, 9), 0);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [
            span("root", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 190, 260, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 10);
    }

    #[test]
    fn layers_and_self_add_up_to_the_root() {
        let spans = [
            span("sim.run", 0, 900, None),
            span("core.decide", 0, 300, Some(0)),
            span("core.observe", 300, 310, Some(0)),
            span("trace.fill_chunk", 400, 500, Some(0)),
        ];
        let children: u64 = ["core.decide", "core.observe", "trace.fill_chunk"]
            .iter()
            .map(|n| durations_ns(&spans, n).sum::<u64>())
            .sum();
        assert_eq!(children + self_time_ns(&spans, 0), spans[0].duration_ns());
    }

    #[test]
    fn recorder_links_children_to_the_open_span() {
        let rec = Recorder::new();
        let root = rec.open("root", None, 3);
        let ctx = TraceCtx {
            rec: &rec,
            root,
            run_id: 3,
        };
        let t0 = Instant::now();
        ctx.record("child", t0, Instant::now());
        rec.close(root);
        let spans = rec.into_spans();
        assert_eq!(spans[1].name, "child");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = to_json(&spans);
        assert!(json.contains("\"name\":\"root\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"parent\":0,\"run_id\":3"));
    }
}
