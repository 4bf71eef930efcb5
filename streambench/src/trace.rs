//! In-memory spans around the calls the harness makes into the system.
//!
//! Spans are recorded from the benchmark's own files only (stage stamps
//! inside the product are a later change), kept in plain vectors while the
//! workload runs, and written out once it has ended.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the merged list, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one request share this (the event's sequence number).
    pub request: u64,
}

/// One thread's span list. Recording is on only inside `[from_ns, to_ns)`,
/// so a traced run can leave part of its window untraced and measure what
/// the spans themselves cost.
#[derive(Debug)]
pub struct Recorder {
    spans: Vec<Span>,
    from_ns: u64,
    to_ns: u64,
    /// Parent given to this thread's top-level spans.
    root: u32,
}

impl Recorder {
    /// A recorder that drops everything (the untraced run).
    pub fn off() -> Self {
        Recorder {
            spans: Vec::new(),
            from_ns: u64::MAX,
            to_ns: 0,
            root: NO_PARENT,
        }
    }

    pub fn between(from_ns: u64, to_ns: u64, root: u32) -> Self {
        Recorder {
            spans: Vec::new(),
            from_ns,
            to_ns,
            root,
        }
    }

    /// Whether a span starting at `start_ns` would be kept.
    pub fn active(&self, start_ns: u64) -> bool {
        start_ns >= self.from_ns && start_ns < self.to_ns
    }

    /// Records a span under this thread's root, if recording is on at its
    /// start.
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, request: u64) {
        if self.active(start_ns) {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.root,
                request,
            });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's duration minus the part of it its child spans cover. Children
/// may overlap one another (two threads under one phase); covered time is
/// the union of their intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&(i as u32)) else {
                return duration;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            duration - covered
        })
        .collect()
}

/// Per span name: how many, their summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += self_ns;
    }
    out
}

/// Durations of every span called `name`, for percentile reporting.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect()
}

/// Most spans a trace file lists one by one; the per-name totals always
/// cover all of them.
const MAX_SPANS_WRITTEN: usize = 200_000;

/// The trace file: per-name totals, then the spans themselves.
pub fn to_json(workload: &str, spans: &[Span], extra: &[(String, String)]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"workload\":\"{workload}\"");
    for (k, v) in extra {
        let _ = write!(out, ",\"{k}\":{v}");
    }
    let _ = write!(out, ",\"span_count\":{},\"totals\":{{", spans.len());
    for (i, (name, t)) in totals_by_name(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    out.push_str("},\"spans\":[");
    for (i, s) in spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = write!(
            out,
            "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = [
            span("window", 0, 100, NO_PARENT),
            // Two overlapping children cover [10, 50), a third [60, 70), and
            // one sticks out past the parent's end.
            span("writer", 10, 40, 0),
            span("reader", 30, 50, 0),
            span("reader", 60, 70, 0),
            span("late", 90, 130, 0),
            // A grandchild only reduces its own parent.
            span("write_event", 12, 20, 1),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - (40 + 10 + 10));
        assert_eq!(selfs[1], 30 - 8);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[5], 8);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["reader"],
            NameTotals {
                count: 2,
                total_ns: 30,
                self_ns: 30
            }
        );
    }

    #[test]
    fn recorder_keeps_only_its_interval() {
        let mut r = Recorder::between(100, 200, 7);
        r.push("a", 99, 150, 1);
        r.push("a", 100, 250, 2);
        r.push("a", 200, 201, 3);
        let spans = r.into_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].request, spans[0].parent), (2, 7));
        let mut off = Recorder::off();
        off.push("a", 0, 1, 0);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn trace_file_is_one_json_object() {
        let spans = [span("window", 0, 10, NO_PARENT), span("x", 1, 2, 0)];
        let json = to_json("w", &spans, &[("seed".into(), "1".into())]);
        assert!(json.starts_with("{\"workload\":\"w\",\"seed\":1,\"span_count\":2"));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"parent\":0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
