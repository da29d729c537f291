//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.stage`), a start and end relative to the run's
//! epoch, the span that caused it and the item it belongs to.  Spans stay
//! in memory until the run ends; [`Tracer::write_jsonl`] writes them out.
//! A span's *self time* is its duration minus the part of it that its
//! children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.stage`, e.g. `mcu.exec`; roots are named `item`.
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the causing span in the same list.
    pub parent: Option<usize>,
    /// The workload item the span belongs to.
    pub item: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder timing against `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// An empty recorder sharing this one's epoch (one per thread).
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.epoch)
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, item: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            item,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a child span of `parent`.
    pub fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let item = self.spans[parent].item;
        let id = self.begin(name, item, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// Append another recorder's spans (same epoch), keeping their links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"item\":{}}}",
                s.name, s.start_ns, s.end_ns, s.item
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                }
                reach = reach.max(end);
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per stage name: (span count, total self time in ns), roots excluded.
pub fn by_stage(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut table = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.parent.is_some() {
            let row = table.entry(s.name).or_insert((0, 0));
            row.0 += 1;
            row.1 += own;
        }
    }
    table
}

/// Share of root-span time that child stages account for.
pub fn coverage(spans: &[Span]) -> f64 {
    let (mut covered, mut total) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.parent.is_none() {
            total += s.duration_ns();
            covered += s.duration_ns() - own;
        }
    }
    crate::stats::ratio(covered as f64, total as f64)
}

/// The layer of a stage name: the text before its first dot.
pub fn layer(stage: &str) -> &str {
    stage.split('.').next().unwrap_or(stage)
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
            item: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("item", 0, 100, None),
            span("mcu.exec", 10, 40, Some(0)),
            span("ilp.solve", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
        assert!((coverage(&spans) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("item", 10, 100, None),
            span("a.x", 0, 30, Some(0)),
            span("a.y", 20, 50, Some(0)),
            span("a.z", 90, 120, Some(0)),
        ];
        // Union of [10,30], [20,50], [90,100] inside [10,100] is 50 ns.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        let spans = vec![
            span("item", 0, 100, None),
            span("core.session", 0, 60, Some(0)),
            span("core.model.build", 10, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 20]);
        let table = by_stage(&spans);
        assert_eq!(table["core.session"], (1, 40));
        assert_eq!(table["core.model.build"], (1, 20));
        assert!(!table.contains_key("item"));
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.begin("item", 1, None);
        a.span("mcu.exec", root, || ());
        a.end(root);
        let mut b = Tracer::new(epoch);
        let root_b = b.begin("item", 2, None);
        b.span("ilp.solve", root_b, || ());
        b.end(root_b);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].item, 2);
    }

    #[test]
    fn layers_are_name_prefixes() {
        assert_eq!(layer("core.params.extract"), "core");
        assert_eq!(layer("item"), "item");
    }
}
