//! Spans recorded by the benchmark's own code around calls into each
//! layer: name, start, end, parent span, request id. Kept in memory and
//! written as JSON lines when the run ends. A layer's self time is its
//! span minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifier of a span inside one [`Tracer`]; 0 means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    /// Request (or chunk, or pass) the span belongs to.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Count and times of all spans sharing one name.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`; tracers that will be
    /// merged must share one epoch.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        let now = self.now_ns();
        self.add(name, parent, req, now, now)
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Records a span timed by the caller.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
        });
        id
    }

    /// Moves another tracer's spans in, renumbering them (and their
    /// parent links) after this tracer's own.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            if s.parent != 0 {
                s.parent += offset;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self time: each span's duration minus the
    /// union of its children's intervals, clipped to the span.
    pub fn layer_stats(&self) -> BTreeMap<&'static str, LayerStat> {
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
            let stat = out.entry(s.name).or_default();
            stat.count += 1;
            stat.total_ns += total;
            stat.self_ns += total - covered;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let mut t = Tracer::new(Instant::now());
        let root = t.add("root", 0, 1, 0, 100);
        let mid = t.add("mid", root, 1, 10, 60);
        t.add("leaf", mid, 1, 20, 50);
        let s = t.layer_stats();
        // root loses only its direct child (50), mid loses the leaf (30).
        assert_eq!(s["root"].self_ns, 50);
        assert_eq!(s["mid"].self_ns, 20);
        assert_eq!(s["leaf"].self_ns, 30);
        assert_eq!(s["root"].total_ns, 100);
    }

    #[test]
    fn overlapping_children_are_counted_as_their_union() {
        let mut t = Tracer::new(Instant::now());
        let root = t.add("root", 0, 7, 0, 100);
        t.add("a", root, 7, 10, 50);
        t.add("b", root, 7, 30, 70); // overlaps a by 20
        t.add("b", root, 7, 90, 120); // sticks out of the parent by 20
        let s = t.layer_stats();
        // union = [10, 70] + [90, 100] = 70
        assert_eq!(s["root"].self_ns, 30);
        assert_eq!(s["b"].count, 2);
        assert_eq!(s["b"].total_ns, 70);
    }

    #[test]
    fn absorb_keeps_parent_links_pointing_at_the_same_spans() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.add("x", 0, 0, 0, 10);
        let mut b = Tracer::new(epoch);
        let r = b.add("root", 0, 1, 0, 100);
        b.add("child", r, 1, 0, 40);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, a.spans()[1].id);
        assert_eq!(a.layer_stats()["root"].self_ns, 60);
    }
}
