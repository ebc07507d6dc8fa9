//! Spans recorded by the benchmark's own code, around its calls into the
//! program. They stay in memory and are written out once, when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The span that caused this one; `None` for an op's root span.
    pub parent: Option<SpanId>,
    /// Shared by every span of one op.
    pub op: u64,
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// True when start and end were laid out from durations the program
    /// reported (it exposes phase walls but not phase start times), not
    /// read from a clock at the boundary.
    pub synthetic: bool,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A tracer on the same clock, for another thread to fill.
    pub fn sibling(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    /// Append a sibling's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// Record a span from clock readings at its boundary; `parent` is
    /// `None` for an op's root.
    pub fn span(
        &mut self,
        parent: Option<SpanId>,
        name: &str,
        op: u64,
        start: Instant,
        wall: Duration,
    ) -> SpanId {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            parent,
            op,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + wall.as_nanos() as u64,
            synthetic: false,
        });
        self.spans.len() - 1
    }

    /// Set the end of a span that was opened before its children ran.
    pub fn close(&mut self, id: SpanId, wall: Duration) {
        let span = &mut self.spans[id];
        span.end_ns = span.start_ns + wall.as_nanos() as u64;
    }

    /// Lay `phases` out end to end from the parent's start, in the order
    /// given, as synthetic children. Together they cover at most `limit`,
    /// and no child extends past its parent.
    pub fn synthetic_children(
        &mut self,
        parent: SpanId,
        phases: &[(&str, Duration)],
        limit: Duration,
    ) {
        let (op, mut cursor, end) = {
            let p = &self.spans[parent];
            (
                p.op,
                p.start_ns,
                p.end_ns.min(p.start_ns + limit.as_nanos() as u64),
            )
        };
        for &(name, wall) in phases {
            let stop = (cursor + wall.as_nanos() as u64).min(end);
            self.spans.push(Span {
                parent: Some(parent),
                op,
                name: name.to_string(),
                start_ns: cursor,
                end_ns: stop,
                synthetic: true,
            });
            cursor = stop;
        }
    }

    /// Every span's self time: its duration minus the part of it that its
    /// children cover, overlaps counted once.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        let mut covers: Vec<(SpanId, u64, u64)> = self
            .spans
            .iter()
            .filter_map(|s| {
                let parent = s.parent?;
                let p = &self.spans[parent];
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                (a < b).then_some((parent, a, b))
            })
            .collect();
        covers.sort_unstable();
        // Sweep each parent's children in start order; `reach` is how far
        // the cover already extends.
        let (mut current, mut reach) = (usize::MAX, 0);
        for (parent, a, b) in covers {
            if parent != current {
                (current, reach) = (parent, 0);
            }
            let from = a.max(reach);
            if b > from {
                own[parent] -= b - from;
                reach = b;
            }
        }
        own
    }

    /// One JSON object: `{"workload": .., "spans": [..]}`.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"synthetic\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.synthetic
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }

    pub fn write(&self, dir: &Path, workload: &str) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("trace-{workload}.json")),
            self.to_json(workload),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with_root(wall_ns: u64) -> (Tracer, SpanId) {
        let mut t = Tracer::new();
        let start = t.epoch + Duration::from_nanos(1_000);
        let root = t.span(None, "release", 7, start, Duration::from_nanos(wall_ns));
        (t, root)
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let (mut t, root) = tracer_with_root(1_000);
        let ms = Duration::from_nanos;
        t.synthetic_children(root, &[("input", ms(300)), ("compute", ms(450))], ms(1_000));
        assert_eq!(t.self_times_ns()[root], 250);
        // Children share the op id, chain end to end and are flagged.
        let kids: Vec<&Span> = t
            .spans()
            .iter()
            .filter(|s| s.parent == Some(root))
            .collect();
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|s| s.op == 7 && s.synthetic));
        assert_eq!(kids[0].end_ns, kids[1].start_ns);
        // A leaf's self time is its whole duration.
        assert_eq!(t.self_times_ns()[root + 1], 300);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let (mut t, root) = tracer_with_root(1_000);
        let base = t.spans[root].start_ns;
        for (a, b) in [(0, 400), (200, 600), (900, 1_500)] {
            t.spans.push(Span {
                parent: Some(root),
                op: 7,
                name: "probe".to_string(),
                start_ns: base + a,
                end_ns: base + b,
                synthetic: false,
            });
        }
        // Cover is [0,600) and [900,1000): 700 of 1000.
        assert_eq!(t.self_times_ns()[root], 300);
    }

    #[test]
    fn phases_plus_unattributed_equal_the_wall() {
        let (mut t, root) = tracer_with_root(10_000);
        let phases = [
            ("quantize", 1_200),
            ("input", 3_400),
            ("compute", 2_100),
            ("open", 900),
        ];
        let laid: Vec<(&str, Duration)> = phases
            .iter()
            .map(|&(n, ns)| (n, Duration::from_nanos(ns)))
            .collect();
        t.synthetic_children(root, &laid, Duration::from_nanos(10_000));
        let sum: u64 = phases.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(sum + t.self_times_ns()[root], 10_000);
        // Per-phase walls are maxima over parties and can sum to more than
        // the protocol's own wall: the children stop there, and what is
        // left of the caller's wall is the root's self time.
        let (mut t, root) = tracer_with_root(10_000);
        t.synthetic_children(root, &laid, Duration::from_nanos(7_000));
        let laid_out: u64 = t.spans()[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!((laid_out, t.self_times_ns()[root]), (7_000, 3_000));
        // Nor may they overrun the caller's wall.
        let (mut t, root) = tracer_with_root(5_000);
        t.synthetic_children(root, &laid, Duration::from_nanos(7_000));
        assert_eq!(t.self_times_ns()[root], 0);
    }

    #[test]
    fn json_lists_every_span() {
        let (mut t, root) = tracer_with_root(1_000);
        let ten = Duration::from_nanos(10);
        t.synthetic_children(root, &[("open", ten)], ten);
        let json = sqm::obs::json::parse(&t.to_json("cov_wide")).expect("valid JSON");
        let spans = json.get("spans").and_then(|s| s.as_arr()).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(
            spans[1].get("synthetic").and_then(|p| p.as_bool()),
            Some(true)
        );
    }
}
