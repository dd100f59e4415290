//! Spans recorded from the benchmark's own files, around its calls into
//! each layer. They stay in a `Vec` until the run ends and are then written
//! as Chrome trace-event JSON; nothing inside the program under test is
//! instrumented (that is a later change).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub parent: SpanId,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
    /// Free-form `key=value` annotations (tenant, outcome, counter diffs).
    pub args: Vec<(String, String)>,
}

/// In-memory span recorder. A disabled tracer records nothing and its
/// calls cost one branch, so the untraced runs that produce the
/// end-to-end metrics execute the same code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn host_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span at host-now / simulated `sim_ns`.
    pub fn begin(&self, name: &str, layer: &'static str, parent: SpanId, sim_ns: u64) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.host_ns();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.to_string(),
            layer,
            parent,
            host_start_ns: now,
            host_end_ns: now,
            sim_start_ns: sim_ns,
            sim_end_ns: sim_ns,
            args: Vec::new(),
        });
        (spans.len() - 1) as SpanId
    }

    /// Close a span, attaching `args`.
    pub fn end(&self, id: SpanId, sim_ns: u64, args: Vec<(String, String)>) {
        if !self.enabled || id == NO_PARENT {
            return;
        }
        let now = self.host_ns();
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[id as usize];
        s.host_end_ns = now;
        s.sim_end_ns = sim_ns;
        s.args = args;
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

/// Length of `[start, end)` not covered by the union of `children`
/// (each clipped to the parent): a layer's self time.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// Host and simulated self time of every span, in span order.
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut host_kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut sim_kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            host_kids[s.parent as usize].push((s.host_start_ns, s.host_end_ns));
            sim_kids[s.parent as usize].push((s.sim_start_ns, s.sim_end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (
                self_time(s.host_start_ns, s.host_end_ns, &host_kids[i]),
                self_time(s.sim_start_ns, s.sim_end_ns, &sim_kids[i]),
            )
        })
        .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One Chrome trace event (`ph: "X"`) per span, one per line, without the
/// enclosing array: the parent process concatenates the children's files
/// into `trace.json`. `pid` is the workload id; `ts`/`dur` are host
/// microseconds, simulated times ride in `args`.
pub fn chrome_events(spans: &[Span], workload: &str, pid: u32) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let mut args = format!(
            "\"id\":{i},\"parent\":{},\"workload\":{},\"sim_start_ns\":{},\"sim_end_ns\":{},\"host_self_ns\":{},\"sim_self_ns\":{}",
            if s.parent == NO_PARENT { -1 } else { s.parent as i64 },
            json_str(workload),
            s.sim_start_ns,
            s.sim_end_ns,
            selfs[i].0,
            selfs[i].1,
        );
        for (k, v) in &s.args {
            let _ = write!(args, ",{}:{}", json_str(k), json_str(v));
        }
        let _ = writeln!(
            out,
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
            json_str(&s.name),
            json_str(s.layer),
            s.host_start_ns as f64 / 1e3,
            (s.host_end_ns - s.host_start_ns) as f64 / 1e3,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn childless_span_is_all_self_time() {
        assert_eq!(self_time(100, 350, &[]), 250);
    }

    #[test]
    fn nested_children_subtract_once() {
        // two disjoint children inside the parent
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 90)]), 40);
        // a child nested in its sibling adds nothing
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 40)]), 50);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        assert_eq!(self_time(0, 100, &[(10, 50), (40, 80)]), 30);
        // children reaching outside the parent are clipped to it
        assert_eq!(self_time(20, 100, &[(0, 30), (90, 150)]), 60);
        // full cover leaves nothing
        assert_eq!(self_time(0, 10, &[(0, 6), (5, 10)]), 0);
    }

    #[test]
    fn self_times_follow_parent_links_in_both_clocks() {
        let t = Tracer::new(true);
        let root = t.begin("window", "bench", NO_PARENT, 0);
        let a = t.begin("req", "core", root, 10);
        t.end(a, 40, vec![("outcome".into(), "ok".into())]);
        let b = t.begin("req", "core", root, 30);
        t.end(b, 70, Vec::new());
        t.end(root, 100, Vec::new());
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        let selfs = self_times(&spans);
        // simulated: 100 − |[10,40) ∪ [30,70)| = 40
        assert_eq!(selfs[root as usize].1, 40);
        assert_eq!(selfs[a as usize].1, 30);
        let json = chrome_events(&spans, "w", 3);
        assert_eq!(json.lines().count(), 3);
        assert!(json.contains("\"outcome\":\"ok\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.begin("x", "bench", NO_PARENT, 0);
        t.end(id, 5, Vec::new());
        assert!(t.take().is_empty());
    }
}
