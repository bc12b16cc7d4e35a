//! Benchmark-owned spans around the calls into each layer.
//!
//! The traced run wraps every library call it makes in a span — name,
//! start, end, the span that caused it, and the job it belongs to (the
//! job-key hash) — keeps them in memory, and writes them out once at
//! the end. Nothing inside the program is instrumented; spans live in
//! the benchmark's own files only.

use std::time::Instant;
use valley_sim::json::Json;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one job (the job-key hash).
    pub job: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread of work.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is currently open.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of it its child
/// spans cover. Children of one parent never overlap (one thread, strict
/// nesting), so the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Total duration and self time per span name, in first-seen order.
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let own = self_times_ns(spans);
    let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
    for (s, own_ns) in spans.iter().zip(own) {
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += s.duration_ns();
                row.2 += own_ns;
            }
            None => out.push((s.name, s.duration_ns(), own_ns)),
        }
    }
    out
}

/// The spans as one JSON document (an array of span objects plus the
/// per-name totals), for `out/trace_<workload>.json`.
pub fn to_json(spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    let rows = spans
        .iter()
        .zip(&own)
        .map(|(s, &own_ns)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::UInt(s.start_ns)),
                ("end_ns".into(), Json::UInt(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("job".into(), Json::Str(format!("{:016x}", s.job))),
                ("self_ns".into(), Json::UInt(own_ns)),
            ])
        })
        .collect();
    let totals = totals_by_name(spans)
        .into_iter()
        .map(|(name, total, own_ns)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("total_ns".into(), Json::UInt(total)),
                ("self_ns".into(), Json::UInt(own_ns)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("spans".into(), Json::Arr(rows)),
        ("totals".into(), Json::Arr(totals)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("job", 0, 100, None),
            span("sim.build", 10, 30, Some(0)),
            span("sim.run", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn totals_group_by_name_and_sum_to_root() {
        let spans = [
            span("job", 0, 100, None),
            span("sim.run", 10, 60, Some(0)),
            span("job", 100, 220, None),
            span("sim.run", 110, 200, Some(2)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals, vec![("job", 220, 80), ("sim.run", 140, 140)]);
        let self_sum: u64 = totals.iter().map(|t| t.2).sum();
        assert_eq!(self_sum, 220, "self times partition the root spans");
    }

    #[test]
    fn tracer_nests_and_orders() {
        let mut t = Tracer::new();
        t.span("job", 7, |t| {
            t.span("a", 7, |_| ());
            t.span("b", 7, |t| t.span("c", 7, |_| ()));
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("job", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        for s in t.spans() {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                assert!(t.spans()[p].start_ns <= s.start_ns && s.end_ns <= t.spans()[p].end_ns);
            }
        }
    }
}
