//! Spans recorded by the benchmark around its calls into the crates.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`; the spans of one
//! op (or one served request) share `op_id`. They are kept in memory and
//! written out once, at exit. A span's self time is its duration minus
//! the part of it that its child spans cover.

use std::time::Instant;

use wino_probe::Json;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    pub op_id: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with [`Self::exit`].
    pub fn enter(&mut self, name: &'static str, op_id: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Record a span whose interval was measured elsewhere (the serve
    /// spans are rebuilt from each `ServeReport`).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    /// Duration (ms) of every span called `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.into())),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op_id".into(), Json::Num(s.op_id as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span, in nanoseconds: its duration minus the union
/// of its children's intervals, each clipped to the span itself.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}

/// For each op, the summed self time (ms) of its spans called `name`, in
/// op order. An op with several such spans (one per network layer)
/// contributes their sum.
pub fn self_ms_per_op(spans: &[Span], selfs: &[u64], name: &str) -> Vec<f64> {
    let mut per_op = std::collections::BTreeMap::new();
    for (s, &ns) in spans.iter().zip(selfs) {
        if s.name == name {
            *per_op.entry(s.op_id).or_insert(0.0) += ns as f64 / 1e6;
        }
    }
    per_op.into_values().collect()
}
