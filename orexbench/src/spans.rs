//! Benchmark-side spans for the traced run.
//!
//! Every call the benchmark makes into a crate's public function during
//! a replay is wrapped in a span tagged with the id of the operation it
//! replays. Spans stay in memory and are written out once the run ends;
//! a layer's self time is its span minus its direct child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Operation the span belongs to.
    pub op: u64,
    /// Layer name, e.g. `graph.weights`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Numeric attributes (iteration counts, sizes, reported times).
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Value of attribute `key`.
    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Where one operation's replayed time went; see [`Spans::op_breakdown`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Top-level spans other than `layers.*`.
    pub program_ns: u64,
    /// Top-level `core.*` spans.
    pub core_ns: u64,
    /// Direct children of top-level `layers.*` spans.
    pub layers_ns: u64,
}

/// In-memory span recorder with a stack for nesting.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Tags spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`; spans `f` opens nest under it
    /// and [`Spans::attr`] calls inside `f` land on it.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let index = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.stack.last().copied(),
            start_ns: self.ns(start),
            end_ns: 0,
            attrs: Vec::new(),
        });
        self.stack.push(index);
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.spans[index].end_ns = self.ns(end);
        out
    }

    /// Records a span timed by the caller (a live call the benchmark
    /// made as the program's user) under the current parent.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            op: self.op,
            name,
            parent: self.stack.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            attrs: Vec::new(),
        };
        self.spans.push(span);
    }

    /// Sets an attribute on the innermost open span.
    pub fn attr(&mut self, key: &'static str, value: f64) {
        if let Some(&i) = self.stack.last() {
            self.spans[i].attrs.push((key, value));
        }
    }

    /// Appends `other`'s spans, re-based onto this recorder's clock.
    pub fn extend(&mut self, other: &Spans) {
        let base = self.spans.len();
        let shift = |t: u64| {
            let abs = other.epoch + std::time::Duration::from_nanos(t);
            self.ns(abs)
        };
        let moved: Vec<Span> = other
            .spans
            .iter()
            .map(|s| Span {
                parent: s.parent.map(|p| p + base),
                start_ns: shift(s.start_ns),
                end_ns: shift(s.end_ns),
                ..s.clone()
            })
            .collect();
        self.spans.extend(moved);
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self times in microseconds, grouped by span name.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            out.entry(s.name).or_default().push(ns as f64 / 1e3);
        }
        out
    }

    /// Splits operation `op`'s top-level spans: the program's calls
    /// (everything but `layers.*` replays), the orex-core calls among
    /// them, and the layer calls inside the `layers.*` replays.
    pub fn op_breakdown(&self, op: u64) -> Breakdown {
        let mut b = Breakdown::default();
        let first = self
            .spans
            .iter()
            .rposition(|s| s.op != op)
            .map_or(0, |i| i + 1);
        for s in &self.spans[first..] {
            match s.parent {
                None if s.name.starts_with("layers.") => {}
                None => {
                    b.program_ns += s.dur_ns();
                    if s.name.starts_with("core.") {
                        b.core_ns += s.dur_ns();
                    }
                }
                Some(p)
                    if self.spans[p].parent.is_none()
                        && self.spans[p].name.starts_with("layers.") =>
                {
                    b.layers_ns += s.dur_ns();
                }
                Some(_) => {}
            }
        }
        b
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let mut attrs = serde_json::Map::new();
            for &(k, v) in &s.attrs {
                attrs.insert(k.to_string(), serde_json::Value::from(v));
            }
            let line = serde_json::json!({
                "id": i as u64,
                "op": s.op,
                "name": s.name,
                "parent": s.parent.map_or(serde_json::Value::Null, |p| serde_json::Value::from(p as u64)),
                "start_ns": s.start_ns,
                "dur_ns": s.dur_ns(),
                "self_ns": self_ns,
                "attrs": serde_json::Value::Object(attrs),
            });
            writeln!(out, "{}", serde_json::to_string(&line).unwrap_or_default())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::new();
        s.set_op(4);
        s.scope("outer", |s| {
            spin(200);
            s.scope("mid", |s| {
                s.scope("inner", |_| spin(300));
                s.attr("k", 2.0);
            });
        });
        let spans = s.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|x| x.op == 4));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].attr("k"), Some(2.0));
        let selfs = s.self_ns();
        assert_eq!(selfs[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(selfs[1], spans[1].dur_ns() - spans[2].dur_ns());
        assert_eq!(selfs[2], spans[2].dur_ns());
        assert!(selfs[0] >= 200_000 && selfs[2] >= 300_000);
    }

    #[test]
    fn breakdown_separates_program_core_and_layer_time() {
        let mut s = Spans::new();
        s.set_op(1);
        s.scope("core.resume", |_| spin(10));
        s.set_op(2);
        s.scope("server.http.parse", |_| spin(10));
        s.scope("core.feedback", |_| spin(50));
        s.scope("layers.feedback", |s| {
            s.scope("graph.weights", |s| s.scope("inner", |_| spin(10)));
            s.scope("authority.power", |_| spin(20));
        });
        let d = |name: &str| {
            s.spans()
                .iter()
                .filter(|x| x.op == 2 && x.name == name)
                .map(Span::dur_ns)
                .sum::<u64>()
        };
        let b = s.op_breakdown(2);
        assert_eq!(b.program_ns, d("server.http.parse") + d("core.feedback"));
        assert_eq!(b.core_ns, d("core.feedback"));
        assert_eq!(b.layers_ns, d("graph.weights") + d("authority.power"));
    }
}
