//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call into a layer, from its
//! own files; nothing inside the crates is instrumented. Spans stay in
//! memory and are written once, when the run ends.

use polymath::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `parent` is the span that was open when this one
/// started; spans of one operation share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[derive(Debug)]
#[must_use = "close the span"]
pub struct Open(u32);

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, op_id: u32) -> Open {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op_id });
        Open(id)
    }

    /// Closes `span` and any span still open inside it (an error return
    /// skips the inner closes); returns its duration in milliseconds.
    pub fn close(&mut self, span: Open) -> f64 {
        let end_ns = self.now_ns();
        while let Some(id) = self.stack.pop() {
            self.spans[id as usize].end_ns = end_ns;
            if id == span.0 {
                break;
            }
        }
        self.spans[span.0 as usize].ms()
    }

    /// Times `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, op_id: u32, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, op_id);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Renders the trace file: every span, and per span name the count,
    /// total time and total self time.
    pub fn to_json(&self, header: Vec<(String, Json)>) -> Json {
        let own = self.self_ns();
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(&own) {
            let row = by_name.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.end_ns - s.start_ns;
            row.2 += own_ns;
        }
        let num = |v: u64| Json::Num(v as f64);
        let summary = by_name.into_iter().map(|(name, (count, total, own))| {
            let row = vec![
                ("count".to_string(), num(count)),
                ("total_ns".to_string(), num(total)),
                ("self_ns".to_string(), num(own)),
            ];
            (name.to_string(), Json::Obj(row))
        });
        let spans = self.spans.iter().zip(&own).map(|(s, own_ns)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), num(s.start_ns)),
                ("end_ns".into(), num(s.end_ns)),
                ("parent".into(), s.parent.map_or(Json::Null, |p| num(u64::from(p)))),
                ("op_id".into(), num(u64::from(s.op_id))),
                ("self_ns".into(), num(*own_ns)),
            ])
        });
        let mut doc = header;
        doc.push(("by_name".into(), Json::Obj(summary.collect())));
        doc.push(("spans".into(), Json::Arr(spans.collect())));
        Json::Obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::default();
        let outer = t.open("outer", 7);
        t.leaf("inner", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.leaf("inner", 7, || ());
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (None, Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.op_id == 7 && s.end_ns >= s.start_ns));
        let own = t.self_ns();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert_eq!(own[1], dur(1));
        assert!(dur(1) >= 2_000_000);

        let doc = t.to_json(vec![("workload".into(), Json::Str("t".into()))]);
        let inner = doc.get("by_name").and_then(|b| b.get("inner")).unwrap();
        assert_eq!(inner.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("spans").and_then(Json::as_array).unwrap().len(), 3);
        assert!(Json::parse(&doc.render()).is_ok());
    }
}
