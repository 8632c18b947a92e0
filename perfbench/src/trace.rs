//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around the
//! calls it makes into each crate. A span is named `<layer>.<what>`
//! (`core.dot`, `metrics.render`, ...); its layer is the part before
//! the first dot. Spans are kept in memory and written out once, when
//! the run ends. With tracing off ([`Trace::off`]) nothing is recorded
//! and [`Trace::span`] is a plain call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifier of a recorded span; [`NO_SPAN`] is the parent of roots.
pub(crate) type SpanId = u64;

/// Parent id of a root span, and the id every span gets with tracing off.
pub(crate) const NO_SPAN: SpanId = 0;

/// One finished span. Times are seconds since the recorder was created.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    pub(crate) id: SpanId,
    pub(crate) parent: SpanId,
    pub(crate) name: &'static str,
    pub(crate) start_s: f64,
    pub(crate) end_s: f64,
}

impl Span {
    pub(crate) fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }

    pub(crate) fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A cheaply clonable handle to a span recorder, or to nothing.
#[derive(Clone)]
pub(crate) struct Trace(Option<Arc<Recorder>>);

impl Trace {
    /// Tracing off: spans run their closure and record nothing.
    pub(crate) fn off() -> Self {
        Self(None)
    }

    /// Tracing on, with a fresh, empty recorder.
    pub(crate) fn on() -> Self {
        Self(Some(Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(NO_SPAN + 1),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// Run `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id, to pass to the spans it causes.
    pub(crate) fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let Some(rec) = &self.0 else {
            return f(NO_SPAN);
        };
        // Relaxed: the counter only hands out unique ids.
        let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            name,
            start_s: start.duration_since(rec.epoch).as_secs_f64(),
            end_s: end.duration_since(rec.epoch).as_secs_f64(),
        };
        rec.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// Remove and return every span recorded so far, in start order.
    pub(crate) fn take(&self) -> Vec<Span> {
        let Some(rec) = &self.0 else {
            return Vec::new();
        };
        let mut spans = std::mem::take(&mut *rec.spans.lock().expect("span list poisoned"));
        spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        spans
    }
}

/// Summed duration of every span named `name`.
pub(crate) fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum()
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children covers. Children that run in
/// parallel (pool jobs on several workers) are merged, not summed.
pub(crate) fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_s, s.end_s));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(f64, f64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_s), b.min(s.end_s)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = f64::NEG_INFINITY;
            for (a, b) in kids {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

/// Summed self time of every span of `layer`.
pub(crate) fn layer_self(spans: &[Span], selfs: &[f64], layer: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.layer() == layer)
        .map(|(_, t)| t)
        .sum()
}

/// The spans as one JSON array, for the trace file.
pub(crate) fn to_json(spans: &[Span]) -> fblas_metrics::Json {
    use fblas_metrics::Json;
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("id", Json::Num(s.id as f64))
                    .with("parent", Json::Num(s.parent as f64))
                    .with("name", Json::Str(s.name.to_string()))
                    .with("start_s", Json::Num(s.start_s))
                    .with("end_s", Json::Num(s.end_s))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start_s: f64, end_s: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        let spans = vec![
            span(1, NO_SPAN, "pass", 0.0, 10.0),
            span(2, 1, "bench.pool", 1.0, 9.0),
            span(3, 2, "core.dot", 1.0, 6.0),
            span(4, 2, "core.dot", 2.0, 8.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 2.0).abs() < 1e-12);
        assert!((selfs[1] - 1.0).abs() < 1e-12);
        assert!((total(&spans, "core.dot") - 11.0).abs() < 1e-12);
        assert!((layer_self(&spans, &selfs, "core") - 11.0).abs() < 1e-12);
    }

    #[test]
    fn off_records_nothing() {
        let t = Trace::off();
        assert_eq!(t.span("core.dot", NO_SPAN, |id| id), NO_SPAN);
        assert!(t.take().is_empty());
        let on = Trace::on();
        let inner = on.span("pass", NO_SPAN, |root| on.span("core.dot", root, |id| id));
        let spans = on.take();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.id == inner && s.parent != NO_SPAN));
    }
}
