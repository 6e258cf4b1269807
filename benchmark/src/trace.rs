//! In-memory spans recorded from the benchmark's own call sites.
//!
//! Each span has a name, start, end, the span that was open on the same
//! thread when it began (its parent), and the round it belongs to. Spans
//! stay in memory until the run ends and are then written as Chrome-trace
//! JSON (`chrome://tracing`, Perfetto). A detached [`Trace`] records
//! nothing, so the timed rounds pay one `Option` check per call site.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub thread: u32,
    pub round: u32,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    next_thread: AtomicU32,
    round: AtomicU32,
}

thread_local! {
    /// The innermost open span on this thread.
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
    /// Small per-thread label for the trace file's `tid`.
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Handle to the span recorder; cheap to clone into generator threads.
#[derive(Debug, Clone, Default)]
pub struct Trace(Option<Arc<Inner>>);

impl Trace {
    /// A recorder that keeps nothing (the timed rounds).
    pub fn detached() -> Trace {
        Trace(None)
    }

    /// A recorder that keeps every span (the traced round).
    pub fn attached() -> Trace {
        Trace(Some(Arc::new(Inner {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            next_thread: AtomicU32::new(1),
            round: AtomicU32::new(0),
        })))
    }

    /// Stamps spans opened from now on with `round`.
    pub fn set_round(&self, round: u32) {
        if let Some(inner) = &self.0 {
            inner.round.store(round, Ordering::Relaxed);
        }
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.0 else {
            return SpanGuard(None);
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(Some(id)));
        let thread = THREAD.with(|t| match t.get() {
            Some(n) => n,
            None => {
                let n = inner.next_thread.fetch_add(1, Ordering::Relaxed);
                t.set(Some(n));
                n
            }
        });
        SpanGuard(Some(Open {
            inner: Arc::clone(inner),
            id,
            parent,
            name,
            thread,
            round: inner.round.load(Ordering::Relaxed),
            start: Instant::now(),
        }))
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        match &self.0 {
            Some(inner) => inner.spans.lock().expect("span list poisoned").clone(),
            None => Vec::new(),
        }
    }
}

#[derive(Debug)]
struct Open {
    inner: Arc<Inner>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    thread: u32,
    round: u32,
    start: Instant,
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard(Option<Open>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end = Instant::now();
        CURRENT.with(|c| c.set(open.parent));
        let us = |t: Instant| t.duration_since(open.inner.origin).as_secs_f64() * 1e6;
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            thread: open.thread,
            round: open.round,
            start_us: us(open.start),
            end_us: us(end),
        };
        // A poisoned list means another thread panicked mid-push; the run is
        // already failing, so dropping this span is the right loss.
        if let Ok(mut spans) = open.inner.spans.lock() {
            spans.push(span);
        };
    }
}

/// Per-name totals: count, total time, and self time (duration minus the
/// part of it covered by direct children).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_time.entry(p).or_default() += s.end_us - s.start_us;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_us - s.start_us;
        let own = (dur - child_time.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += own;
    }
    out
}

/// Chrome-trace document (`ph: "X"` complete events, microseconds).
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = Json::obj();
            args.set("id", s.id).set("round", u64::from(s.round));
            match s.parent {
                Some(p) => args.set("parent", p),
                None => args.set("parent", Json::Null),
            };
            let mut e = Json::obj();
            e.set("name", s.name)
                .set("ph", "X")
                .set("ts", s.start_us)
                .set("dur", s.end_us - s.start_us)
                .set("pid", 1u64)
                .set("tid", u64::from(s.thread))
                .set("args", args);
            e
        })
        .collect::<Vec<_>>();
    let mut doc = Json::obj();
    doc.set("traceEvents", events).set("displayTimeUnit", "ms");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Trace::attached();
        t.set_round(3);
        {
            let _outer = t.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = t.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.round, 3);
        let totals = self_times(&spans);
        let (_, outer_total, outer_self) = totals["outer"];
        let (_, inner_total, _) = totals["inner"];
        assert!((outer_total - outer_self - inner_total).abs() < 1.0);
        assert_eq!(
            chrome_trace(&spans)
                .get("traceEvents")
                .map(|e| e.as_arr().len()),
            Some(2)
        );
    }

    #[test]
    fn detached_trace_records_nothing() {
        let t = Trace::detached();
        drop(t.span("x"));
        assert!(t.spans().is_empty());
    }
}
