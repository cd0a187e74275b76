//! In-memory span recorder, used only by this benchmark.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer's public functions; no crate of the workspace is instrumented.
//! Spans nest by call order on one thread (a stack of open spans gives
//! each new span its parent), stay in memory while the pass runs, and are
//! aggregated when it ends. A layer's self time is its span minus the
//! spans of its direct children.
//!
//! When recording is off, [`span`] reads no clock and stores nothing, so
//! the untraced pass that yields the end-to-end metrics carries no
//! tracing cost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name, `<layer>.<operation>`.
    pub name: &'static str,
    /// Index of the enclosing span in the record list.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was enabled.
    pub start_ns: u64,
    /// End, ns since the recorder was enabled.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread (discarding anything recorded before).
pub fn enable() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stop recording and return every span recorded since [`enable`].
pub fn take() -> Vec<SpanRec> {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// An open span; it closes when dropped.
pub struct Guard {
    idx: Option<usize>,
}

/// Open a span named `name` (no-op when recording is off).
pub fn span(name: &'static str) -> Guard {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let now = rec.t0.elapsed().as_nanos() as u64;
        let idx = rec.spans.len();
        rec.spans.push(SpanRec {
            name,
            parent: rec.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        rec.open.push(idx);
        Some(idx)
    });
    Guard { idx }
}

/// Run `f` inside a span.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = span(name);
    f()
}

impl Guard {
    /// Rename the open span, for calls whose kind is known only once
    /// they return.
    pub fn rename(&self, name: &'static str) {
        let Some(idx) = self.idx else { return };
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].name = name;
            }
        });
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let now = rec.t0.elapsed().as_nanos() as u64;
                rec.spans[idx].end_ns = now;
                // Guards drop in reverse open order, so `idx` is on top.
                if rec.open.last() == Some(&idx) {
                    rec.open.pop();
                }
            }
        });
    }
}

/// Per-name aggregate of a span list.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
    /// Every duration, ns, in record order (for medians).
    pub durs_ns: Vec<u64>,
}

impl Agg {
    /// Mean duration in ms (0 when there were no spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }

    /// Median duration in µs.
    pub fn median_us(&self) -> f64 {
        let v: Vec<f64> = self.durs_ns.iter().map(|&d| d as f64 / 1e3).collect();
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    }

    /// Median duration in ms.
    pub fn median_ms(&self) -> f64 {
        self.median_us() / 1e3
    }
}

/// Aggregate spans by name, with self time.
pub fn aggregate(spans: &[SpanRec]) -> BTreeMap<&'static str, Agg> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        a.durs_ns.push(s.dur_ns());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> SpanRec {
        SpanRec {
            name,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            rec("step", None, 0, 100),
            rec("fwd", Some(0), 10, 40),
            rec("conv", Some(1), 15, 35),
            rec("bwd", Some(0), 40, 90),
        ];
        let a = aggregate(&spans);
        assert_eq!(a["step"].self_ns, 100 - 30 - 50);
        assert_eq!(a["fwd"].self_ns, 30 - 20);
        assert_eq!(a["conv"].self_ns, 20);
        assert_eq!(a["bwd"].total_ns, 50);
    }

    #[test]
    fn recorder_nests_by_call_order_and_is_inert_when_off() {
        {
            let _g = span("ignored");
        }
        assert!(take().is_empty());
        enable();
        {
            let _outer = span("outer");
            timed("inner", || ());
            timed("inner", || ());
        }
        let spans = take();
        assert!(take().is_empty(), "take stops recording");
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(aggregate(&spans)["inner"].count, 2);
    }
}
