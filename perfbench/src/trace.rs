//! Tracing for the `--trace 1` run. The benchmark records a span around
//! each call it makes into a layer (name, start, end, parent span and —
//! for serve_hot requests — a request id). It also installs the program's
//! existing opt-in `mbt_obs` recorder, whose phase spans (list compile,
//! sweep, FMM sweep, ...) it totals per phase. Nothing is written while
//! the run measures; the spans are written out once at the end.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use mbt_obs::{Phase, Recorder, Span};

/// Spans kept in memory; later ones are counted as dropped.
const MAX_SPANS: usize = 1 << 18;

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The benchmark-side span recorder; inert until [`Tracer::enable`].
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    dropped: AtomicU64,
}

thread_local! {
    static THREAD: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    /// A disabled tracer.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Starts recording, and installs the program-side phase recorder.
    pub fn enable(&self) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .reserve(MAX_SPANS);
        mbt_obs::install_global(phases());
        self.on.store(true, Ordering::Release);
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Acquire)
    }

    /// A fresh id for a request or span.
    #[must_use]
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent nested spans. When disabled this is a plain call.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled() {
            return f(0);
        }
        let id = self.next_id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let rec = SpanRec {
            id,
            parent,
            request,
            name,
            thread: THREAD.with(|t| *t),
            start_ns: ns(start.saturating_duration_since(self.t0)),
            end_ns: ns(end.saturating_duration_since(self.t0)),
        };
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() < MAX_SPANS {
            spans.push(rec);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn recorded(&self) -> usize {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Writes every span — the benchmark's own and the program's phase
    /// spans — as Chrome trace-event JSON.
    pub fn write_chrome_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::with_capacity(spans.len() * 160 + 64);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for s in spans.iter() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
                s.id,
                s.parent,
                s.request
            );
        }
        // program phase spans are timed from the obs epoch, not t0
        let epoch = mbt_obs::epoch();
        let shift = if epoch >= self.t0 {
            ns(epoch - self.t0) as f64
        } else {
            -(ns(self.t0 - epoch) as f64)
        };
        for s in phases().spans() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"program\",\"ph\":\"X\",\"pid\":2,\"tid\":0,\
                 \"ts\":{:.3},\"dur\":{:.3}}}",
                s.phase.as_str(),
                (s.start_ns as f64 + shift) * 1e-3,
                s.dur_ns as f64 * 1e-3
            );
        }
        let _ = write!(
            out,
            "\n],\"dropped\":{}}}\n",
            self.dropped.load(Ordering::Relaxed) + phases().dropped.load(Ordering::Relaxed)
        );
        std::fs::write(path, out)
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-phase totals of the program's own `mbt_obs` spans, plus a bounded
/// copy of the spans for the trace file.
pub struct PhaseTotals {
    total_ns: [AtomicU64; Phase::ALL.len()],
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl PhaseTotals {
    /// Total ns of the `phase` spans recorded so far.
    #[must_use]
    pub fn total_ns(&self, phase: Phase) -> u64 {
        self.total_ns[phase.index() as usize].load(Ordering::Relaxed)
    }

    fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Recorder for PhaseTotals {
    fn record(&self, span: Span) {
        let i = span.phase.index() as usize;
        self.total_ns[i].fetch_add(span.dur_ns, Ordering::Relaxed);
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() < spans.capacity() {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The process-wide phase recorder (installed by [`Tracer::enable`]).
pub fn phases() -> &'static PhaseTotals {
    static TOTALS: std::sync::OnceLock<PhaseTotals> = std::sync::OnceLock::new();
    TOTALS.get_or_init(|| PhaseTotals {
        total_ns: std::array::from_fn(|_| AtomicU64::new(0)),
        spans: Mutex::new(Vec::with_capacity(MAX_SPANS)),
        dropped: AtomicU64::new(0),
    })
}
