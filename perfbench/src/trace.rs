//! Spans recorded from the benchmark's own files around each call into a
//! layer of the program.
//!
//! A span holds its name, start, end, parent and thread, plus the number of
//! calls it covers: where one call is shorter than the timer's own cost a
//! span wraps a run of calls of one kind.  Spans stay in a per-thread buffer
//! and are written out when the run ends.  Recording is off unless the run
//! was started with `--trace 1`; an off span costs one relaxed load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

const NONE: u32 = u32::MAX;

static ON: AtomicBool = AtomicBool::new(false);
static T0: OnceLock<Instant> = OnceLock::new();

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same thread's buffer, or `NONE`.
    pub parent: u32,
    pub calls: u32,
    pub thread: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Default)]
struct Buf {
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static BUF: RefCell<Buf> = RefCell::new(Buf::default());
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    now_ns();
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; closes when dropped.
pub struct Guard {
    idx: u32,
}

/// Opens a span named `name` under the innermost open span of this thread.
#[inline]
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { idx: NONE };
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let parent = b.stack.last().copied().unwrap_or(NONE);
        let idx = b.spans.len() as u32;
        b.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent,
            calls: 1,
            thread: 0,
        });
        b.stack.push(idx);
        Guard { idx }
    })
}

impl Guard {
    /// Records that this span covers `n` calls of its kind.
    pub fn calls(&self, n: usize) {
        if self.idx != NONE {
            BUF.with(|b| b.borrow_mut().spans[self.idx as usize].calls = n as u32);
        }
    }

    /// Renames the span, for calls whose kind is known only from their
    /// result.
    pub fn rename(&self, name: &'static str) {
        if self.idx != NONE {
            BUF.with(|b| b.borrow_mut().spans[self.idx as usize].name = name);
        }
    }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if self.idx != NONE {
            let t = now_ns();
            BUF.with(|b| {
                let mut b = b.borrow_mut();
                b.spans[self.idx as usize].end = t;
                b.stack.pop();
            });
        }
    }
}

/// Takes this thread's spans, tagging them with `thread`.
pub fn take(thread: u32) -> Vec<Span> {
    BUF.with(|b| {
        let mut spans = std::mem::take(&mut b.borrow_mut().spans);
        for s in &mut spans {
            s.thread = thread;
        }
        spans
    })
}

/// Per-name totals over a set of spans.
#[derive(Default)]
pub struct Totals {
    /// name → (total ns, total calls)
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
}

impl Totals {
    pub fn of(spans: &[Span]) -> Self {
        let mut by_name = BTreeMap::new();
        for s in spans {
            let e = by_name.entry(s.name).or_insert((0u64, 0u64));
            e.0 += s.ns();
            e.1 += s.calls as u64;
        }
        Totals { by_name }
    }

    /// Mean ns per call of `name` (0 when it never ran).
    pub fn per_call(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some(&(ns, calls)) if calls > 0 => ns as f64 / calls as f64,
            _ => 0.0,
        }
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }
}

/// Self time per span name on one thread, plus the wall time no span
/// covers.  Self times and the remainder sum to the wall time exactly.
pub struct Attribution {
    pub wall_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
    pub unattributed_ns: u64,
}

/// Attributes the wall interval `[start, end]` of one thread's `spans`
/// (indices as recorded, parents within the same buffer).
pub fn attribute(spans: &[Span], start: u64, end: u64) -> Attribution {
    let mut child_ns = vec![0u64; spans.len()];
    let mut top_ns = 0u64;
    for s in spans {
        if s.parent == NONE {
            top_ns += s.ns();
        } else {
            child_ns[s.parent as usize] += s.ns();
        }
    }
    let mut self_ns = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child_ns) {
        *self_ns.entry(s.name).or_insert(0) += s.ns().saturating_sub(*c);
    }
    let wall_ns = end - start;
    Attribution {
        wall_ns,
        self_ns,
        unattributed_ns: wall_ns.saturating_sub(top_ns),
    }
}

/// Writes `spans` as tab-separated lines (thread, index, parent, name,
/// start ns, end ns, calls) to `path`.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tindex\tparent\tname\tstart_ns\tend_ns\tcalls")?;
    let mut index = 0usize;
    let mut last_thread = u32::MAX;
    for s in spans {
        if s.thread != last_thread {
            index = 0;
            last_thread = s.thread;
        }
        let parent = if s.parent == NONE {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.thread, index, parent, s.name, s.start, s.end, s.calls
        )?;
        index += 1;
    }
    w.flush()
}
