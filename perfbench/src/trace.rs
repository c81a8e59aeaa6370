//! Host-time spans recorded around the benchmark's own calls into the
//! program: setup calls, the call into `run`, and every benchmark callback
//! the program invokes (issue functions, completion continuations,
//! registered actions).
//!
//! Spans live in a thread-local buffer that is empty and inert unless a
//! traced repetition turned it on; the untraced repetitions pay one
//! thread-local flag read per span site. Every span records its name,
//! start, end and parent, and the spans of one op share the op's id. The
//! buffer is kept in memory and written out when the run ends.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Op id of a span that belongs to no single op.
pub const NO_OP: u64 = u64::MAX;

/// One closed span. Times are nanoseconds since the buffer was enabled.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Span name, `layer.call` style.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The op this span belongs to, or [`NO_OP`].
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

struct Buffer {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static BUF: RefCell<Option<Buffer>> = const { RefCell::new(None) };
}

/// Start recording into a fresh, empty buffer.
pub fn enable() {
    BUF.with(|b| {
        *b.borrow_mut() = Some(Buffer {
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
    ON.with(|on| on.set(true));
}

/// Stop recording and hand back every span recorded since [`enable`].
pub fn take() -> Vec<Span> {
    ON.with(|on| on.set(false));
    BUF.with(|b| b.borrow_mut().take())
        .map(|buf| {
            assert!(buf.open.is_empty(), "span left open");
            buf.spans
        })
        .unwrap_or_default()
}

/// An open span; closes when dropped. Inert when recording is off.
pub struct Guard(Option<u32>);

/// Open a span named `name` for op `op` (use [`NO_OP`] for none). The
/// innermost open span becomes its parent.
#[inline]
pub fn span(name: &'static str, op: u64) -> Guard {
    if !ON.with(Cell::get) {
        return Guard(None);
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let buf = b.as_mut().expect("trace buffer");
        let now = buf.base.elapsed().as_nanos() as u64;
        let idx = buf.spans.len() as u32;
        let parent = buf.open.last().copied().unwrap_or(NO_PARENT);
        buf.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            op,
        });
        buf.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        let Some(idx) = self.0 else {
            return;
        };
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            let buf = b.as_mut().expect("trace buffer");
            let now = buf.base.elapsed().as_nanos() as u64;
            assert_eq!(buf.open.pop(), Some(idx), "spans closed out of order");
            buf.spans[idx as usize].end = now;
        });
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children never overlap: one thread records them).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.dur();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// Durations of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

/// Write `spans` as CSV (`id,parent,op,name,start_ns,end_ns`; parent and
/// op are empty for roots and op-less spans).
pub fn write_csv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,op,name,start_ns,end_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            String::new()
        } else {
            s.parent.to_string()
        };
        let op = if s.op == NO_OP {
            String::new()
        } else {
            s.op.to_string()
        };
        writeln!(out, "{i},{parent},{op},{},{},{}", s.name, s.start, s.end)?;
    }
    out.flush()
}
