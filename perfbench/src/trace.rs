//! Allocation-free span recording and self-time accounting.
//!
//! Each thread that traces installs its own [`Recorder`], whose span
//! buffer is preallocated before the timed phase; recording a span then
//! touches only that thread's buffer (no locks, no allocation). A full
//! buffer drops further spans and counts them. Without an installed
//! recorder, [`span`] costs one thread-local check.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::OnceLock;
use std::time::Instant;

/// The layer boundary a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One generated query, from send to return (the root span).
    Query,
    /// `Service::query`.
    SvcQuery,
    /// `Service::delete_one`.
    SvcDelete,
    /// `AllocatorBackend::malloc` (includes the first write).
    BackendMalloc,
    /// `AllocatorBackend::free`.
    BackendFree,
    /// `AllocatorBackend::access`.
    BackendAccess,
    /// `HermesHeap::allocate`, called directly.
    RtAllocate,
    /// `HermesHeap::deallocate`, called directly.
    RtDeallocate,
}

impl Kind {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Query => "query",
            Kind::SvcQuery => "svc.query",
            Kind::SvcDelete => "svc.delete",
            Kind::BackendMalloc => "backend.malloc",
            Kind::BackendFree => "backend.free",
            Kind::BackendAccess => "backend.access",
            Kind::RtAllocate => "rt.allocate",
            Kind::RtDeallocate => "rt.deallocate",
        }
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the process's trace
/// epoch; `parent` indexes the same thread's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start time.
    pub start: u64,
    /// End time (equal to `start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Query the span belongs to.
    pub query: u32,
    /// Which boundary.
    pub kind: Kind,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Nanoseconds since the process's trace epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Maximum span nesting depth tracked per thread.
const MAX_DEPTH: usize = 8;
/// Free slots a new root span needs; with less, the recorder closes.
const ROOT_HEADROOM: usize = 1024;

/// A thread's span buffer.
#[derive(Debug)]
pub struct Recorder {
    spans: Vec<Span>,
    stack: [u32; MAX_DEPTH],
    depth: usize,
    query: u32,
    dropped: u64,
    closed: bool,
}

impl Recorder {
    /// A recorder holding up to `capacity` spans, allocated now.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            spans: Vec::with_capacity(capacity),
            stack: [NO_PARENT; MAX_DEPTH],
            depth: 0,
            query: 0,
            dropped: 0,
            closed: false,
        }
    }

    fn begin(&mut self, kind: Kind, t: u64) -> u32 {
        let parent = if self.depth == 0 {
            NO_PARENT
        } else {
            self.stack[self.depth - 1]
        };
        if self.depth == 0 && self.spans.capacity() - self.spans.len() < ROOT_HEADROOM {
            // Too little room for another whole tree: stop tracing here
            // rather than keep partial trees.
            self.closed = true;
        }
        let idx = if self.closed {
            NO_PARENT
        } else if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                start: t,
                end: t,
                parent,
                query: self.query,
                kind,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        if self.depth < MAX_DEPTH {
            self.stack[self.depth] = idx;
        }
        self.depth += 1;
        idx
    }

    fn end(&mut self, idx: u32, t: u64) {
        self.depth = self.depth.saturating_sub(1);
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end = t;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `true` once the buffer filled up and recording stopped.
    pub fn closed(&self) -> bool {
        self.closed
    }

    /// Nested spans that did not fit the preallocated buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a recorder of `capacity` spans on the calling thread.
pub fn install(capacity: usize) {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::with_capacity(capacity)));
}

/// Removes and returns the calling thread's recorder.
pub fn take() -> Option<Recorder> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Tags the calling thread's subsequent spans with query `q`.
pub fn set_query(q: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.query = q;
        }
    });
}

/// Runs `f` inside a span of `kind` when the calling thread has a
/// recorder; otherwise just runs `f`.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let idx = RECORDER.with(|r| r.borrow_mut().as_mut().map(|rec| rec.begin(kind, now_ns())));
    let out = f();
    if let Some(idx) = idx {
        let t = now_ns();
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.end(idx, t);
            }
        });
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once, and
/// children are clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| (s.parent, s.start, s.end))
        .collect();
    kids.sort_unstable();
    let mut out: Vec<u64> = spans.iter().map(Span::dur).collect();
    let mut i = 0;
    while i < kids.len() {
        let p = kids[i].0 as usize;
        let (lo, hi) = spans.get(p).map_or((0, 0), |s| (s.start, s.end));
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        while i < kids.len() && kids[i].0 as usize == p {
            let (s, e) = (kids[i].1.max(lo), kids[i].2.min(hi));
            i += 1;
            if s >= e {
                continue;
            }
            cur = match cur {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        if let Some(o) = out.get_mut(p) {
            *o = o.saturating_sub(covered);
        }
    }
    out
}

/// Writes spans as tab-separated lines: `thread id name start_ns end_ns
/// parent query` (parent `-` for a root).
pub fn write_tsv(w: &mut impl Write, thread: &str, spans: &[Span]) -> io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{thread}\t{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.kind.name(),
            s.start,
            s.end,
            s.query
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(kind: Kind, start: u64, end: u64, parent: u32) -> Span {
        Span {
            start,
            end,
            parent,
            query: 0,
            kind,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // query [0,100) > svc.query [10,90) > backend.malloc [20,50)
        let spans = [
            sp(Kind::Query, 0, 100, NO_PARENT),
            sp(Kind::SvcQuery, 10, 90, 0),
            sp(Kind::BackendMalloc, 20, 50, 1),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].dur(), "self times partition the root");
    }

    #[test]
    fn back_to_back_children_both_subtract() {
        let spans = [
            sp(Kind::SvcQuery, 0, 100, NO_PARENT),
            sp(Kind::BackendMalloc, 10, 40, 0),
            sp(Kind::BackendMalloc, 40, 70, 0),
            sp(Kind::BackendAccess, 70, 75, 0),
        ];
        assert_eq!(self_times(&spans), vec![35, 30, 30, 5]);
    }

    #[test]
    fn overlapping_and_escaping_children_count_once() {
        let spans = [
            sp(Kind::SvcQuery, 10, 100, NO_PARENT),
            sp(Kind::RtDeallocate, 0, 30, 0),
            sp(Kind::RtDeallocate, 20, 50, 0),
            sp(Kind::RtDeallocate, 90, 120, 0),
        ];
        // Covered: [10,50) and [90,100) = 50 of 90.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_and_tags_queries_without_growing() {
        install(ROOT_HEADROOM + 3);
        set_query(7);
        span(Kind::Query, || {
            span(Kind::SvcQuery, || {
                span(Kind::BackendMalloc, || ());
                span(Kind::BackendFree, || ());
            });
        });
        // The buffer now has fewer free slots than a root needs.
        span(Kind::Query, || span(Kind::SvcQuery, || ()));
        let rec = take().expect("installed");
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(rec.dropped(), 0);
        assert!(rec.closed(), "second tree did not start");
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (NO_PARENT, 0, 1, 1)
        );
        assert!(s.iter().all(|x| x.query == 7 && x.end >= x.start));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(s[2].end <= s[3].start, "siblings back to back");
        assert!(take().is_none());
        assert_eq!(span(Kind::Query, || 5), 5, "untraced span still runs");
    }

    #[test]
    fn tsv_lines_name_parents() {
        let spans = [
            sp(Kind::Query, 0, 9, NO_PARENT),
            sp(Kind::SvcDelete, 1, 2, 0),
        ];
        let mut out = Vec::new();
        write_tsv(&mut out, "load", &spans).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "load\t0\tquery\t0\t9\t-\t0\nload\t1\tsvc.delete\t1\t2\t0\t0\n"
        );
    }
}
