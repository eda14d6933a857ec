//! In-memory span tracing for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into the program's layers. A span's layer is its name up to the first
//! `.` (`core.build` belongs to `core`). Spans live in memory and are
//! written out as JSON lines when the run ends. With tracing disabled,
//! [`enter`] returns an inert guard and reads no clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the process's trace
/// epoch; `parent` is 0 for a root span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Shared by every span of one session, shard, request or experiment.
    pub group: u64,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn store() -> &'static Mutex<Vec<Span>> {
    static SPANS: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closes (and is recorded) when dropped.
pub struct Guard(Option<(u64, u64, &'static str, u64, u64)>);

/// Opens a span named `name` for `group`, nested under the innermost
/// open span of this thread.
pub fn enter(name: &'static str, group: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    let start = epoch().elapsed().as_nanos() as u64;
    Guard(Some((id, parent, name, group, start)))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, group, start)) = self.0.take() {
            let end = epoch().elapsed().as_nanos() as u64;
            OPEN.with(|open| open.borrow_mut().pop());
            // A poisoned store loses the span rather than panicking in drop.
            if let Ok(mut spans) = store().lock() {
                spans.push(Span {
                    id,
                    parent,
                    name,
                    group,
                    start,
                    end,
                });
            }
        }
    }
}

/// Runs `f` inside a span.
pub fn timed<T>(name: &'static str, group: u64, f: impl FnOnce() -> T) -> T {
    let _span = enter(name, group);
    f()
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *store().lock().expect("span store"))
}

/// Self time per layer: each span's duration minus the part of its
/// interval covered by its children. Over properly nested spans the
/// layers' self times sum to the root spans' durations.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |kids| {
            kids.sort_unstable();
            // Union of the children's intervals clipped to the parent.
            let (mut total, mut reach) = (0, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    total += b - a;
                    reach = b;
                }
            }
            total
        });
        *out.entry(s.layer()).or_insert(0) += s.dur() - covered.min(s.dur());
    }
    out
}

/// Sum of root-span durations.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent == 0).map(Span::dur).sum()
}

/// Writes spans as JSON lines to `path` (best effort: a trace that cannot
/// be written is reported on stderr and does not fail the run).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","group":{},"start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.name, s.group, s.start, s.end
            )?;
        }
        out.flush()
    };
    if let Err(e) = write() {
        eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            group: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_roots() {
        let spans = vec![
            span(1, 0, "bench.session", 0, 100),
            span(2, 1, "core.build", 10, 30),
            span(3, 1, "core.step", 30, 80),
            span(4, 3, "core.finish", 40, 50),
            span(5, 0, "bench.session", 200, 210),
        ];
        let by_layer = self_ns_by_layer(&spans);
        assert_eq!(by_layer["bench"], 30 + 10);
        assert_eq!(by_layer["core"], 20 + 40 + 10);
        assert_eq!(by_layer.values().sum::<u64>(), root_ns(&spans));
    }

    #[test]
    fn recorded_spans_nest() {
        set_enabled(true);
        {
            let _outer = enter("bench.test", 7);
            timed("core.inner", 7, || std::hint::black_box(1 + 1));
        }
        set_enabled(false);
        let spans: Vec<Span> = take().into_iter().filter(|s| s.group == 7).collect();
        let outer = spans.iter().find(|s| s.name == "bench.test").unwrap();
        let inner = spans.iter().find(|s| s.name == "core.inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        let by_layer = self_ns_by_layer(&spans);
        assert_eq!(by_layer.values().sum::<u64>(), root_ns(&spans));
    }
}
