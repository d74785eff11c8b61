//! Counting instrumentation that lives only in the benchmark binary: a
//! thread-local counting allocator, an atomic counting wrapper around any
//! [`CostModel`], and an in-memory span recorder.

use lec_cost::{CostModel, JoinMethod};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Forwards to the system allocator and counts allocation calls made by the
/// *calling thread* only, so a helper thread can never leak counts into the
/// measuring thread's figures.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only during thread teardown, when nothing is measured.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Heap allocations (including reallocations) made so far by this thread.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` without a destructor, so touching it never allocates
// or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` come from `System` (see `dealloc`), and the
        // caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A [`CostModel`] wrapper that forwards every trait method, fused kernels
/// included, to the wrapped model and counts the calls. Forwarding the fused
/// kernels keeps the priced path exactly the wrapped model's.
#[derive(Debug, Default)]
pub struct CountingCost<M> {
    inner: M,
    /// `expected_join_step(s)` and `expected_sort_step` calls.
    steps: AtomicU64,
    /// `join_cost` and `sort_cost` calls.
    formulas: AtomicU64,
}

/// A snapshot of [`CountingCost`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostCounts {
    pub step_calls: u64,
    pub formula_evals: u64,
}

impl<M> CountingCost<M> {
    pub fn new(inner: M) -> Self {
        CountingCost {
            inner,
            steps: AtomicU64::new(0),
            formulas: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> CostCounts {
        // Relaxed: plain statistics that publish no other data.
        CostCounts {
            step_calls: self.steps.load(Ordering::Relaxed),
            formula_evals: self.formulas.load(Ordering::Relaxed),
        }
    }

    fn step(&self) {
        self.steps.fetch_add(1, Ordering::Relaxed);
    }

    fn formula(&self) {
        self.formulas.fetch_add(1, Ordering::Relaxed);
    }
}

impl<M: CostModel> CostModel for CountingCost<M> {
    fn join_cost(&self, method: JoinMethod, l: f64, r: f64, m: f64) -> f64 {
        self.formula();
        self.inner.join_cost(method, l, r, m)
    }

    fn sort_cost(&self, pages: f64, memory: f64) -> f64 {
        self.formula();
        self.inner.sort_cost(pages, memory)
    }

    fn join_breakpoints(&self, method: JoinMethod, l: f64, r: f64) -> Vec<f64> {
        self.inner.join_breakpoints(method, l, r)
    }

    fn sort_breakpoints(&self, pages: f64) -> Vec<f64> {
        self.inner.sort_breakpoints(pages)
    }

    fn expected_join_step(
        &self,
        method: JoinMethod,
        l: f64,
        r: f64,
        out: f64,
        values: &[f64],
        probs: &[f64],
    ) -> f64 {
        self.step();
        self.inner
            .expected_join_step(method, l, r, out, values, probs)
    }

    fn expected_join_steps(
        &self,
        l: f64,
        r: f64,
        out: f64,
        values: &[f64],
        probs: &[f64],
    ) -> [f64; 3] {
        self.step();
        self.inner.expected_join_steps(l, r, out, values, probs)
    }

    fn expected_sort_step(&self, pages: f64, values: &[f64], probs: &[f64]) -> f64 {
        self.step();
        self.inner.expected_sort_step(pages, values, probs)
    }
}

/// One recorded call into a layer of the program.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request id shared by every span of one request.
    pub request: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Keeps spans in memory while tracing is on; a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; the closure receives the new
    /// span's index so calls it makes can name it as their parent.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce(&mut Self, Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, None);
        }
        let idx = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let out = f(self, Some(idx));
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Per span name: (calls, total self time in ns). Self time is a span's
    /// duration minus the durations of its direct children.
    pub fn self_times(&self) -> std::collections::BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::collections::BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_insert((0u64, 0u64));
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `index name request parent start_ns end_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\trequest\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
