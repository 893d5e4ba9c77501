//! Allocation-budget regression tests for the generation hot path.
//!
//! A counting global allocator measures how many heap allocations one
//! sequential pipeline run performs per generated sample, plus the peak
//! live-heap growth over the counted window; how many one
//! `ExecContext::new` performs on a wide table; and how many one mined-bank
//! build performs. The count budgets below are ratchets: each was recorded
//! at ~10% above the measured cost, so a change that re-introduces
//! per-sample clones (e.g. rebuilding candidate vectors or `ExecContext`
//! caches inside the attempt loop), a context cache that allocates per
//! cell, or a set-up that allocates per attempt, fails here before it shows
//! up as a bench regression. Peak bytes are reported alongside the count in the failure
//! message (and under `ALLOC_BUDGET_PRINT=1 ... -- --nocapture`) but are
//! not gated: peak live heap scales with the retained sample vector, so an
//! absolute byte ratchet would fire on workload-size tweaks rather than
//! hot-path regressions. If you *lowered* an allocation cost, re-record
//! its budget by running these tests with `ALLOC_BUDGET_PRINT=1` and
//! pinning ~10% above the printed figure.

// Integration-test helpers run outside #[cfg(test)], so the clippy.toml test exemption does not reach them.
#![allow(clippy::panic)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use nlgen::NoiseConfig;
use tabular::{ExecContext, Table};
use uctr::{TableWithContext, UctrConfig, UctrPipeline};

/// Maximum allocations per generated sample (see module docs to re-record).
const MAX_ALLOCS_PER_SAMPLE: u64 = 35; // measured 32/sample (1489 / 48), +10%

/// Maximum allocations of one `ExecContext::new` over [`wide_table`].
const MAX_CONTEXT_ALLOCS: u64 = 199; // measured 181, +10%

/// Maximum allocations of one `uctr::mined_bank(SYNTHETIC_SEED)` build:
/// the set-up every mined-bank pipeline pays before its first sample.
const MAX_MINED_BANK_ALLOCS: u64 = 168_713; // measured 153,376, +10%

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Live-heap delta since counting started. Signed: frees of memory that
/// predates the counted window legitimately drive it negative.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`LIVE_BYTES`] over the counted window.
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Armed only on the thread inside [`counted`]: libtest runs the tests
    /// on threads of their own at the same time, and their allocations
    /// must not land in another test's window. `const`-initialised with no
    /// destructor, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

fn track_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    track_grow(bytes as i64);
}

fn track_grow(delta: i64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            track_alloc(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            track_grow(new_size as i64 - layout.size() as i64);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            track_alloc(layout.size());
        }
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The counters are process-wide, so each test holds this lock for its
/// whole body: no two counted windows overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` in a counted window on this thread: its result, its allocation
/// count, and its peak live-heap growth in bytes. `f` must not hand work to
/// other threads, whose allocations the window does not see.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    LIVE_BYTES.store(0, Ordering::SeqCst);
    PEAK_BYTES.store(0, Ordering::SeqCst);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    let peak = PEAK_BYTES.load(Ordering::SeqCst).max(0) as u64;
    (out, ALLOCS.load(Ordering::SeqCst), peak)
}

fn inputs() -> Vec<TableWithContext> {
    let teams = Table::from_strings(
        "Teams",
        &[
            vec!["team", "city", "points", "wins"],
            vec!["Reds", "Oslo", "77", "21"],
            vec!["Blues", "Lima", "64", "18"],
            vec!["Greens", "Kyiv", "81", "24"],
            vec!["Golds", "Quito", "59", "15"],
        ],
    )
    .unwrap_or_else(|e| panic!("test table: {e}"));
    let budgets = Table::from_strings(
        "Budgets",
        &[
            vec!["department", "2019", "2018"],
            vec!["Revenue", "8800", "8000"],
            vec!["Costs", "6100", "5900"],
            vec!["Equity", "3200", "4000"],
        ],
    )
    .unwrap_or_else(|e| panic!("test table: {e}"));
    vec![
        TableWithContext {
            table: teams.into(),
            paragraph: Some(
                "The league expanded recently. Silvers has a city of Rome, a points of 70 \
                 and a wins of 19. Attendance rose."
                    .to_string(),
            ),
            topic: "sports".into(),
        },
        TableWithContext {
            table: budgets.into(),
            paragraph: Some("Margins has a 2019 of 2700 and a 2018 of 2100.".to_string()),
            topic: "finance".into(),
        },
    ]
}

/// A 2,000 × 14 table shaped like the benchmark's wide tables: an entity
/// name, a region, then 12 numeric columns with about one empty cell in 16.
/// The content is a fixed formula of the row and column.
fn wide_table() -> Table {
    const REGIONS: [&str; 5] = ["North", "South", "East", "West", "Central"];
    let mut header = vec!["name".to_string(), "region".to_string()];
    header.extend((0..12).map(|c| format!("metric {c}")));
    let mut grid = vec![header];
    for r in 0..2_000usize {
        let mut row = vec![format!("entity {r}"), REGIONS[r % REGIONS.len()].to_string()];
        row.extend((0..12usize).map(|c| {
            if (r * 12 + c) % 16 == 0 {
                String::new()
            } else {
                ((r * 7_919 + c * 104_729) % 10_000).to_string()
            }
        }));
        grid.push(row);
    }
    let grid: Vec<Vec<&str>> =
        grid.iter().map(|row| row.iter().map(String::as_str).collect()).collect();
    Table::from_strings("wide", &grid).unwrap_or_else(|e| panic!("wide table: {e}"))
}

#[test]
fn allocations_per_sample_stay_within_budget() {
    let _serial = serial();
    let cfg = UctrConfig { noise: NoiseConfig::off(), ..UctrConfig::qa() };
    let pipeline = UctrPipeline::new(cfg);
    let data = inputs();

    // Warm-up run outside the counted window: template banks, lazily built
    // vocabularies, and other one-time setup must not bill the hot path.
    let warm = pipeline.generate(&data);
    assert!(!warm.is_empty(), "warm-up produced no samples");

    let (samples, allocs, peak) = counted(|| pipeline.generate(&data));

    let n = samples.len() as u64;
    assert!(n > 0, "counted run produced no samples");
    let per_sample = allocs.div_ceil(n);
    let peak_per_sample = peak.div_ceil(n);
    if std::env::var_os("ALLOC_BUDGET_PRINT").is_some() {
        eprintln!(
            "alloc budget: {allocs} allocations / {n} samples = {per_sample} per sample, \
             peak live heap {peak} bytes ({peak_per_sample} bytes/sample)"
        );
    }
    assert!(
        per_sample <= MAX_ALLOCS_PER_SAMPLE,
        "allocation budget exceeded: {per_sample} allocations per sample \
         (budget {MAX_ALLOCS_PER_SAMPLE}), peak live heap {peak} bytes \
         ({peak_per_sample} bytes/sample); see module docs for how to re-record"
    );
}

#[test]
fn context_build_allocations_stay_within_budget() {
    let _serial = serial();
    let table = wide_table();
    let (ctx, allocs, peak) = counted(|| ExecContext::new(&table));
    assert_eq!((ctx.n_rows(), ctx.n_cols()), (2_000, 14));
    if std::env::var_os("ALLOC_BUDGET_PRINT").is_some() {
        eprintln!("context build: {allocs} allocations, peak live heap {peak} bytes");
    }
    assert!(
        allocs <= MAX_CONTEXT_ALLOCS,
        "context build allocated {allocs} times on a 2,000 x 14 table (budget \
         {MAX_CONTEXT_ALLOCS}), peak live heap {peak} bytes; see module docs for how to \
         re-record"
    );
}

#[test]
fn mined_bank_build_allocations_stay_within_budget() {
    let _serial = serial();
    let (bank, allocs, peak) = counted(|| uctr::mined_bank(uctr::mining::SYNTHETIC_SEED));
    assert!(bank.len() >= 1000, "mined bank holds only {} templates", bank.len());
    if std::env::var_os("ALLOC_BUDGET_PRINT").is_some() {
        eprintln!("mined bank build: {allocs} allocations, peak live heap {peak} bytes");
    }
    assert!(
        allocs <= MAX_MINED_BANK_ALLOCS,
        "one mined-bank build allocated {allocs} times (budget {MAX_MINED_BANK_ALLOCS}), peak \
         live heap {peak} bytes; see module docs for how to re-record"
    );
}
