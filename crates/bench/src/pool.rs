//! A hand-rolled, std-only work-queue thread pool with deterministic
//! result collection.
//!
//! The workspace is offline (zero external crates), so this is the repo's
//! rayon substitute for the sweep binaries: jobs carry an index, workers
//! pull the next index from a shared injector (an atomic counter over the
//! job vector), and results are reassembled in index order. Because every
//! cell of a sweep is a pure function of its inputs and the output order
//! is fixed by the index, parallel output is **byte-identical** to serial
//! output for any `--jobs N` (see DESIGN.md §8 for the determinism
//! argument).
//!
//! A panicking job is caught with [`std::panic::catch_unwind`] and
//! surfaces as that cell's [`JobError`] without poisoning the pool: the
//! worker that caught it keeps pulling jobs, and every other cell still
//! completes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A job panicked; the payload message stands in for the cell's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobError {
    /// Index of the job that panicked.
    pub index: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `tasks` on up to `jobs` worker threads and returns the results in
/// task order.
///
/// Workers claim indices from a shared atomic injector, so cells are
/// load-balanced dynamically; the returned vector is indexed exactly like
/// `tasks`, independent of which worker ran which cell or in what order
/// cells finished. A panic in one task is returned as that slot's
/// [`JobError`]; the remaining tasks still run.
///
/// `jobs == 1` (or a single task) degenerates to serial execution on one
/// worker thread. Scoped threads are used, so tasks may borrow from the
/// caller's stack.
pub fn run<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<Result<T, JobError>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let injector: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, JobError>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let workers = jobs.max(1).min(n);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let task = injector[index]
                    .lock()
                    .expect("injector slot poisoned")
                    .take()
                    .expect("job claimed twice");
                let outcome = catch_unwind(AssertUnwindSafe(task)).map_err(|payload| JobError {
                    index,
                    message: panic_message(payload),
                });
                *slots[index].lock().expect("result slot poisoned") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("job result missing")
        })
        .collect()
}

/// Runs a named sweep through the pool, printing the
/// `dee_bench_pool_<name>` timing line, and unwraps every cell.
///
/// This is the entry point the sweep binaries use: a cell panic is a build
/// error there (workloads are validated before simulation), so it is
/// re-raised after all cells finish. The timing line goes to stderr to
/// keep stdout byte-deterministic.
///
/// # Panics
///
/// Re-raises the first cell panic, annotated with its index.
pub fn run_sweep<T, F>(name: &str, jobs: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let cells = tasks.len();
    let start = Instant::now();
    let results = run(jobs, tasks);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    eprintln!("dee_bench_pool_{name}: cells={cells} jobs={jobs} wall_ms={wall_ms:.1}");
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let tasks: Vec<_> = (0..64).map(|i| move || i * 2).collect();
        let got = run(8, tasks);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i * 2);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial: Vec<_> = run(1, (0..40).map(|i| move || i * i).collect::<Vec<_>>());
        let parallel: Vec<_> = run(7, (0..40).map(|i| move || i * i).collect::<Vec<_>>());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn panic_is_isolated_to_its_cell() {
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..10usize)
            .map(|i| {
                Box::new(move || {
                    assert!(i != 4, "cell four exploded");
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let got = run(3, tasks);
        for (i, r) in got.iter().enumerate() {
            if i == 4 {
                let err = r.as_ref().unwrap_err();
                assert_eq!(err.index, 4);
                assert!(err.message.contains("cell four exploded"), "{err}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn tasks_may_borrow_from_the_caller() {
        let data: Vec<u64> = (0..100).collect();
        let tasks: Vec<_> = data
            .chunks(7)
            .map(|chunk| move || chunk.iter().sum::<u64>())
            .collect();
        let total: u64 = run(4, tasks).into_iter().map(Result::unwrap).sum();
        assert_eq!(total, data.iter().sum::<u64>());
    }

    #[test]
    fn empty_task_list_is_fine() {
        let got: Vec<Result<u32, _>> = run(4, Vec::<fn() -> u32>::new());
        assert!(got.is_empty());
    }
}
